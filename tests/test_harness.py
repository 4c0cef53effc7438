"""Campaign driver, crash deduplication, and differential verdicts,
exercised with stub compilers so no system toolchain is needed."""

import hashlib
import json
import os
import subprocess
from pathlib import Path

import pytest

from spe.harness import (
    CompilerSpec,
    ConfigError,
    MAX_TIMEOUT_S,
    ToolchainConfig,
    differential_verdict,
    normalize_signature,
    read_log,
    run_campaign,
)

from conftest import CRASH_STUB, EVIL_STUB, LOOP_SRC, OK_STUB, write_stub

ICE_LINE = "internal compiler error: in assign_by_spills, at lra-assigns.c:1281"

STRAIGHT_SRC = """\
int main(void) {
    int a;
    int b;
    a = 3;
    b = a;
    return b;
}
"""

# recursion deeper than the interpreter's frame budget
RECURSE_SRC = """\
int f(int n) {
    if (n) {
        return f(n - 1) + 1;
    }
    return 0;
}

int main(void) {
    return f(150);
}
"""


class TestNormalizeSignature:
    def test_ice_line(self):
        assert (
            normalize_signature(ICE_LINE, 1)
            == "internal compiler error: in assign_by_spills, at lra-assigns.c:#"
        )

    def test_line_numbers_do_not_matter(self):
        mutated = ICE_LINE.replace("1281", "99734")
        assert normalize_signature(ICE_LINE, 1) == normalize_signature(mutated, 1)

    def test_absolute_paths_stripped(self):
        a = normalize_signature("/tmp/spe-x1/v01.c:3: error: something broke", 1)
        b = normalize_signature("/home/u/other/v77.c:9: error: something broke", 1)
        assert a == b == "v#.c:#: error: something broke"

    def test_whitespace_collapsed(self):
        assert normalize_signature("error:   spaced\tout", 1) == "error: spaced out"

    def test_first_diagnostic_line_wins(self):
        text = "note: preamble\ninternal compiler error: boom\nerror: later\n"
        assert normalize_signature(text, 1) == "internal compiler error: boom"

    def test_signal_fallback(self):
        assert normalize_signature("", -11) == "signal:11"
        assert normalize_signature("   \n", -6) == "signal:6"


class TestDifferentialVerdict:
    def row(self, compiler, flags, exit_code, sha="x", interp=("ok", 0, "x")):
        verdict, iexit, isha = interp
        return {
            "variant": "v",
            "compiler": compiler,
            "flags": list(flags),
            "compile": {"status": "ok", "exit": 0},
            "run": {"exit": exit_code, "stdout_sha256": sha},
            "interp": {"verdict": verdict, "exit": iexit, "stdout_sha256": isha},
        }

    def test_agreement_is_ok(self):
        rows = [self.row("cc1", ["-O0"], 0), self.row("cc2", ["-O3"], 0)]
        assert differential_verdict(rows) == {"status": "ok"}

    def test_differing_cell_named(self):
        rows = [self.row("cc1", ["-O0"], 0), self.row("cc1", ["-O3"], 7)]
        v = differential_verdict(rows)
        assert v["status"] == "wrong-code"
        assert v["cells"] == ["cc1:-O3"]

    def test_ub_excluded(self):
        rows = [
            self.row("cc1", ["-O0"], 0, interp=("ub", 0, "x")),
            self.row("cc1", ["-O3"], 7, interp=("ub", 0, "x")),
        ]
        assert differential_verdict(rows) == {"status": "ok"}

    def test_budget_excluded(self):
        rows = [
            self.row("cc1", ["-O0"], 0, interp=("budget", 0, "x")),
            self.row("cc1", ["-O3"], 7, interp=("budget", 0, "x")),
        ]
        assert differential_verdict(rows) == {"status": "ok"}

    def test_single_cell_insufficient(self):
        rows = [self.row("cc1", ["-O3"], 7)]
        assert differential_verdict(rows) == {"status": "ok"}

    def test_stdout_digest_compared(self):
        rows = [
            self.row("cc1", ["-O0"], 0, sha="x"),
            self.row("cc2", ["-O0"], 0, sha="y"),
        ]
        v = differential_verdict(rows)
        assert v["status"] == "wrong-code" and v["cells"] == ["cc2:-O0"]

    def test_unanimous_compiler_disagreement_still_flagged(self):
        rows = [self.row("cc1", ["-O0"], 5), self.row("cc2", ["-O0"], 5)]
        v = differential_verdict(rows)
        assert v["status"] == "wrong-code"
        assert v["cells"] == ["cc1:-O0", "cc2:-O0"]


class TestToolchainConfig:
    def test_from_file(self, tmp_path):
        cfg_path = tmp_path / "tc.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "compilers": [{"name": "sh", "cmd": "/bin/sh {flags} -o {output} {input}"}],
                    "flags": [["-O0"]],
                    "timeout_s": 3,
                    "workers": 2,
                }
            )
        )
        cfg = ToolchainConfig.from_file(cfg_path)
        assert cfg.timeout_s == 3 and cfg.workers == 2
        cfg.validate()

    @pytest.mark.parametrize(
        "cmd",
        [
            "/bin/sh -o {output}",  # no input
            "/bin/sh {input} {input} -o {output}",  # input twice
            "/bin/sh {input}",  # no output
            "{input} -o {output}",  # placeholder as binary
        ],
    )
    def test_bad_templates_rejected(self, cmd):
        cfg = ToolchainConfig(compilers=(CompilerSpec("bad", cmd),))
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_missing_binary_rejected(self):
        cfg = ToolchainConfig(
            compilers=(CompilerSpec("ghost", "/nonexistent/cc {flags} -o {output} {input}"),)
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_timeout_rejected(self):
        cfg = ToolchainConfig(
            compilers=(CompilerSpec("sh", "/bin/sh {flags} -o {output} {input}"),),
            timeout_s=0,
        )
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_timeout_limit(self):
        # poll() waits at most 2**31 - 1 ms
        compilers = (CompilerSpec("sh", "/bin/sh {flags} -o {output} {input}"),)
        ToolchainConfig(compilers=compilers, timeout_s=MAX_TIMEOUT_S).validate()
        with pytest.raises(ConfigError, match="timeout_s must be in 1..2147483, got 2147484"):
            ToolchainConfig(compilers=compilers, timeout_s=MAX_TIMEOUT_S + 1).validate()

    @pytest.mark.parametrize("key", ["timeout_s", "workers"])
    def test_values_must_be_whole_numbers(self, key):
        compilers = [{"name": "sh", "cmd": "/bin/sh {flags} -o {output} {input}"}]
        # 1e9 is a JSON number with an integral value; validate() bounds it
        assert getattr(ToolchainConfig.from_dict({"compilers": compilers, key: 1e9}), key) == 10**9
        for value, shown in ((1.9, "1.9"), (0.5, "0.5"), (True, "True"), ("30", "'30'")):
            with pytest.raises(ConfigError) as e:
                ToolchainConfig.from_dict({"compilers": compilers, key: value})
            assert str(e.value) == f"malformed {key}: expected a whole number, got {shown}"

    @pytest.mark.parametrize(
        "names,flags,message",
        [
            (("sh", "sh"), (("-O0",),), "compiler name 'sh' is configured twice"),
            (("sh",), (("-O0",), ("-O2",), ("-O0",)), "flag row '-O0' is configured twice"),
            # rows are logged by their joined text, so these two collide
            (("sh",), (("-O0", "-g"), ("-O0 -g",)), "flag row '-O0 -g' is configured twice"),
        ],
    )
    def test_duplicate_cells_rejected(self, names, flags, message):
        cfg = ToolchainConfig(
            compilers=tuple(CompilerSpec(n, "/bin/sh {flags} -o {output} {input}") for n in names),
            flags=flags,
        )
        with pytest.raises(ConfigError) as e:
            cfg.validate()
        assert str(e.value) == message

    def test_argv_substitution(self):
        spec = CompilerSpec("cc", "cc {flags} -o {output} {input}")
        argv = spec.argv("in.c", "out.bin", ("-O3", "-w"))
        assert argv == ["cc", "-O3", "-w", "-o", "out.bin", "in.c"]


# ---------------------------------------------------------------------------
# Stub compilers

def stub_config(tmp_path: Path, *stubs: tuple[str, str], workers: int = 4) -> ToolchainConfig:
    specs = []
    for name, body in stubs:
        path = write_stub(tmp_path, name, body)
        specs.append(CompilerSpec(name=name, cmd=f"{path} {{flags}} -o {{output}} {{input}}"))
    return ToolchainConfig(compilers=tuple(specs), timeout_s=5, workers=workers)


@pytest.fixture
def corpus(tmp_path):
    loop = tmp_path / "loop.c"
    loop.write_text(LOOP_SRC)
    straight = tmp_path / "straight.c"
    straight.write_text(STRAIGHT_SRC)
    return {"loop": loop, "straight": straight}


class TestCampaign:
    def test_all_ok_no_reports(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        summary = run_campaign([corpus["loop"]], cfg, tmp_path / "out")
        assert summary["totals"] == {
            "files": 1,
            "tested": 1,
            "skipped": 0,
            "unparseable": 0,
            "unsupported": 0,
            "naive": 64,
            "enumerated": 32,
            "reduction": 2.0,
        }
        assert summary["reports"] == []
        rows = read_log(tmp_path / "out" / "outcomes.jsonl")
        assert len(rows) == 32 * 2  # variants x flag rows
        assert all(r["compile"]["status"] == "ok" for r in rows.values())

    def test_enumerated_matches_log_variants(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["loop"], corpus["straight"]], cfg, out)
        rows = read_log(out / "outcomes.jsonl")
        distinct_variants = {key[0] for key in rows}
        enumerated = sum(f["enumerated"] for f in summary["files"] if f["status"] == "tested")
        assert len(distinct_variants) == enumerated == 40

    def test_crash_dedup_single_report(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["straight"]], cfg, out)
        crash_dirs = [r for r in summary["reports"] if r.startswith("crash-")]
        assert len(crash_dirs) == 1
        # several cells crashed, one report after dedup
        rows = read_log(out / "outcomes.jsonl")
        crash_cells = [r for r in rows.values() if r["compile"]["status"] == "crash"]
        assert len(crash_cells) >= 4
        sigs = {r["compile"]["signature"] for r in crash_cells}
        assert sigs == {"internal compiler error: in operand_equal_p, at fold-const.c:#"}

    def test_crash_repro_recrashes_with_same_signature(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["straight"]], cfg, out)
        (crash_dir,) = [
            out / "reports" / r for r in summary["reports"] if r.startswith("crash-")
        ]
        meta = json.loads((crash_dir / "metadata.json").read_text())
        proc = subprocess.run(
            ["/bin/sh", str(crash_dir / "repro.sh")], capture_output=True, text=True, timeout=30
        )
        assert proc.returncode != 0
        diagnostics = "\n".join(
            l for l in proc.stderr.splitlines() if not l.startswith("+")
        )
        assert normalize_signature(diagnostics, proc.returncode) == meta["signature"]

    def test_wrong_code_names_cell(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB), ("evilcc", EVIL_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["loop"]], cfg, out)
        wrong = [r for r in summary["reports"] if r.startswith("wrong-code-")]
        assert len(wrong) == 1
        meta = json.loads((out / "reports" / wrong[0] / "metadata.json").read_text())
        assert meta["cells"] == ["evilcc:-O3"]
        assert (out / "reports" / wrong[0] / "witness.c").exists()

    def test_threshold_skips_file(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["loop"]], cfg, out, threshold=10)
        (entry,) = summary["files"]
        assert entry["status"] == "skipped" and entry["selected"] == 32
        assert not (out / "outcomes.jsonl").exists() or not read_log(out / "outcomes.jsonl")

    def test_cap_takes_prefix(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["loop"]], cfg, out, threshold=10, cap=5)
        (entry,) = summary["files"]
        assert entry["status"] == "tested" and entry["enumerated"] == 5

    def test_unparseable_recorded(self, tmp_path, corpus):
        bad = tmp_path / "broken.c"
        bad.write_text("int main( {")
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        summary = run_campaign([bad, corpus["straight"]], cfg, tmp_path / "out")
        statuses = {f["stem"]: f["status"] for f in summary["files"]}
        assert statuses == {"broken": "unparseable", "straight": "tested"}

    def test_missing_compiler_fails_before_work(self, tmp_path, corpus):
        cfg = ToolchainConfig(
            compilers=(CompilerSpec("ghost", "/nonexistent/cc {flags} -o {output} {input}"),)
        )
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            run_campaign([corpus["loop"]], cfg, out)
        assert not out.exists()

    @pytest.mark.parametrize("budget", [{"threshold": 0}, {"cap": 0}])
    def test_budget_below_one_fails_before_work(self, tmp_path, corpus, budget):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            run_campaign([corpus["loop"]], cfg, out, **budget)
        assert not out.exists()

    def test_duplicate_stems_fail_before_work(self, tmp_path, corpus):
        twin = tmp_path / "twin" / "straight.c"
        twin.parent.mkdir()
        twin.write_text(corpus["loop"].read_text())
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="share the stem"):
            run_campaign([corpus["straight"], twin], cfg, out)
        assert not out.exists()

    def test_rerun_is_idempotent(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "out"
        first = run_campaign([corpus["straight"]], cfg, out)
        assert first["log_rows_appended"] == 16
        first_log = (out / "outcomes.jsonl").read_bytes()
        (crash_name,) = [r for r in first["reports"] if r.startswith("crash-")]
        meta_path = out / "reports" / crash_name / "metadata.json"
        meta_first = meta_path.read_bytes()
        second = run_campaign([corpus["straight"]], cfg, out)
        assert second["log_rows_appended"] == 0
        assert (out / "outcomes.jsonl").read_bytes() == first_log
        assert second["reports"] == first["reports"]
        # first-seen metadata survives the re-run
        assert meta_path.read_bytes() == meta_first

    def test_interrupted_campaign_keeps_finished_files(self, tmp_path, corpus, monkeypatch):
        import spe.harness

        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        corpus_paths = [corpus["loop"], corpus["straight"]]
        run_campaign(corpus_paths, cfg, tmp_path / "clean")
        clean = (tmp_path / "clean" / "outcomes.jsonl").read_bytes()

        real = spe.harness._evaluate_cell

        def fail_on_second_file(spec, flags, variant_id, *args):
            if variant_id.startswith("straight__"):
                raise RuntimeError("cell interrupted")
            return real(spec, flags, variant_id, *args)

        out = tmp_path / "out"
        monkeypatch.setattr(spe.harness, "_evaluate_cell", fail_on_second_file)
        with pytest.raises(RuntimeError, match="cell interrupted"):
            run_campaign(corpus_paths, cfg, out)
        log_path = out / "outcomes.jsonl"
        interrupted = log_path.read_bytes()
        rows = [json.loads(line) for line in interrupted.splitlines()]
        assert len(rows) == 32 * 2
        assert all(r["variant"].startswith("loop__") for r in rows)
        assert clean.startswith(interrupted)

        monkeypatch.undo()
        summary = run_campaign(corpus_paths, cfg, out)
        assert summary["log_rows_appended"] == 8 * 2
        assert log_path.read_bytes() == clean

    def test_worker_count_does_not_change_results(self, tmp_path, corpus):
        results = {}
        for workers in (1, 2, 8):
            out = tmp_path / f"out{workers}"
            cfg = stub_config(
                tmp_path, ("crashcc", CRASH_STUB), ("evilcc", EVIL_STUB), workers=workers
            )
            summary = run_campaign([corpus["loop"], corpus["straight"]], cfg, out)
            keys = sorted(read_log(out / "outcomes.jsonl"))
            results[workers] = (summary["reports"], keys)
        assert results[1] == results[2] == results[8]

    def test_only_ok_variants_run(self, tmp_path, corpus):
        # binaries of this stub append a line to runs.txt when they run
        runs = tmp_path / "runs.txt"
        counting = OK_STUB.replace("exit 0\\n' > ", f"echo run >> {runs}\\nexit 0\\n' > ")
        assert counting != OK_STUB
        logs = []
        for workers in (1, 2, 8):
            runs.unlink(missing_ok=True)
            out = tmp_path / f"out{workers}"
            cfg = stub_config(tmp_path, ("countcc", counting), workers=workers)
            run_campaign([corpus["loop"]], cfg, out)
            rows = read_log(out / "outcomes.jsonl").values()
            verdicts = [r["interp"]["verdict"] for r in rows]
            assert verdicts.count("ok") == 6 * 2
            assert runs.read_text().count("run") == 6 * 2
            for r in rows:
                assert r["schema"] == 2 and r["compile"]["status"] == "ok"
                if r["interp"]["verdict"] == "ok":
                    assert r["run"] == {"exit": 0, "stdout_sha256": hashlib.sha256(b"").hexdigest()}
                    assert "run_skipped" not in r
                else:
                    assert r["run"] is None
                    assert r["run_skipped"] == r["interp"]["verdict"]
            logs.append((out / "outcomes.jsonl").read_bytes())
        assert logs[0] == logs[1] == logs[2]

    def test_rerun_over_schema_1_log_appends_nothing(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        run_campaign([corpus["loop"]], cfg, out)
        log = out / "outcomes.jsonl"
        # a log written before runs were skipped: UB and budget rows carry
        # runs, here ones that disagree with the interpreter
        old = []
        for line in log.read_text().splitlines():
            row = json.loads(line)
            row["schema"] = 1
            if row.pop("run_skipped", None):
                row["run"] = {"exit": 7, "stdout_sha256": "0" * 64}
            old.append(json.dumps(row, sort_keys=True) + "\n")
        log.write_text("".join(old))
        summary = run_campaign([corpus["loop"]], cfg, out)
        assert summary["log_rows_appended"] == 0
        assert summary["reports"] == [] and not any((out / "reports").iterdir())
        assert log.read_text() == "".join(old)

    def test_crash_logs_are_byte_identical_across_campaigns(self, tmp_path, corpus):
        # the stub's stderr carries its PID; stored stderr is masked
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        logs = []
        for name in ("first", "second"):
            run_campaign([corpus["straight"]], cfg, tmp_path / name)
            logs.append((tmp_path / name / "outcomes.jsonl").read_bytes())
        assert logs[0] == logs[1]
        assert b"fold-const.c:#" in logs[0]

    def test_deep_recursion_is_a_budget_verdict(self, tmp_path):
        src = tmp_path / "recurse.c"
        src.write_text(RECURSE_SRC)
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        summary = run_campaign([src], cfg, out)
        assert summary["totals"]["tested"] == 1
        rows = read_log(out / "outcomes.jsonl")
        assert len(rows) == 2
        assert {r["interp"]["verdict"] for r in rows.values()} == {"budget"}

    def test_tmpdir_override(self, tmp_path, corpus, monkeypatch):
        scratch = tmp_path / "scratch"
        monkeypatch.setenv("SPE_TMPDIR", str(scratch))
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        run_campaign([corpus["straight"]], cfg, tmp_path / "out")
        assert scratch.is_dir()
