"""Campaign driver, crash deduplication, and differential verdicts,
exercised with stub compilers so no system toolchain is needed."""

import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
from pathlib import Path

import pytest
from click.testing import CliRunner

from spe.cli import main
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

# one variable in both holes: a single variant, which exits with 0
ZERO_SRC = """\
int main(void) {
    int a;
    a = 0;
    return a;
}
"""

# the same variant exiting with 3, where the stubs' binaries exit with 0
THREE_SRC = ZERO_SRC.replace("a = 0;", "a = 3;")

# a compiler that never finishes, one whose binaries never finish, and
# one that rejects every input; exec leaves no grandchild to outlive
# the kill on timeout
HANG_STUB = "#!/bin/sh\nexec sleep 5\n"
HANGING_BINARY_STUB = OK_STUB.replace("exit 0\\n' > ", "exec sleep 5\\n' > ")
REJECT_STUB = '#!/bin/sh\necho "error: unsupported input" >&2\nexit 1\n'

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

    @pytest.mark.parametrize(
        "fails_at,finished,workers",
        [("straight__", 32, 4), ("loop__v20", 19, 1), ("loop__v20", 19, 2)],
        ids=["second-file", "mid-file-1-worker", "mid-file-2-workers"],
    )
    def test_interrupted_campaign_keeps_finished_variants(
        self, tmp_path, corpus, monkeypatch, fails_at, finished, workers
    ):
        import spe.harness

        cfg = stub_config(tmp_path, ("okcc", OK_STUB), workers=workers)
        corpus_paths = [corpus["loop"], corpus["straight"]]
        run_campaign(corpus_paths, cfg, tmp_path / "clean")
        clean = (tmp_path / "clean" / "outcomes.jsonl").read_bytes()

        real = spe.harness._evaluate_cell

        def fail(spec, flags, variant_id, *args):
            if variant_id.startswith(fails_at):
                raise RuntimeError("cell interrupted")
            return real(spec, flags, variant_id, *args)

        out = tmp_path / "out"
        monkeypatch.setattr(spe.harness, "_evaluate_cell", fail)
        with pytest.raises(RuntimeError, match="cell interrupted"):
            run_campaign(corpus_paths, cfg, out)
        log_path = out / "outcomes.jsonl"
        interrupted = log_path.read_bytes()
        rows = [json.loads(line) for line in interrupted.splitlines()]
        assert len(rows) == finished * 2
        assert {r["variant"] for r in rows} == {f"loop__v{i:02d}" for i in range(1, finished + 1)}
        assert clean.startswith(interrupted)
        # the stream is read no further ahead than the window
        written = list((out / "variants" / "loop").glob("loop__v*.c"))
        assert len(written) <= finished + 1 + spe.harness._WINDOW * workers

        monkeypatch.undo()
        summary = run_campaign(corpus_paths, cfg, out)
        assert summary["log_rows_appended"] == (32 + 8 - finished) * 2
        assert log_path.read_bytes() == clean

    def test_resume_mixes_logged_rows_and_new_cells(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("okcc", OK_STUB), ("evilcc", EVIL_STUB), workers=1)
        clean_summary = run_campaign([corpus["loop"]], cfg, tmp_path / "clean")
        clean = (tmp_path / "clean" / "outcomes.jsonl").read_bytes().splitlines(keepends=True)
        assert clean_summary["files"][0]["wrong_code_variants"] == 1
        # drop the evilcc -O3 row, the cell that makes the wrong-code
        # variant wrong, of that variant and of every third variant
        wrong = json.loads(
            (tmp_path / "clean" / "reports" / clean_summary["reports"][0] / "metadata.json")
            .read_text()
        )["variant"]
        dropped = [
            line
            for line, r in zip(clean, map(json.loads, clean))
            if (r["compiler"], r["flags"]) == ("evilcc", ["-O3"])
            and (r["variant"] == wrong or int(r["variant"][-2:]) % 3 == 0)
        ]
        kept = [line for line in clean if line not in dropped]
        assert 1 < len(dropped) < 32

        logs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"out{workers}"
            out.mkdir()
            (out / "outcomes.jsonl").write_bytes(b"".join(kept))
            cfg = stub_config(
                tmp_path, ("okcc", OK_STUB), ("evilcc", EVIL_STUB), workers=workers
            )
            summary = run_campaign([corpus["loop"]], cfg, out)
            assert summary["log_rows_appended"] == len(dropped)
            assert summary["files"] == clean_summary["files"]
            assert summary["reports"] == clean_summary["reports"]
            logs.append((out / "outcomes.jsonl").read_bytes())
        assert logs[0] == logs[1] == logs[2] == b"".join(kept + dropped)

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


# ---------------------------------------------------------------------------
# One path per cell: every compile and run is one subprocess.run call


def record(monkeypatch, owner, attr: str) -> list:
    """Wrap owner.attr with a recorder that calls through; returns the
    list of (args, result) pairs it records."""
    real = getattr(owner, attr)
    calls = []

    def recorder(*args, **kwargs):
        result = real(*args, **kwargs)
        # a row is recorded as it was written, before anything reads it
        calls.append((args, json.loads(json.dumps(result)) if isinstance(result, dict) else result))
        return result

    monkeypatch.setattr(owner, attr, recorder)
    return calls


def spawned(calls) -> tuple[list[list[str]], list[list[str]]]:
    """The argvs of the recorded subprocess.run calls, split into those
    that compile a variant file and the rest, as the benchmark's tracer
    tells its compile spans from its run spans."""
    argvs = [list(map(str, args[0])) for args, _ in calls]
    compiles = [a for a in argvs if any(re.search(r"__v\d+\.c$", x) for x in a)]
    return compiles, [a for a in argvs if a not in compiles]


def repro_argvs(report: Path) -> list[list[str]]:
    """The compiler commands of a wrong-code repro.sh: after the shebang,
    `set -x` and `cd`, a compile line and a run line per cell."""
    lines = (report / "repro.sh").read_text().splitlines()
    assert lines[:3] == ["#!/bin/sh", "set -x", 'cd "$(dirname "$0")"']
    assert set(lines[4::2]) == {'./repro.out; echo "exit: $?"'}
    return [shlex.split(line) for line in lines[3::2]]


class TestCellPath:
    def test_each_compile_and_run_is_one_subprocess_run_call(self, tmp_path, corpus, monkeypatch):
        # the benchmark's tracer times compiles and runs by wrapping the
        # module attribute subprocess.run, which Popen or a `from
        # subprocess import run` would bypass without a test noticing
        calls = record(monkeypatch, subprocess, "run")
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        run_campaign([corpus["loop"]], cfg, tmp_path / "out")
        rows = read_log(tmp_path / "out" / "outcomes.jsonl").values()
        compiles, runs = spawned(calls)
        assert sorted((Path(a[-1]).name, a[1:-3]) for a in compiles) == sorted(
            (r["variant"] + ".c", r["flags"]) for r in rows
        )
        assert len(compiles) == 32 * 2
        assert len(runs) == sum(r["interp"]["verdict"] == "ok" for r in rows) == 6 * 2
        assert all(Path(a).name == "a.out" for (a,) in runs)

    def test_repro_replays_each_flag_as_one_argument(self, tmp_path, monkeypatch):
        # the interpreter's exit is 3, the stub's binaries exit 0: both
        # cells disagree, one of them through a flag that holds a space
        src = tmp_path / "three.c"
        src.write_text(THREE_SRC)
        cfg = dataclasses.replace(
            stub_config(tmp_path, ("okcc", OK_STUB)), flags=(("-O0",), ("-O2", "-DMSG=a b"))
        )
        calls = record(monkeypatch, subprocess, "run")
        summary = run_campaign([src], cfg, tmp_path / "out")
        (report,) = summary["reports"]
        meta = json.loads((tmp_path / "out" / "reports" / report / "metadata.json").read_text())
        assert meta["cells"] == ["okcc:-O0", "okcc:-O2 -DMSG=a b"]
        ran = sorted(spawned(calls)[0])
        assert [a[1:-3] for a in ran] == [["-O0"], ["-O2", "-DMSG=a b"]]
        replayed = [[*a[:-3], "-o", "repro.out", "witness.c"] for a in ran]
        assert repro_argvs(tmp_path / "out" / "reports" / report) == replayed

    def test_compiler_name_may_hold_a_colon(self, tmp_path):
        src = tmp_path / "three.c"
        src.write_text(THREE_SRC)
        stub = write_stub(tmp_path, "okcc", OK_STUB)
        cfg = ToolchainConfig(
            compilers=(CompilerSpec("cc:1", f"{stub} {{flags}} -o {{output}} {{input}}"),),
            timeout_s=5,
        )
        summary = run_campaign([src], cfg, tmp_path / "out")
        (report,) = summary["reports"]
        meta = json.loads((tmp_path / "out" / "reports" / report / "metadata.json").read_text())
        assert meta["cells"] == ["cc:1:-O0", "cc:1:-O3"]
        assert repro_argvs(tmp_path / "out" / "reports" / report) == [
            [str(stub), flag, "-o", "repro.out", "witness.c"] for flag in ("-O0", "-O3")
        ]

    def test_relative_tmpdir(self, tmp_path, corpus, monkeypatch):
        # each cell runs with its directory as cwd, so a relative
        # SPE_TMPDIR would send the compiler's output elsewhere
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SPE_TMPDIR", "scratch")
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        run_campaign([corpus["straight"]], cfg, tmp_path / "out")
        rows = read_log(tmp_path / "out" / "outcomes.jsonl").values()
        assert len(rows) == 16
        assert {r["compile"]["status"] for r in rows} == {"ok"}
        # every cell directory is removed with its cell
        assert (tmp_path / "scratch").is_dir() and not any((tmp_path / "scratch").iterdir())


class TestTimeouts:
    """A campaign over one variant with an ok compiler, one whose
    compile and one whose binary outlive a 1 s timeout, at two flag rows."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("timeouts")
        src = tmp / "zero.c"
        src.write_text(ZERO_SRC)
        cfg = stub_config(
            tmp, ("okcc", OK_STUB), ("hangcc", HANG_STUB), ("loopcc", HANGING_BINARY_STUB)
        )
        with pytest.MonkeyPatch.context() as mp:
            import spe.harness

            calls = record(mp, spe.harness, "_evaluate_cell")
            summary = run_campaign([src], dataclasses.replace(cfg, timeout_s=1), tmp / "out")
        return summary, tmp / "out", [row for _, row in calls]

    def test_timeouts_are_logged(self, campaign):
        summary, out, _ = campaign
        rows = {(r["compiler"], r["flags"][0]): r for r in read_log(out / "outcomes.jsonl").values()}
        for flags in ("-O0", "-O3"):
            assert rows["hangcc", flags]["compile"] == {"status": "timeout"}
            assert rows["hangcc", flags]["run"] is None
            assert rows["loopcc", flags]["compile"]["status"] == "ok"
            assert rows["loopcc", flags]["run"] == {"timeout": True}
            assert rows["okcc", flags]["run"]["exit"] == 0
        # the two ok runs agree with the interpreter; a timeout is no run
        assert summary["reports"] == []

    def test_stats_count_timeouts(self, campaign):
        _, out, _ = campaign
        res = CliRunner().invoke(main, ["stats", str(out / "outcomes.jsonl")])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["compilers"]["hangcc"] == {"timeout": 2}
        assert doc["runs"]["hangcc"]["none"] == 2
        assert doc["runs"]["loopcc"]["timeout"] == 2


    def test_log_reads_back_every_row_written(self, campaign, tmp_path, corpus, monkeypatch):
        # every kind of row: compile ok, crash, reject and timeout; run
        # skipped, timed out and finished
        import spe.harness

        calls = record(monkeypatch, spe.harness, "_evaluate_cell")
        cfg = stub_config(
            tmp_path,
            ("okcc", OK_STUB),
            ("crashcc", CRASH_STUB),
            ("evilcc", EVIL_STUB),
            ("rejectcc", REJECT_STUB),
        )
        out = tmp_path / "out"
        run_campaign([corpus["loop"], corpus["straight"]], cfg, out)
        for log, written in ((campaign[1], campaign[2]), (out, [row for _, row in calls])):
            rows = read_log(log / "outcomes.jsonl")
            assert rows == {(r["variant"], r["compiler"], " ".join(r["flags"])): r for r in written}
            assert len(rows) == len(written)
        kinds = {
            (r["compile"]["status"], r.get("run_skipped"), r["run"] and tuple(sorted(r["run"])))
            for r in campaign[2] + [row for _, row in calls]
        }
        assert kinds == {
            ("ok", None, ("exit", "stdout_sha256")),
            ("ok", None, ("timeout",)),
            ("ok", "ub", None),
            ("ok", "budget", None),
            ("crash", None, None),
            ("reject", None, None),
            ("timeout", None, None),
        }
