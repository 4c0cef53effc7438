"""Campaign driver, crash deduplication, and differential verdicts,
exercised with stub compilers so no system toolchain is needed."""

import copy
import dataclasses
import hashlib
import json
import math
import os
import random
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spe.cli import main
from spe.harness import (
    CompilerSpec,
    ConfigError,
    MAX_TIMEOUT_S,
    MAX_WORKERS,
    ROW_KINDS,
    RUN_OUTCOMES,
    ToolchainConfig,
    differential_verdict,
    normalize_signature,
    read_log,
    run_campaign,
    run_outcome,
)

from conftest import (
    BRANCH_SRC,
    CRASH_STUB,
    EVIL_STUB,
    LOOP_SRC,
    OK_STUB,
    SCOPED_SRC,
    STRAIGHT_SRC,
    spe_env,
    write_stub,
)

ICE_LINE = "internal compiler error: in assign_by_spills, at lra-assigns.c:1281"

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

# every variant reads a variable before it is set, so every variant is
# UB; CRASH_STUB crashes on those that hold `b = a;`
UNINIT_SRC = """\
int main(void) {
    int a;
    int b;
    a = b;
    b = a;
    return 0;
}
"""

# a compiler that never finishes, one whose binaries never finish, and
# one that rejects every input; exec leaves no grandchild to outlive
# the kill on timeout
HANG_STUB = "#!/bin/sh\nexec sleep 5\n"
HANGING_BINARY_STUB = OK_STUB.replace("exit 0\\n' > ", "exec sleep 5\\n' > ")
REJECT_STUB = '#!/bin/sh\necho "error: unsupported input" >&2\nexit 1\n'
# exits 0 but writes a file in no format the system executes
GARBAGE_STUB = OK_STUB.replace("printf '#!/bin/sh\\nexit 0\\n'", "printf 'garbage'")

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
            "schema": 1,
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


def declared_row(schema: int, status: str, verdict: str, outcome: str) -> dict:
    """A row of the given kind, with every field any kind needs, whose
    binary had the given run outcome."""
    row = {
        "schema": schema,
        "variant": "v",
        "compiler": "c",
        "flags": ["-O0"],
        "compile": {"status": status, "signature": "sig"},
        "interp": {"verdict": verdict, "exit": 0, "stdout_sha256": "x"},
        "run": {"none": None, "timeout": {"timeout": True}}.get(outcome, {"exit": 0, "stdout_sha256": "x"}),
    }
    if outcome.startswith("skipped_"):
        row.update(run=None, run_skipped=outcome.removeprefix("skipped_"))
    return row


class TestRowKinds:
    def test_the_table_is_the_documented_one(self):
        # the README's table of row kinds: a log written by any version
        # must keep reading the same way
        verdicts = ("ok", "ub", "budget")
        assert {kind: set(outcomes) for kind, (_, outcomes) in ROW_KINDS.items()} == {
            **{(s, c, v): {"none"} for s in (1, 2) for c in ("reject", "crash", "timeout") for v in verdicts},
            **{(s, "ok", "ok"): {"ok", "timeout"} for s in (1, 2)},
            **{(1, "ok", v): {"ok", "timeout"} for v in ("ub", "budget")},
            **{(2, "ok", v): {f"skipped_{v}"} for v in ("ub", "budget")},
        }
        for (_, status, verdict), (needs, _) in ROW_KINDS.items():
            expected = {("compile", "signature", str)} if status == "crash" else set()
            if verdict == "ok":
                expected |= {("interp", "exit", int), ("interp", "stdout_sha256", str)}
            assert set(needs) == expected, (status, verdict)

    def test_a_row_reads_only_with_the_outcomes_its_kind_declares(self, tmp_path):
        log = tmp_path / "outcomes.jsonl"
        for (schema, status, verdict), (needs, outcomes) in ROW_KINDS.items():
            assert set(outcomes) <= set(RUN_OUTCOMES)
            for outcome in RUN_OUTCOMES + ("skipped_ok",):
                row = declared_row(schema, status, verdict, outcome)
                assert run_outcome(row) == (outcome if outcome in outcomes else None), row
            for outcome in outcomes:
                row = declared_row(schema, status, verdict, outcome)
                log.write_text(json.dumps(row) + "\n")
                assert list(read_log(log).values()) == [row]
                # without a field its kind needs, it is no row
                for record, key, _ in needs:
                    lacking = copy.deepcopy(row)
                    del lacking[record][key]
                    assert run_outcome(lacking) is None, (record, key)
                    log.write_text(json.dumps(lacking) + "\n")
                    with pytest.raises(ConfigError, match=re.escape(f"{log}:1: not an outcome row")):
                        read_log(log)


# Toolchain documents shaped like the benchmark's, and the junk that
# mutations put in place of their keys' values
TOOLCHAIN_DOCS = (
    {
        "compilers": [{"name": "cc", "cmd": "env TMPDIR=/tmp sh {flags} -o {output} {input}"}],
        "flags": [["-O0"], ["-O2"]],
        "timeout_s": 1,
        "workers": 2,
    },
    {
        "compilers": [{"name": "stub", "cmd": "sh stub_cc.sh {flags} -o {output} {input}"}],
        "flags": [["-O0"], ["-O3"]],
        "timeout_s": 30,
        "workers": 2,
    },
)
UNBALANCED_CMD = 'sh "oops {input} -o {output}'
NUL_CMD = "sh {flags} -o {output} {input} -DX=\u0000"
CONFIG_JUNK = (
    None, True, 1.5, math.nan, [], {}, "-O2", "sh -o {output}", UNBALANCED_CMD, "-O\u0000", NUL_CMD
)


@st.composite
def mutated_toolchain_docs(draw):
    """A toolchain document with one to three keys deleted or given junk,
    at any depth."""
    doc = copy.deepcopy(draw(st.sampled_from(TOOLCHAIN_DOCS)))
    for _ in range(draw(st.integers(1, 3))):
        node = doc
        while node:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
            elif draw(st.booleans()):
                del node[key]
                break
            else:
                node[key] = copy.deepcopy(draw(st.sampled_from(CONFIG_JUNK)))
                break
    return doc


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
            "{input} -o {output}",  # placeholder as binary, and no flags
            "{input} {flags} -o {output}",  # placeholder as binary
            "/bin/sh -o {output} {input}",  # no flags
            "/bin/sh -O{flags} -o {output} {input}",  # flags inside a word
        ],
    )
    def test_bad_templates_rejected(self, cmd):
        cfg = ToolchainConfig(compilers=(CompilerSpec("bad", cmd),))
        with pytest.raises(ConfigError, match="^compiler 'bad': "):
            cfg.validate()

    def test_unsplittable_template_names_the_compiler(self):
        cfg = ToolchainConfig(compilers=(CompilerSpec("gcc", 'gcc "oops {input} -o {output}'),))
        with pytest.raises(ConfigError, match="^compiler 'gcc': template does not split: No closing"):
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

    def test_workers_limit(self):
        # a campaign keeps 4 x workers variants in memory and may run one
        # compiler per worker at once
        compilers = (CompilerSpec("sh", "/bin/sh {flags} -o {output} {input}"),)
        ToolchainConfig(compilers=compilers, workers=MAX_WORKERS).validate()
        for workers in (0, MAX_WORKERS + 1, 100_000):
            with pytest.raises(ConfigError, match=f"^workers must be in 1..1024, got {workers}$"):
                ToolchainConfig(compilers=compilers, workers=workers).validate()
        doc = {"compilers": [{"name": "sh", "cmd": compilers[0].cmd}], "workers": 100_000}
        with pytest.raises(ConfigError, match="^workers must be in 1..1024, got 100000$"):
            ToolchainConfig.from_dict(doc).validate()

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

    @given(st.one_of(mutated_toolchain_docs(), st.sampled_from(CONFIG_JUNK)))
    @example({"compilers": [{"name": "cc", "cmd": UNBALANCED_CMD}]})
    @example({"compilers": [{"name": "cc", "cmd": NUL_CMD}]})
    @example({**TOOLCHAIN_DOCS[0], "flags": [["-O\u0000"]]})
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_documents_validate_or_raise_config_error(self, doc):
        try:
            cfg = ToolchainConfig.from_dict(doc)
            cfg.validate()
        except ConfigError:
            return
        # a configuration that validates can be spawned
        for spec, flags in cfg.cells():
            assert not any("\0" in arg for arg in spec.argv("in.c", "out.bin", flags))

    @pytest.mark.parametrize(
        "cmd,flags,message",
        [
            (NUL_CMD, (("-O0",),), "compiler 'sh': template holds a NUL character"),
            ("sh {flags} -o {output} {input}", (("-O0",), ("-O\u0000",)),
             "flag row '-O\\x00' holds a NUL character"),
        ],
        ids=["cmd", "flag"],
    )
    def test_nul_rejected(self, cmd, flags, message):
        cfg = ToolchainConfig(compilers=(CompilerSpec("sh", cmd),), flags=flags)
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

    def test_report_cut_short_is_written_whole_on_rerun(self, tmp_path, corpus, monkeypatch):
        # a report directory appears only once all its files are written:
        # a run that fails while writing repro.sh leaves no report, and
        # the rerun writes every file of it
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "out"
        reports = out / "reports"
        real = Path.write_text
        failed = []

        def write_text(self, *args, **kwargs):
            if self.name == "repro.sh" and not failed:
                failed.append(self)
                raise OSError("injected")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", write_text)
        with pytest.raises(OSError, match="injected"):
            run_campaign([corpus["straight"]], cfg, out)
        assert list(reports.iterdir()) == []
        # what a run killed mid-report leaves is not a report, and the
        # rerun removes it
        leftover = reports / ".crash-0123456789ab.1.tmp"
        leftover.mkdir()
        (leftover / "witness.c").write_text("")
        summary = run_campaign([corpus["straight"]], cfg, out)
        assert not leftover.exists()
        assert summary["reports"]
        assert summary["reports"] == sorted(p.name for p in reports.iterdir() if p.name[0] != ".")
        for name in summary["reports"]:
            files = sorted(p.name for p in (reports / name).iterdir())
            assert files == ["metadata.json", "repro.sh", "witness.c"], name

    def test_crash_repro_recrashes_with_same_signature(self, tmp_path, corpus):
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "out"
        summary = run_campaign([corpus["straight"]], cfg, out)
        (crash_dir,) = [
            out / "reports" / r for r in summary["reports"] if r.startswith("crash-")
        ]
        meta = json.loads((crash_dir / "metadata.json").read_text())
        assert replayed_signature(crash_dir) == meta["signature"]

    def test_crash_repro_of_an_unrun_variant_compiles_with_c(self, tmp_path):
        # the crashing cell compiled without linking, and its repro does too
        src = tmp_path / "uninit.c"
        src.write_text(UNINIT_SRC)
        cfg = stub_config(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "out"
        summary = run_campaign([src], cfg, out)
        (crash_dir,) = [
            out / "reports" / r for r in summary["reports"] if r.startswith("crash-")
        ]
        meta = json.loads((crash_dir / "metadata.json").read_text())
        row = read_log(out / "outcomes.jsonl")[meta["variant"], "crashcc", "-O0"]
        assert row["interp"]["verdict"] == "ub" and row["flags"] == meta["flags"] == ["-O0"]
        assert repro_argvs(crash_dir) == [
            [str(tmp_path / "crashcc"), "-O0", "-c", "-o", "repro.out", "witness.c"]
        ]
        assert replayed_signature(crash_dir) == meta["signature"]

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

    def test_resume_from_any_cut_writes_the_uninterrupted_log(self, tmp_path, corpus):
        # a campaign killed while it appends leaves its log cut anywhere:
        # at a row's end, inside the row, or between the row and its newline
        cfg = stub_config(tmp_path, ("okcc", OK_STUB), workers=2)
        run_campaign([corpus["straight"]], cfg, tmp_path / "clean")
        clean = (tmp_path / "clean" / "outcomes.jsonl").read_bytes()
        ends = [i + 1 for i, byte in enumerate(clean) if byte == ord("\n")]
        assert len(ends) == 16
        out = tmp_path / "out"
        log = out / "outcomes.jsonl"
        for row, (start, end) in enumerate(zip([0, *ends], ends)):
            for cut, whole in ((end, row + 1), (end - 1, row + 1), ((start + end) // 2, row)):
                out.mkdir(exist_ok=True)
                log.write_bytes(clean[:cut])
                summary = run_campaign([corpus["straight"]], cfg, out)
                assert log.read_bytes() == clean, cut
                assert summary["log_rows_appended"] == len(ends) - whole, cut

    def test_campaign_opens_its_log_once_and_reads_it_only_in_its_scan(
        self, tmp_path, corpus, monkeypatch
    ):
        import spe.harness

        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        run_campaign([corpus["straight"]], cfg, out)
        log = out / "outcomes.jsonl"
        clean = log.read_bytes()
        # half a log: the rerun scans it, cuts its torn row and appends
        log.write_bytes(clean[: len(clean) // 2])
        events = []

        class Recorded:
            """A file whose reads are recorded."""

            def __init__(self, fh):
                self._fh = fh

            def __getattr__(self, name):
                if name.startswith(("read", "peek")):
                    events.append("read")
                return getattr(self._fh, name)

            def __iter__(self):
                events.append("read")
                return iter(self._fh)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self._fh.__exit__(*exc)

        real_open, real_scan = Path.open, spe.harness._scan_log

        def open_(self, *args, **kwargs):
            fh = real_open(self, *args, **kwargs)
            if self.name != "outcomes.jsonl":
                return fh
            events.append("open")
            return Recorded(fh)

        def scan(fh):
            events.append("scan")
            try:
                return real_scan(fh)
            finally:
                events.append("scanned")

        monkeypatch.setattr(Path, "open", open_)
        monkeypatch.setattr(spe.harness, "_scan_log", scan)
        summary = run_campaign([corpus["straight"]], cfg, out)
        monkeypatch.undo()
        assert summary["log_rows_appended"] > 0 and log.read_bytes() == clean
        assert events[:2] == ["open", "scan"] and "read" in events[: events.index("scanned")]
        assert events[events.index("scanned"):] == ["scanned"]

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
    """The compiler commands of a repro.sh: after the shebang, `set -x`
    and `cd`, the one compile line of a crash report, or a compile line
    and a run line per cell of a wrong-code report."""
    lines = (report / "repro.sh").read_text().splitlines()
    assert lines[:3] == ["#!/bin/sh", "set -x", 'cd "$(dirname "$0")"']
    if report.name.startswith("crash-"):
        assert len(lines) == 4
        return [shlex.split(lines[3])]
    assert set(lines[4::2]) == {'./repro.out; echo "exit: $?"'}
    return [shlex.split(line) for line in lines[3::2]]


def replayed_signature(report: Path) -> str:
    """The signature of the crash a crash report's repro.sh replays."""
    proc = subprocess.run(
        ["/bin/sh", str(report / "repro.sh")], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode != 0
    diagnostics = "\n".join(l for l in proc.stderr.splitlines() if not l.startswith("+"))
    return normalize_signature(diagnostics, proc.returncode)


class TestCellPath:
    def test_each_compile_and_run_is_one_subprocess_run_call(self, tmp_path, corpus, monkeypatch):
        # the benchmark's tracer times compiles and runs by wrapping the
        # module attribute subprocess.run, which Popen or a `from
        # subprocess import run` would bypass without a test noticing
        calls = record(monkeypatch, subprocess, "run")
        cfg = stub_config(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "out"
        run_campaign([corpus["loop"]], cfg, out)
        rows = read_log(out / "outcomes.jsonl").values()
        compiles, runs = spawned(calls)
        # a variant whose binary never runs is compiled with -c after its
        # flags, which its row logs unchanged
        assert sorted(r["flags"] for r in rows) == [["-O0"]] * 32 + [["-O3"]] * 32
        assert sorted([*a[:-2], Path(a[-2]).name, a[-1]] for a in compiles) == sorted(
            [
                str(tmp_path / "okcc"),
                *r["flags"],
                *([] if r["interp"]["verdict"] == "ok" else ["-c"]),
                "-o",
                "a.out",
                str((out / "variants" / "loop" / (r["variant"] + ".c")).resolve()),
            ]
            for r in rows
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

    def test_an_output_that_cannot_be_executed_exits_126(self, tmp_path):
        # both cells disagree with the interpreter's exit 0, as a shell
        # that finds a file it cannot execute would
        src = tmp_path / "zero.c"
        src.write_text(ZERO_SRC)
        cfg = stub_config(tmp_path, ("garbagecc", GARBAGE_STUB))
        summary = run_campaign([src], cfg, tmp_path / "out")
        rows = read_log(tmp_path / "out" / "outcomes.jsonl").values()
        empty = hashlib.sha256(b"").hexdigest()
        assert [r["run"] for r in rows] == [{"exit": 126, "stdout_sha256": empty}] * 2
        (report,) = summary["reports"]
        meta = json.loads((tmp_path / "out" / "reports" / report / "metadata.json").read_text())
        assert meta["kind"] == "wrong-code"
        assert meta["cells"] == ["garbagecc:-O0", "garbagecc:-O3"]

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


# ---------------------------------------------------------------------------
# gcc, where it is installed


@pytest.mark.skipif(shutil.which("gcc") is None, reason="gcc not installed")
def test_gcc_campaign_matches_frozen_outcomes(tmp_path):
    # gcc_loop_outcomes.json was written by a campaign that linked every
    # variant: compiling the unrun ones with -c changes no judged fact
    (tmp_path / "loop.c").write_text(LOOP_SRC)
    cfg = {
        "compilers": [{"name": "gcc", "cmd": "gcc -std=c89 {flags} -o {output} {input}"}],
        "flags": [["-O0"], ["-O2"]],
        "workers": 2,
    }
    (tmp_path / "gcc.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    res = CliRunner().invoke(
        main,
        ["test", str(tmp_path / "loop.c"), "--config", str(tmp_path / "gcc.json"), "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    rows = read_log(out / "outcomes.jsonl").values()

    def cell(r: dict) -> str:
        return f"{r['variant']} {r['compiler']}:{' '.join(r['flags'])}"

    frozen = json.loads((Path(__file__).parent / "gcc_loop_outcomes.json").read_text())
    judged = [f"{cell(r)} {r['interp']['verdict']} {r['compile']['status']}" for r in rows]
    assert judged == frozen["rows"]
    assert {cell(r): r["run"] for r in rows if r["interp"]["verdict"] == "ok"} == frozen["ok_runs"]


# ---------------------------------------------------------------------------
# Frozen campaign bytes

# `campaign_digests.json` holds the digest of every file a stub campaign
# over these sources writes, and of its `spe stats` output, as first
# recorded, so a change to any byte of a log, summary or report shows
# here. A report's first_seen is the time it was written, so it is
# masked. The stubs are found on PATH, so no temporary path reaches a
# repro.sh, and the paths in the summary are relative. The cap keeps
# the run short and still takes loop__v18, evilcc's one wrong -O3 run.
DIGEST_CORPUS = {"loop": LOOP_SRC, "branch": BRANCH_SRC, "scoped": SCOPED_SRC, "straight": STRAIGHT_SRC}
DIGEST_CAP = 20
DIGEST_STUBS = {"okcc": OK_STUB, "crashcc": CRASH_STUB, "evilcc": EVIL_STUB}
FIRST_SEEN = re.compile(rb'"first_seen": "[^"]*"')


def digest_campaign_args(tmp_path: Path, monkeypatch) -> list[str]:
    """Write the digest corpus, stubs and toolchain into tmp_path, put the
    stubs on PATH and change into tmp_path; returns the arguments of the
    campaign's `spe test` but its --out."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, body in DIGEST_STUBS.items():
        write_stub(bin_dir, name, body)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    monkeypatch.chdir(tmp_path)
    for stem, src in DIGEST_CORPUS.items():
        Path(f"{stem}.c").write_text(src)
    cfg = {
        "compilers": [{"name": n, "cmd": f"{n} {{flags}} -o {{output}} {{input}}"} for n in DIGEST_STUBS],
        "flags": [["-O0"], ["-O3"]],
        "workers": 2,
    }
    Path("toolchain.json").write_text(json.dumps(cfg))
    corpus = [f"{stem}.c" for stem in DIGEST_CORPUS]
    return ["test", *corpus, "--cap", str(DIGEST_CAP), "--config", "toolchain.json"]


def campaign_digests(tmp_path: Path, monkeypatch) -> dict[str, str]:
    runner = CliRunner()
    res = runner.invoke(main, [*digest_campaign_args(tmp_path, monkeypatch), "--out", "out"])
    assert res.exit_code == 1, res.output
    stats = runner.invoke(main, ["stats", "out/outcomes.jsonl"])
    assert stats.exit_code == 0, stats.output
    files = {"spe stats": stats.output.encode()}
    for name in ("outcomes.jsonl", "summary.json"):
        files[name] = Path("out", name).read_bytes()
    for path in sorted(Path("out/reports").glob("*/*")):
        files[path.relative_to("out").as_posix()] = FIRST_SEEN.sub(b'"first_seen": "#"', path.read_bytes())
    return {name: hashlib.sha256(data).hexdigest()[:16] for name, data in files.items()}


def test_campaign_matches_frozen_digests(tmp_path, monkeypatch):
    frozen = json.loads((Path(__file__).parent / "campaign_digests.json").read_text())
    assert campaign_digests(tmp_path, monkeypatch) == frozen


# ---------------------------------------------------------------------------
# Kill anywhere

KILL_SEED = 0
KILLS = 3


def _running_in_group(stat: Path, pgid: int) -> bool:
    """Whether the process whose /proc stat file this is belongs to the
    group and has not exited."""
    try:
        state, _, pgrp = stat.read_text().rpartition(")")[2].split()[:3]
    except (OSError, ValueError):
        return False
    return state != "Z" and int(pgrp) == pgid


def _wait_for_group(pgid: int) -> None:
    """Return once no process of the group runs. A killed campaign's
    cells are reparented when it dies, and their new parent may reap
    them late; an exited process that is not reaped yet runs no code,
    so it counts as gone."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if not any(_running_in_group(stat, pgid) for stat in Path("/proc").glob("[0-9]*/stat")):
            return
        time.sleep(0.01)
    raise AssertionError(f"process group {pgid} still runs")


def _campaign_tree(out: Path) -> dict[str, object]:
    """Every file under a campaign's --out by relative path, first_seen
    masked, and summary.json without its two per-run counters."""
    tree: dict[str, object] = {
        path.relative_to(out).as_posix(): FIRST_SEEN.sub(b'"first_seen": "#"', path.read_bytes())
        for path in out.rglob("*")
        if path.is_file()
    }
    summary = json.loads(tree.pop("summary.json"))
    del summary["log_rows_appended"], summary["new_reports"]
    tree["summary.json"] = summary
    return tree


def test_campaign_killed_anywhere_resumes_to_the_uninterrupted_tree(tmp_path, monkeypatch):
    # the campaign and its cells run in a process group of their own,
    # which SIGKILL ends at once, at seeded moments spread over the span
    # of an uninterrupted run
    argv = [sys.executable, "-m", "spe.cli", *digest_campaign_args(tmp_path, monkeypatch)]
    monkeypatch.setenv("SPE_TMPDIR", str(tmp_path / "cells"))
    env = spe_env()
    procs = []

    def spe(out: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [*argv, "--out", out], env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        procs.append(proc)
        return proc

    try:
        start = time.monotonic()
        assert spe("clean").wait(timeout=60) == 1
        span = time.monotonic() - start
        clean = _campaign_tree(Path("clean"))
        rng = random.Random(KILL_SEED)
        killed = 0
        for i in range(KILLS):
            out = f"killed{i}"
            proc = spe(out)
            time.sleep(span * (i + rng.random()) / KILLS)
            os.killpg(proc.pid, signal.SIGKILL)
            killed += proc.wait(timeout=60) == -signal.SIGKILL
            _wait_for_group(proc.pid)
            assert spe(out).wait(timeout=60) == 1
            assert _campaign_tree(Path(out)) == clean, i
        assert killed
    finally:
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
