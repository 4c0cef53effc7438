"""Command line behaviour: counts, deterministic enumeration output,
budget handling, campaign exit codes, and log statistics."""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BRANCH_SRC,
    CRASH_STUB,
    LOOP_SRC,
    OK_STUB,
    SCOPED_SRC,
    SHADOW_SRC,
    random_source,
    write_stub,
)
from oracles import reference_manifest
from spe.cli import EXIT_CONFIG, EXIT_FINDINGS, EXIT_OK, EXIT_THRESHOLD, main
from spe.combinat import Mode
from spe.enumerator import plan, variants
from spe.harness import read_log
from spe.minilang import ParseError, parse, render
from spe.skeleton import Granularity, extract

# nested declaring blocks: rejected by paper mode, fine in complete mode
NESTED_SRC = """\
int main(void) {
    int a = 1;
    if (a) {
        int b = 2;
        if (b) {
            int c = 3;
            c = a + b;
        }
    }
    return 0;
}
"""

STRAIGHT_SRC = """\
int main(void) {
    int a;
    int b;
    a = 3;
    b = a;
    return b;
}
"""


# 300 nested parentheses: past the parser's nesting limit
DEEP_SRC = (
    "int main(void) {\n    int x = 1;\n    x = "
    + "(" * 300 + "x" + ")" * 300
    + ";\n    return x;\n}\n"
)

# A Latin-1 byte (0xff) that is not UTF-8
NON_UTF8_SRC = b"int main(void) {\n    return 0;\n}\n\xff\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def corpus(tmp_path):
    files = {}
    for stem, src in (
        ("loop", LOOP_SRC),
        ("branch", BRANCH_SRC),
        ("nested", NESTED_SRC),
        ("straight", STRAIGHT_SRC),
        ("shadow", SHADOW_SRC),
    ):
        path = tmp_path / f"{stem}.c"
        path.write_text(src)
        files[stem] = path
    return files


def fail_variants_at(monkeypatch, k, exc):
    """Make the variant stream, which both commands write their variant
    files from, raise `exc` at entry k."""
    import spe.enumerator

    real = spe.enumerator.variants

    def failing(*args, **kwargs):
        for i, v in enumerate(real(*args, **kwargs)):
            if i == k:
                raise exc
            yield v

    monkeypatch.setattr(spe.enumerator, "variants", failing)


def stub_config_file(tmp_path, *stubs, workers=2):
    compilers = []
    for name, body in stubs:
        path = write_stub(tmp_path, name, body)
        compilers.append({"name": name, "cmd": f"{path} {{flags}} -o {{output}} {{input}}"})
    cfg = {
        "compilers": compilers,
        "flags": [["-O0"], ["-O3"]],
        "timeout_s": 5,
        "workers": workers,
    }
    path = tmp_path / "toolchain.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCount:
    def test_table_rows_and_totals(self, runner, corpus):
        res = runner.invoke(main, ["count", str(corpus["loop"]), str(corpus["branch"])])
        assert res.exit_code == EXIT_OK
        lines = res.output.splitlines()
        loop_row = next(l for l in lines if "loop.c" in l)
        assert loop_row.split()[1:] == ["6", "64", "32", "32", "2.0x"]
        branch_row = next(l for l in lines if "branch.c" in l)
        assert branch_row.split()[1:] == ["5", "128", "36", "40", "3.2x"]
        total_row = next(l for l in lines if l.startswith("total"))
        assert total_row.split()[1:] == ["192", "72", "2.7x"]

    def test_json_format(self, runner, corpus):
        res = runner.invoke(
            main, ["count", "--format", "json", str(corpus["loop"])]
        )
        assert res.exit_code == EXIT_OK
        doc = json.loads(res.output)
        (row,) = doc["files"]
        assert row["holes"] == 6
        assert row["naive"] == 64
        assert row["paper"] == 32
        assert row["complete"] == 32
        assert row["enumerated"] == 32
        assert row["reduction"] == 2.0
        assert doc["totals"] == {
            "files": 1,
            "naive": 64,
            "enumerated": 32,
            "reduction": 2.0,
        }

    def test_paper_mode_selects_paper_count(self, runner, corpus):
        res = runner.invoke(
            main,
            ["count", "--format", "json", "--mode", "paper", str(corpus["branch"])],
        )
        doc = json.loads(res.output)
        assert doc["files"][0]["enumerated"] == 36

    def test_paper_count_dash_when_unsupported(self, runner, corpus):
        res = runner.invoke(main, ["count", str(corpus["nested"])])
        assert res.exit_code == EXIT_OK
        row = next(l for l in res.output.splitlines() if "nested.c" in l)
        # paper column shows a dash, complete-mode reduction still computed
        assert row.split()[2:4] == ["54", "-"]
        assert row.split()[5].endswith("x")

    def test_unparseable_file_exits_config(self, runner, tmp_path):
        bad = tmp_path / "bad.c"
        bad.write_text("int main(void) { return 0 ")
        res = runner.invoke(main, ["count", str(bad)])
        assert res.exit_code == EXIT_CONFIG

    def test_too_deep_file_exits_config(self, runner, tmp_path):
        deep = tmp_path / "deep.c"
        deep.write_text(DEEP_SRC)
        with pytest.raises(ParseError) as e:
            parse(DEEP_SRC)
        assert e.value.kind == "nesting"
        res = runner.invoke(main, ["count", str(deep)])
        assert res.exit_code == EXIT_CONFIG
        assert res.output == f"{deep}: {e.value}\n"

    def test_missing_file_exits_config(self, runner, tmp_path):
        res = runner.invoke(main, ["count", str(tmp_path / "nope.c")])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["count", "skeleton", "enumerate"])
    def test_non_utf8_file_exits_config(self, runner, corpus, tmp_path, command):
        bad = tmp_path / "latin.c"
        bad.write_bytes(NON_UTF8_SRC)
        out = tmp_path / "out"
        extra = ["--out", str(out)] if command == "enumerate" else []
        res = runner.invoke(main, [command, str(corpus["loop"]), str(bad), *extra])
        assert res.exit_code == EXIT_CONFIG
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line.startswith(f"{bad}: ") and "utf-8" in line
        assert not out.exists()

    def test_shadowing_file_exits_config(self, runner, corpus):
        res = runner.invoke(main, ["count", str(corpus["loop"]), str(corpus["shadow"])])
        assert res.exit_code == EXIT_CONFIG
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line.startswith(f"{corpus['shadow']}: ") and "shadowing" in line


class TestSkeleton:
    def test_json_document(self, runner, corpus):
        res = runner.invoke(main, ["skeleton", str(corpus["loop"])])
        assert res.exit_code == EXIT_OK
        doc = json.loads(res.output)
        assert doc["schema"] == 1
        (skel,) = doc["skeletons"]
        assert skel["file"].endswith("loop.c")
        assert skel["n"] == 6
        assert [h["index"] for h in skel["holes"]] == [1, 2, 3, 4, 5, 6]
        assert skel["origin_vector"] == ["a", "b", "a", "a", "a", "b"]

    def test_decl_holes_flag(self, runner, corpus):
        res = runner.invoke(
            main, ["skeleton", "--decl-holes", str(corpus["straight"])]
        )
        doc = json.loads(res.output)
        # four use holes plus the two declaration holes
        assert doc["skeletons"][0]["n"] == 6
        assert doc["skeletons"][0]["decl_holes"] is True


class TestEnumerate:
    def test_writes_variants_and_manifest(self, runner, corpus, tmp_path):
        out = tmp_path / "variants"
        res = runner.invoke(main, ["enumerate", str(corpus["loop"]), "--out", str(out)])
        assert res.exit_code == EXIT_OK
        vdir = out / "loop"
        files = sorted(p.name for p in vdir.glob("*.c"))
        assert len(files) == 32
        assert files[0] == "loop__v01.c" and files[-1] == "loop__v32.c"
        manifest = json.loads((vdir / "manifest.json").read_text())
        assert manifest["count"] == 32
        assert manifest["written"] == 32
        assert manifest["invalid"] == 0
        assert manifest["mode"] == "complete"
        first = manifest["variants"][0]
        assert first["seq"] == 1 and first["valid"]
        assert first["assignment"] == ["a", "a", "a", "a", "a", "a"]
        # the origin program is among the written variants, byte for byte
        sources = {(vdir / f).read_text() for f in files}
        assert render(parse(LOOP_SRC)) in sources

    def test_rerun_is_byte_identical(self, runner, corpus, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            res = runner.invoke(
                main, ["enumerate", str(corpus["loop"]), "--out", str(out)]
            )
            assert res.exit_code == EXIT_OK
            outs.append(out / "loop")
        a, b = outs
        names_a = sorted(p.name for p in a.iterdir())
        assert names_a == sorted(p.name for p in b.iterdir())
        for name in names_a:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_threshold_refusal(self, runner, corpus, tmp_path):
        out = tmp_path / "variants"
        res = runner.invoke(
            main,
            ["enumerate", str(corpus["loop"]), "--threshold", "10", "--out", str(out)],
        )
        assert res.exit_code == EXIT_THRESHOLD
        assert not (out / "loop").exists()

    def test_cap_takes_prefix(self, runner, corpus, tmp_path):
        out = tmp_path / "variants"
        res = runner.invoke(
            main, ["enumerate", str(corpus["loop"]), "--cap", "5", "--out", str(out)]
        )
        assert res.exit_code == EXIT_OK
        vdir = out / "loop"
        assert sorted(p.name for p in vdir.glob("*.c")) == [
            f"loop__v{i}.c" for i in range(1, 6)
        ]
        manifest = json.loads((vdir / "manifest.json").read_text())
        assert manifest["count"] == 32 and manifest["emitted"] == 5

    def test_threshold_and_cap_conflict(self, runner, corpus, tmp_path):
        res = runner.invoke(
            main,
            [
                "enumerate",
                str(corpus["loop"]),
                "--threshold",
                "10",
                "--cap",
                "5",
                "--out",
                str(tmp_path / "v"),
            ],
        )
        assert res.exit_code == 2

    @pytest.mark.parametrize(
        "budget", [["--threshold", "0"], ["--cap", "0"], ["--cap", "-2"]]
    )
    def test_budget_below_one_exits_config(self, runner, corpus, tmp_path, budget):
        out = tmp_path / "v"
        res = runner.invoke(
            main, ["enumerate", str(corpus["loop"]), *budget, "--out", str(out)]
        )
        assert res.exit_code == EXIT_CONFIG
        assert not out.exists()

    def test_duplicate_stems_exit_config(self, runner, corpus, tmp_path):
        twin = tmp_path / "twin" / "loop.c"
        twin.parent.mkdir()
        twin.write_text(STRAIGHT_SRC)
        out = tmp_path / "v"
        res = runner.invoke(
            main, ["enumerate", str(corpus["loop"]), str(twin), "--out", str(out)]
        )
        assert res.exit_code == EXIT_CONFIG
        assert str(corpus["loop"]) in res.output and str(twin) in res.output
        assert not out.exists()

    def test_decl_holes_invalid_markers(self, runner, corpus, tmp_path):
        out = tmp_path / "v"
        res = runner.invoke(
            main,
            ["enumerate", "--decl-holes", str(corpus["straight"]), "--out", str(out)],
        )
        assert res.exit_code == EXIT_OK
        manifest = json.loads((out / "straight" / "manifest.json").read_text())
        assert (manifest["count"], manifest["written"], manifest["invalid"]) == (32, 16, 16)
        entries = manifest["variants"]
        assert [e["valid"] for e in entries] == [False] * 16 + [True] * 16
        for e in entries[:16]:
            assert set(e) == {"seq", "valid", "assignment", "signature", "error"}
        assert [e["file"] for e in entries[16:]] == [
            f"straight__v{seq}.c" for seq in range(17, 33)
        ]

    @pytest.mark.parametrize(
        "last,option,code",
        [
            ("nested", ["--mode", "paper"], EXIT_CONFIG),
            ("branch", ["--threshold", "35"], EXIT_THRESHOLD),
        ],
    )
    def test_late_refusal_writes_nothing(self, runner, corpus, tmp_path, last, option, code):
        out = tmp_path / "v"
        paths = [str(corpus["straight"]), str(corpus["loop"]), str(corpus[last])]
        res = runner.invoke(main, ["enumerate", *paths, *option, "--out", str(out)])
        assert res.exit_code == code
        assert str(corpus[last]) in res.output
        assert not out.exists()

    def test_shadowing_file_exits_config_and_writes_nothing(self, runner, corpus, tmp_path):
        out = tmp_path / "v"
        paths = [str(corpus["loop"]), str(corpus["shadow"])]
        res = runner.invoke(main, ["enumerate", *paths, "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line.startswith(f"{corpus['shadow']}: ") and "shadowing" in line
        assert not out.exists()

    def test_paper_mode_unsupported_exits_config(self, runner, corpus, tmp_path):
        res = runner.invoke(
            main,
            [
                "enumerate",
                str(corpus["nested"]),
                "--mode",
                "paper",
                "--out",
                str(tmp_path / "v"),
            ],
        )
        assert res.exit_code == EXIT_CONFIG

    @staticmethod
    def _variant_files(vdir, stem):
        return sorted(p.name for p in vdir.iterdir() if re.fullmatch(stem + r"__v[0-9]+\.c", p.name))

    @staticmethod
    def _manifest_files(vdir):
        entries = json.loads((vdir / "manifest.json").read_text())["variants"]
        return sorted(e["file"] for e in entries if e["valid"])

    def test_rerun_removes_stale_variants(self, runner, corpus, tmp_path):
        out = tmp_path / "out"
        vdir = out / "loop"
        args = ["enumerate", str(corpus["loop"]), "--out", str(out)]
        assert runner.invoke(main, [*args, "--cap", "30"]).exit_code == EXIT_OK
        kept = {"notes.txt": "mine", "loop__v01.c.orig": "mine", "loop__vx.c": "mine"}
        for name, text in kept.items():
            (vdir / name).write_text(text)
        assert runner.invoke(main, [*args, "--cap", "5"]).exit_code == EXIT_OK
        files = self._variant_files(vdir, "loop")
        assert files == self._manifest_files(vdir) == [f"loop__v{i}.c" for i in range(1, 6)]
        assert {n: (vdir / n).read_text() for n in kept} == kept

    def test_rerun_removes_stale_files_at_invalid_seqs(self, runner, corpus, tmp_path):
        # --decl-holes emits 32 entries of which 16 are invalid; an earlier
        # file at every seq, at this width and others, must go unless rewritten
        out = tmp_path / "out"
        vdir = out / "straight"
        vdir.mkdir(parents=True)
        for name in [f"straight__v{i:02d}.c" for i in range(0, 34)] + ["straight__v7.c", "straight__v007.c"]:
            (vdir / name).write_text("stale\n")
        args = ["enumerate", "--decl-holes", str(corpus["straight"]), "--out", str(out)]
        assert runner.invoke(main, args).exit_code == EXIT_OK
        files = self._variant_files(vdir, "straight")
        assert files == self._manifest_files(vdir) and len(files) == 16
        assert all((vdir / f).read_text() != "stale\n" for f in files)

    @pytest.mark.parametrize("fail_at", [0, 3])
    def test_failed_rerun_removes_nothing(self, runner, corpus, tmp_path, monkeypatch, fail_at):
        out = tmp_path / "out"
        vdir = out / "loop"
        args = ["enumerate", str(corpus["loop"]), "--out", str(out)]
        assert runner.invoke(main, [*args, "--cap", "30"]).exit_code == EXIT_OK
        before = {p.name: p.read_bytes() for p in vdir.iterdir()}
        fail_variants_at(monkeypatch, fail_at, RuntimeError("injected"))
        res = runner.invoke(main, [*args, "--cap", "5"])
        assert isinstance(res.exception, RuntimeError)
        # this run's first variants may be written; nothing earlier changes
        assert {n: (vdir / n).read_bytes() for n in before} == before


class TestTestCommand:
    def test_clean_campaign_exits_zero(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == EXIT_OK
        assert "reports: 0" in res.output
        assert (out / "outcomes.jsonl").exists()
        assert (out / "summary.json").exists()

    def test_findings_exit_one_and_are_listed(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(corpus["straight"]), "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == EXIT_FINDINGS
        assert any(l.strip().startswith("crash-") for l in res.output.splitlines())

    @pytest.mark.parametrize(
        "lead,decoded",
        [(r"\377\376", "��"), (r"\303\251t\303\251", "été")],
        ids=["not-utf8", "utf8"],
    )
    def test_compiler_output_in_any_bytes(self, runner, corpus, tmp_path, lead, decoded):
        # bytes that are not UTF-8 are replaced; UTF-8 is decoded as it was
        stub = f"#!/bin/sh\nprintf '{lead} internal compiler error: in f, at x.c:1\\n' >&2\nexit 4\n"
        cfg = stub_config_file(tmp_path, ("bytescc", stub))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main, ["test", str(corpus["straight"]), "--config", str(cfg), "--out", str(out)]
        )
        # an uncaught exception would exit 1 too
        assert isinstance(res.exception, SystemExit) and res.exit_code == EXIT_FINDINGS, res.output
        line = f"{decoded} internal compiler error: in f, at x.c:#"
        rows = read_log(out / "outcomes.jsonl").values()
        assert rows and all(
            r["compile"] == {"status": "crash", "exit": 4, "signature": line, "stderr": line + "\n"}
            for r in rows
        )

    def test_rerun_removes_stale_variants(self, runner, corpus, tmp_path):
        # the seq width follows --cap, so the second run names its files anew
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        args = ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(out)]
        assert runner.invoke(main, [*args, "--cap", "30"]).exit_code == EXIT_OK
        assert runner.invoke(main, [*args, "--cap", "5"]).exit_code == EXIT_OK
        vdir = out / "variants" / "loop"
        assert sorted(p.name for p in vdir.iterdir()) == [f"loop__v{i}.c" for i in range(1, 6)]

    @pytest.mark.parametrize("fail_at", [0, 3])
    def test_failed_rerun_removes_nothing(self, runner, corpus, tmp_path, monkeypatch, fail_at):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        vdir = out / "variants" / "loop"
        args = ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(out)]
        assert runner.invoke(main, [*args, "--cap", "30"]).exit_code == EXIT_OK
        before = {p.name: p.read_bytes() for p in vdir.iterdir()}
        fail_variants_at(monkeypatch, fail_at, RuntimeError("injected"))
        res = runner.invoke(main, [*args, "--cap", "5"])
        assert isinstance(res.exception, RuntimeError)
        # this run's first variants may be written; nothing earlier changes
        assert {n: (vdir / n).read_bytes() for n in before} == before

    def test_rerun_removes_stale_files_at_invalid_seqs(self, runner, corpus, tmp_path):
        # --decl-holes emits 32 entries of which 16 are invalid and get no file
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        vdir = out / "variants" / "straight"
        vdir.mkdir(parents=True)
        for name in [f"straight__v{i:02d}.c" for i in range(0, 34)] + ["straight__v7.c"]:
            (vdir / name).write_text("stale\n")
        args = ["test", "--decl-holes", str(corpus["straight"]), "--config", str(cfg), "--out", str(out)]
        # findings: the stub's binaries exit 0 where the variants return 3
        assert runner.invoke(main, args).exit_code == EXIT_FINDINGS
        files = list(vdir.iterdir())
        assert len(files) == 16 and all(p.read_text() != "stale\n" for p in files)

    def test_bad_config_exits_config(self, runner, corpus, tmp_path):
        cfg = tmp_path / "toolchain.json"
        cfg.write_text(
            json.dumps(
                {
                    "compilers": [{"name": "ghost", "cmd": "/nonexistent/cc {flags} -o {output} {input}"}],
                    "flags": [["-O0"]],
                    "timeout_s": 5,
                    "workers": 1,
                }
            )
        )
        res = runner.invoke(
            main,
            ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(tmp_path / "o")],
        )
        assert res.exit_code == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "names,flags",
        [(("cc", "cc"), [["-O0"]]), (("cc", "cc2"), [["-O0"], ["-O0"]])],
        ids=["compiler", "flags"],
    )
    def test_duplicate_cells_exit_config(self, runner, corpus, tmp_path, names, flags):
        # two cells with one (variant, compiler, flags) key would share log rows
        stub = write_stub(tmp_path, "okcc", OK_STUB)
        cfg = tmp_path / "toolchain.json"
        cfg.write_text(
            json.dumps(
                {
                    "compilers": [
                        {"name": n, "cmd": f"{stub} {{flags}} -o {{output}} {{input}}"} for n in names
                    ],
                    "flags": flags,
                }
            )
        )
        out = tmp_path / "campaign"
        res = runner.invoke(main, ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("configuration error: ") and "is configured twice" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("timeout,shown", [(2_147_484, "2147484"), (1e9, "1000000000")])
    def test_oversized_timeout_exits_config(self, runner, corpus, tmp_path, timeout, shown):
        # poll() waits at most 2**31 - 1 ms, so a longer timeout would
        # raise OverflowError inside the first cell
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        doc = json.loads(cfg.read_text())
        doc["timeout_s"] = timeout
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "campaign"
        res = runner.invoke(main, ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == EXIT_CONFIG
        assert isinstance(res.exception, SystemExit)
        assert res.output == f"configuration error: timeout_s must be in 1..2147483, got {shown}\n"
        assert not out.exists()

    def test_too_deep_file_is_unparseable(self, runner, corpus, tmp_path):
        deep = tmp_path / "deep.c"
        deep.write_text(DEEP_SRC)
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(deep), str(corpus["loop"]), "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == EXIT_OK
        assert "tested: 1" in res.output and "unparseable: 1" in res.output
        summary = json.loads((out / "summary.json").read_text())
        assert [(f["stem"], f["status"]) for f in summary["files"]] == [
            ("deep", "unparseable"),
            ("loop", "tested"),
        ]

    def test_non_utf8_file_is_unparseable(self, runner, corpus, tmp_path):
        bad = tmp_path / "latin.c"
        bad.write_bytes(NON_UTF8_SRC)
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(bad), str(corpus["loop"]), "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == EXIT_OK, res.output
        assert "tested: 1" in res.output and "unparseable: 1" in res.output
        summary = json.loads((out / "summary.json").read_text())
        first, second = summary["files"]
        assert (first["stem"], first["status"]) == ("latin", "unparseable")
        assert "utf-8" in first["error"]
        assert (second["stem"], second["status"]) == ("loop", "tested")

    @pytest.mark.parametrize(
        "key,value",
        [
            ("timeout_s", "abc"),
            ("workers", "two"),
            # int() would truncate these or accept them
            ("timeout_s", 1.9),
            ("timeout_s", 0.5),
            ("timeout_s", True),
            ("timeout_s", "30"),
            ("workers", 2.5),
            ("flags", 5),
            ("flags", ["-O0", "-O2"]),
            ("flags", "-O2"),
        ],
    )
    def test_malformed_toolchain_value_exits_config(self, runner, corpus, tmp_path, key, value):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        doc = json.loads(cfg.read_text())
        doc[key] = value
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main, ["test", str(corpus["loop"]), "--config", str(cfg), "--out", str(out)]
        )
        assert res.exit_code == EXIT_CONFIG
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"configuration error: malformed {key}: ")
        assert not out.exists()

    def test_shadowing_file_is_unsupported(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(corpus["straight"]), str(corpus["shadow"]),
             "--config", str(cfg), "--out", str(out)],
        )
        # the stub's binaries exit 0 where straight returns 3: findings
        assert res.exit_code == EXIT_FINDINGS
        summary = json.loads((out / "summary.json").read_text())
        assert [(f["stem"], f["status"]) for f in summary["files"]] == [
            ("straight", "tested"),
            ("shadow", "unsupported"),
        ]
        assert "shadowing" in summary["files"][1]["error"]
        assert summary["totals"]["unsupported"] == 1
        assert res.output.splitlines()[0] == (
            "files: 2 tested: 1 skipped: 0 unparseable: 0 unsupported: 1"
        )
        assert len(read_log(out / "outcomes.jsonl")) == 16

    def test_rerun_neither_parses_nor_interprets_logged_variants(
        self, runner, corpus, tmp_path, monkeypatch
    ):
        import spe.harness

        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        args = ["test", str(corpus["straight"]), "--config", str(cfg), "--out", str(out)]
        assert runner.invoke(main, args).exit_code == EXIT_FINDINGS
        first = json.loads((out / "summary.json").read_text())
        log = (out / "outcomes.jsonl").read_bytes()
        assert first["log_rows_appended"] == 16 and first["new_reports"]["wrong_code"]

        real_parse = spe.harness.parse

        def parse_input_only(text):
            assert text == STRAIGHT_SRC, "parsed a variant"
            return real_parse(text)

        def forbidden(*args, **kwargs):
            raise AssertionError("interpreted a logged variant")

        monkeypatch.setattr(spe.harness, "parse", parse_input_only)
        monkeypatch.setattr(spe.harness, "interpret", forbidden)
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_FINDINGS, res.output
        rerun = json.loads((out / "summary.json").read_text())
        assert rerun == {
            **first,
            "log_rows_appended": 0,
            "new_reports": {"crash": 0, "wrong_code": 0},
        }
        assert (out / "outcomes.jsonl").read_bytes() == log

    @pytest.mark.parametrize(
        "budget", [["--threshold", "0"], ["--cap", "0"], ["--cap", "-2"]]
    )
    def test_budget_below_one_exits_config(self, runner, corpus, tmp_path, budget):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(corpus["loop"]), *budget, "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == EXIT_CONFIG
        assert not out.exists()

    def test_duplicate_stems_exit_config(self, runner, corpus, tmp_path):
        twin = tmp_path / "twin" / "loop.c"
        twin.parent.mkdir()
        twin.write_text(STRAIGHT_SRC)
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", str(corpus["loop"]), str(twin), "--config", str(cfg), "--out", str(out)],
        )
        assert res.exit_code == EXIT_CONFIG
        assert str(corpus["loop"]) in res.output and str(twin) in res.output
        assert not out.exists()

    def test_decl_holes_variants_match_enumerate(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        res = runner.invoke(
            main,
            ["test", "--decl-holes", str(corpus["straight"]),
             "--config", str(cfg), "--out", str(out)],
        )
        # the stub's binaries exit 0, so variants returning 3 are findings
        assert res.exit_code == EXIT_FINDINGS
        summary = json.loads((out / "summary.json").read_text())
        (entry,) = summary["files"]
        assert (entry["enumerated"], entry["invalid"]) == (16, 16)
        enum_out = tmp_path / "enumerated"
        res = runner.invoke(
            main,
            ["enumerate", "--decl-holes", str(corpus["straight"]), "--out", str(enum_out)],
        )
        assert res.exit_code == EXIT_OK
        tested = {p.name: p.read_bytes() for p in (out / "variants" / "straight").iterdir()}
        enumerated = {p.name: p.read_bytes() for p in (enum_out / "straight").glob("*.c")}
        assert len(tested) == 16 and tested == enumerated


class TestStats:
    def test_aggregates_log(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "campaign"
        runner.invoke(
            main,
            ["test", str(corpus["straight"]), "--config", str(cfg), "--out", str(out)],
        )
        res = runner.invoke(main, ["stats", str(out / "outcomes.jsonl")])
        assert res.exit_code == EXIT_OK
        doc = json.loads(res.output)
        assert doc["rows"] == 16
        assert doc["variants"] == 8
        assert doc["compilers"] == {"crashcc": {"crash": 4, "ok": 12}}
        assert len(doc["distinct_crash_signatures"]) == 1


    def test_runs_say_why_a_binary_did_not_run(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("crashcc", CRASH_STUB))
        out = tmp_path / "campaign"
        paths = [str(corpus["loop"]), str(corpus["straight"])]
        runner.invoke(main, ["test", *paths, "--config", str(cfg), "--out", str(out)])
        log = out / "outcomes.jsonl"
        res = runner.invoke(main, ["stats", str(log)])
        assert res.exit_code == EXIT_OK
        # loop: 6 ok, 14 UB and 12 budget variants; straight: its 2
        # variants with `b = a;` crash, 5 of the other 6 are UB
        assert json.loads(res.output)["runs"] == {
            "crashcc": {"none": 4, "ok": 14, "skipped_budget": 24, "skipped_ub": 38, "timeout": 0}
        }

        # rows logged before runs were skipped count by the run they carry
        rows = [json.loads(line) for line in log.read_text().splitlines()]
        for row in rows:
            row["schema"] = 1
            if row.pop("run_skipped", None):
                row["run"] = {"timeout": True} if row["interp"]["verdict"] == "budget" else {
                    "exit": 0, "stdout_sha256": "0" * 64
                }
        log.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
        res = runner.invoke(main, ["stats", str(log)])
        assert json.loads(res.output)["runs"] == {
            "crashcc": {"none": 4, "ok": 52, "skipped_budget": 0, "skipped_ub": 0, "timeout": 24}
        }


class TestTornLog:
    """An interrupted campaign can leave its log's last line half
    written; both readers of the log carry on past it."""

    def campaign(self, runner, cfg, path, out):
        return runner.invoke(main, ["test", str(path), "--config", str(cfg), "--out", str(out)])

    def test_torn_last_line_is_ignored_then_rerun(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        assert self.campaign(runner, cfg, corpus["loop"], out).exit_code == EXIT_OK
        log = out / "outcomes.jsonl"
        whole = log.read_bytes()
        assert whole.count(b"\n") == 64
        log.write_bytes(whole[:-40])

        res = runner.invoke(main, ["stats", str(log)])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["rows"] == 63

        assert self.campaign(runner, cfg, corpus["loop"], out).exit_code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert summary["log_rows_appended"] == 1
        assert log.read_bytes() == whole

    def test_whole_last_row_without_newline_is_kept(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        # the stub's binaries exit 0 where straight returns 3: findings
        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        log = out / "outcomes.jsonl"
        whole = log.read_bytes()
        log.write_bytes(whole[:-1])

        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        assert json.loads((out / "summary.json").read_text())["log_rows_appended"] == 0
        assert log.read_bytes() == whole

    def test_corrupt_middle_line_exits_config(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        log = out / "outcomes.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2][:-40] + b"\n"
        log.write_bytes(b"".join(lines))

        for res in (
            runner.invoke(main, ["stats", str(log)]),
            self.campaign(runner, cfg, corpus["straight"], out),
        ):
            assert res.exit_code == EXIT_CONFIG
            assert isinstance(res.exception, SystemExit)
            assert f"{log}:3" in res.output


    def test_row_without_compile_status_exits_config(self, runner, corpus, tmp_path):
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        log = out / "outcomes.jsonl"
        whole = log.read_bytes()
        statusless = b'{"variant":"x","compiler":"c","flags":[]}'

        # unterminated, it is a torn last line like any other
        log.write_bytes(whole + statusless)
        res = runner.invoke(main, ["stats", str(log)])
        assert res.exit_code == EXIT_OK
        assert json.loads(res.output)["rows"] == 16

        log.write_bytes(whole + statusless + b"\n")
        for res in (
            runner.invoke(main, ["stats", str(log)]),
            self.campaign(runner, cfg, corpus["straight"], out),
        ):
            assert res.exit_code == EXIT_CONFIG
            assert isinstance(res.exception, SystemExit)
            assert f"{log}:17: not an outcome row" in res.output

    @pytest.mark.parametrize(
        "row",
        [
            '{"variant":"v","compiler":["gcc"],"flags":[],"compile":{"status":"ok"},"interp":{"verdict":"ub"}}',
            '{"variant":7,"compiler":"c","flags":[],"compile":{"status":"ok"},"interp":{"verdict":"ub"}}',
            '{"variant":"v","compiler":"c","flags":"-O0","compile":{"status":"ok"},"interp":{"verdict":"ub"}}',
            '{"variant":"v","compiler":"c","flags":[0],"compile":{"status":"ok"},"interp":{"verdict":"ub"}}',
            '{"variant":"v","compiler":"c","flags":[],"compile":{"status":["ok"]},"interp":{"verdict":"ub"}}',
            '{"variant":"v","compiler":"c","flags":[],"compile":{"status":"ok"},"interp":{"verdict":"ub"},"run":5}',
            '{"variant":"v","compiler":"c","flags":[],"compile":{"status":"ok"},"interp":{"verdict":"ub"},"run":[]}',
            '["v","c",[],{"status":"ok"}]',
        ],
        ids=["compiler-list", "variant-int", "flags-string", "flag-int", "status-list",
             "run-int", "run-list", "not-an-object"],
    )
    def test_unusable_row_exits_config(self, runner, corpus, tmp_path, row):
        # stats and a campaign key, count and tally every row they read
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        log = out / "outcomes.jsonl"
        log.write_bytes(log.read_bytes() + row.encode() + b"\n")
        for res in (
            runner.invoke(main, ["stats", str(log)]),
            self.campaign(runner, cfg, corpus["straight"], out),
        ):
            assert res.exit_code == EXIT_CONFIG
            assert isinstance(res.exception, SystemExit)
            assert f"{log}:17: not an outcome row" in res.output

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda row: row.update(interp=5),
            lambda row: row["interp"].pop("stdout_sha256"),
            lambda row: row["run"].pop("exit"),
        ],
        ids=["interp-int", "interp-without-digest", "run-without-exit"],
    )
    def test_row_with_unusable_interp_or_run_exits_config(self, runner, corpus, tmp_path, mutate):
        # a campaign judges a variant by the interp and run of its rows
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        log = out / "outcomes.jsonl"
        lines = log.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if json.loads(line)["run"])
        row = json.loads(lines[at])
        mutate(row)
        lines[at] = json.dumps(row, sort_keys=True).encode() + b"\n"
        log.write_bytes(b"".join(lines))
        for res in (
            runner.invoke(main, ["stats", str(log)]),
            self.campaign(runner, cfg, corpus["straight"], out),
        ):
            assert res.exit_code == EXIT_CONFIG
            assert isinstance(res.exception, SystemExit)
            assert f"{log}:{at + 1}: not an outcome row" in res.output

    def test_crash_row_without_signature_exits_config(self, runner, corpus, tmp_path):
        # stats and a campaign's crash reports both read the signature
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        out = tmp_path / "campaign"
        assert self.campaign(runner, cfg, corpus["straight"], out).exit_code == EXIT_FINDINGS
        log = out / "outcomes.jsonl"
        whole = log.read_bytes()
        for compile_ in ('{"status":"crash"}', '{"status":"crash","signature":7}'):
            row = b'{"variant":"v","compiler":"c","flags":[],"compile":%s,"interp":{"verdict":"ub"}}\n' % (
                compile_.encode()
            )
            log.write_bytes(whole + row)
            for res in (
                runner.invoke(main, ["stats", str(log)]),
                self.campaign(runner, cfg, corpus["straight"], out),
            ):
                assert res.exit_code == EXIT_CONFIG
                assert isinstance(res.exception, SystemExit)
                assert f"{log}:17: not an outcome row" in res.output


# nine holes over four variables of one pool: 11,051 classes
WIDE_SRC = """\
int main(void) {
    int a = 1;
    int b = 2;
    int c = 3;
    int d = 4;
    a = b + c;
    d = a * b;
    c = d - a;
    return 0;
}
"""


def _enumerate_matches_reference(runner, path, out, mode="complete", granularity="intra",
                                 decl_holes=False, cap=None):
    """Run `spe enumerate` on one file and check its manifest.json
    against the reference manifest of the stream it was written from."""
    options = ["--mode", mode, "--granularity", granularity]
    options += ["--decl-holes"] if decl_holes else []
    options += ["--cap", str(cap)] if cap is not None else []
    res = runner.invoke(main, ["enumerate", str(path), *options, "--out", str(out)])
    assert res.exit_code == EXIT_OK, res.output

    skel = extract(parse(path.read_text()), decl_holes=decl_holes)
    pl = plan(skel, Mode(mode), Granularity(granularity), cap=cap)
    expected = reference_manifest(
        path.stem, str(path), mode, granularity, decl_holes, pl.selected_count,
        list(variants(skel, pl.mode, pl.granularity, limit=cap)),
    )
    written = (out / path.stem / "manifest.json").read_text()
    if written != expected:
        # report the first difference: a full diff of manifests this size
        # takes pytest minutes
        at = next(
            (i for i, (a, b) in enumerate(zip(written, expected)) if a != b),
            min(len(written), len(expected)),
        )
        pytest.fail(f"differs at {at}: {written[at - 80:at + 80]!r} != {expected[at - 80:at + 80]!r}")


class TestManifest:
    """manifest.json is streamed while the variants are written, yet has
    exactly the bytes of the whole document encoded by
    json.dumps(indent=2, sort_keys=True); it appears only complete."""

    @pytest.mark.parametrize(
        "stem,options",
        [
            ("loop", {}),
            ("branch", {}),
            ("scoped", {}),
            ("straight", {}),
            ("nested", {}),
            ("straight", {"decl_holes": True}),
            ("scoped", {"decl_holes": True, "cap": 3000}),
            ("branch", {"mode": "paper"}),
            ("scoped", {"granularity": "inter"}),
            ("scoped", {"decl_holes": True, "granularity": "inter", "mode": "paper", "cap": 300}),
            ("loop", {"cap": 1}),
            ("wide", {"cap": 300}),
        ],
    )
    def test_bytes_equal_reference(self, runner, corpus, tmp_path, stem, options):
        for name, src in (("scoped", SCOPED_SRC), ("wide", WIDE_SRC)):
            corpus[name] = tmp_path / f"{name}.c"
            corpus[name].write_text(src)
        _enumerate_matches_reference(runner, corpus[stem], tmp_path / "out", **options)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        decl_holes=st.booleans(),
        granularity=st.sampled_from(["intra", "inter"]),
        cap=st.sampled_from([1, 7, 500]),
    )
    def test_random_programs_equal_reference(self, seed, decl_holes, granularity, cap):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "prog.c"
            path.write_text(random_source(seed))
            _enumerate_matches_reference(
                CliRunner(), path, Path(d) / "out",
                granularity=granularity, decl_holes=decl_holes, cap=cap,
            )

    @pytest.mark.parametrize("earlier", [False, True])
    @pytest.mark.parametrize("fail_at", ["stream:0", "stream:3", "assembly"])
    def test_failure_leaves_no_torn_manifest(
        self, runner, corpus, tmp_path, monkeypatch, earlier, fail_at
    ):
        import shutil

        out = tmp_path / "out"
        args = ["enumerate", "--decl-holes", str(corpus["straight"]), "--out", str(out)]
        vdir = out / "straight"
        before = None
        if earlier:
            assert runner.invoke(main, [*args, "--cap", "5"]).exit_code == EXIT_OK
            before = (vdir / "manifest.json").read_bytes()

        class Injected(Exception):
            pass

        if fail_at == "assembly":
            def copy(*args):
                raise Injected

            monkeypatch.setattr(shutil, "copyfileobj", copy)
        else:
            fail_variants_at(monkeypatch, int(fail_at.split(":")[1]), Injected)
        res = runner.invoke(main, args)
        assert isinstance(res.exception, Injected)
        if earlier:
            assert (vdir / "manifest.json").read_bytes() == before
        else:
            assert not (vdir / "manifest.json").exists()
        strays = [p.name for p in vdir.iterdir() if p.suffix != ".c" and p.name != "manifest.json"]
        assert strays == []

    def test_memory_does_not_grow_with_cap(self, runner, tmp_path):
        import tracemalloc

        path = tmp_path / "wide.c"
        path.write_text(WIDE_SRC)
        peaks = {}
        for cap in (200, 200, 2000):
            tracemalloc.start()
            try:
                res = runner.invoke(
                    main, ["enumerate", str(path), "--cap", str(cap), "--out", str(tmp_path / f"o{cap}")]
                )
                peaks[cap] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.exit_code == EXIT_OK, res.output
        assert len(list((tmp_path / "o2000" / "wide").glob("*.c"))) == 2000
        assert abs(peaks[2000] - peaks[200]) < 512 * 1024, peaks


class TestHotPath:
    """Without declaration holes, a variant is neither parsed nor
    rendered nor given a signature by canonical_signature: its source
    fills the skeleton's template, rendered once per file, and its
    signature comes from the enumeration stream."""

    def test_no_parse_and_no_signature_per_variant(self, runner, corpus, tmp_path, monkeypatch, loop_skel):
        import spe.enumerator

        scoped = tmp_path / "scoped.c"
        scoped.write_text(SCOPED_SRC)
        paths = [str(corpus["loop"]), str(scoped)]

        def forbidden(*args, **kwargs):
            raise AssertionError("called on the variant path")

        expected = [v.source for v in spe.enumerator.variants(loop_skel)]
        res = runner.invoke(main, ["enumerate", *paths, "--out", str(tmp_path / "plain")])
        assert res.exit_code == EXIT_OK

        import spe.cli

        parsed = []
        renders = []

        def record(log, fn):
            def recorded(*args, **kwargs):
                log.append(args[0])
                return fn(*args, **kwargs)

            return recorded

        monkeypatch.setattr(spe.enumerator, "parse", forbidden)
        monkeypatch.setattr(spe.enumerator, "canonical_signature", forbidden)
        monkeypatch.setattr(spe.enumerator, "render", record(renders, spe.enumerator.render))
        monkeypatch.setattr(spe.cli, "parse", record(parsed, spe.cli.parse))
        assert [v.source for v in spe.enumerator.variants(loop_skel)] == expected
        renders.clear()
        res = runner.invoke(main, ["enumerate", *paths, "--out", str(tmp_path / "guarded")])
        assert res.exit_code == EXIT_OK, res.output
        assert parsed == [LOOP_SRC, SCOPED_SRC]
        assert len(renders) == 2
        for stem in ("loop", "scoped"):
            plain = tmp_path / "plain" / stem
            guarded = tmp_path / "guarded" / stem
            assert (guarded / "manifest.json").read_bytes() == (plain / "manifest.json").read_bytes()
            assert sorted(p.name for p in guarded.iterdir()) == sorted(p.name for p in plain.iterdir())

    def test_decl_holes_renders_once_per_file(self, runner, corpus, tmp_path, monkeypatch):
        import spe.enumerator

        renders = []
        real_render = spe.enumerator.render

        def recorded(*args, **kwargs):
            renders.append(args[0])
            return real_render(*args, **kwargs)

        monkeypatch.setattr(spe.enumerator, "render", recorded)
        res = runner.invoke(
            main,
            ["enumerate", "--decl-holes", str(corpus["straight"]), str(corpus["loop"]),
             "--cap", "300", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == EXIT_OK, res.output
        manifest = json.loads((tmp_path / "out" / "straight" / "manifest.json").read_text())
        assert (manifest["written"], manifest["invalid"]) == (16, 16)
        assert len(renders) == 2


    def test_normal_forms_once_per_file(self, runner, corpus, tmp_path, monkeypatch):
        # the count and the stream share one computation; every loaded spe
        # module's reference is counted, as the traced benchmark wraps them
        import spe.skeleton

        real = spe.skeleton.normal_forms
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "spe" or name.startswith("spe."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, counted)
        paths = [str(corpus["loop"]), str(corpus["branch"])]
        res = runner.invoke(main, ["enumerate", *paths, "--out", str(tmp_path / "e")])
        assert res.exit_code == EXIT_OK, res.output
        assert len(calls) == 2
        calls.clear()
        cfg = stub_config_file(tmp_path, ("okcc", OK_STUB))
        res = runner.invoke(
            main, ["test", *paths, "--cap", "3", "--config", str(cfg), "--out", str(tmp_path / "t")]
        )
        assert res.exit_code == EXIT_OK, res.output
        assert len(calls) == 2


def _spe_env() -> dict:
    """The environment for a `python -m spe.cli` child: the spe package
    these tests import comes first on its path, so a plain `pytest` in a
    checkout runs the child from the checkout too."""
    import spe

    src = str(Path(spe.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestEntryPoint:
    def test_module_invocation(self, corpus):
        proc = subprocess.run(
            [sys.executable, "-m", "spe.cli", "count", str(corpus["loop"])],
            capture_output=True,
            text=True,
            timeout=60,
            env=_spe_env(),
        )
        assert proc.returncode == 0
        assert "loop.c" in proc.stdout

    def test_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spe.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
            env=_spe_env(),
        )
        assert proc.returncode == 0
        assert "0.1.0" in proc.stdout
