"""Differential-testing harness over enumerated variants.

A campaign walks a corpus of source files, enumerates each file's
variants, and compiles every variant under every (compiler, flags)
cell of the toolchain matrix, with the reference interpreter as ground
truth. Only the variants the interpreter finds UB-free and terminating
are run, since only their runs can be judged. Compile crashes are
deduplicated by normalized diagnostic signature; output disagreements
on UB-free variants become wrong-code candidates. All outcomes land in an append-only JSONL log keyed by
(variant id, compiler, flags), so re-running a campaign is idempotent
and worker scheduling cannot change the persisted result.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import re
import shlex
import shutil
import stat
import subprocess
import tempfile
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .combinat import Mode
from .enumerator import DEFAULT_THRESHOLD, ConfigError, check_unique_stems, plan, variant_files
from .minilang.interp import Status, interpret
from .minilang.parser import ParseError, parse
from .skeleton import Granularity, ShadowingError, extract

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_THRESHOLD",
    "DEFAULT_FLAG_MATRIX",
    "ConfigError",
    "CompilerSpec",
    "ToolchainConfig",
    "normalize_signature",
    "differential_verdict",
    "run_campaign",
    "read_log",
]

SCHEMA_VERSION = 2
DEFAULT_FLAG_MATRIX: tuple[tuple[str, ...], ...] = (("-O0",), ("-O3",))
DEFAULT_TIMEOUT_S = 30
# the longest timeout subprocess can wait for: poll() takes milliseconds
# in a C int
MAX_TIMEOUT_S = 2_147_483
DEFAULT_WORKERS = 4
# variants a campaign keeps in flight per worker: enough to keep the
# pool busy while the main thread interprets, few enough that memory
# does not grow with the number of variants
_WINDOW = 4

# compile output that marks a crash even when the process exits normally
_ICE_MARKERS = (
    "internal compiler error",
    "Segmentation fault",
    "Assertion",
    "UNREACHABLE executed",
    "PLEASE submit a bug report",
)


@dataclass(frozen=True)
class CompilerSpec:
    """One compiler entry: a display name and a command template using
    the placeholders {input}, {output} and {flags}."""

    name: str
    cmd: str

    def binary(self) -> str:
        return shlex.split(self.cmd)[0]

    def argv(self, input_path: str, output_path: str, flags: Sequence[str]) -> list[str]:
        out: list[str] = []
        for tok in shlex.split(self.cmd):
            if tok == "{flags}":
                out.extend(flags)
            else:
                out.append(tok.replace("{input}", input_path).replace("{output}", output_path))
        return out


@dataclass(frozen=True)
class ToolchainConfig:
    compilers: tuple[CompilerSpec, ...]
    flags: tuple[tuple[str, ...], ...] = DEFAULT_FLAG_MATRIX
    timeout_s: int = DEFAULT_TIMEOUT_S
    workers: int = DEFAULT_WORKERS

    def validate(self) -> None:
        """Shape and executability checks; ConfigError on the first
        problem so a bad setup never reaches enumeration."""
        if not self.compilers:
            raise ConfigError("no compilers configured")
        if not 1 <= self.timeout_s <= MAX_TIMEOUT_S:
            raise ConfigError(f"timeout_s must be in 1..{MAX_TIMEOUT_S}, got {self.timeout_s}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if not self.flags:
            raise ConfigError("flag matrix is empty")
        # each cell is logged under its compiler's name and its joined flags
        for what, keys in (
            ("compiler name", [spec.name for spec in self.compilers]),
            ("flag row", [" ".join(flags) for flags in self.flags]),
        ):
            repeated = [k for i, k in enumerate(keys) if k in keys[:i]]
            if repeated:
                raise ConfigError(f"{what} {repeated[0]!r} is configured twice")
        for spec in self.compilers:
            if spec.cmd.count("{input}") != 1:
                raise ConfigError(
                    f"compiler {spec.name!r}: template must contain {{input}} exactly once"
                )
            if "{output}" not in spec.cmd:
                raise ConfigError(f"compiler {spec.name!r}: template lacks {{output}}")
            binary = spec.binary()
            if "{" in binary:
                raise ConfigError(f"compiler {spec.name!r}: first token may not be a placeholder")
            if os.sep in binary:
                found = os.path.isfile(binary) and os.access(binary, os.X_OK)
            else:
                found = shutil.which(binary) is not None
            if not found:
                raise ConfigError(f"compiler {spec.name!r}: binary {binary!r} not found")

    def cells(self) -> Iterator[tuple[CompilerSpec, tuple[str, ...]]]:
        for spec in self.compilers:
            for flags in self.flags:
                yield spec, flags

    @classmethod
    def from_dict(cls, data: dict) -> "ToolchainConfig":
        try:
            compilers = tuple(
                CompilerSpec(name=str(c["name"]), cmd=str(c["cmd"]))
                for c in data["compilers"]
            )
        except (KeyError, TypeError) as e:
            raise ConfigError(f"malformed compilers list: {e}") from e

        def value(key, default, convert):
            try:
                return convert(data.get(key, default))
            except (ValueError, TypeError) as e:
                raise ConfigError(f"malformed {key}: {e}") from e

        def whole(x):
            # int() would truncate 1.9 and accept true and "30"
            if type(x) is not int and not (type(x) is float and x.is_integer()):
                raise TypeError(f"expected a whole number, got {x!r}")
            return int(x)

        def flag_matrix(m):
            # a string row would be split into one-character flags
            if any(isinstance(r, str) for r in m):
                raise TypeError(f"expected a list of flag lists, got {m!r}")
            return tuple(tuple(map(str, r)) for r in m)

        return cls(
            compilers=compilers,
            flags=value("flags", DEFAULT_FLAG_MATRIX, flag_matrix),
            timeout_s=value("timeout_s", DEFAULT_TIMEOUT_S, whole),
            workers=value("workers", DEFAULT_WORKERS, whole),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ToolchainConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot load toolchain config {path}: {e}") from e
        return cls.from_dict(data)

    @classmethod
    def detect(cls) -> "ToolchainConfig":
        """Default matrix from whatever system compilers are on PATH."""
        compilers = tuple(
            CompilerSpec(name=name, cmd=f"{name} -std=c89 {{flags}} -o {{output}} {{input}}")
            for name in ("gcc", "clang")
            if shutil.which(name)
        )
        if not compilers:
            raise ConfigError("no system compiler found (looked for gcc, clang)")
        return cls(compilers=compilers)


# ---------------------------------------------------------------------------
# Signatures and verdicts

_DIAG_LINE = re.compile(
    r"internal compiler error|Assertion|assert|Segmentation fault|fatal error|UNREACHABLE|error:"
)
_PATH_PREFIX = re.compile(r"(?:/[\w.+-]+)+/")
_NUMBER = re.compile(r"\d+")


def _mask(text: str) -> str:
    """Drop directory prefixes (temp paths differ per run) and turn
    numbers into '#' (PIDs differ per run, positions across inputs)."""
    return _NUMBER.sub("#", _PATH_PREFIX.sub("", text))


def normalize_signature(stderr: str, exit_status: int) -> str:
    """Collapse a crash's diagnostics to a stable signature.

    First diagnostic-looking line wins; it is masked (_mask) and its
    whitespace collapsed. No usable line at all
    degrades to "signal:<code>".
    """
    line = ""
    fallback = ""
    for cand in stderr.splitlines():
        if not cand.strip():
            continue
        if not fallback:
            fallback = cand
        if _DIAG_LINE.search(cand):
            line = cand
            break
    line = line or fallback
    if not line:
        # subprocess reports signal deaths as negative return codes
        return f"signal:{-exit_status if exit_status < 0 else exit_status}"
    return " ".join(_mask(line).split())


def _ran(rows: Sequence[dict]) -> list[dict]:
    """The rows whose cell compiled and ran without timing out."""
    return [
        r
        for r in rows
        if r["compile"]["status"] == "ok" and r.get("run") and not r["run"].get("timeout")
    ]


def _cell(row: dict) -> str:
    """The label a row's cell goes by in verdicts and reports."""
    return f"{row['compiler']}:{' '.join(row['flags'])}"


def differential_verdict(rows: Sequence[dict]) -> dict:
    """Judge one variant's outcome rows: {"status": "ok"} or a
    wrong-code candidate naming every cell whose (exit, stdout digest)
    differs from the interpreter's.

    Needs at least two successfully compiled-and-run cells; variants
    the interpreter flags as UB or budget-exhausted are excluded.
    """
    if not rows:
        return {"status": "ok"}
    interp = rows[0]["interp"]
    if interp["verdict"] != "ok":
        return {"status": "ok"}
    ran = _ran(rows)
    if len(ran) < 2:
        return {"status": "ok"}
    expected = (interp["exit"], interp["stdout_sha256"])
    bad = sorted(
        _cell(r) for r in ran if (r["run"]["exit"], r["run"]["stdout_sha256"]) != expected
    )
    if not bad:
        return {"status": "ok"}
    return {
        "status": "wrong-code",
        "cells": bad,
        "expected": {"exit": expected[0], "stdout_sha256": expected[1]},
    }


# ---------------------------------------------------------------------------
# Cell execution

def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _interp_record(program) -> dict:
    res = interpret(program)
    if res.status is Status.OK:
        verdict = "ok"
    elif res.status is Status.STEP_BUDGET_EXHAUSTED:
        verdict = "budget"
    else:
        verdict = "ub"
    rec = {
        "verdict": verdict,
        "exit": res.exit_code,
        "stdout_sha256": _sha256(res.stdout.encode()),
    }
    if res.ub_kind is not None:
        rec["kind"] = res.ub_kind.name.lower()
    return rec


def _spawn(
    argv: list[str], cwd: str, timeout_s: int, **text
) -> Optional[subprocess.CompletedProcess]:
    """Run argv in cwd to its end and capture its output, or None when
    it outlives timeout_s. Only PATH reaches it from the caller's
    environment, so that signatures are reproducible. Every compile and
    run goes through this one subprocess.run call, which the
    benchmark's tracer wraps to time them."""
    try:
        return subprocess.run(
            argv,
            capture_output=True,
            timeout=timeout_s,
            env={"PATH": os.environ.get("PATH", "")},
            cwd=cwd,
            **text,
        )
    except subprocess.TimeoutExpired:
        return None


def _evaluate_cell(
    spec: CompilerSpec,
    flags: tuple[str, ...],
    variant_id: str,
    source_path: Path,
    interp_rec: dict,
    timeout_s: int,
    tmp_root: Optional[str],
) -> dict:
    """Compile one variant under one cell, and run the binary when the
    interpreter found the variant ok. Both go through _spawn, inside a
    cell directory made under tmp_root (the system default when None)
    and removed when the cell ends. A UB or budget variant is compiled,
    since compiler crashes need no run, but its binary is not run, since
    differential_verdict ignores its runs; the row says so with
    run_skipped, the interpreter's verdict, and keeps run None."""
    row: dict = {
        "schema": SCHEMA_VERSION,
        "variant": variant_id,
        "compiler": spec.name,
        "flags": list(flags),
        "interp": interp_rec,
        "run": None,
    }
    with tempfile.TemporaryDirectory(
        prefix="spe-cell-", dir=tmp_root, ignore_cleanup_errors=True
    ) as workdir:
        output = os.path.join(workdir, "a.out")
        # the subprocess cwd is the cell directory, so the input must be absolute
        argv = spec.argv(str(Path(source_path).resolve()), output, flags)
        # a crashing compiler may write any bytes
        proc = _spawn(argv, workdir, timeout_s, text=True, errors="replace")
        if proc is None:
            row["compile"] = {"status": "timeout"}
        elif proc.returncode < 0 or any(m in proc.stderr + proc.stdout for m in _ICE_MARKERS):
            row["compile"] = {
                "status": "crash",
                "exit": proc.returncode,
                "signature": normalize_signature(proc.stderr or proc.stdout, proc.returncode),
                "stderr": _mask(proc.stderr)[-2000:],
            }
        elif proc.returncode != 0 or not os.path.isfile(output):
            row["compile"] = {
                "status": "reject",
                "exit": proc.returncode,
                "stderr": _mask(proc.stderr)[-2000:],
            }
        else:
            row["compile"] = {"status": "ok", "exit": 0}
            if interp_rec["verdict"] != "ok":
                row["run_skipped"] = interp_rec["verdict"]
                return row
            os.chmod(output, os.stat(output).st_mode | stat.S_IXUSR)
            run = _spawn([output], workdir, timeout_s)
            row["run"] = (
                {"timeout": True}
                if run is None
                else {"exit": run.returncode, "stdout_sha256": _sha256(run.stdout)}
            )
    return row


# ---------------------------------------------------------------------------
# Outcome log

def _row_key(row: dict) -> tuple[str, str, str]:
    return (row["variant"], row["compiler"], " ".join(row["flags"]))


def _is_result(rec) -> bool:
    """An interpreter or run record with an int exit and a stdout digest."""
    return isinstance(rec["exit"], int) and isinstance(rec["stdout_sha256"], str)


def _parse_row(line: bytes) -> Optional[dict]:
    """The outcome row a log line holds, or None when it holds none: a
    row has a string variant and compiler, a list of string flags, a
    string compile status, and a crash has a string signature; its
    interp has a string verdict, and an exit and a stdout digest when
    the verdict is "ok"; its run is null, a timeout or a result."""
    try:
        row = json.loads(line)
        compile_, interp, run = row["compile"], row["interp"], row.get("run")
        usable = (
            all(isinstance(row[k], str) for k in ("variant", "compiler"))
            and isinstance(row["flags"], list)
            and all(isinstance(f, str) for f in row["flags"])
            and isinstance(compile_["status"], str)
            and (compile_["status"] != "crash" or isinstance(compile_["signature"], str))
            and isinstance(interp["verdict"], str)
            and (interp["verdict"] != "ok" or _is_result(interp))
            and (run is None or run == {"timeout": True} or _is_result(run))
        )
    except (ValueError, KeyError, TypeError):
        return None
    return row if usable else None


def read_log(path: str | Path) -> dict[tuple[str, str, str], dict]:
    """Outcome rows keyed by (variant id, compiler, flags).

    A final line without its newline that holds no row is an append cut
    short by an interrupted campaign; it is ignored, and the next append
    cuts it off. Any other line that holds no row is a ConfigError
    naming it as path:line.
    """
    rows: dict[tuple[str, str, str], dict] = {}
    p = Path(path)
    if not p.exists():
        return rows
    with p.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = _parse_row(line)
            if row is None:
                if not line.endswith(b"\n"):
                    break
                raise ConfigError(f"{p}:{lineno}: not an outcome row")
            rows[_row_key(row)] = row
    return rows


def _mend_last_line(fh) -> None:
    """End a log's last line when it lacks its newline: add the newline
    when the line holds a row (read_log kept it), cut the line off when
    it does not (read_log ignored it). fh is open in "a+b" mode."""
    size = fh.seek(0, os.SEEK_END)
    if not size:
        return
    fh.seek(size - 1)
    if fh.read(1) == b"\n":
        return
    fh.seek(0)
    data = fh.read()
    start = data.rfind(b"\n") + 1
    if _parse_row(data[start:]) is None:
        fh.truncate(start)
    else:
        fh.write(b"\n")


def _append_rows(path: Path, rows: list[dict]) -> None:
    """Append rows in key order, each on a line of its own."""
    rows = sorted(rows, key=_row_key)
    with path.open("a+b") as fh:
        _mend_last_line(fh)
        for row in rows:
            fh.write((json.dumps(row, sort_keys=True) + "\n").encode())


# ---------------------------------------------------------------------------
# Bug reports

def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _write_report(
    reports_dir: Path,
    dirname: str,
    witness_source: str,
    metadata: dict,
    repro_lines: list[str],
) -> bool:
    """Create one report directory; an existing one is left untouched
    so first-seen data survives re-runs. Returns True when new."""
    d = reports_dir / dirname
    if d.exists():
        return False
    d.mkdir(parents=True)
    (d / "witness.c").write_text(witness_source)
    (d / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    script = "#!/bin/sh\nset -x\n" + "\n".join(repro_lines) + "\n"
    repro = d / "repro.sh"
    repro.write_text(script)
    repro.chmod(repro.stat().st_mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)
    return True


def _crash_report(
    reports_dir: Path, row: dict, spec: CompilerSpec, witness_source: str
) -> bool:
    sig = row["compile"]["signature"]
    slug = hashlib.sha1(sig.encode()).hexdigest()[:12]
    argv = spec.argv("witness.c", "repro.out", row["flags"])
    meta = {
        "kind": "crash",
        "signature": sig,
        "variant": row["variant"],
        "compiler": row["compiler"],
        "flags": row["flags"],
        "first_seen": _now(),
    }
    lines = ['cd "$(dirname "$0")"', shlex.join(argv)]
    return _write_report(reports_dir, f"crash-{slug}", witness_source, meta, lines)


def _wrong_code_report(
    reports_dir: Path,
    variant_id: str,
    verdict: dict,
    rows: list[dict],
    by_name: dict[str, CompilerSpec],
    witness_source: str,
) -> bool:
    blob = variant_id + "|" + ",".join(verdict["cells"])
    slug = hashlib.sha1(blob.encode()).hexdigest()[:12]
    ran = _ran(rows)
    meta = {
        "kind": "wrong-code",
        "variant": variant_id,
        "cells": verdict["cells"],
        "expected": verdict["expected"],
        "observed": [
            {"cell": _cell(r), "exit": r["run"]["exit"], "stdout_sha256": r["run"]["stdout_sha256"]}
            for r in ran
        ],
        "first_seen": _now(),
    }
    # replay each disagreeing cell with the compiler and flags it ran
    lines = ['cd "$(dirname "$0")"']
    for r in sorted(ran, key=_cell):
        if _cell(r) in verdict["cells"]:
            argv = by_name[r["compiler"]].argv("witness.c", "repro.out", r["flags"])
            lines += [shlex.join(argv), './repro.out; echo "exit: $?"']
    return _write_report(reports_dir, f"wrong-code-{slug}", witness_source, meta, lines)


# ---------------------------------------------------------------------------
# Campaign driver

def run_campaign(
    corpus: Sequence[str | Path],
    cfg: ToolchainConfig,
    out_dir: str | Path,
    threshold: int = DEFAULT_THRESHOLD,
    cap: Optional[int] = None,
    mode: Mode = Mode.COMPLETE,
    granularity: Granularity = Granularity.INTRA,
    decl_holes: bool = False,
) -> dict:
    """Enumerate, realize, and differentially test a corpus.

    Per file: parse (unparseable entries recorded and skipped), count
    (unsupported entries, including shadowing ones, recorded and
    skipped), and either skip (selected-mode count above threshold,
    recorded) or evaluate every variant under every toolchain cell, with
    at most _WINDOW x workers variants in flight. Variant files an
    earlier run left in the file's variants directory are removed once
    this run's are written. Returns the summary, which is also written
    to <out>/summary.json.
    """
    if threshold < 1:
        raise ConfigError(f"threshold must be >= 1, got {threshold}")
    if cap is not None and cap < 1:
        raise ConfigError(f"cap must be >= 1, got {cap}")
    check_unique_stems(corpus)
    cfg.validate()

    out = Path(out_dir)
    variants_dir = out / "variants"
    reports_dir = out / "reports"
    variants_dir.mkdir(parents=True, exist_ok=True)
    reports_dir.mkdir(parents=True, exist_ok=True)
    log_path = out / "outcomes.jsonl"
    log = read_log(log_path)
    _append_rows(log_path, [])  # create the log and mend a torn tail up front

    # cell directories go under SPE_TMPDIR when it is set; a relative one
    # is made absolute, since each cell runs with its directory as cwd
    tmp_root = os.environ.get("SPE_TMPDIR") or None
    if tmp_root:
        tmp_root = os.path.abspath(tmp_root)
        os.makedirs(tmp_root, exist_ok=True)
    by_name = {c.name: c for c in cfg.compilers}
    files: list[dict] = []
    appended = 0
    crash_new = 0
    wrong_new = 0

    def finish(entry: dict, vid: str, source: str, cells: list) -> None:
        """Append a variant's new rows, write its reports and count them
        into its file's entry. A cell is a logged row or a future."""
        nonlocal appended, crash_new, wrong_new
        new = [c.result() for c in cells if isinstance(c, Future)]
        _append_rows(log_path, new)
        appended += len(new)
        rows = sorted([c for c in cells if isinstance(c, dict)] + new, key=_row_key)
        for row in rows:
            if row["compile"]["status"] == "crash":
                if _crash_report(reports_dir, row, by_name[row["compiler"]], source):
                    crash_new += 1
                entry["crash_cells"] += 1
        verdict = differential_verdict(rows)
        if verdict["status"] == "wrong-code":
            if _wrong_code_report(reports_dir, vid, verdict, rows, by_name, source):
                wrong_new += 1
            entry["wrong_code_variants"] += 1

    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        for path in corpus:
            path = Path(path)
            stem = path.stem
            entry: dict = {"path": str(path), "stem": stem}
            files.append(entry)
            try:
                program = parse(path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, ParseError) as e:
                entry.update(status="unparseable", error=str(e))
                continue

            skel = extract(program, decl_holes=decl_holes)
            entry["n"] = skel.n
            try:
                pl = plan(skel, mode, granularity, threshold, cap)
            except ShadowingError as e:
                entry.update(status="unsupported", error=str(e))
                continue
            entry["naive"] = pl.report.naive_count
            if pl.refusal == "unsupported":
                entry.update(status="unsupported")
                continue
            entry["selected"] = pl.selected_count
            if pl.refusal == "threshold":
                entry.update(status="skipped", threshold=threshold)
                continue

            entry.update(
                status="tested", enumerated=0, invalid=0, crash_cells=0, wrong_code_variants=0
            )
            # variants in stream order, whose ids sort in that order:
            # finishing the oldest first appends rows in key order, and an
            # interrupted campaign keeps every variant it finished
            window: deque = deque()
            with variant_files(variants_dir / stem, skel, pl, stem) as stream:
                for vpath, v in stream:
                    if not v.ok:
                        entry["invalid"] += 1
                        continue
                    entry["enumerated"] += 1
                    vid = vpath.stem
                    # logged rows carry the interpreter record; a variant is
                    # parsed and interpreted only when a cell is missing
                    interp_rec = None
                    cells: list = []
                    for spec, flags in cfg.cells():
                        row = log.get((vid, spec.name, " ".join(flags)))
                        if row is None:
                            if interp_rec is None:
                                interp_rec = _interp_record(parse(v.source))
                            row = pool.submit(
                                _evaluate_cell,
                                spec, flags, vid, vpath, interp_rec, cfg.timeout_s, tmp_root,
                            )
                        cells.append(row)
                    window.append((vid, v.source, cells))
                    if len(window) == _WINDOW * cfg.workers:
                        finish(entry, *window.popleft())
                while window:
                    finish(entry, *window.popleft())

    naive = sum(f.get("naive", 0) for f in files)
    enumerated = sum(f.get("enumerated", 0) for f in files)
    report_dirs = sorted(p.name for p in reports_dir.iterdir() if p.is_dir())
    summary = {
        "schema": SCHEMA_VERSION,
        "mode": mode.value,
        "granularity": granularity.value,
        "threshold": threshold,
        "cap": cap,
        "files": files,
        "totals": {
            "files": len(files),
            "tested": sum(1 for f in files if f["status"] == "tested"),
            "skipped": sum(1 for f in files if f["status"] == "skipped"),
            "unparseable": sum(1 for f in files if f["status"] == "unparseable"),
            "unsupported": sum(1 for f in files if f["status"] == "unsupported"),
            "naive": naive,
            "enumerated": enumerated,
            "reduction": (naive / enumerated) if enumerated else None,
        },
        "log_rows_appended": appended,
        "reports": report_dirs,
        "new_reports": {"crash": crash_new, "wrong_code": wrong_new},
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
