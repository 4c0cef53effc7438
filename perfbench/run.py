#!/usr/bin/env python3
"""spe benchmark: variant and campaign throughput on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark writes its seeded
inputs, then repeats one `spe` command on them (an "operation") until S
seconds have been measured, give or take half an operation. It checks
every operation's output against the golden record for its input and
prints one line per metric followed, as its last line, by a JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1`
untraced and traced operations alternate and the metrics are the
per-layer ones (see README.md).

    python3 perfbench/run.py --workload NAME --record-golden

re-records the golden outputs of every input slot of NAME from the
current code; only do that on a commit whose outputs are trusted.

Everything is written under `.perfbench_work/` in the checkout and the
run's own directory is removed at the end. Exit codes: 0 measured,
2 the checkout or its inputs are unusable, 3 the workload cannot run
here (gcc absent).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDENS = BENCH / "goldens.json"
SEED0_INPUTS = BENCH / "inputs" / "seed0"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
import tracer  # noqa: E402

# Input slots with a committed golden record; --seed picks slot seed % SLOTS.
SLOTS = 16
SETUP_SAMPLES = 21

WORKLOADS = {
    "enumerate-synth": {"argv": ["enumerate", "--cap", "1000"], "toolchain": None, "seeded": True},
    "campaign-stub": {"argv": ["test"], "toolchain": "stub.json", "seeded": True},
    "campaign-gcc": {"argv": ["test"], "toolchain": "gcc.json", "seeded": False},
}

# name -> unit: the JSON result of an untraced run
END_TO_END = {
    "setup_s": "s",
    "variants_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# printed beside them, not part of the JSON result: cells_per_s is exactly
# twice variants_per_s on both campaigns and undefined for enumeration; the
# CPU time of identical operations varies too much on a shared host to be
# bounded, so it is a per-layer metric; failed_ratio is 0 on a correct run
# (it is `failed` / `attempted`)
INFORMATIONAL = {"cells_per_s": "1/s", "spe_cpu_ms_per_variant": "ms", "failed_ratio": "ratio"}

PER_LAYER = {
    "minilang.parse.us_per_call": "us",
    "minilang.parse.input_us_per_call": "us",
    "minilang.parse.calls_per_variant": "count",
    "minilang.render.us_per_call": "us",
    "minilang.render.calls_per_variant": "count",
    "minilang.interpret.us_per_call": "us",
    "minilang.interpret.budget_ms_per_call": "ms",
    "minilang.interpret.steps_per_s": "1/s",
    "minilang.interpret.self_s": "s",
    "minilang.interpret.budget_share": "ratio",
    "minilang.interpret.ub_share": "ratio",
    "skeleton.extract.us_per_call": "us",
    "skeleton.normal_forms.us_per_call": "us",
    "skeleton.normal_forms.calls_per_variant": "count",
    "combinat.count_plan.us_per_call": "us",
    "combinat.reduction": "ratio",
    "enumerator.enumerate_assignments.us_per_item": "us",
    "enumerator.realize.us_per_call": "us",
    "enumerator.realize.parse_us_per_call": "us",
    "enumerator.realize.self_us": "us",
    "enumerator.canonical_signature.us_per_call": "us",
    "enumerator.variants.us_per_item": "us",
    "enumerator.invalid_ratio": "ratio",
    "harness.compile.ms_p50": "ms",
    "harness.compile.ms_p99": "ms",
    "harness.compile.calls": "count",
    "harness.run.ms_p50": "ms",
    "harness.run.ms_p99": "ms",
    "harness.run.calls": "count",
    "harness.run.timeouts": "count",
    "harness.wasted_run_ratio": "ratio",
    "harness.interp_before_submit_s": "s",
    "harness.read_log.us_per_row": "us",
    "cli.enumerate.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "spe_cpu_ms_per_variant": "ms",
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    """The checkout, the inputs or the host cannot run this workload."""


# ---------------------------------------------------------------------------
# Host and inputs


def host_info() -> dict:
    gcc = shutil.which("gcc")
    version = None
    if gcc:
        out = subprocess.run([gcc, "--version"], capture_output=True, text=True, check=False).stdout
        version = out.splitlines()[0] if out else "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gcc": version,
    }


def slot_of(workload: str, seed: int) -> int:
    return seed % SLOTS if WORKLOADS[workload]["seeded"] else 0


def write_inputs(workload: str, slot: int, dest: Path) -> list[str]:
    """Write the slot's inputs under dest/inputs; returns their paths
    relative to dest, in the order spe receives them."""
    files = inputs.workload_inputs(workload, slot, lambda text: count_report(text).complete_mode_count)
    if slot == 0:
        frozen = SEED0_INPUTS / workload
        for name, text in files.items():
            if not (frozen / name).is_file() or (frozen / name).read_text() != text:
                raise BenchError(f"generator no longer reproduces {frozen / name}")
    (dest / "inputs").mkdir(parents=True)
    for name, text in files.items():
        (dest / "inputs" / name).write_text(text)
    return [f"inputs/{name}" for name in files]


def count_report(text: str):
    """spe's closed-form counts for one source text."""
    from spe.combinat import count_plan
    from spe.minilang import parse
    from spe.skeleton import extract

    return count_plan(extract(parse(text)))


def paper_counts(run_dir: Path, paths: list[str]) -> dict[str, dict]:
    """naive/paper/complete/reduction per input file, from spe's closed
    forms, and the worked-example counts asserted."""

    def counts(text: str) -> dict:
        report = count_report(text)
        return {
            "naive": report.naive_count,
            "paper": report.paper_mode_count,
            "complete": report.complete_mode_count,
            "reduction": report.naive_count / report.complete_mode_count,
        }

    for stem, text in (("loop", inputs.LOOP_SRC), ("branch", inputs.BRANCH_SRC)):
        got = {k: v for k, v in counts(text).items() if k != "reduction"}
        if got != inputs.WORKED_COUNTS[stem]:
            raise BenchError(f"{stem}.c counts {got} != paper's {inputs.WORKED_COUNTS[stem]}")
    return {Path(p).name: counts((run_dir / p).read_text()) for p in paths}


# ---------------------------------------------------------------------------
# Output records (what the golden file stores)


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def tree_stats(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def enumerate_record(out: Path) -> tuple[dict, dict]:
    (vdir,) = [p for p in out.iterdir() if p.is_dir()]
    manifest = json.loads((vdir / "manifest.json").read_text())
    files = sorted(p for p in vdir.iterdir() if p.is_file())
    digest = _sha(f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}" for p in files)
    record = {"count": manifest["count"], "written": manifest["written"], "sha256": digest}
    facts = {
        "variants": manifest["emitted"],
        "invalid": manifest["invalid"],
        "count": manifest["count"],
        "rows": [],
    }
    return record, facts


def campaign_record(out: Path) -> tuple[dict, dict]:
    summary = json.loads((out / "summary.json").read_text())
    with (out / "outcomes.jsonl").open() as fh:
        rows = [json.loads(line) for line in fh if line.strip()]

    def cell(r: dict) -> str:
        return f"{r['compiler']}:{' '.join(r['flags'])}"

    judged = sorted(
        f"{r['variant']} {cell(r)} {r['interp']['verdict']} {r['compile']['status']}" for r in rows
    )
    # run rows of UB and budget variants are not compared: their timeouts vary
    ok_runs = sorted(
        f"{r['variant']} {cell(r)} {json.dumps(r['run'], sort_keys=True)}"
        for r in rows
        if r["interp"]["verdict"] == "ok"
    )
    reports = sorted(p.name for p in (out / "reports").iterdir() if p.is_dir())
    record = {
        "totals": summary["totals"],
        "reports": len(reports),
        "reports_sha256": _sha(reports),
        "rows": len(judged),
        "rows_sha256": _sha(judged),
        "ok_runs": len(ok_runs),
        "ok_runs_sha256": _sha(ok_runs),
    }
    facts = {
        "variants": summary["totals"]["enumerated"],
        "invalid": sum(f.get("invalid", 0) for f in summary["files"]),
        "rows": rows,
    }
    return record, facts


# ---------------------------------------------------------------------------
# Running spe


class Runner:
    def __init__(self, workload: str, run_dir: Path, paths: list[str]):
        self.run_dir = run_dir
        self.paths = paths
        self.spec = WORKLOADS[workload]
        self.env = dict(os.environ, PYTHONPATH=str(SRC), SPE_TMPDIR=str(run_dir / "tmp"))
        self.config = None
        if self.spec["toolchain"]:
            text = (BENCH / "toolchains" / self.spec["toolchain"]).read_text()
            text = text.replace("@STUB@", shlex.quote(str(BENCH / "toolchains" / "stub_cc.sh")))
            text = text.replace("@TMPDIR@", shlex.quote(str(run_dir / "tmp")))
            self.config = run_dir / "toolchain.json"
            self.config.write_text(text)
        (run_dir / "tmp").mkdir()
        self.ops = 0

    def _spawn(self, stats: Path, extra: list[str]) -> tuple[float, float, dict]:
        argv = [sys.executable, str(BENCH / "spe_entry.py"), str(stats)] + extra
        start = time.monotonic()
        proc = subprocess.run(argv, cwd=self.run_dir, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, check=False)
        end = time.monotonic()
        if proc.returncode != 0 or not stats.is_file():
            raise BenchError(f"spe process failed to start:\n{proc.stderr[-2000:]}")
        return start, end, json.loads(stats.read_text())

    def setup(self) -> float:
        """Seconds from spawning the spe process until spe.cli and
        spe.harness are imported."""
        stats = self.run_dir / "setup.json"
        start, _, st = self._spawn(stats, ["--setup-only"])
        return st["imported"] - start

    def op(self, traced: bool, extra_cmd: list[str] | None = None) -> dict:
        """Run the workload's spe command once (or extra_cmd instead)."""
        self.ops += 1
        out = self.run_dir / f"out{self.ops}"
        stats = self.run_dir / f"stats{self.ops}.json"
        spans = self.run_dir / f"spans{self.ops}.jsonl"
        if extra_cmd is None:
            cmd = [self.spec["argv"][0], *self.paths, *self.spec["argv"][1:], "--out", str(out.name)]
            if self.config:
                cmd += ["--config", str(self.config)]
        else:
            cmd = extra_cmd
        pre = ["--trace", str(spans), "--"] if traced else ["--"]
        start, end, st = self._spawn(stats, pre + cmd)
        result = {"wall": end - start, "stats": st, "out": out}
        if traced:
            result["spans"] = tracer.read_spans(spans)
            spans.unlink()
        stats.unlink()
        return result


def output_record(workload: str, out: Path) -> tuple[dict, dict]:
    return enumerate_record(out) if workload == "enumerate-synth" else campaign_record(out)


def check_op(op: dict, workload: str, golden: dict, expected_count: int | None) -> str | None:
    """Fill op with its output facts; return why it failed, or None."""
    st = op["stats"]
    if st["error"]:
        return f"uncaught exception:\n{st['error']}"
    if st["exit"] not in (0, 1):
        return f"spe exited {st['exit']}"
    out = op["out"]
    try:
        record, facts = output_record(workload, out)
    except (OSError, ValueError, KeyError) as e:
        return f"unreadable output: {e!r}"
    op.update(facts)
    op["files_written"], op["bytes_written"] = tree_stats(out)
    if expected_count is not None and facts["count"] != expected_count:
        return f"manifest count {facts['count']} != count_plan {expected_count}"
    if record != golden:
        return f"output differs from the golden record:\n got {record}\nwant {golden}"
    return None


# ---------------------------------------------------------------------------
# Metrics


def _mean(xs) -> float:
    return statistics.fmean(xs) if xs else 0.0


def _pct(xs, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    return xs[max(0, math.ceil(len(xs) * q / 100) - 1)]


def end_to_end(setups: list[float], ops: list[dict], failed: int, attempted: int, cells: int) -> dict:
    """Totals over the run's correct operations; 0 when there are none.
    Operations are short and many, so a total averages out a noisy host."""
    good = [o for o in ops if o["ok"] and not o["traced"]]
    wall = sum(o["wall"] for o in good)
    variants = sum(o["variants"] for o in good)
    cpu = sum(o["stats"]["cpu_s"] for o in good)
    rate = variants / wall if wall else 0.0
    return {
        "setup_s": statistics.median(setups),
        "variants_per_s": rate,
        "spe_cpu_ms_per_variant": 1000 * cpu / variants if variants else 0.0,
        "peak_rss_mb": statistics.median(o["stats"]["maxrss_kb"] / 1024 for o in good) if good else 0.0,
        "cells_per_s": cells * rate,
        "failed_ratio": failed / attempted,
    }


def interp_before_submit(spans: list[dict]) -> float:
    """Per corpus file, interpretation time spent before the file's
    first toolchain call; summed over the files of one operation."""
    starts = sorted(s["start"] for s in spans if s["name"] == "skeleton.extract")
    tool = sorted(s["start"] for s in spans if s["name"] in ("harness.compile", "harness.run"))
    interps = [s for s in spans if s["name"] == "minilang.interpret"]
    total = 0.0
    for i, seg_start in enumerate(starts):
        seg_end = starts[i + 1] if i + 1 < len(starts) else float("inf")
        first_tool = next((t for t in tool if seg_start <= t < seg_end), seg_end)
        total += sum(s["end"] - s["start"] for s in interps if seg_start <= s["start"] < first_tool)
    return total


def per_layer(traced: list[dict], untraced: list[dict], counts: dict, stats_op: dict | None) -> dict:
    dur: dict[str, list[float]] = {}
    selfs: dict[str, list[float]] = {}
    reparse: list[float] = []
    input_parse: list[float] = []
    interps: list[dict] = []
    timeouts = 0
    cli_self = []
    before_submit = []
    items = 0
    for op in traced:
        spans = op["spans"]
        own = tracer.self_times(spans)
        names = {s["id"]: s["name"] for s in spans}
        for s in spans:
            if s.get("exhausted"):
                continue
            d = s["end"] - s["start"]
            dur.setdefault(s["name"], []).append(d)
            selfs.setdefault(s["name"], []).append(own[s["id"]])
            if s["name"] == "minilang.parse":
                (reparse if names.get(s["parent"]) == "enumerator.realize" else input_parse).append(d)
            elif s["name"] == "minilang.interpret":
                interps.append(s)
            elif s["name"] == "harness.run" and s.get("timeout"):
                timeouts += 1
        items += sum(1 for s in spans if s["name"] == "enumerator.variants" and not s.get("exhausted"))
        cli_self.append(sum(own[s["id"]] for s in spans if s["name"] == "cli.enumerate"))
        before_submit.append(interp_before_submit(spans))

    def us(name: str) -> float:
        return 1e6 * _mean(dur.get(name, []))

    def per_variant(name: str) -> float:
        return len(dur.get(name, [])) / items if items else 0.0

    ms = [1e3 * d for d in dur.get("harness.compile", [])], [1e3 * d for d in dur.get("harness.run", [])]
    interp_time = sum(s["end"] - s["start"] for s in interps)
    budget = [s["end"] - s["start"] for s in interps if s["status"] == "step_budget_exhausted"]
    runs = [r for op in traced for r in op["rows"] if r["run"] is not None]
    read_log = 0.0
    if stats_op is not None and stats_op["rows_read"]:
        spans = [s for s in stats_op["spans"] if s["name"] == "harness.read_log"]
        read_log = 1e6 * sum(s["end"] - s["start"] for s in spans) / stats_op["rows_read"]
    def wall_per_variant(ops: list[dict]) -> float:
        return sum(o["wall"] for o in ops) / max(1, sum(o["variants"] for o in ops))


    emitted = sum(o["variants"] + o["invalid"] for o in traced)
    naive = sum(c["naive"] for c in counts.values())
    complete = sum(c["complete"] for c in counts.values())
    return {
        "minilang.parse.us_per_call": us("minilang.parse"),
        "minilang.parse.input_us_per_call": 1e6 * _mean(input_parse),
        "minilang.parse.calls_per_variant": per_variant("minilang.parse"),
        "minilang.render.us_per_call": us("minilang.render"),
        "minilang.render.calls_per_variant": per_variant("minilang.render"),
        "minilang.interpret.us_per_call": us("minilang.interpret"),
        "minilang.interpret.budget_ms_per_call": 1e3 * _mean(budget),
        "minilang.interpret.steps_per_s": sum(s["steps"] for s in interps) / interp_time if interp_time else 0.0,
        "minilang.interpret.self_s": sum(selfs.get("minilang.interpret", [])) / len(traced),
        "minilang.interpret.budget_share": len(budget) / len(interps) if interps else 0.0,
        "minilang.interpret.ub_share": (
            sum(1 for s in interps if s["status"] == "undefined_behavior") / len(interps) if interps else 0.0
        ),
        "skeleton.extract.us_per_call": us("skeleton.extract"),
        "skeleton.normal_forms.us_per_call": us("skeleton.normal_forms"),
        "skeleton.normal_forms.calls_per_variant": per_variant("skeleton.normal_forms"),
        "combinat.count_plan.us_per_call": us("combinat.count_plan"),
        "combinat.reduction": naive / complete,
        "enumerator.enumerate_assignments.us_per_item": us("enumerator.enumerate_assignments"),
        "enumerator.realize.us_per_call": us("enumerator.realize"),
        "enumerator.realize.parse_us_per_call": 1e6 * _mean(reparse),
        "enumerator.realize.self_us": 1e6 * _mean(selfs.get("enumerator.realize", [])),
        "enumerator.canonical_signature.us_per_call": us("enumerator.canonical_signature"),
        "enumerator.variants.us_per_item": us("enumerator.variants"),
        "enumerator.invalid_ratio": sum(o["invalid"] for o in traced) / emitted if emitted else 0.0,
        "harness.compile.ms_p50": _pct(ms[0], 50),
        "harness.compile.ms_p99": _pct(ms[0], 99),
        "harness.compile.calls": len(ms[0]) / len(traced),
        "harness.run.ms_p50": _pct(ms[1], 50),
        "harness.run.ms_p99": _pct(ms[1], 99),
        "harness.run.calls": len(ms[1]) / len(traced),
        "harness.run.timeouts": timeouts / len(traced),
        "harness.wasted_run_ratio": (
            sum(1 for r in runs if r["interp"]["verdict"] != "ok") / len(runs) if runs else 0.0
        ),
        "harness.interp_before_submit_s": _mean(before_submit),
        "harness.read_log.us_per_row": read_log,
        "cli.enumerate.self_s": _mean(cli_self),
        "spe_cpu_ms_per_variant": (
            1000 * sum(o["stats"]["cpu_s"] for o in untraced) / max(1, sum(o["variants"] for o in untraced))
        ),
        "cli.bytes_written": _mean([o["bytes_written"] for o in traced]),
        "cli.files_written": _mean([o["files_written"] for o in traced]),
        "trace.overhead_ratio": wall_per_variant(traced) / wall_per_variant(untraced),
    }


# ---------------------------------------------------------------------------
# Main


def measure(args, run_dir: Path) -> tuple[bool, int, int, dict]:
    workload = args.workload
    slot = slot_of(workload, args.seed)
    paths = write_inputs(workload, slot, run_dir)
    counts = paper_counts(run_dir, paths)
    golden = json.loads(GOLDENS.read_text()).get(workload, {}).get(str(slot))
    if golden is None:
        raise BenchError(f"no golden record for {workload} slot {slot}")
    expected = counts["synth.c"]["complete"] if workload == "enumerate-synth" else None
    runner = Runner(workload, run_dir, paths)
    cells = 2 if workload != "enumerate-synth" else 0

    runner.setup()  # warm-up: the first import writes the bytecode caches
    # set-up launches are spread over the run: a third before the first
    # operation, the rest after operations in step with the measured time,
    # so that their median samples the whole run and not its first seconds
    setups = [runner.setup() for _ in range(SETUP_SAMPLES // 3)]
    setup_time = 0.0

    # a traced run alternates untraced and traced operations, so that
    # trace.overhead_ratio compares operations taken at the same time
    ops: list[dict] = []
    failures: list[str] = []
    stats_op = None
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        op = runner.op(traced)
        op["traced"] = traced
        ops.append(op)
        why = check_op(op, workload, golden, expected)
        op["ok"] = why is None
        if why:
            failures.append(why)
        if traced and stats_op is None and not why and workload != "enumerate-synth":
            stats_op = runner.op(traced=True, extra_cmd=["stats", str(op["out"] / "outcomes.jsonl")])
            stats_op["rows_read"] = len(op["rows"])
        shutil.rmtree(op["out"], ignore_errors=True)
        if not args.trace:
            op.pop("rows", None)
        # stop when another operation would end more than half an
        # operation past the deadline
        elapsed = time.monotonic() - start - setup_time
        if elapsed + 0.5 * elapsed / len(ops) > args.seconds and len(ops) >= 1 + args.trace:
            break
        t = time.monotonic()
        while len(setups) < SETUP_SAMPLES * min(1.0, elapsed / args.seconds):
            setups.append(runner.setup())
        setup_time += time.monotonic() - t
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.setup())

    attempted = len(ops)
    for why in failures:
        print(f"FAILED: {why}", file=sys.stderr)
    e2e = end_to_end(setups, ops, len(failures), attempted, cells)
    info = host_info()
    print(f"perfbench {workload} seed={args.seed} slot={slot} trace={args.trace} ops={len(ops)} "
          f"python={info['python']} nproc={info['nproc']} gcc={info['gcc'] or 'absent'} "
          "tmpfs=no")
    for name, c in counts.items():
        paper = "-" if c["paper"] is None else c["paper"]
        print(f"  counts {name:<10} naive={c['naive']} paper={paper} complete={c['complete']} "
              f"reduction={c['reduction']:.1f}x")
    if not args.trace:
        for name, unit in {**END_TO_END, **INFORMATIONAL}.items():
            if name == "cells_per_s" and not cells:
                continue
            print(f"  {name:<24} {e2e[name]:>14.6g} {unit}")
        metrics = {name: {"value": float(e2e[name]), "unit": unit} for name, unit in END_TO_END.items()}
    else:
        traced = [o for o in ops if o["ok"] and o["traced"]]
        untraced = [o for o in ops if o["ok"] and not o["traced"]]
        if not traced or not untraced or (workload != "enumerate-synth" and stats_op is None):
            metrics = {name: {"value": 0.0, "unit": unit} for name, unit in PER_LAYER.items()}
        else:
            layer = per_layer(traced, untraced, counts, stats_op)
            metrics = {name: {"value": float(layer[name]), "unit": unit} for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    correct = not failures
    return correct, attempted, len(failures), metrics


def record_goldens(workload: str, run_dir: Path) -> None:
    goldens = json.loads(GOLDENS.read_text()) if GOLDENS.is_file() else {}
    records = {}
    for slot in range(SLOTS if WORKLOADS[workload]["seeded"] else 1):
        slot_dir = run_dir / f"slot{slot}"
        slot_dir.mkdir()
        paths = write_inputs(workload, slot, slot_dir)
        paper_counts(slot_dir, paths)
        op = Runner(workload, slot_dir, paths).op(traced=False)
        if op["stats"]["error"] or op["stats"]["exit"] not in (0, 1):
            raise BenchError(f"slot {slot}: spe failed: {op['stats']}")
        record, _ = output_record(workload, op["out"])
        records[str(slot)] = record
        print(f"{workload} slot {slot}: {op['wall']:.1f} s {record}")
        shutil.rmtree(slot_dir)
    goldens[workload] = records
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()

    if not (SRC / "spe" / "cli.py").is_file():
        print(f"error: no spe sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    if args.workload == "campaign-gcc" and not shutil.which("gcc"):
        print("campaign-gcc: not run (gcc not found on PATH)", file=sys.stderr)
        return 3

    sys.path.insert(0, str(SRC))
    run_dir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.record_golden:
            record_goldens(args.workload, run_dir)
            return 0
        correct, attempted, failed, metrics = measure(args, run_dir)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
