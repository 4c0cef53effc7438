"""Acceptance gate: nine end-to-end checks, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Every check recomputes its expected values from independent
oracles (explicit orbit enumeration, Burnside counting, a brute force
over binding structures, the reference interpreter) rather than
trusting the implementation under test.
"""

import itertools
import json
import math
import subprocess
import time
from contextlib import contextmanager

import pytest
from click.testing import CliRunner

from conftest import (
    CRASH_STUB,
    LOOP_SRC,
    SCOPED_SRC,
    BRANCH_SRC,
    STRAIGHT_SRC,
    random_skeleton,
    write_stub,
)
from oracles import (
    binding_key,
    burnside_count,
    name_sites,
    naive_space,
    orbits,
    pools_of_program,
    renaming_group,
    valid_binding_keys,
)
from spe.cli import main as cli_main
from spe.combinat import Mode, ScopeNestingError, naive_count, stirling2
from spe.enumerator import (
    canonical_signature,
    enumerate_assignments,
    plan,
    variants,
)
from spe.harness import (
    CompilerSpec,
    ToolchainConfig,
    normalize_signature,
    read_log,
    run_campaign,
)
from spe.minilang import parse, render
from spe.minilang.ast import VarDecl
from spe.minilang.interp import interpret
from spe.skeleton import Granularity, extract

ICE_LINE = "internal compiler error: in assign_by_spills, at lra-assigns.c:1281"
ICE_LINE_MUTATED = "internal compiler error: in assign_by_spills, at lra-assigns.c:977"


@contextmanager
def criterion(num: int, description: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed > budget_s:
        print(f"FAIL criterion {num}: {description} ({elapsed:.2f}s over {budget_s:.0f}s budget)")
        raise AssertionError(f"criterion {num} took {elapsed:.2f}s, budget {budget_s:.0f}s")
    print(f"PASS criterion {num}: {description} ({elapsed:.2f}s)")


def vectors(skel, mode, granularity):
    return list(enumerate_assignments(plan(skel, mode, granularity)))


def assert_orbit_bijection(skel):
    """The complete whole-program stream picks exactly one vector per
    orbit of the true renaming group."""
    group = renaming_group(pools_of_program(skel.program))
    naive = list(naive_space(skel))
    orbit_map = orbits(naive, group)
    stream = vectors(skel, Mode.COMPLETE, Granularity.INTER)
    assert len(set(stream)) == len(stream)
    remaining = dict(orbit_map)
    for v in stream:
        hits = [key for key, members in remaining.items() if v in members]
        assert len(hits) == 1
        del remaining[hits[0]]
    assert not remaining


def rgs_string(skel, values, granularity=Granularity.INTRA):
    sig = canonical_signature(skel, values, granularity)
    (part,) = sig
    _unit, _type, _config, rgs = part
    (pool_rgs,) = rgs
    return "".join(str(d) for d in pool_rgs)


def test_criterion_1_branch_paper_count():
    with criterion(1, "branch: paper mode enumerates 36 of 128 naive fillings", budget_s=1.0):
        skel = extract(parse(BRANCH_SRC))
        assert naive_count(skel.holes) == 128
        stream = vectors(skel, Mode.PAPER, Granularity.INTRA)
        assert len(stream) == len(set(stream)) == 36


def test_criterion_2_branch_complete_matches_oracles():
    with criterion(2, "branch: complete mode yields 40, agreeing with orbit dedup and Burnside", budget_s=1.0):
        skel = extract(parse(BRANCH_SRC))
        stream = vectors(skel, Mode.COMPLETE, Granularity.INTRA)
        assert len(stream) == len(set(stream)) == 40
        group = renaming_group(pools_of_program(skel.program))
        naive = list(naive_space(skel))
        assert len(orbits(naive, group)) == 40
        assert burnside_count([h.names for h in skel.holes], group) == 40
        # identity fixes all 128 fillings, the double swap fixes 32, the
        # single swaps none: (128 + 32) / 4 = 40
        fixed = sorted(
            burnside_count([h.names for h in skel.holes], [g]) for g in group
        )
        assert fixed == [0, 0, 32, 128]
        assert sum(fixed) // len(group) == 40


def test_criterion_3_loop_bijection_and_rgs():
    with criterion(3, "loop: both modes pick one filling per orbit (32 of 64)", budget_s=1.0):
        skel = extract(parse(LOOP_SRC))
        assert naive_count(skel.holes) == 64
        paper = vectors(skel, Mode.PAPER, Granularity.INTRA)
        complete = vectors(skel, Mode.COMPLETE, Granularity.INTRA)
        assert len(paper) == len(complete) == 32
        assert set(paper) == set(complete)
        assert_orbit_bijection(skel)
        assert rgs_string(skel, ("a", "b", "a", "a", "a", "b")) == "010001"
        assert rgs_string(skel, ("a", "b", "b", "b", "a", "b")) == "011101"


def test_criterion_4_scoped_decl_holes_cover_naive():
    with criterion(4, "scoped: the 512 binding structures of its 32768 fillings are its --decl-holes stream", budget_s=60.0):
        program = parse(SCOPED_SRC)
        sites, choices = name_sites(program)
        assert sum(isinstance(s, VarDecl) for s in sites) == 4
        assert math.prod(map(len, choices)) == 32768
        expected = valid_binding_keys(program)
        assert len(expected) == 512
        skel = extract(program)
        pl = plan(skel, Mode.COMPLETE, Granularity.INTER, decl_holes=True)
        keys = [binding_key(parse(v.source)) for v in variants(pl)]
        assert len(keys) == len(set(keys)) == naive_count(skel.holes) == 512
        assert set(keys) == expected


def test_criterion_5_stirling_numbers():
    with criterion(5, "Stirling numbers: spot values and recurrence up to n=9"):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 2) + stirling2(5, 1) == 16
        assert stirling2(0, 0) == 1
        for n in range(1, 10):
            assert stirling2(n, 0) == 0
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_criterion_6_random_skeletons_sound_and_complete():
    with criterion(6, "200 random skeletons: no duplicates, full coverage, paper within complete", budget_s=120.0):
        supported = 0
        for seed in range(200):
            skel = random_skeleton(seed, max_naive=2048)
            complete = vectors(skel, Mode.COMPLETE, Granularity.INTER)
            sigs = [canonical_signature(skel, a, Granularity.INTER) for a in complete]
            assert len(set(sigs)) == len(sigs), f"seed {seed}: duplicate class"
            sig_set = set(sigs)
            for a in naive_space(skel):
                assert canonical_signature(skel, a, Granularity.INTER) in sig_set, (
                    f"seed {seed}: missed filling {a}"
                )
            comp_intra = set(vectors(skel, Mode.COMPLETE, Granularity.INTRA))
            try:
                paper = set(vectors(skel, Mode.PAPER, Granularity.INTRA))
            except ScopeNestingError:
                continue
            assert paper <= comp_intra, f"seed {seed}: paper not within complete"
            supported += 1
        assert supported >= 100


def renamed_source(skel, values, g) -> str:
    """The skeleton filled by `values`, with the renaming g applied to
    every declaration as well as every hole."""
    sites, _ = name_sites(skel.program)
    names = {d: g.get(d.name, d.name) for d in sites if isinstance(d, VarDecl)}
    names.update({h.node: g.get(v, v) for h, v in zip(skel.holes, values)})
    return render(skel.program, names)


def test_criterion_7_orbit_members_interpret_identically():
    # Renaming must cover declarations to be behaviour-preserving (an
    # initializer distinguishes its variable), so every orbit member is
    # rendered with its declarations renamed alike.
    with criterion(7, "50+ sampled orbits: members behave exactly like their representative"):
        sources = [LOOP_SRC, STRAIGHT_SRC]
        skels = [extract(parse(src)) for src in sources]
        skels += [random_skeleton(seed) for seed in range(8)]
        checked = 0
        for skel in skels:
            group = renaming_group(pools_of_program(skel.program))
            for rep in itertools.islice(enumerate_assignments(plan(skel, Mode.COMPLETE, Granularity.INTER)), 10):
                outcomes = set()
                for member in {renamed_source(skel, rep, g) for g in group}:
                    res = interpret(parse(member), step_budget=20_000)
                    outcomes.add((res.status, res.exit_code, res.stdout))
                assert len(outcomes) == 1, f"orbit of {rep} diverged"
                checked += 1
        assert checked >= 50


def test_criterion_8_crash_campaign_dedup_and_repro(tmp_path):
    with criterion(8, "crash campaign: one deduplicated report whose repro re-crashes identically"):
        assert normalize_signature(ICE_LINE, 4) == normalize_signature(ICE_LINE_MUTATED, 4)
        src = tmp_path / "straight.c"
        src.write_text(STRAIGHT_SRC)
        stub = write_stub(tmp_path, "crashcc", CRASH_STUB)
        cfg = ToolchainConfig(
            compilers=(
                CompilerSpec(name="crashcc", cmd=f"{stub} {{flags}} -o {{output}} {{input}}"),
            ),
            timeout_s=5,
            workers=2,
        )
        out = tmp_path / "out"
        summary = run_campaign([src], cfg, out)
        crash_reports = [r for r in summary["reports"] if r.startswith("crash-")]
        assert len(crash_reports) == 1
        report_dir = out / "reports" / crash_reports[0]
        meta = json.loads((report_dir / "metadata.json").read_text())
        proc = subprocess.run(
            ["/bin/sh", str(report_dir / "repro.sh")],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode != 0
        replay = "\n".join(l for l in proc.stderr.splitlines() if not l.startswith("+"))
        assert normalize_signature(replay, proc.returncode) == meta["signature"]


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "reruns are byte-identical, log append-once, worker count irrelevant"):
        corpus = tmp_path / "loop.c"
        corpus.write_text(LOOP_SRC)
        runner = CliRunner()
        dirs = []
        for name in ("first", "second"):
            out = tmp_path / name
            res = runner.invoke(cli_main, ["enumerate", str(corpus), "--out", str(out)])
            assert res.exit_code == 0
            dirs.append(out / "loop")
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

        straight = tmp_path / "straight.c"
        straight.write_text(STRAIGHT_SRC)
        stub = write_stub(tmp_path, "crashcc", CRASH_STUB)

        def config(workers):
            return ToolchainConfig(
                compilers=(
                    CompilerSpec(name="crashcc", cmd=f"{stub} {{flags}} -o {{output}} {{input}}"),
                ),
                timeout_s=5,
                workers=workers,
            )

        camp = tmp_path / "camp"
        first = run_campaign([straight], config(2), camp)
        log_bytes = (camp / "outcomes.jsonl").read_bytes()
        second = run_campaign([straight], config(2), camp)
        assert second["log_rows_appended"] == 0
        assert (camp / "outcomes.jsonl").read_bytes() == log_bytes
        assert second["reports"] == first["reports"]

        results = {}
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            summary = run_campaign([straight, corpus], config(workers), out)
            results[workers] = (summary["reports"], sorted(read_log(out / "outcomes.jsonl")))
        assert results[1] == results[2] == results[8]
