"""Enumeration correctness against brute-force orbit oracles, plus
realization and alpha-equivalence behavior."""

import hashlib
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spe.combinat import Mode, naive_count
from spe.enumerator import (
    canonical_signature,
    enumerate_assignments,
    plan,
    realize,
    realize_source,
    variant_files,
    variants,
)
from spe.minilang import parse, render
from spe.minilang.ast import Program
from spe.minilang.interp import interpret
from spe.skeleton import Granularity, ShadowingError, extract

from conftest import (
    BRANCH_SRC,
    LOOP_SRC,
    NESTED_SRC,
    SCOPED_SRC,
    SHADOW_SRC,
    STRAIGHT_SRC,
    TWO_FUNCTIONS_SRC,
    origin_vector,
    random_skeleton,
    random_source,
)
from oracles import (
    binding_key,
    burnside_count,
    name_sites,
    naive_space,
    orbits,
    pools_of_program,
    reference_interpret,
    renaming_group,
    structurally_equal,
    valid_binding_keys,
)
from oracles import realize_source as oracle_realize_source


def stream_vectors(skel, mode=Mode.COMPLETE, granularity=Granularity.INTRA):
    return list(enumerate_assignments(plan(skel, mode, granularity)))


def programs_alpha_equivalent(p: Program, q: Program) -> bool:
    """Whole-program alpha-equivalence of two parsed programs: equal
    binding structures."""
    return binding_key(p) == binding_key(q)


def check_orbit_bijection(skel, granularity=Granularity.INTER):
    """Every naive orbit under the compact renaming group contains
    exactly one enumerated vector. True alpha-equivalence respects
    scopes, so this only holds for the whole-program granularity;
    intra merges globals into each function's root pool and may
    conflate orbits by design."""
    group = renaming_group(pools_of_program(skel.program))
    naive = list(naive_space(skel))
    orbit_map = orbits(naive, group)
    stream = stream_vectors(skel, Mode.COMPLETE, granularity)
    assert len(set(stream)) == len(stream)
    remaining = dict(orbit_map)
    for v in stream:
        hits = [key for key, members in remaining.items() if v in members]
        assert len(hits) == 1, f"vector {v} in {len(hits)} orbits"
        del remaining[hits[0]]
    assert not remaining, f"{len(remaining)} orbits missed"
    return len(orbit_map)


class TestLoop:
    def test_stream_size_and_membership(self, loop_skel):
        vals = stream_vectors(loop_skel)
        assert len(vals) == 32
        assert ("a", "b", "a", "a", "a", "b") in vals
        assert ("a", "b", "b", "b", "a", "b") in vals
        assert ("b", "a", "b", "b", "b", "a") not in vals

    def test_paper_equals_complete_on_flat(self, loop_skel):
        assert stream_vectors(loop_skel, Mode.PAPER) == stream_vectors(loop_skel)

    def test_orbit_bijection(self, loop_skel):
        assert check_orbit_bijection(loop_skel) == 32

    def test_origin_rgs(self, loop_skel):
        sig = canonical_signature(loop_skel, origin_vector(loop_skel))
        ((unit, type_, config, rgs),) = sig
        assert unit == "main" and type_ == "int"
        assert config == (0, 0, 0, 0, 0, 0)
        assert rgs == ((0, 1, 0, 0, 0, 1),)

    def test_p2_rgs(self, loop_skel):
        sig = canonical_signature(loop_skel, ("a", "b", "b", "b", "a", "b"))
        assert sig[0][3] == ((0, 1, 1, 1, 0, 1),)

    def test_alpha_equivalence(self, loop_skel):
        def sig(values):
            return canonical_signature(loop_skel, values, Granularity.INTER)

        origin = sig(("a", "b", "a", "a", "a", "b"))
        assert sig(("b", "a", "b", "b", "b", "a")) == origin
        assert sig(("a", "b", "b", "b", "a", "b")) != origin

    def test_realize_mirror_is_p1(self, loop_skel):
        p1 = realize(loop_skel, ("b", "a", "b", "b", "b", "a"))
        src = render(p1)
        assert "b = 10;" in src
        assert "a = 1;" in src
        assert "while (b)" in src
        assert "b = b - a;" in src

    def test_naive_enumeration(self, loop_skel):
        vals = list(naive_space(loop_skel))
        assert len(vals) == 64 == naive_count(loop_skel.holes)
        assert vals == sorted(vals)


class TestBranch:
    def test_paper_within_complete(self, branch_skel):
        paper = set(stream_vectors(branch_skel, Mode.PAPER))
        comp = set(stream_vectors(branch_skel, Mode.COMPLETE))
        assert len(paper) == 36 and len(comp) == 40
        assert paper < comp

    def test_extras_shape(self, branch_skel):
        paper = set(stream_vectors(branch_skel, Mode.PAPER))
        comp = set(stream_vectors(branch_skel, Mode.COMPLETE))
        local_vars = {"c", "d"}
        for v in comp - paper:
            root_values = {v[0], v[1], v[4]}
            assert len(root_values) == 1  # every root hole on one variable
            assert local_vars & {v[2], v[3]}  # and some hole uses the block pool

    def test_orbit_bijection(self, branch_skel):
        assert check_orbit_bijection(branch_skel) == 40

    def test_burnside_agrees(self, branch_skel):
        group = renaming_group(pools_of_program(branch_skel.program))
        var_sets = [h.names for h in branch_skel.holes]
        assert burnside_count(var_sets, group) == 40


class TestScoped:
    def test_inter_complete_matches_oracles(self, scoped_skel):
        group = renaming_group(pools_of_program(scoped_skel.program))
        var_sets = [h.names for h in scoped_skel.holes]
        expected = burnside_count(var_sets, group)
        stream = stream_vectors(scoped_skel, Mode.COMPLETE, Granularity.INTER)
        assert len(stream) == len(set(stream)) == expected == 144

    def test_inter_paper_subset(self, scoped_skel):
        paper = set(stream_vectors(scoped_skel, Mode.PAPER, Granularity.INTER))
        comp = set(stream_vectors(scoped_skel, Mode.COMPLETE, Granularity.INTER))
        assert len(paper) == 131
        assert paper < comp

    def test_signatures_all_distinct(self, scoped_skel):
        sigs = {
            canonical_signature(scoped_skel, a, Granularity.INTER)
            for a in enumerate_assignments(plan(scoped_skel, Mode.COMPLETE, Granularity.INTER))
        }
        assert len(sigs) == 144

    @pytest.mark.parametrize("mode", Mode)
    @pytest.mark.parametrize("granularity", Granularity)
    def test_decl_holes_stream_is_the_naive_product(self, scoped_skel, mode, granularity):
        pl = plan(scoped_skel, mode, granularity, decl_holes=True)
        rows = list(variants(pl))
        assert [v.seq for v in rows] == list(range(1, 513))
        assert [v.assignment for v in rows] == list(naive_space(scoped_skel))
        assert {v.signature for v in rows} == {()}
        assert pl.selected_count == 512


class TestProgramEquivalence:
    def test_cross_scope_renaming(self, scoped):
        swap = {"a": "c", "c": "a"}
        src = re.sub(r"(?<!%)\b[ac]\b", lambda m: swap[m.group(0)], SCOPED_SRC)
        assert programs_alpha_equivalent(scoped, parse(src))

    def test_within_pool_swap(self, scoped):
        swap = {"a": "b", "b": "a", "c": "d", "d": "c"}
        src = re.sub(r"(?<!%)\b[abcd]\b", lambda m: swap[m.group(0)], SCOPED_SRC)
        assert programs_alpha_equivalent(scoped, parse(src))

    def test_reflexive(self, scoped):
        assert programs_alpha_equivalent(scoped, parse(SCOPED_SRC))

    def test_binding_change_differs(self, scoped):
        assert not programs_alpha_equivalent(
            scoped, parse(SCOPED_SRC.replace("b = c + d", "a = c + d"))
        )
        assert not programs_alpha_equivalent(
            scoped, parse(SCOPED_SRC.replace("c + d", "c + c"))
        )

    def test_shape_change_differs(self, scoped):
        assert not programs_alpha_equivalent(
            scoped, parse(SCOPED_SRC.replace("return 0;", "return 1;"))
        )


class TestRealization:
    def test_origin_round_trip(self, loop, loop_skel):
        p = realize(loop_skel, origin_vector(loop_skel))
        assert structurally_equal(p, loop)
        assert render(p) == render(loop)

    def test_empty_skeleton_round_trip(self):
        src = "int main(void) { return 0; }"
        skel = extract(parse(src))
        vals = list(enumerate_assignments(plan(skel)))
        assert vals == [()]
        assert render(realize(skel, ())) == render(parse(src))

    def test_source_matches_program(self, loop_skel):
        a = ("a", "b", "b", "b", "a", "b")
        assert realize_source(loop_skel, a) == render(realize(loop_skel, a))

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_every_variant_parses(self, seed):
        skel = random_skeleton(seed, max_naive=512)
        for a in enumerate_assignments(plan(skel)):
            realize(skel, a)  # ParseError here would fail the test


class TestSignatureInvariance:
    @given(st.integers(0, 3000), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_compact_renaming_preserves_signature(self, seed, perm_seed):
        skel = random_skeleton(seed, max_naive=2048)
        rng = random.Random(perm_seed)
        pools = pools_of_program(skel.program)
        mapping = {}
        for pool in pools:
            image = list(pool)
            rng.shuffle(image)
            mapping.update(zip(pool, image))
        a = origin_vector(skel)
        b = tuple(mapping.get(v, v) for v in a)
        for gran in Granularity:
            assert canonical_signature(skel, a, gran) == canonical_signature(skel, b, gran)


class TestRandomSkeletonOrbits:
    def test_forty_seeds(self):
        for seed in range(40):
            skel = random_skeleton(seed, max_naive=2048)
            check_orbit_bijection(skel)

    def test_paper_subset_when_supported(self):
        from spe.combinat import ScopeNestingError

        checked = 0
        for seed in range(40):
            skel = random_skeleton(seed, max_naive=2048)
            comp = set(stream_vectors(skel, Mode.COMPLETE))
            try:
                paper = set(stream_vectors(skel, Mode.PAPER))
            except ScopeNestingError:
                continue
            assert paper <= comp
            checked += 1
        assert checked >= 20


def _stream_skeletons():
    """The criterion-6 random skeletons and the shared fixtures."""
    skels = [random_skeleton(seed, max_naive=2048) for seed in range(200)]
    skels += [extract(parse(src)) for src in (LOOP_SRC, BRANCH_SRC, SCOPED_SRC, SHADOW_SRC)]
    return skels


class TestStreamOracle:
    def test_variants_agree_with_the_reparse_path(self):
        """Every variant's signature and source agree with the slow
        definitions: canonical_signature and the oracle's render-based
        realize_source, and the interpreter agrees with the reference
        walker on it. A refused stream (ScopeNestingError,
        ShadowingError) is a refusal here too."""
        from spe.combinat import ScopeNestingError
        from spe.skeleton import ShadowingError

        valid = 0
        refused = 0
        for skel in _stream_skeletons():
            for mode in Mode:
                for gran in Granularity:
                    try:
                        stream = list(variants(plan(skel, mode, gran)))
                    except (ScopeNestingError, ShadowingError):
                        refused += 1
                        continue
                    for v in stream:
                        assert v.signature == canonical_signature(skel, v.assignment, gran)
                        assert v.source == oracle_realize_source(skel, v.assignment)
                        program = parse(v.source)
                        assert interpret(program, 20_000) == reference_interpret(program, 20_000)
                        valid += 1
        assert refused and valid > 10_000


def _decl_holes_sources():
    """The fixtures but shadow.c, which is refused, and scoped.c, whose
    32,768 fillings criterion 4 brute-forces, and the random programs
    whose declaration-hole space has at most 4,096 fillings."""
    sources = {
        "loop": LOOP_SRC,
        "branch": BRANCH_SRC,
        "straight": STRAIGHT_SRC,
        "nested": NESTED_SRC,
        "two_functions": TWO_FUNCTIONS_SRC,
    }
    for seed in range(60):
        src = random_source(seed)
        if math.prod(map(len, name_sites(parse(src))[1])) <= 4096:
            sources[f"random_source({seed})"] = src
    return sources


class TestDeclHolesStream:
    """Under --decl-holes the stream holds one program per binding
    structure that any filling of declarations and uses alike spells:
    its binding keys are duplicate-free, are exactly the keys of the
    brute-forced fillings that parse, and number naive_count, in every
    mode at every granularity."""

    def test_stream_is_every_valid_binding_structure_once(self):
        checked = 0
        key_of: dict[str, str] = {}
        for name, src in _decl_holes_sources().items():
            program = parse(src)
            expected = valid_binding_keys(program)
            skel = extract(program)
            for mode in Mode:
                for gran in Granularity:
                    pl = plan(skel, mode, gran, decl_holes=True)
                    keys = []
                    for v in variants(pl):
                        if v.source not in key_of:
                            key_of[v.source] = binding_key(parse(v.source))
                        keys.append(key_of[v.source])
                    assert len(set(keys)) == len(keys), name
                    assert set(keys) == expected, name
                    assert len(keys) == pl.selected_count == pl.report.naive_count, name
                    checked += 1
        assert checked >= 4 * 50

    @pytest.mark.parametrize("granularity", list(Granularity), ids=lambda g: g.value)
    def test_canonical_signature_is_the_streams(self, granularity):
        # every entry and manifest carries the empty signature
        for src in (LOOP_SRC, BRANCH_SRC, SCOPED_SRC, STRAIGHT_SRC, NESTED_SRC, TWO_FUNCTIONS_SRC):
            pl = plan(extract(parse(src)), Mode.COMPLETE, granularity, decl_holes=True)
            assert {v.signature for v in variants(pl)} == {()}


class TestVariantStream:
    def test_names_and_sequence(self, loop_skel, tmp_path):
        rows = list(variants(plan(loop_skel)))
        assert len(rows) == 32
        assert [v.seq for v in rows] == list(range(1, 33))
        # seqs are padded to the digits of the number of entries emitted
        for cap, name in ((None, "loop__v03.c"), (9, "loop__v3.c")):
            with variant_files(tmp_path / str(cap), plan(loop_skel, cap=cap), "loop") as stream:
                assert [p.name for p, _ in stream][2] == name

    def test_variant_files_writes_the_stream(self, loop_skel, tmp_path):
        with variant_files(tmp_path / "loop", plan(loop_skel), "loop") as stream:
            rows = list(stream)
        assert [p.name for p, _ in rows] == [f"loop__v{i:02d}.c" for i in range(1, 33)]
        assert [v.source for _, v in rows] == [v.source for v in variants(plan(loop_skel))]
        assert [p.read_text() for p, _ in rows] == [v.source for _, v in rows]
        assert sorted(p.name for p in (tmp_path / "loop").iterdir()) == [p.name for p, _ in rows]

    def test_variant_files_rejects_a_refused_plan(self, loop_skel, tmp_path):
        with pytest.raises(ValueError):
            with variant_files(tmp_path / "loop", plan(loop_skel, threshold=10), "loop"):
                pass
        assert not (tmp_path / "loop").exists()

    def test_limit_is_stream_prefix(self, loop_skel):
        head = [v.assignment for v in variants(plan(loop_skel, cap=5))]
        full = stream_vectors(loop_skel)
        assert head == full[:5]

    def test_deterministic_rerun(self, loop_skel):
        one = [(v.seq, v.source) for v in variants(plan(loop_skel))]
        two = [(v.seq, v.source) for v in variants(plan(loop_skel))]
        assert one == two


class TestPlan:
    def test_threshold_decisions(self, loop_skel, tmp_path):
        p = plan(loop_skel, threshold=10)
        assert p.selected_count == 32 and p.refusal == "threshold"
        p = plan(loop_skel, threshold=32)
        assert p.refusal is None
        p = plan(loop_skel, threshold=10, cap=5)
        assert p.refusal is None
        with variant_files(tmp_path, p, "loop") as stream:
            assert [path.name for path, _ in stream] == [f"loop__v{i}.c" for i in range(1, 6)]

    def test_paper_mode_unsupported_reports_none(self):
        src = """
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
        skel = extract(parse(src))
        p = plan(skel, Mode.PAPER)
        assert p.refusal == "unsupported" and p.selected_count is None
        q = plan(skel, Mode.COMPLETE)
        assert q.refusal is None


# The first VARIANT_ROWS entries of every composed stream of these
# sources, each hashed with its seq, assignment, signature and source, in
# both modes at both granularities, with and without decl_holes.
# `variant_digests.json` holds the digests as first written, so a change
# to how the families' streams are combined, how a row fills the
# template, or how the decl_holes product runs shows here. A stream the
# plan refuses (shadowing, or paper mode over nested scopes) is recorded
# as refused.
VARIANT_SOURCES = {
    "loop": LOOP_SRC,
    "branch": BRANCH_SRC,
    "scoped": SCOPED_SRC,
    "straight": STRAIGHT_SRC,
    "nested": NESTED_SRC,
    "shadow": SHADOW_SRC,
    "two_functions": TWO_FUNCTIONS_SRC,
    **{f"random_source({seed})": random_source(seed) for seed in range(50)},
}
VARIANT_ROWS = 200


def variant_digest(src: str) -> str:
    h = hashlib.sha256()
    skel = extract(parse(src))
    for decl_holes in (False, True):
        for mode in Mode:
            for gran in Granularity:
                h.update(f"{decl_holes} {mode.value} {gran.value}\n".encode())
                try:
                    pl = plan(skel, mode, gran, decl_holes, cap=VARIANT_ROWS)
                except ShadowingError:
                    h.update(b"shadowing\n")
                    continue
                if pl.refusal == "unsupported":
                    h.update(b"unsupported\n")
                    continue
                for v in variants(pl):
                    h.update(repr((v.seq, v.assignment, v.signature, v.source)).encode())
    return h.hexdigest()[:16]


def test_variant_streams_match_frozen_digests():
    frozen = json.loads((Path(__file__).parent / "variant_digests.json").read_text())
    assert {name: variant_digest(src) for name, src in VARIANT_SOURCES.items()} == frozen
