"""Hole extraction, variable-set computation, and the families built from them."""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spe.combinat import Family, Pool, count_plan
from spe.enumerator import plan
from spe.minilang import parse
from spe.minilang.ast import VarDecl
from spe.skeleton import (
    PROGRAM_UNIT,
    Granularity,
    ShadowingError,
    characteristic_vector,
    extract,
    normal_forms,
    to_json,
)

from conftest import SHADOW_SRC, TWO_FUNCTIONS_SRC, origin_vector, random_skeleton
from test_combinat import DIGEST_SOURCES
from test_minilang import REFERENCE_PROGRAMS


class TestExtraction:
    def test_loop_holes(self, loop_skel):
        s = loop_skel
        assert s.n == 6
        assert origin_vector(s) == ("a", "b", "a", "a", "a", "b")
        assert all(h.names == ("a", "b") for h in s.holes)
        assert [h.index for h in s.holes] == [1, 2, 3, 4, 5, 6]
        assert {h.unit for h in s.holes} == {"main"}

    def test_skeleton_is_its_program_and_holes(self, loop, loop_skel):
        # how a skeleton is enumerated is the plan's, not the skeleton's
        assert [f.name for f in dataclasses.fields(loop_skel)] == ["program", "holes"]
        assert loop_skel.program is loop

    def test_branch_var_sets(self, branch_skel):
        s = branch_skel
        assert s.n == 5
        sizes = [len(h.var_set) for h in s.holes]
        # source order: a=0, b=0, c=0, d=1, a=0 — block holes see 4 vars
        assert sizes == [2, 2, 4, 4, 2]
        assert origin_vector(s) == ("a", "b", "c", "d", "a")

    def test_scoped_decl_holes(self, scoped_skel):
        # declarations are never holes; the flag is the plan's, and the
        # JSON dump only records it
        flagged = to_json(scoped_skel, True)
        assert flagged.pop("decl_holes") is True
        plain = to_json(scoped_skel, False)
        assert plain.pop("decl_holes") is False
        assert flagged == plain
        assert plan(scoped_skel, decl_holes=True).decl_holes
        assert not plan(scoped_skel).decl_holes

    def test_scoped_without_decl_holes(self, scoped_skel):
        s = scoped_skel
        assert s.n == 6
        assert not any(isinstance(h.node, VarDecl) for h in s.holes)
        assert [len(h.var_set) for h in s.holes] == [2, 4, 4, 4, 2, 2]
        assert origin_vector(s) == ("a", "b", "c", "d", "a", "b")
        assert to_json(s, False)["per_function_ranges"] == {"main": [1, 6]}

    def test_condition_sees_enclosing_scope_only(self, scoped_skel):
        cond = scoped_skel.holes[0]  # the `if (a)` test
        assert cond.names == ("a", "b")

    def test_var_set_order_outer_first(self, branch_skel):
        block_hole = branch_skel.holes[2]
        # visibility chain order: enclosing scopes first, then the block's own
        assert block_hole.names == ("a", "b", "c", "d")

    def test_multiple_functions_have_disjoint_units(self):
        src = """
int g = 0;

int helper(int p) {
    return p + g;
}

int main(void) {
    int x = 1;
    x = helper(x);
    return x;
}
"""
        s = extract(parse(src))
        units = {h.unit for h in s.holes}
        assert units == {"helper", "main"}
        ranges = to_json(s, False)["per_function_ranges"]
        assert ranges == {"helper": [1, 2], "main": [3, 5]}
        assert [h.unit for h in s.holes] == ["helper"] * 2 + ["main"] * 3

    def test_empty_skeleton(self):
        s = extract(parse("int main(void) { return 0; }"))
        assert s.n == 0 and origin_vector(s) == ()
        assert to_json(s, False)["per_function_ranges"] == {"main": None}


class TestCharacteristicVector:
    def test_origin_round_trip(self, loop_skel):
        assert characteristic_vector(loop_skel, origin_vector(loop_skel)) == origin_vector(loop_skel)

    def test_accepts_plain_sequences(self, loop_skel):
        v = ("b", "a", "b", "b", "b", "a")
        assert characteristic_vector(loop_skel, v) == v

    def test_length_mismatch_rejected(self, loop_skel):
        with pytest.raises(ValueError):
            characteristic_vector(loop_skel, ("a",))

    def test_foreign_name_rejected(self, loop_skel):
        with pytest.raises(ValueError):
            characteristic_vector(loop_skel, ("a", "b", "a", "a", "a", "z"))


def family_of(skel, unit, granularity=Granularity.INTRA, type_="int"):
    [fam] = [f for f in normal_forms(skel, granularity) if (f.unit, f.type) == (unit, type_)]
    return fam


def assert_families_cover_holes(skel, granularity):
    """Each hole sits in exactly one family, of its own unit (or of the
    program at inter granularity) and type, and its variable set is the
    concatenated variables of its eligible pools."""
    families = normal_forms(skel, granularity)
    assert sorted(i for fam in families for i in fam.holes) == list(range(1, skel.n + 1))
    for fam in families:
        assert len(fam.holes) == len(fam.eligible)
        for index, elig in zip(fam.holes, fam.eligible):
            h = skel.holes[index - 1]
            assert fam.unit == (PROGRAM_UNIT if granularity is Granularity.INTER else h.unit)
            assert fam.type == h.type
            assert list(elig) == sorted(elig)
            assert all(0 <= e < len(fam.pools) for e in elig)
            assert h.names == tuple(name for e in elig for name in fam.pools[e].vars)


class TestNormalForms:
    def test_branch_groups_root_holes_first(self, branch_skel):
        [fam] = normal_forms(branch_skel, Granularity.INTRA)
        assert fam.holes == (1, 2, 5, 3, 4)
        assert fam.pools[0].vars == ("a", "b")
        assert fam.pools[1].vars == ("c", "d")
        assert fam.eligible == ((0,), (0,), (0,), (0, 1), (0, 1))

    def test_loop_single_pool(self, loop_skel):
        [fam] = normal_forms(loop_skel, Granularity.INTRA)
        assert len(fam.pools) == 1
        assert fam.pools[0].vars == ("a", "b")

    def test_returns_a_flat_tuple(self, scoped_skel):
        families = normal_forms(scoped_skel, Granularity.INTRA)
        assert isinstance(families, tuple)
        assert all(isinstance(fam, Family) for fam in families)
        assert scoped_skel.families() == families

    def test_intra_units(self, scoped_skel):
        intra = normal_forms(scoped_skel, Granularity.INTRA)
        assert [(f.unit, f.type) for f in intra] == [("main", "int")]

    def test_inter_is_one_unit(self, scoped_skel):
        inter = normal_forms(scoped_skel, Granularity.INTER)
        assert [(f.unit, f.type) for f in inter] == [(PROGRAM_UNIT, "int")]
        assert sorted(inter[0].holes) == list(range(1, 7))

    @pytest.mark.parametrize(
        "decl_holes,granularity,expected",
        [
            (
                False,
                Granularity.INTRA,
                [("f", "int"), ("f", "uint"), ("main", "int"), ("main", "uint")],
            ),
            (False, Granularity.INTER, [(PROGRAM_UNIT, "int"), (PROGRAM_UNIT, "uint")]),
            (
                True,
                Granularity.INTRA,
                [("f", "int"), ("f", "uint"), ("main", "int"), ("main", "uint")],
            ),
            (True, Granularity.INTER, [(PROGRAM_UNIT, "int"), (PROGRAM_UNIT, "uint")]),
        ],
    )
    def test_two_function_units(self, decl_holes, granularity, expected):
        s = extract(parse(TWO_FUNCTIONS_SRC))
        assert [(f.unit, f.type) for f in normal_forms(s, granularity)] == expected
        families = plan(s, granularity=granularity, decl_holes=decl_holes).families
        assert families == normal_forms(s, granularity)
        assert_families_cover_holes(s, granularity)

    def test_hole_less_unit_has_no_family(self):
        s = extract(parse("int f(void) { return 1; }\nint main(void) { int a = 0; return a; }"))
        assert to_json(s, False)["per_function_ranges"] == {"f": None, "main": [1, 1]}
        assert [f.unit for f in normal_forms(s, Granularity.INTRA)] == ["main"]

    def test_two_type_families_sorted(self):
        src = """
int main(void) {
    int a = 1;
    unsigned u = 2u;
    a = a + 1;
    u = u + 1u;
    return a;
}
"""
        s = extract(parse(src))
        assert [fam.type for fam in normal_forms(s, Granularity.INTRA)] == ["int", "uint"]

    def test_params_join_function_root_pool(self):
        src = """
int f(int p) {
    int x = 0;
    x = p;
    return x;
}

int main(void) {
    int r;
    r = f(2);
    return r;
}
"""
        s = extract(parse(src))
        assert family_of(s, "f").pools[0].vars == ("p", "x")

    def test_function_root_pool_follows_globals(self):
        s = extract(parse(TWO_FUNCTIONS_SRC))
        assert family_of(s, "f").pools == (Pool(vars=("g", "x"), parent=None),)
        assert family_of(s, "f", type_="uint").pools == (Pool(vars=("h", "p"), parent=None),)

    def test_shadowing_rejected_with_hole_indices(self):
        s = extract(parse(SHADOW_SRC))
        for granularity in Granularity:
            with pytest.raises(ShadowingError) as e:
                normal_forms(s, granularity)
            assert any(str(h.index) in str(e.value) for h in s.holes if h.hidden_conflict)

    def test_inter_keeps_function_scopes_separate(self):
        src = """
int g = 0;

int f(void) {
    int x = 1;
    return x + g;
}

int main(void) {
    int y = 2;
    return y + f();
}
"""
        s = extract(parse(src))
        fam = family_of(s, PROGRAM_UNIT, Granularity.INTER)
        assert fam.pools[0].vars == ("g",)
        locals_ = {p.vars for p in fam.pools[1:]}
        assert locals_ == {("x",), ("y",)}
        # both function pools hang off the global root
        assert all(p.parent == 0 for p in fam.pools[1:])

    def test_inter_nests_block_pools_under_their_function(self):
        src = """
int main(void) {
    int x = 1;
    if (x) {
        int y = 2;
        x = y;
    }
    return x;
}
"""
        s = extract(parse(src))
        fam = family_of(s, PROGRAM_UNIT, Granularity.INTER)
        assert fam.pools == (
            Pool(vars=(), parent=None),
            Pool(vars=("x",), parent=0),
            Pool(vars=("y",), parent=1),
        )
        assert not fam.is_flat


class TestJson:
    def test_shape(self, loop_skel):
        doc = to_json(loop_skel, False)
        assert list(doc) == ["n", "holes", "per_function_ranges", "origin_vector", "decl_holes"]
        assert doc["n"] == 6
        assert doc["origin_vector"] == ["a", "b", "a", "a", "a", "b"]
        assert len(doc["holes"]) == 6
        assert doc["holes"][0]["var_set"] == [["a", 1], ["b", 1]]
        assert doc["per_function_ranges"] == {"main": [1, 6]}
        assert doc["decl_holes"] is False


class TestRandomSkeletons:
    @given(st.integers(0, 5000))
    @settings(max_examples=120, deadline=None)
    def test_extraction_invariants(self, seed):
        s = random_skeleton(seed)
        assert [h.index for h in s.holes] == list(range(1, s.n + 1))
        for h in s.holes:
            assert h.names
            assert h.node.name in h.names
        for granularity in Granularity:
            assert_families_cover_holes(s, granularity)


# Every skeleton fact of these sources: its JSON document and the full
# repr of every family (pools with their names and parents, holes,
# eligible pools), or the shadowing refusal, at both granularities.
# `skeleton_digests.json` holds the digests as first written, so a change
# to how holes or families are built that moves any of them shows here.
SKELETON_SOURCES = {
    **DIGEST_SOURCES,
    "two_functions": TWO_FUNCTIONS_SRC,
    "shadow": SHADOW_SRC,
    **{f"reference:{name}": src for name, src in REFERENCE_PROGRAMS.items()},
}


def skeleton_facts(skel) -> str:
    lines = [json.dumps(to_json(skel, False), sort_keys=True)]
    for granularity in Granularity:
        try:
            lines.append(repr(normal_forms(skel, granularity)))
        except ShadowingError as e:
            lines.append(f"ShadowingError: {e}")
    return "\n".join(lines)


def test_skeleton_facts_match_frozen_digests():
    frozen = json.loads((Path(__file__).parent / "skeleton_digests.json").read_text())
    digests = {
        name: hashlib.sha256(skeleton_facts(extract(parse(src))).encode()).hexdigest()[:16]
        for name, src in SKELETON_SOURCES.items()
    }
    assert digests == frozen


def test_families_come_from_the_holes_alone():
    # normal_forms reads only the holes, so a skeleton without its
    # program yields the same families and counts
    for name, src in SKELETON_SOURCES.items():
        skel = extract(parse(src))
        bare = dataclasses.replace(skel, program=None)
        for granularity in Granularity:
            try:
                families = normal_forms(skel, granularity)
            except ShadowingError as e:
                with pytest.raises(ShadowingError, match=f"^{re.escape(str(e))}$"):
                    normal_forms(bare, granularity)
                continue
            assert normal_forms(bare, granularity) == families, (name, granularity)
            assert count_plan(bare, families) == count_plan(skel, families), name
        if not any(h.hidden_conflict for h in skel.holes):
            assert count_plan(bare) == count_plan(skel), name
