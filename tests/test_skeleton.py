"""Hole extraction, variable-set computation, and normal forms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spe.enumerator import Assignment
from spe.minilang import parse
from spe.skeleton import (
    GLOBALS_UNIT,
    PROGRAM_UNIT,
    Granularity,
    ShadowingError,
    characteristic_vector,
    extract,
    normal_forms,
    normalize,
    normalize_program,
    to_json,
)

from conftest import LOOP_SRC, SCOPED_SRC, BRANCH_SRC, SHADOW_SRC, random_skeleton


class TestExtraction:
    def test_loop_holes(self, loop_skel):
        s = loop_skel
        assert s.n == 6
        assert s.origin_vector == ("a", "b", "a", "a", "a", "b")
        assert all(h.names == ("a", "b") for h in s.holes)
        assert [h.index for h in s.holes] == [1, 2, 3, 4, 5, 6]
        assert s.units() == ["main"]
        assert not s.decl_holes

    def test_branch_var_sets(self, branch_skel):
        s = branch_skel
        assert s.n == 5
        sizes = [len(h.var_set) for h in s.holes]
        # source order: a=0, b=0, c=0, d=1, a=0 — block holes see 4 vars
        assert sizes == [2, 2, 4, 4, 2]
        assert s.origin_vector == ("a", "b", "c", "d", "a")

    def test_scoped_decl_holes(self, scoped_skel):
        s = scoped_skel
        assert s.n == 10
        assert [len(h.var_set) for h in s.holes] == [2, 2, 2, 4, 4, 4, 4, 4, 2, 2]
        assert s.origin_vector == ("a", "b", "a", "c", "d", "b", "c", "d", "a", "b")
        decl_flags = [h.is_decl for h in s.holes]
        assert decl_flags == [True, True, False, True, True, False, False, False, False, False]
        assert s.units() == [GLOBALS_UNIT, "main"]

    def test_scoped_without_decl_holes(self, scoped):
        s = extract(scoped)
        assert s.n == 6
        assert not any(h.is_decl for h in s.holes)
        assert s.units() == ["main"]

    def test_condition_sees_enclosing_scope_only(self, scoped_skel):
        cond = scoped_skel.holes[2]  # the `if (a)` test
        assert cond.names == ("a", "b")

    def test_var_set_order_outer_first(self, branch_skel):
        block_hole = branch_skel.holes[2]
        # visibility chain order: enclosing scopes first, then the block's own
        assert block_hole.names == ("a", "b", "c", "d")

    def test_decl_hole_sees_itself(self, scoped_skel):
        first_global = scoped_skel.holes[0]
        assert first_global.is_decl and "a" in first_global.names

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
        lo, hi = s.per_function_ranges["helper"]
        assert [h.unit for h in s.holes[lo:hi]] == ["helper"] * (hi - lo)

    def test_empty_skeleton(self):
        s = extract(parse("int main(void) { return 0; }"))
        assert s.n == 0 and s.origin_vector == ()


class TestCharacteristicVector:
    def test_origin_round_trip(self, loop_skel):
        assert characteristic_vector(loop_skel, Assignment(loop_skel.origin_vector)) == loop_skel.origin_vector

    def test_accepts_plain_sequences(self, loop_skel):
        v = ("b", "a", "b", "b", "b", "a")
        assert characteristic_vector(loop_skel, v) == v

    def test_length_mismatch_rejected(self, loop_skel):
        with pytest.raises(ValueError):
            characteristic_vector(loop_skel, ("a",))

    def test_foreign_name_rejected(self, loop_skel):
        with pytest.raises(ValueError):
            characteristic_vector(loop_skel, ("a", "b", "a", "a", "a", "z"))


class TestNormalForms:
    def test_branch_permutation_groups_root_holes_first(self, branch_skel):
        nf = normalize(branch_skel, "main")
        assert nf.permutation == (1, 2, 5, 3, 4)
        fam = nf.families[0]
        assert fam.pools[0].vars == ("a", "b")
        assert fam.pools[1].vars == ("c", "d")
        assert fam.eligible == ((0,), (0,), (0,), (0, 1), (0, 1))

    def test_loop_single_pool(self, loop_skel):
        nf = normalize(loop_skel, "main")
        assert len(nf.families) == 1
        fam = nf.families[0]
        assert len(fam.pools) == 1
        assert fam.pools[0].vars == ("a", "b")

    def test_intra_units(self, scoped_skel):
        nfs = normal_forms(scoped_skel, Granularity.INTRA)
        assert [nf.unit for nf in nfs] == [GLOBALS_UNIT, "main"]

    def test_inter_is_one_unit(self, scoped_skel):
        nfs = normal_forms(scoped_skel, Granularity.INTER)
        assert [nf.unit for nf in nfs] == [PROGRAM_UNIT]
        assert sorted(nfs[0].permutation) == list(range(1, 11))

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
        nf = normalize(s, "main")
        assert [fam.type for fam in nf.families] == ["int", "uint"]

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
        nf = normalize(s, "f")
        assert nf.families[0].pools[0].vars == ("p", "x")

    def test_shadowing_rejected_with_hole_indices(self):
        s = extract(parse(SHADOW_SRC))
        with pytest.raises(ShadowingError) as e:
            normalize(s, "main")
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
        nf = normalize_program(s)
        fam = nf.families[0]
        assert fam.pools[0].vars == ("g",)
        locals_ = {p.vars for p in fam.pools[1:]}
        assert locals_ == {("x",), ("y",)}
        # both function pools hang off the global root
        assert all(p.parent == 0 for p in fam.pools[1:])


class TestJson:
    def test_shape(self, loop_skel):
        doc = to_json(loop_skel)
        assert doc["n"] == 6
        assert doc["origin_vector"] == ["a", "b", "a", "a", "a", "b"]
        assert len(doc["holes"]) == 6
        assert doc["holes"][0]["var_set"] == [["a", 1], ["b", 1]]
        assert set(doc["per_function_ranges"]) == {"main"}


class TestRandomSkeletons:
    @given(st.integers(0, 5000))
    @settings(max_examples=120, deadline=None)
    def test_extraction_invariants(self, seed):
        s = random_skeleton(seed)
        assert [h.index for h in s.holes] == list(range(1, s.n + 1))
        for h in s.holes:
            assert h.names
            assert h.node.name in h.names
        for nf in normal_forms(s, Granularity.INTRA):
            seen = sorted(nf.permutation)
            expected = sorted(
                h.index for h in s.holes if h.unit == nf.unit
            )
            assert seen == expected
            for fam in nf.families:
                assert len(fam.holes) == len(fam.eligible)
                for pos, elig in enumerate(fam.eligible):
                    assert list(elig) == sorted(elig)
                    assert all(0 <= e < len(fam.pools) for e in elig)
