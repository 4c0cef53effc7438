"""Partition counting and generation against brute-force oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spe.combinat import (
    Family,
    Mode,
    Pool,
    ScopeNestingError,
    count_at_most,
    family_count,
    family_stream,
    lazy_product,
    rgs_at_most,
    rgs_exact,
    rgs_of_vector,
    stirling2,
)

from spe.minilang import parse
from spe.skeleton import extract

from oracles import set_partitions, stirling_by_enumeration

EMPTY_ROOT_SRC = (
    "int main() { { int a; int c; a = 1; c = a; a = c; } { int b; b = 2; b = b; } return 0; }"
)


def is_rgs(seq) -> bool:
    top = -1
    for x in seq:
        if x > top + 1:
            return False
        top = max(top, x)
    return not seq or seq[0] == 0


class TestStirling:
    def test_spot_values(self):
        assert stirling2(4, 2) == 7
        assert stirling2(5, 2) + stirling2(5, 1) == 16
        assert stirling2(0, 0) == 1
        assert stirling2(3, 0) == 0
        assert stirling2(3, 5) == 0

    def test_matches_enumeration_oracle(self):
        for n in range(0, 8):
            for k in range(0, n + 2):
                assert stirling2(n, k) == stirling_by_enumeration(n, k), (n, k)

    def test_recurrence(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)

    def test_row_sums_are_bell_numbers(self):
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        for n, b in enumerate(bell):
            assert sum(stirling2(n, k) for k in range(n + 1)) == b


class TestRgsStreams:
    def test_at_most_62(self):
        rows = list(rgs_at_most(6, 2))
        assert len(rows) == 32 == count_at_most(6, 2)
        assert rows[0] == (0, 0, 0, 0, 0, 0)
        assert rows[-1] == (0, 1, 1, 1, 1, 1)

    def test_exact_32(self):
        rows = list(rgs_exact(3, 2))
        assert rows == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]
        assert stirling2(3, 2) == 3

    def test_exact_k_above_n_empty(self):
        assert list(rgs_exact(1, 2)) == []
        assert stirling2(1, 2) == 0

    def test_zero_holes(self):
        assert list(rgs_at_most(0, 3)) == [()]
        assert list(rgs_exact(0, 0)) == [()]
        assert list(rgs_exact(0, 1)) == []

    @given(st.integers(0, 7), st.integers(1, 5))
    def test_at_most_stream_properties(self, n, k):
        rows = list(rgs_at_most(n, k))
        assert len(rows) == count_at_most(n, k) == sum(stirling2(n, j) for j in range(k + 1))
        assert rows == sorted(rows)
        assert len(set(rows)) == len(rows)
        for r in rows:
            assert is_rgs(r)
            assert len(set(r)) <= k or n == 0

    @given(st.integers(0, 7), st.integers(0, 5))
    def test_exact_stream_properties(self, n, k):
        rows = list(rgs_exact(n, k))
        assert len(rows) == stirling2(n, k)
        for r in rows:
            assert is_rgs(r)
            assert len(set(r)) == k

    def test_exact_matches_recursive_oracle(self):
        for n in range(0, 7):
            for k in range(0, n + 1):
                assert set(rgs_exact(n, k)) == set(set_partitions(n, k))

    @given(st.lists(st.sampled_from("xyzw"), max_size=8))
    def test_rgs_of_vector_is_relabeling_invariant(self, values):
        rgs = rgs_of_vector(values)
        assert is_rgs(rgs)
        # first occurrences get increasing labels; equal values share labels
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (a == b) == (rgs[i] == rgs[j])


class TestLazyProduct:
    def test_row_major_and_restartable(self):
        factories = [lambda: iter([0, 1]), lambda: iter("ab")]
        rows = list(lazy_product(factories))
        assert rows == [(0, "a"), (0, "b"), (1, "a"), (1, "b")]
        # the inner factory restarts per outer element: generators work
        assert list(lazy_product(factories)) == rows

    def test_empty_factor_kills_product(self):
        assert list(lazy_product([lambda: iter([1]), lambda: iter([])])) == []

    def test_no_factors_yields_unit(self):
        assert list(lazy_product([])) == [()]


def flat_family(n_root: int, n_local: int, root_holes: int, local_holes: int) -> Family:
    """Two-pool family: root pool + one child pool; root-only holes
    first, then nested holes eligible for both."""
    root = Pool(vars=tuple(f"g{i}" for i in range(n_root)), parent=None)
    local = Pool(vars=tuple(f"l{i}" for i in range(n_local)), parent=0)
    holes = tuple(range(1, root_holes + local_holes + 1))
    eligible = tuple([(0,)] * root_holes + [(0, 1)] * local_holes)
    return Family(unit="main", type="int", pools=(root, local), holes=holes, eligible=eligible)


class TestFamilyCounts:
    def test_single_pool_is_at_most(self):
        root = Pool(vars=("a", "b"), parent=None)
        fam = Family(
            unit="main", type="int", pools=(root,), holes=(1, 2, 3, 4, 5, 6), eligible=((0,),) * 6
        )
        assert family_count(fam, Mode.PAPER) == 32
        assert family_count(fam, Mode.COMPLETE) == 32
        assert len(list(family_stream(fam, Mode.COMPLETE))) == 32

    def test_two_pool_instance(self):
        # 3 root-only holes over 2 vars, 2 nested holes over 2+2 vars
        fam = flat_family(2, 2, 3, 2)
        assert family_count(fam, Mode.PAPER) == 36
        assert family_count(fam, Mode.COMPLETE) == 40

    def test_paper_stream_is_subset_of_complete(self):
        fam = flat_family(2, 2, 3, 2)
        paper = set(family_stream(fam, Mode.PAPER))
        comp = set(family_stream(fam, Mode.COMPLETE))
        assert len(paper) == 36 and len(comp) == 40
        assert paper < comp

    def test_counts_match_streams(self):
        fams = [
            flat_family(n_root, n_local, rh, lh)
            for n_root, n_local, rh, lh in [(1, 1, 1, 1), (2, 1, 2, 2), (2, 3, 1, 3), (3, 2, 0, 3)]
        ]
        # an empty root pool: no hole can be promoted out of its block
        (empty_root,) = extract(parse(EMPTY_ROOT_SRC)).families()
        assert family_count(empty_root, Mode.PAPER) == 16
        for fam in fams + [empty_root]:
            for mode in Mode:
                rows = list(family_stream(fam, mode))
                assert len(rows) == len(set(rows)) == family_count(fam, mode), (fam, mode)


class TestNestedPools:
    def make_nested(self):
        root = Pool(vars=("g",), parent=None)
        mid = Pool(vars=("m",), parent=0)
        deep = Pool(vars=("d",), parent=1)
        return Family(
            unit="main",
            type="int",
            pools=(root, mid, deep),
            holes=(1, 2),
            eligible=((0, 1), (0, 1, 2)),
        )

    def test_paper_mode_rejects_nesting(self):
        fam = self.make_nested()
        with pytest.raises(ScopeNestingError):
            family_count(fam, Mode.PAPER)

    def test_complete_mode_handles_nesting(self):
        fam = self.make_nested()
        count = family_count(fam, Mode.COMPLETE)
        rows = list(family_stream(fam, Mode.COMPLETE))
        assert len(rows) == len(set(rows)) == count
