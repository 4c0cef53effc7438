"""Set-partition counting and enumeration over scoped variable pools.

Fillings of a hole family that differ only by renaming variables within a
pool correspond to the same set partition of the family's holes, so streams
here are restricted growth strings (RGS): digit strings ``a`` with
``a[0] == 0`` and ``a[i] <= 1 + max(a[:i])``, one digit per hole, equal
digits meaning "same variable".  Every stream is emitted in lexicographic
order and is duplicate-free.

The stream API is one pair per hole family: ``family_stream`` yields the
family's scoped partitions and ``family_count`` gives their number in
closed form.  A skeleton's class stream is the ``lazy_product`` of its
families' streams, and ``count_plan`` multiplies their counts.

Both enumeration modes run one procedure: every hole independently picks
one pool on its scope path (its configuration), then each pool's holes
are partitioned into between ``lo`` and ``len(pool.vars)`` blocks.

* COMPLETE takes ``lo = 0`` everywhere.  It is sound and complete for
  within-pool renaming equivalence, and it handles nested pools.
* PAPER is the historical procedure this tool reproduces: COMPLETE on a
  flat pool tree (every local pool directly under the root) with two
  bounds.  Outside the all-root configuration, the root pool takes
  *exactly* ``len(root.vars)`` blocks, and every local pool keeps at
  least one of its own holes.  Its stream is a strict subset of
  COMPLETE's on some shapes (see ``tests``), which is why COMPLETE is
  the default elsewhere.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Mode",
    "ScopeNestingError",
    "stirling2",
    "count_blocks",
    "rgs",
    "rgs_of_vector",
    "Pool",
    "Family",
    "family_stream",
    "family_count",
    "lazy_product",
    "CountReport",
    "naive_count",
    "count_plan",
]


class Mode(enum.Enum):
    PAPER = "paper"
    COMPLETE = "complete"


class ScopeNestingError(ValueError):
    """PAPER mode asked to partition a family whose pool tree is not flat."""


# ---------------------------------------------------------------------------
# Stirling numbers of the second kind

_stirling_rows: list[list[int]] = [[1]]  # row n maps k -> {n, k}; {0,0} = 1


def stirling2(n: int, k: int) -> int:
    """{n, k}: partitions of an n-set into exactly k non-empty blocks.

    Conventions: {0,0} = 1, {n,0} = 0 for n > 0, and {n,k} = 0 for k > n.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    while len(_stirling_rows) <= n:
        m = len(_stirling_rows)
        prev = _stirling_rows[m - 1]
        row = [0] * (m + 1)
        for j in range(1, m + 1):
            row[j] = prev[j - 1] + (j * prev[j] if j < m else 0)
        _stirling_rows.append(row)
    return _stirling_rows[n][k]


def count_blocks(n: int, lo: int, hi: int) -> int:
    """Partitions of an n-set into lo..hi blocks: the length of
    ``rgs(n, lo, hi)``.  The empty set has one partition, into 0 blocks."""
    return sum(stirling2(n, k) for k in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Restricted growth strings


def rgs(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """All RGS of length n with lo..hi distinct digits (blocks),
    lexicographic.  n == 0 yields the single empty string iff lo == 0."""
    if n == 0:
        if lo == 0:
            yield ()
        return
    lo = max(lo, 1)  # a[0] opens block 0
    if lo > min(n, hi):
        return
    a = [0] * n
    used = [1] * (n + 1)  # used[j]: blocks among a[:j], for j >= 1
    i = 0
    while True:
        # complete a[:i + 1] with its least suffix: zeros, then one new
        # block per position for the blocks lo still needs
        first_new = n - max(lo - used[i + 1], 0)
        for j in range(i + 1, n):
            a[j] = used[j] if j >= first_new else 0
            used[j + 1] = used[j] + (j >= first_new)
        yield tuple(a)
        # grow the last digit that may grow (to used[i] at most, which
        # opens a block); its suffix kept lo in reach, so the new one can
        i = n - 1
        while i and (a[i] >= used[i] or a[i] + 1 >= hi):
            i -= 1
        if not i:
            return
        a[i] += 1
        used[i + 1] = used[i] + (a[i] == used[i])


def rgs_of_vector(values: Sequence) -> tuple[int, ...]:
    """RGS of any vector: digit = index of the value's first occurrence."""
    seen: dict = {}
    out = []
    for v in values:
        if v not in seen:
            seen[v] = len(seen)
        out.append(seen[v])
    return tuple(out)


def lazy_product(factories: Sequence[Callable[[], Iterable]]) -> Iterator[tuple]:
    """Row-major Cartesian product of restartable streams.

    Unlike itertools.product this never materializes a factor, so a capped
    consumer of a huge product stays O(1) in memory.  Each factory must
    return a fresh iterator per call.
    """
    n = len(factories)

    def rec(i: int) -> Iterator[tuple]:
        if i == n:
            yield ()
            return
        for head in factories[i]():
            for rest in rec(i + 1):
                yield (head,) + rest

    return rec(0)


# ---------------------------------------------------------------------------
# Scoped families


@dataclass(frozen=True)
class Pool:
    """One variable pool: a scope's same-type variables, declaration order.

    ``parent`` is the index (within the family) of the nearest enclosing
    pool that exists in the family, None for the root.  The root pool is
    always index 0 and is the only pool allowed to be empty.
    """

    vars: tuple
    parent: int | None


@dataclass(frozen=True)
class Family:
    """The partition problem for one (unit, type) hole family.

    ``holes`` are hole indices in stream order: root-pool holes first,
    then each local pool's holes, source order within a pool.  ``eligible``
    gives, per hole position, the ascending pool indices the hole may draw
    from (the non-empty pools on its scope path; the root appears iff the
    root pool is non-empty).
    """

    unit: str
    type: str
    pools: tuple[Pool, ...]
    holes: tuple[int, ...]
    eligible: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        assert self.pools and self.pools[0].parent is None
        assert len(self.holes) == len(self.eligible)
        for el in self.eligible:
            assert el, "a hole with no eligible pool cannot be filled"

    @property
    def is_flat(self) -> bool:
        return all(p.parent == 0 for p in self.pools[1:])

    def own_holes(self) -> list[int]:
        """Per pool, the number of holes whose deepest eligible pool it is."""
        own = [0] * len(self.pools)
        for el in self.eligible:
            own[el[-1]] += 1
        return own


def _is_paper(family: Family, mode: Mode) -> bool:
    if mode is Mode.PAPER and not family.is_flat:
        raise ScopeNestingError(
            "paper mode handles one level of local pools under the root; "
            "this family nests pools"
        )
    return mode is Mode.PAPER


def family_stream(
    family: Family, mode: Mode
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """Every scoped partition of one family as a ``(config, rgs)`` pair,
    lexicographic and duplicate-free.  ``config`` assigns each hole
    (normal-form order) a pool index; ``rgs`` holds, per pool, the RGS
    over the holes that chose it, root pool first.  The pair is the
    family's canonical form: two fillings are within-pool-renaming
    equivalent iff their pairs are equal.  PAPER mode raises
    ScopeNestingError on a family whose pool tree is not flat."""
    paper = _is_paper(family, mode)
    caps = [len(p.vars) for p in family.pools]
    own = family.own_holes()
    for config in itertools.product(*family.eligible):
        sizes = [config.count(p) for p in range(len(caps))]
        root_lo = 0
        if paper and sizes[0] < len(config):
            # on a flat tree only a pool's own holes can choose it
            if any(o and not s for o, s in zip(own[1:], sizes[1:])):
                continue
            root_lo = caps[0]
        factories = [
            functools.partial(rgs, size, root_lo if p == 0 else 0, cap)
            for p, (size, cap) in enumerate(zip(sizes, caps))
        ]
        for rgs_tuple in lazy_product(factories):
            yield config, rgs_tuple


def family_count(family: Family, mode: Mode) -> int:
    """Closed-form size of family_stream without enumerating it."""
    if not _is_paper(family, mode):
        return _pool_count(family, 0, False)
    total = 0
    if all(0 in el for el in family.eligible):  # the all-root configuration
        total = count_blocks(len(family.holes), 0, len(family.pools[0].vars))
    if any(family.own_holes()[1:]):
        total += _pool_count(family, len(family.pools[0].vars), True)
    return total


def _pool_count(family: Family, root_lo: int, keep: bool) -> int:
    # Bottom-up over the pool tree.  up[p][j] = ways to place and partition
    # every hole of p's subtree such that exactly j holes pass above p.  The
    # root takes root_lo.. blocks; with keep, a local pool with holes of its
    # own stops at least one of them.
    npools = len(family.pools)
    own = family.own_holes()
    kids: list[list[int]] = [[] for _ in range(npools)]
    for i, p in enumerate(family.pools):
        if p.parent is not None:
            kids[p.parent].append(i)

    up: dict[int, list[int]] = {}
    for p in range(npools - 1, -1, -1):
        arrived = [1]  # index: holes passed into p from children
        for c in kids[p]:
            child = up[c]
            merged = [0] * (len(arrived) + len(child) - 1)
            for i, a in enumerate(arrived):
                if a:
                    for j, b in enumerate(child):
                        merged[i + j] += a * b
            arrived = merged
        v = len(family.pools[p].vars)
        if p == 0:
            return sum(w * count_blocks(j + own[p], root_lo, v) for j, w in enumerate(arrived))
        out = [0] * (len(arrived) + own[p])
        for j, w in enumerate(arrived):
            a = j + own[p]
            for m in range(a + 1):  # m holes stop at p, a-m continue up
                # with keep, drop the choices that stop none of p's own holes
                ways = math.comb(a, m) - (math.comb(j, m) if keep and own[p] else 0)
                out[a - m] += w * ways * count_blocks(m, 0, v)
        up[p] = out
    raise AssertionError("unreachable: family has a root pool")


# ---------------------------------------------------------------------------
# Skeleton-level counting


@dataclass(frozen=True)
class CountReport:
    """Arithmetic-only size report for a skeleton; no enumeration happens.

    naive_count multiplies each hole's variable-set size; the mode counts
    multiply the partition counts of every family of every enumeration
    unit (per function at intra granularity, program-wide at inter).
    """

    naive_count: int
    paper_mode_count: int | None  # None when PAPER mode rejects a family's nesting
    complete_mode_count: int


def naive_count(holes: Iterable) -> int:
    """Size of the naive space over these holes: the product of their
    variable-set sizes."""
    return math.prod(len(h.var_set) for h in holes)


def count_plan(skel, families: Sequence[Family] | None = None) -> CountReport:
    """Count a skeleton's naive and deduplicated enumeration sizes.

    Big-integer exact; cost is polynomial in the skeleton size, never in
    the counts themselves. `families` are the skeleton's families at the
    chosen granularity. A caller holding only the skeleton, as
    `perfbench/run.py` is, gets its intra families from `skel.families()`.
    """
    if families is None:
        families = skel.families()
    paper = (
        math.prod(family_count(fam, Mode.PAPER) for fam in families)
        if all(fam.is_flat for fam in families)
        else None
    )
    return CountReport(
        naive_count=naive_count(skel.holes),
        paper_mode_count=paper,
        complete_mode_count=math.prod(family_count(fam, Mode.COMPLETE) for fam in families),
    )
