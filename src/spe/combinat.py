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

Two enumeration modes exist for scoped families:

* COMPLETE: every hole independently picks one pool on its scope path
  (its configuration), then each pool's holes are partitioned into at most
  as many blocks as the pool has variables.  Sound and complete for
  within-pool renaming equivalence, and it handles nested pools.
* PAPER: the historical procedure this tool reproduces.  It requires a
  flat pool tree (every local pool directly under the root), partitions
  the root pool into *exactly* ``len(root.vars)`` blocks for any mixed
  configuration, and never promotes all holes of one local scope unless it
  promotes every hole of every scope.  Its stream is a strict subset of
  COMPLETE's on some shapes (see ``tests``), which is why COMPLETE is the
  default elsewhere.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Mode",
    "ScopeNestingError",
    "stirling2",
    "count_at_most",
    "rgs_at_most",
    "rgs_exact",
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


def count_at_most(n: int, k: int) -> int:
    """Partitions of an n-set into at most k blocks (1 for n == 0)."""
    if n == 0:
        return 1
    return sum(stirling2(n, i) for i in range(1, min(k, n) + 1))


# ---------------------------------------------------------------------------
# Restricted growth strings


def rgs_at_most(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All RGS of length n with at most k distinct digits (at most k
    blocks), lexicographic.  n == 0 yields the single empty string."""
    if n == 0:
        yield ()
        return
    if k < 1:
        return
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i]); a[i] may grow up to min(b[i], k-1)
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] + 1 > min(b[i], k - 1):
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = max(b[j - 1], a[j - 1] + 1)


def rgs_exact(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All RGS of length n using exactly k distinct digits, lexicographic.

    Empty for k > n (no {n,n} fallback; the at-most routine owns the cap)."""
    if k < 0 or k > n:
        return
    if n == 0:
        yield ()
        return
    a = [0] * n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            if used == k:
                yield tuple(a)
            return
        hi = min(used, k - 1)
        for d in range(hi + 1):
            nu = used + (1 if d == used else 0)
            # enough positions left to open the remaining blocks
            if nu + (n - i - 1) >= k:
                a[i] = d
                yield from rec(i + 1, nu)

    yield from rec(0, 0)


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

    def deepest(self, pos: int) -> int:
        return self.eligible[pos][-1]


def _pool_positions(family: Family, config: Sequence[int]) -> list[list[int]]:
    per_pool: list[list[int]] = [[] for _ in family.pools]
    for pos, pi in enumerate(config):
        per_pool[pi].append(pos)
    return per_pool


def _paper_config_ok(family: Family, config: Sequence[int]) -> bool:
    # All-promoted is covered by the at-most solution over every hole;
    # any other configuration must keep >= 1 hole in each local family.
    if all(d == 0 for d in config):
        return True
    for p in range(1, len(family.pools)):
        holes_of_p = [pos for pos in range(len(config)) if family.deepest(pos) == p]
        if holes_of_p and not any(config[pos] == p for pos in holes_of_p):
            return False
    return True


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
    if mode is Mode.PAPER and not family.is_flat:
        raise ScopeNestingError(
            "paper mode handles one level of local pools under the root; "
            "this family nests pools"
        )
    for config in itertools.product(*family.eligible):
        if mode is Mode.PAPER and not _paper_config_ok(family, config):
            continue
        per_pool = _pool_positions(family, config)
        all_root = all(d == 0 for d in config)

        def pool_factory(pi: int, positions: list[int]):
            cap = len(family.pools[pi].vars)
            if mode is Mode.PAPER and pi == 0 and not all_root:
                return lambda: rgs_exact(len(positions), cap)
            return lambda: rgs_at_most(len(positions), cap)

        factories = [pool_factory(pi, pos) for pi, pos in enumerate(per_pool)]
        for rgs_tuple in lazy_product(factories):
            yield config, rgs_tuple


def family_count(family: Family, mode: Mode) -> int:
    """Closed-form size of family_stream without enumerating it."""
    if mode is Mode.PAPER:
        return _paper_count(family)
    return _complete_count(family)


def _complete_count(family: Family) -> int:
    # Bottom-up over the pool tree.  up[p][j] = ways to place and partition
    # every hole of p's subtree such that exactly j holes pass above p.
    npools = len(family.pools)
    own = [0] * npools
    for pos in range(len(family.holes)):
        own[family.deepest(pos)] += 1
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
        total_in = [0] * (len(arrived) + own[p])
        for j, w in enumerate(arrived):
            if w:
                total_in[j + own[p]] += w
        if p == 0:
            return sum(w * count_at_most(a, v) for a, w in enumerate(total_in))
        out = [0] * len(total_in)
        for a, w in enumerate(total_in):
            if not w:
                continue
            for m in range(a + 1):  # m holes stop at p, a-m continue up
                out[a - m] += w * math.comb(a, m) * count_at_most(m, v)
        up[p] = out
    raise AssertionError("unreachable: family has a root pool")


def _paper_count(family: Family) -> int:
    if not family.is_flat:
        raise ScopeNestingError(
            "paper mode handles one level of local pools under the root; "
            "this family nests pools"
        )
    n = len(family.holes)
    v_root = len(family.pools[0].vars)
    fams: dict[int, int] = {}
    for pos in range(n):
        d = family.deepest(pos)
        if d != 0:
            fams[d] = fams.get(d, 0) + 1
    g = n - sum(fams.values())
    # all promoted, at-most blocks -- only when every hole may reach the root
    total = count_at_most(n, v_root) if all(0 in el for el in family.eligible) else 0
    locals_ = sorted(fams.items())
    if not locals_:
        # no local pools: the procedure degenerates to the at-most solution
        return total
    # every local family keeps m_i in [1, u_i]; promoted holes join the root,
    # which is then partitioned into exactly v_root blocks (no way at all
    # when the root has no variables and a hole was promoted)
    for kept in itertools.product(*[range(1, u + 1) for _, u in locals_]):
        ways = 1
        promoted = 0
        for (p, u), m in zip(locals_, kept):
            ways *= math.comb(u, m) * count_at_most(m, len(family.pools[p].vars))
            promoted += u - m
        total += ways * stirling2(g + promoted, v_root)
    return total


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
