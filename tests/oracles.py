"""Independent reference implementations used to cross-check the
package. Everything here is deliberately naive: plain recursion and
whole-group orbit walks, sharing no code with src/ beyond the MiniC
renderer that `realize_source` prints through."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


def set_partitions(n: int, k: int | None = None) -> list[tuple[int, ...]]:
    """All partitions of n labeled elements as block-index tuples, by
    direct recursion: element i joins an existing block or opens a new
    one. With k, only partitions into exactly k blocks."""
    results: list[tuple[int, ...]] = []

    def rec(i: int, labels: list[int], used: int) -> None:
        if i == n:
            if k is None or used == k:
                results.append(tuple(labels))
            return
        for b in range(used):
            labels.append(b)
            rec(i + 1, labels, used)
            labels.pop()
        labels.append(used)
        rec(i + 1, labels, used + 1)
        labels.pop()

    if n == 0:
        return [()] if k in (None, 0) else []
    rec(0, [], 0)
    return results


def stirling_by_enumeration(n: int, k: int) -> int:
    return len(set_partitions(n, k))


def pools_of_program(program) -> list[tuple[str, ...]]:
    """Variable pools straight off the AST: one pool per declaring
    (scope, type), in scope-id order."""
    by_scope_type: dict[tuple[int, str], list[str]] = {}
    for d in program.globals:
        by_scope_type.setdefault((0, d.type), []).append(d.name)

    def walk(block):
        for d in block.decls:
            by_scope_type.setdefault((block.scope_id, d.type), []).append(d.name)
        for st in block.stmts:
            for sub in getattr(st, "then", None), getattr(st, "orelse", None), getattr(st, "body", None):
                if sub is not None:
                    walk(sub)
            if type(st).__name__ == "Block":
                walk(st)

    for fn in program.functions:
        if fn.body is None:
            continue
        for p in fn.params:
            by_scope_type.setdefault((fn.scope_id, p.type), []).append(p.name)
        walk(fn.body)
    return [tuple(v) for _, v in sorted(by_scope_type.items())]


def renaming_group(pools: Sequence[Sequence[str]]) -> list[dict[str, str]]:
    """Every compact renaming: independent permutations within each
    pool, combined. Identity included."""
    per_pool = []
    for pool in pools:
        per_pool.append([dict(zip(pool, perm)) for perm in itertools.permutations(pool)])
    group = []
    for combo in itertools.product(*per_pool):
        g: dict[str, str] = {}
        for m in combo:
            g.update(m)
        group.append(g)
    return group


def orbits(vectors: Iterable[tuple[str, ...]], group: Sequence[dict[str, str]]) -> dict[tuple[str, ...], frozenset]:
    """Partition vectors into orbits under the group; keyed by the
    lexicographically smallest member."""
    vectors = set(vectors)
    out: dict[tuple[str, ...], frozenset] = {}
    seen: set[tuple[str, ...]] = set()
    for v in sorted(vectors):
        if v in seen:
            continue
        orbit = {tuple(g.get(x, x) for x in v) for g in group}
        orbit &= vectors
        seen |= orbit
        out[min(orbit)] = frozenset(orbit)
    return out


def burnside_count(var_sets: Sequence[Sequence[str]], group: Sequence[dict[str, str]]) -> int:
    """Orbit count via Burnside: average over the group of the number
    of fixed vectors, computed per hole."""
    total = 0
    for g in group:
        fixed = 1
        for vs in var_sets:
            fixed *= sum(1 for v in vs if g.get(v, v) == v)
        total += fixed
    assert total % len(group) == 0
    return total // len(group)


def realize_source(skel, assignment) -> str:
    """A variant's text by definition: the skeleton's program rendered
    with each hole's node printed under its assigned name."""
    from spe.minilang import render

    names = {h.node: name for h, name in zip(skel.holes, assignment.values)}
    return render(skel.program, names)
