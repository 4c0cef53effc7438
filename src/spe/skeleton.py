"""Hole extraction and the hole families that enumeration partitions.

A skeleton is a program with every variable occurrence replaced by a
hole. Each hole carries its scope path, its type, and its variable set:
the same-type variables visible at that position (all of them, because
MiniC puts declarations before statements, so visibility is uniform
across a block). Extraction reads these off the chain of enclosing
scopes' declarations as it walks the AST. Declarations are never holes,
and a skeleton is only its program and its holes. How it is enumerated
(mode, granularity, declaration holes) belongs to the enumeration plan;
with declaration holes the enumerator fills these same holes by the
naive product, declarations at their source names.

`normal_forms` turns a skeleton into one flat tuple of the
pool-structured (unit, type) families the partition machinery consumes,
from the holes alone. One builder serves every unit: given the unit's
holes and how many leading scopes of their paths are its roots, it
makes per type a root pool of those scopes' declarations, then one pool
per other variable-declaring scope in source order. At
intra granularity the units are the functions, each rooted at the
global scope and its own, so globals, parameters and top-level locals
merge; at inter granularity the whole program is one unit rooted at the
global scope. Every hole lies in a function, since a global's
initializer is a folded constant.

Shadowing is the one thing the uniform-visibility model cannot absorb:
if an inner declaration hides a same-type outer variable from some hole,
that hole's variable set is a strict subset of its pools and the
partition model would miscount, so `normal_forms` refuses such units.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .combinat import Family, Pool
from .minilang.ast import GLOBAL_SCOPE, Block, Program, Var, VarDecl, children

#: Unit name of the whole-program families (inter granularity).
PROGRAM_UNIT = "<program>"


class Granularity(enum.Enum):
    INTRA = "intra"
    INTER = "inter"


class ShadowingError(ValueError):
    """A declaration hides a same-type variable from one of the holes."""


@dataclass(eq=False)
class Hole:
    index: int  # 1-based position in source order
    scope_path: tuple[int, ...]  # global scope ... the hole's own scope
    type: str
    # Visible same-type variables, ordered by (scope depth, declaration
    # order); entries are (name, declaring scope id).
    var_set: tuple[tuple[str, int], ...]
    unit: str  # owning function name
    node: Var = field(repr=False)  # the occurrence
    # True when some same-type declaration on the scope path is hidden
    # from this hole by an inner redeclaration.
    hidden_conflict: bool = field(default=False, repr=False)
    # The var_set names, in var_set order.
    names: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # var_set is fixed at extraction, and names is read per variant
        self.names = tuple(name for name, _ in self.var_set)


@dataclass(eq=False)
class Skeleton:
    program: Program
    # in source order, so each function's holes are contiguous
    holes: list[Hole]

    @property
    def n(self) -> int:
        return len(self.holes)

    def families(self) -> tuple[Family, ...]:
        """The intra families, which count_plan counts when a caller
        gives it only the skeleton."""
        return normal_forms(self, Granularity.INTRA)


# ---------------------------------------------------------------------------
# Extraction


#: The scopes enclosing a position, outermost first, each as (scope id,
#: its declarations).
Chain = tuple[tuple[int, Sequence[VarDecl]], ...]


def _visible_vars(chain: Chain, type_: str) -> tuple[tuple[VarDecl, ...], bool]:
    """Same-type declarations visible at the end of a scope chain,
    nearest decl wins, ordered by (scope depth, declaration order).

    Returns (decls, hidden): hidden is True when a same-type decl on
    the chain lost its name to a deeper redeclaration of any type.
    """
    binding = {d.name: d for _, decls in chain for d in decls}
    visible = []
    hidden = False
    for _, decls in chain:
        for d in decls:
            if d.type != type_:
                continue
            if binding[d.name] is d:
                visible.append(d)
            else:
                hidden = True
    return tuple(visible), hidden


def extract(program: Program) -> Skeleton:
    """Turn every variable occurrence into a hole, in source order."""
    holes: list[Hole] = []

    def walk(node, chain: Chain, unit: str) -> None:
        """Add the holes under node in source order; chain holds the
        scopes enclosing node, unit is the enclosing function."""
        if isinstance(node, Var):
            decls, hidden = _visible_vars(chain, node.type)
            assert decls, "a hole always sees at least its own variable"
            holes.append(
                Hole(
                    index=len(holes) + 1,
                    scope_path=tuple(sid for sid, _ in chain),
                    type=node.type,
                    var_set=tuple((d.name, d.scope_id) for d in decls),
                    unit=unit,
                    node=node,
                    hidden_conflict=hidden,
                )
            )
        elif isinstance(node, Block):
            chain += ((node.scope_id, node.decls),)
        for kid in children(node):
            walk(kid, chain, unit)

    for f in program.functions:
        # the parameters open the body's scope, before its declarations
        scope = (f.body.scope_id, [*f.params, *f.body.decls])
        for kid in children(f.body):
            walk(kid, ((GLOBAL_SCOPE, program.globals), scope), f.name)
    return Skeleton(program, holes)


def characteristic_vector(skel: Skeleton, assignment: Sequence[str]) -> tuple[str, ...]:
    """The assignment as a vector in hole-index order, after validation."""
    values = tuple(assignment)
    if len(values) != skel.n:
        raise ValueError(
            f"assignment covers {len(values)} holes, skeleton has {skel.n}"
        )
    for h, v in zip(skel.holes, values):
        if v not in h.names:
            raise ValueError(
                f"hole {h.index}: {v!r} is not in its variable set {h.names}"
            )
    return values


# ---------------------------------------------------------------------------
# Families


def _unit_families(unit: str, holes: Sequence[Hole], n_roots: int) -> Iterator[Family]:
    """One unit's families, one per hole type in type-name order, from
    the holes alone. The root pool holds the type's declarations of the
    first n_roots scopes of the holes' paths, in order; every other
    scope on a hole's path that declares the type is a local pool under
    its nearest enclosing pool, in source order. Holes are grouped by
    their deepest eligible pool. A scope's declarations of the type are
    the var_set entries that carry its id: with no name hidden, every
    hole below the scope sees them all."""
    bad = [h.index for h in holes if h.hidden_conflict]
    if bad:
        raise ShadowingError(
            f"unit {unit!r}: shadowing hides a same-type variable from "
            f"hole(s) {bad}; such programs cannot be pooled uniformly"
        )
    for t in sorted({h.type for h in holes}):
        t_holes = [h for h in holes if h.type == t]
        root_scopes = t_holes[0].scope_path[:n_roots]
        # (name, scope id) of every declaration of t on a hole's path
        decls = dict.fromkeys(d for h in t_holes for d in h.var_set)
        root_vars = tuple(name for name, sid in decls if sid in root_scopes)
        assert len(set(root_vars)) == len(root_vars), "root pool names collide"
        local_sids = sorted({sid for _, sid in decls if sid not in root_scopes})
        pool_idx = {sid: i for i, sid in enumerate(local_sids, start=1)}
        # each hole's pools, outermost first, behind the root pool
        paths = [(0, *(pool_idx[sid] for sid in h.scope_path if sid in pool_idx)) for h in t_holes]
        parent = {p: path[k - 1] for path in paths for k, p in enumerate(path) if k}
        pools = [Pool(vars=root_vars, parent=None)] + [
            Pool(vars=tuple(name for name, s in decls if s == sid), parent=parent[i])
            for sid, i in pool_idx.items()
        ]

        groups: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in pools]
        for h, path in zip(t_holes, paths):
            elig = path if root_vars else path[1:]
            groups[elig[-1]].append((h.index, elig))
        ordered = [pair for grp in groups for pair in grp]
        yield Family(
            unit=unit,
            type=t,
            pools=tuple(pools),
            holes=tuple(index for index, _ in ordered),
            eligible=tuple(elig for _, elig in ordered),
        )


def normal_forms(skel: Skeleton, granularity: Granularity) -> tuple[Family, ...]:
    """Every family the enumeration multiplies together, in stream order.
    At INTRA granularity each function with holes, in source order, is
    rooted at the global scope and its own, so globals, parameters and
    top-level locals share the root pool. At
    INTER the whole program is one unit rooted at the global scope, and
    every variable-declaring function or block scope is a local pool.
    Only the holes are read, never skel.program."""
    if granularity is Granularity.INTER:
        units = [(PROGRAM_UNIT, skel.holes, 1)]
    else:
        units = [(unit, list(holes), 2) for unit, holes in itertools.groupby(skel.holes, lambda h: h.unit)]
    return tuple(fam for unit, holes, n_roots in units for fam in _unit_families(unit, holes, n_roots))


# ---------------------------------------------------------------------------
# Serialization


def to_json(skel: Skeleton, decl_holes: bool) -> dict:
    """JSON-ready skeleton description; field names are a stable contract.
    A function's range is its first and last hole index, or None when it
    has no hole. The last field is the declaration-holes flag the
    skeleton is dumped under."""
    indices: dict[str, list[int]] = {f.name: [] for f in skel.program.functions}
    for h in skel.holes:
        indices[h.unit].append(h.index)
    return {
        "n": skel.n,
        "holes": [
            {
                "index": h.index,
                "scope_path": list(h.scope_path),
                "type": h.type,
                "var_set": [[name, sid] for name, sid in h.var_set],
            }
            for h in skel.holes
        ],
        "per_function_ranges": {unit: ([ix[0], ix[-1]] if ix else None) for unit, ix in indices.items()},
        "origin_vector": [h.node.name for h in skel.holes],
        "decl_holes": decl_holes,
    }
