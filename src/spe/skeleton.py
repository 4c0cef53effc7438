"""Hole extraction and the hole families that enumeration partitions.

A skeleton is a program with every variable occurrence replaced by a
hole. Each hole carries its scope path, its type, and its variable set:
the same-type variables visible at that position (all of them, because
MiniC puts declarations before statements, so visibility is uniform
across a block). Declarations are never holes: under `decl_holes` the
skeleton only records the flag, and the enumerator fills these same
holes by the naive product, declarations at their source names.

`normal_forms` turns a skeleton into one flat tuple of the
pool-structured (unit, type) families the partition machinery consumes.
One builder serves every unit: given the unit's holes and its root
scopes, it makes per type a root pool of those scopes' declarations,
then one pool per other variable-declaring scope in source order. At
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
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

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
    holes: list[Hole]
    # unit name -> (first, last) hole index, or None for hole-less units;
    # unit holes are contiguous because extraction walks source order.
    per_function_ranges: dict[str, Optional[tuple[int, int]]]
    origin_vector: tuple[str, ...]
    decl_holes: bool

    @property
    def n(self) -> int:
        return len(self.holes)

    def families(self) -> tuple[Family, ...]:
        """The intra families, which count_plan counts when a caller
        gives it only the skeleton."""
        return normal_forms(self, Granularity.INTRA)


# ---------------------------------------------------------------------------
# Extraction


def _visible_vars(
    program: Program, path: tuple[int, ...], type_: str
) -> tuple[tuple[VarDecl, ...], bool]:
    """Same-type declarations visible from a scope path, nearest decl
    wins, ordered by (scope depth, declaration order).

    Returns (decls, hidden): hidden is True when a same-type decl on
    the path lost its name to a deeper redeclaration of any type.
    """
    binding: dict[str, VarDecl] = {}
    for sid in path:
        for d in program.scopes.node(sid).decls:
            binding[d.name] = d
    visible = []
    hidden = False
    for sid in path:
        for d in program.scopes.node(sid).decls:
            if d.type != type_:
                continue
            if binding[d.name] is d:
                visible.append(d)
            else:
                hidden = True
    return tuple(visible), hidden


class _Extractor:
    def __init__(self, program: Program):
        self.program = program
        self.holes: list[Hole] = []

    def walk(self, node, scope_id: int, unit: str) -> None:
        """Add the holes under node in source order; scope_id is the
        innermost enclosing block's scope, unit the enclosing function."""
        if isinstance(node, Var):
            path = tuple(self.program.scopes.chain(scope_id))
            decls, hidden = _visible_vars(self.program, path, node.type)
            assert decls, "a hole always sees at least its own variable"
            self.holes.append(
                Hole(
                    index=len(self.holes) + 1,
                    scope_path=path,
                    type=node.type,
                    var_set=tuple((d.name, d.scope_id) for d in decls),
                    unit=unit,
                    node=node,
                    hidden_conflict=hidden,
                )
            )
        elif isinstance(node, Block):
            scope_id = node.scope_id
        for kid in children(node):
            self.walk(kid, scope_id, unit)


def extract(program: Program, decl_holes: bool = False) -> Skeleton:
    """Turn every variable occurrence into a hole, in source order.
    decl_holes is recorded for the enumerator; it adds no hole."""
    ex = _Extractor(program)
    ranges: dict[str, Optional[tuple[int, int]]] = {}
    for f in program.functions:
        first = len(ex.holes) + 1
        ex.walk(f, GLOBAL_SCOPE, f.name)
        ranges[f.name] = (first, len(ex.holes)) if len(ex.holes) >= first else None

    return Skeleton(
        program=program,
        holes=ex.holes,
        per_function_ranges=ranges,
        origin_vector=tuple(h.node.name for h in ex.holes),
        decl_holes=decl_holes,
    )


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


def _scope_vars(program: Program, sid: int, type_: str) -> tuple[str, ...]:
    return tuple(d.name for d in program.scopes.node(sid).decls if d.type == type_)


def _unit_families(
    program: Program, unit: str, holes: Sequence[Hole], root_scopes: tuple[int, ...]
) -> Iterator[Family]:
    """One unit's families, one per hole type in type-name order. The
    root pool holds the type's declarations of root_scopes, in order;
    every other scope on a hole's path that declares the type is a local
    pool under its nearest enclosing pool, in source order. Holes are
    grouped by their deepest eligible pool."""
    bad = [h.index for h in holes if h.hidden_conflict]
    if bad:
        raise ShadowingError(
            f"unit {unit!r}: shadowing hides a same-type variable from "
            f"hole(s) {bad}; such programs cannot be pooled uniformly"
        )
    for t in sorted({h.type for h in holes}):
        t_holes = [h for h in holes if h.type == t]
        local_sids = sorted(
            {
                sid
                for h in t_holes
                for sid in h.scope_path
                if sid not in root_scopes and _scope_vars(program, sid, t)
            }
        )
        root_vars = tuple(name for sid in root_scopes for name in _scope_vars(program, sid, t))
        assert len(set(root_vars)) == len(root_vars), "root pool names collide"
        pool_idx = {sid: i for i, sid in enumerate(local_sids, start=1)}
        pools = [Pool(vars=root_vars, parent=None)]
        for sid in local_sids:
            enclosing = reversed(program.scopes.chain(sid)[:-1])
            parent = next((pool_idx[a] for a in enclosing if a in pool_idx), 0)
            pools.append(Pool(vars=_scope_vars(program, sid, t), parent=parent))

        groups: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in pools]
        for h in t_holes:
            elig = ((0,) if root_vars else ()) + tuple(
                pool_idx[sid] for sid in h.scope_path if sid in pool_idx
            )
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
    At INTRA granularity each function in per_function_ranges order is
    rooted at the global scope and its own, so globals, parameters and
    top-level locals share the root pool. At
    INTER the whole program is one unit rooted at the global scope, and
    every variable-declaring function or block scope is a local pool."""
    program = skel.program
    if granularity is Granularity.INTER:
        units = [(PROGRAM_UNIT, skel.holes, (GLOBAL_SCOPE,))]
    else:
        units = [
            (
                unit,
                skel.holes[rng[0] - 1 : rng[1]] if rng else [],
                (GLOBAL_SCOPE, program.function(unit).scope_id),
            )
            for unit, rng in skel.per_function_ranges.items()
        ]
    return tuple(
        fam for unit, holes, roots in units for fam in _unit_families(program, unit, holes, roots)
    )


# ---------------------------------------------------------------------------
# Serialization


def to_json(skel: Skeleton) -> dict:
    """JSON-ready skeleton description; field names are a stable contract."""
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
        "per_function_ranges": {
            unit: (list(rng) if rng is not None else None)
            for unit, rng in skel.per_function_ranges.items()
        },
        "origin_vector": list(skel.origin_vector),
        "decl_holes": skel.decl_holes,
    }
