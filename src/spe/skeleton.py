"""Hole extraction and normal forms for MiniC programs.

A skeleton is a program with every variable occurrence replaced by a
hole. Each hole carries its scope path, its type, and its variable set:
the same-type variables visible at that position (all of them, because
MiniC puts declarations before statements, so visibility is uniform
across a block). Declaration-name positions become holes too when
`decl_holes` is set.

`normalize` turns one unit's holes into the pool-structured families the
partition machinery consumes: per type, the root pool first (for a
function that is the merged program-globals + parameters + top-level
locals set), then one pool per variable-declaring block in source order,
with a permutation recording how normal-form positions map back to hole
indices. `normalize_program` builds the same thing once for the whole
program with the true scope hierarchy (functions as pools under the
global root) for inter-procedural enumeration.

Shadowing is the one thing the uniform-visibility model cannot absorb:
if an inner declaration hides a same-type outer variable from some hole,
that hole's variable set is a strict subset of its pools and the
partition model would miscount, so normalization refuses such units.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .combinat import Family, Pool
from .minilang.ast import (
    GLOBAL_SCOPE,
    Assign,
    Binary,
    Block,
    Call,
    CallStmt,
    Function,
    If,
    Num,
    Printf,
    Program,
    Return,
    Unary,
    Var,
    VarDecl,
    While,
)

#: Pseudo-unit owning global declaration-name holes under --decl-holes.
GLOBALS_UNIT = "<globals>"
#: Unit name of the whole-program normal form (inter granularity).
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
    unit: str  # owning function name, or GLOBALS_UNIT
    node: object = field(repr=False)  # Var occurrence or VarDecl site
    is_decl: bool = False
    # True when some same-type declaration on the scope path is hidden
    # from this hole by an inner redeclaration.
    hidden_conflict: bool = field(default=False, repr=False)
    # The var_set names, in var_set order.
    names: tuple[str, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # var_set is fixed at extraction, and names is read per variant
        self.names = tuple(name for name, _ in self.var_set)


@dataclass(eq=False)
class NormalForm:
    unit: str
    families: tuple[Family, ...]  # one per hole-bearing type, type-name order
    # Hole indices in normal-form order (families concatenated).
    permutation: tuple[int, ...]


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

    def units(self) -> list[str]:
        return list(self.per_function_ranges)

    def unit_holes(self, unit: str) -> list[Hole]:
        return [h for h in self.holes if h.unit == unit]


def naive_count(holes: Iterable[Hole]) -> int:
    """Size of the naive space over these holes: the product of their
    variable-set sizes."""
    return math.prod(len(h.var_set) for h in holes)


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
    def __init__(self, program: Program, decl_holes: bool):
        self.program = program
        self.decl_holes = decl_holes
        self.holes: list[Hole] = []

    def add(self, node, type_: str, scope_id: int, unit: str, is_decl: bool) -> None:
        path = tuple(self.program.scopes.chain(scope_id))
        decls, hidden = _visible_vars(self.program, path, type_)
        assert decls, "a hole always sees at least its own variable"
        self.holes.append(
            Hole(
                index=len(self.holes) + 1,
                scope_path=path,
                type=type_,
                var_set=tuple((d.name, d.scope_id) for d in decls),
                unit=unit,
                node=node,
                is_decl=is_decl,
                hidden_conflict=hidden,
            )
        )

    def walk_function(self, f: Function) -> None:
        if self.decl_holes:
            for p in f.params:
                self.add(p, p.type, p.scope_id, f.name, True)
        self.walk_block(f.body, f.name)

    def walk_block(self, b: Block, unit: str) -> None:
        if self.decl_holes:
            for d in b.decls:
                self.add(d, d.type, b.scope_id, unit, True)
        for s in b.stmts:
            self.walk_stmt(s, b.scope_id, unit)

    def walk_stmt(self, s, scope_id: int, unit: str) -> None:
        if isinstance(s, Assign):
            self.walk_expr(s.target, scope_id, unit)
            self.walk_expr(s.value, scope_id, unit)
        elif isinstance(s, If):
            self.walk_expr(s.cond, scope_id, unit)
            self.walk_block(s.then, unit)
            if s.orelse is not None:
                self.walk_block(s.orelse, unit)
        elif isinstance(s, While):
            self.walk_expr(s.cond, scope_id, unit)
            self.walk_block(s.body, unit)
        elif isinstance(s, Return):
            self.walk_expr(s.value, scope_id, unit)
        elif isinstance(s, Printf):
            self.walk_expr(s.arg, scope_id, unit)
        elif isinstance(s, CallStmt):
            self.walk_expr(s.call, scope_id, unit)
        elif isinstance(s, Block):
            self.walk_block(s, unit)
        else:
            raise TypeError(f"not a statement: {s!r}")

    def walk_expr(self, e, scope_id: int, unit: str) -> None:
        if isinstance(e, Num):
            return
        if isinstance(e, Var):
            self.add(e, e.type, scope_id, unit, False)
        elif isinstance(e, Unary):
            self.walk_expr(e.operand, scope_id, unit)
        elif isinstance(e, Binary):
            self.walk_expr(e.left, scope_id, unit)
            self.walk_expr(e.right, scope_id, unit)
        elif isinstance(e, Call):
            for a in e.args:
                self.walk_expr(a, scope_id, unit)
        else:
            raise TypeError(f"not an expression: {e!r}")


def extract(program: Program, decl_holes: bool = False) -> Skeleton:
    """Turn every variable occurrence (and, with decl_holes, every
    declaration-name position) into a hole, in source order."""
    ex = _Extractor(program, decl_holes)
    if decl_holes:
        for d in program.globals:
            ex.add(d, d.type, GLOBAL_SCOPE, GLOBALS_UNIT, True)
    for f in program.functions:
        ex.walk_function(f)

    ranges: dict[str, Optional[tuple[int, int]]] = {}
    for h in ex.holes:
        lo, _ = ranges.get(h.unit) or (h.index, h.index)
        ranges[h.unit] = (lo, h.index)
    ordered: dict[str, Optional[tuple[int, int]]] = {}
    if GLOBALS_UNIT in ranges:
        ordered[GLOBALS_UNIT] = ranges[GLOBALS_UNIT]
    for f in program.functions:
        ordered[f.name] = ranges.get(f.name)

    origin = tuple(h.node.name for h in ex.holes)
    return Skeleton(
        program=program,
        holes=ex.holes,
        per_function_ranges=ordered,
        origin_vector=origin,
        decl_holes=decl_holes,
    )


def characteristic_vector(skel: Skeleton, assignment) -> tuple[str, ...]:
    """The assignment as a vector in hole-index order, after validation."""
    values = tuple(getattr(assignment, "values", assignment))
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
# Normal forms


def _build_normal_form(
    unit: str,
    holes: Sequence[Hole],
    program: Program,
    root_scope: int,
    root_scope_ids: frozenset[int],
    root_vars_of,
) -> NormalForm:
    bad = [h.index for h in holes if h.hidden_conflict]
    if bad:
        raise ShadowingError(
            f"unit {unit!r}: shadowing hides a same-type variable from "
            f"hole(s) {bad}; such programs cannot be pooled uniformly"
        )

    families = []
    perm: list[int] = []
    for t in sorted({h.type for h in holes}):
        t_holes = [h for h in holes if h.type == t]
        local_sids = sorted(
            {
                sid
                for h in t_holes
                for sid in h.scope_path
                if sid not in root_scope_ids
                and any(d.type == t for d in program.scopes.node(sid).decls)
            }
        )
        root_vars = tuple(root_vars_of(t))
        assert len(set(root_vars)) == len(root_vars), "root pool names collide"
        pools = [Pool(scope=root_scope, vars=root_vars, parent=None)]
        pool_idx = {sid: i + 1 for i, sid in enumerate(local_sids)}
        for sid in local_sids:
            parent = 0
            for anc in reversed(program.scopes.chain(sid)[:-1]):
                if anc in pool_idx:
                    parent = pool_idx[anc]
                    break
                if anc in root_scope_ids:
                    break
            pools.append(
                Pool(
                    scope=sid,
                    vars=tuple(
                        d.name
                        for d in program.scopes.node(sid).decls
                        if d.type == t
                    ),
                    parent=parent,
                )
            )

        groups: list[list[Hole]] = [[] for _ in pools]
        elig: dict[int, tuple[int, ...]] = {}
        for h in t_holes:
            on_path = [0] if root_vars else []
            on_path += [pool_idx[sid] for sid in h.scope_path if sid in pool_idx]
            assert on_path, "non-empty var_set implies an eligible pool"
            elig[h.index] = tuple(on_path)
            groups[on_path[-1]].append(h)

        ordered = [h for grp in groups for h in grp]
        families.append(
            Family(
                type=t,
                pools=tuple(pools),
                holes=tuple(h.index for h in ordered),
                eligible=tuple(elig[h.index] for h in ordered),
            )
        )
        perm.extend(h.index for h in ordered)

    return NormalForm(unit=unit, families=tuple(families), permutation=tuple(perm))


def normalize(skel: Skeleton, f: Union[str, Function]) -> NormalForm:
    """Normal form of one unit at intra granularity: program globals,
    parameters, and function top-level locals merge into the root pool;
    variable-declaring blocks become local pools in source order."""
    unit = f if isinstance(f, str) else f.name
    if unit not in skel.per_function_ranges:
        raise LookupError(f"skeleton has no unit {unit!r}")
    holes = skel.unit_holes(unit)
    program = skel.program

    if unit == GLOBALS_UNIT:
        root_scope = GLOBAL_SCOPE
        root_scope_ids = frozenset({GLOBAL_SCOPE})

        def root_vars_of(t: str):
            return [d.name for d in program.globals if d.type == t]

    else:
        fn = program.function(unit)
        root_scope = fn.scope_id
        root_scope_ids = frozenset({GLOBAL_SCOPE, fn.scope_id})

        def root_vars_of(t: str):
            merged = [d.name for d in program.globals if d.type == t]
            merged += [
                d.name
                for d in program.scopes.node(fn.scope_id).decls
                if d.type == t
            ]
            return merged

    return _build_normal_form(
        unit, holes, program, root_scope, root_scope_ids, root_vars_of
    )


def normalize_program(skel: Skeleton) -> NormalForm:
    """Whole-program normal form (inter granularity): the global scope is
    the root pool and every variable-declaring function or block scope
    becomes a local pool under its true parent."""
    program = skel.program

    def root_vars_of(t: str):
        return [d.name for d in program.globals if d.type == t]

    return _build_normal_form(
        PROGRAM_UNIT,
        skel.holes,
        program,
        GLOBAL_SCOPE,
        frozenset({GLOBAL_SCOPE}),
        root_vars_of,
    )


def normal_forms(skel: Skeleton, granularity: Granularity) -> list[NormalForm]:
    """The normal forms enumeration multiplies together: one per unit at
    INTRA granularity, a single program-wide form at INTER."""
    if granularity is Granularity.INTER:
        return [normalize_program(skel)]
    return [normalize(skel, unit) for unit in skel.units()]


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
