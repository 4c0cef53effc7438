"""Independent reference implementations used to cross-check the
package. Everything here is deliberately naive: plain recursion, the
full product space (`naive_space`) and whole-group orbit walks, sharing
no code with src/ beyond the MiniC renderer that `realize_source` prints
through, the parser and child order that `binding_key` and the
declaration-hole brute force walk programs with, and the interpreter's
result types and frame-cost model (`_frames`, `MAX_FRAMES`) that
`reference_interpret` must share with it for budget verdicts to agree.
`structurally_equal` compares two parsed programs node by node.
`reference_manifest` builds a manifest as one in-memory document and
encodes it with the standard library. `c_constant` evaluates a constant
expression's text as C does."""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Iterable, Iterator, Sequence

from spe.minilang import ParseError, parse, render
from spe.minilang.ast import (
    GLOBAL_SCOPE,
    INT_MAX,
    INT_MIN,
    UINT,
    Assign,
    Block,
    Binary,
    Call,
    CallStmt,
    Expr,
    Function,
    If,
    Num,
    Printf,
    Program,
    Return,
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
    c_div,
    c_mod,
    children,
)
from spe.minilang.interp import (
    DEFAULT_STEP_BUDGET,
    MAX_FRAMES,
    ExecResult,
    Status,
    UBKind,
    _frames,
)


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


def canonical_fillings(family) -> list[tuple]:
    """The family's canonical forms, sorted, from the full filling
    product: each hole takes any variable of any pool it may draw from;
    the form is the pool each hole's variable belongs to, and per pool
    the first-occurrence labels of the variables its holes took."""
    choices = [[(p, v) for p in el for v in family.pools[p].vars] for el in family.eligible]
    forms = set()
    for filling in itertools.product(*choices):
        labels: list[dict] = [{} for _ in family.pools]
        for p, v in filling:
            labels[p].setdefault(v, len(labels[p]))
        rgs = tuple(
            tuple(labels[p][v] for q, v in filling if q == p) for p in range(len(family.pools))
        )
        forms.add((tuple(p for p, _ in filling), rgs))
    return sorted(forms)


def paper_reference(family) -> list[tuple]:
    """The PAPER stream of a flat family by its definition: the canonical
    forms in which, unless every hole chose the root, the root's holes use
    exactly as many variables as the root has, and every local pool keeps
    at least one of the holes that may draw from no deeper pool."""
    n_root = len(family.pools[0].vars)
    owners = {el[-1] for el in family.eligible if el[-1]}
    kept = []
    for config, rgs in canonical_fillings(family):
        if any(config):
            if len(set(rgs[0])) != n_root:
                continue
            if {c for el, c in zip(family.eligible, config) if c and c == el[-1]} != owners:
                continue
        kept.append((config, rgs))
    return kept


def naive_space(skel) -> Iterator[tuple[str, ...]]:
    """Every filling of the skeleton: the product of each hole's
    variable set, in lexicographic order of hole position and
    declaration order. Refuses a space too large to walk in a test."""
    size = math.prod(len(h.names) for h in skel.holes)
    assert size <= 200_000, f"naive space has {size} fillings"
    return itertools.product(*(h.names for h in skel.holes))


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
            by_scope_type.setdefault((fn.body.scope_id, p.type), []).append(p.name)
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

    names = {h.node: name for h, name in zip(skel.holes, assignment)}
    return render(skel.program, names)


# Binding structure: alpha-equivalence on whole programs


def name_sites(program) -> tuple[list, list[tuple[str, ...]]]:
    """Every Var and VarDecl of the program in source order, with the
    names each may take when declarations are renamed as well as uses:
    those of the same-type declarations on its scope path, outermost
    first. Their product is the declaration-hole space."""
    sites, choices = [], []

    def walk(node, decls):
        # decls: the declarations of the scopes on node's path
        if isinstance(node, (Var, VarDecl)):
            sites.append(node)
            choices.append(tuple(dict.fromkeys(d.name for d in decls if d.type == node.type)))
        elif isinstance(node, Program):
            decls = node.globals
        elif isinstance(node, Function):
            # parameters share the body's scope; the body adds its
            # declarations again, which dict.fromkeys drops
            decls = [*decls, *node.params, *node.body.decls]
        elif isinstance(node, Block):
            decls = [*decls, *node.decls]
        for kid in children(node):
            walk(kid, decls)

    walk(program, [])
    return sites, choices


def binding_key(program) -> str:
    """The program's text with each declaration named by its number in
    source order and each use by its declaration's number: de Bruijn's
    nameless form. Two programs are alpha-equivalent iff their keys are
    equal."""
    sites, _ = name_sites(program)
    names = {d: f"v{i}" for i, d in enumerate(s for s in sites if isinstance(s, VarDecl))}
    names.update({s: names[s.decl] for s in sites if isinstance(s, Var)})
    return render(program, names)


def valid_binding_keys(program, limit: int = 40_000) -> set[str]:
    """The binding keys of every filling of the program's
    declaration-hole space that parses: each declaration and each use
    renamed independently. Refuses a space larger than `limit`."""
    sites, choices = name_sites(program)
    assert math.prod(map(len, choices)) <= limit, "declaration-hole space too large"
    keys = set()
    for names in itertools.product(*choices):
        try:
            keys.add(binding_key(parse(render(program, dict(zip(sites, names))))))
        except ParseError:
            continue
    return keys


# Structural comparison. Scope ids are allocated in source order by the
# parser, so two programs parsed from equivalent sources carry identical
# ids and the ids can take part in the comparison directly.


def _decl_key(d: VarDecl) -> tuple:
    return (d.name, d.type, d.scope_id, d.init)


def _expr_key(e: Expr) -> tuple:
    if isinstance(e, Num):
        return ("num", e.type, e.value)
    if isinstance(e, Var):
        return ("var", _decl_key(e.decl))
    if isinstance(e, Unary):
        return ("unary", e.op, e.type, _expr_key(e.operand))
    if isinstance(e, Binary):
        return ("binary", e.op, e.type, _expr_key(e.left), _expr_key(e.right))
    if isinstance(e, Call):
        return ("call", e.name, e.type, tuple(_expr_key(a) for a in e.args))
    raise TypeError(f"not an expression: {e!r}")


def _stmt_key(s: Stmt) -> tuple:
    if isinstance(s, Assign):
        return ("assign", _expr_key(s.target), _expr_key(s.value))
    if isinstance(s, If):
        return (
            "if",
            _expr_key(s.cond),
            _block_key(s.then),
            _block_key(s.orelse) if s.orelse is not None else None,
        )
    if isinstance(s, While):
        return ("while", _expr_key(s.cond), _block_key(s.body))
    if isinstance(s, Return):
        return ("return", _expr_key(s.value))
    if isinstance(s, Printf):
        return ("printf", s.newline, _expr_key(s.arg))
    if isinstance(s, CallStmt):
        return ("callstmt", _expr_key(s.call))
    if isinstance(s, Block):
        return _block_key(s)
    raise TypeError(f"not a statement: {s!r}")


def _block_key(b: Block) -> tuple:
    return (
        "block",
        b.scope_id,
        tuple(_decl_key(d) for d in b.decls),
        tuple(_stmt_key(s) for s in b.stmts),
    )


def program_key(p: Program) -> tuple:
    """A hashable value that identifies p up to structural equality."""
    return (
        tuple(_decl_key(d) for d in p.globals),
        tuple(
            (
                f.name,
                f.ret_type,
                tuple(_decl_key(d) for d in f.params),
                _block_key(f.body),
            )
            for f in p.functions
        ),
    )


def structurally_equal(p: Program, q: Program) -> bool:
    return program_key(p) == program_key(q)


def reference_manifest(
    stem: str,
    source: str,
    mode: str,
    granularity: str,
    decl_holes: bool,
    count: int,
    rows: Sequence,
) -> str:
    """The text of a file's manifest.json, built as one document and
    encoded by `json.dumps(indent=2, sort_keys=True)`. `rows` are the
    Variants `spe enumerate` emitted for the file; each one's file is
    `<stem>__v<seq>.c`, its seq zero-padded to the digits of len(rows)."""
    width = len(str(max(len(rows), 1)))
    entries = [
        {
            "seq": v.seq,
            "valid": True,
            "assignment": list(v.assignment),
            "signature": [
                {"unit": unit, "type": type_, "config": list(config), "rgs": [list(r) for r in rgs]}
                for unit, type_, config, rgs in v.signature
            ],
            "file": f"{stem}__v{v.seq:0{width}d}.c",
        }
        for v in rows
    ]
    manifest = {
        "schema": 1,
        "stem": stem,
        "source": source,
        "mode": mode,
        "granularity": granularity,
        "decl_holes": decl_holes,
        "count": count,
        "emitted": len(entries),
        "written": len(entries),
        "invalid": 0,
        "variants": entries,
    }
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Reference interpreter

_UINT_MASK = 0xFFFFFFFF
_UNINIT = object()


class _UB(Exception):
    def __init__(self, kind: UBKind):
        self.kind = kind


class _OutOfSteps(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


class _Walker:
    def __init__(self, program: Program, budget: int):
        self.program = program
        self.budget = budget
        self.steps = 0
        self.base = 0  # frames stacked below the running call
        self.sites: dict[Call, int] = {}
        # frames from the call (frame 1) to the deepest in its body
        self.cost = {f.name: _frames(f.body, 1, self.sites) for f in program.functions}
        self.out: list[str] = []
        self.globals: dict[VarDecl, int] = {
            d: (d.init if d.init is not None else 0) for d in program.globals
        }
        self.functions = {f.name: f for f in program.functions}

    def output(self) -> str:
        return "".join(self.out)

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise _OutOfSteps

    # -- execution ---------------------------------------------------

    def call(self, fn: Function, args: list[int], base: int = 0) -> int:
        if base + self.cost[fn.name] > MAX_FRAMES:
            raise _OutOfSteps
        caller_base, self.base = self.base, base
        frame: dict[VarDecl, object] = {}
        for p, a in zip(fn.params, args):
            frame[p] = a
        try:
            self.exec_block(fn.body, frame)
        except _ReturnSignal as r:
            return r.value
        finally:
            self.base = caller_base
        # The parser guarantees the body ends with a return statement.
        raise AssertionError(f"function {fn.name!r} fell off its end")

    def exec_block(self, block: Block, frame: dict) -> None:
        for d in block.decls:
            self._tick()
            frame[d] = d.init if d.init is not None else _UNINIT
        for s in block.stmts:
            self.exec_stmt(s, frame)

    def exec_stmt(self, s, frame: dict) -> None:
        self._tick()
        if isinstance(s, Assign):
            value = self.eval(s.value, frame)
            self._store(s.target.decl, value, frame)
        elif isinstance(s, If):
            if self.eval(s.cond, frame) != 0:
                self.exec_block(s.then, frame)
            elif s.orelse is not None:
                self.exec_block(s.orelse, frame)
        elif isinstance(s, While):
            while self.eval(s.cond, frame) != 0:
                self.exec_block(s.body, frame)
                self._tick()
        elif isinstance(s, Return):
            raise _ReturnSignal(self.eval(s.value, frame))
        elif isinstance(s, Printf):
            v = self.eval(s.arg, frame)
            self.out.append(str(v))
            if s.newline:
                self.out.append("\n")
        elif isinstance(s, CallStmt):
            self.eval(s.call, frame)
        elif isinstance(s, Block):
            self.exec_block(s, frame)
        else:
            raise TypeError(f"not a statement: {s!r}")

    def _store(self, decl: VarDecl, value: int, frame: dict) -> None:
        if decl.scope_id == GLOBAL_SCOPE:
            self.globals[decl] = value
        else:
            frame[decl] = value

    # -- evaluation ---------------------------------------------------

    def eval(self, e: Expr, frame: dict) -> int:
        self._tick()
        if isinstance(e, Num):
            return e.value
        if isinstance(e, Var):
            d = e.decl
            v = self.globals[d] if d.scope_id == GLOBAL_SCOPE else frame[d]
            if v is _UNINIT:
                raise _UB(UBKind.UNINIT_READ)
            return v  # type: ignore[return-value]
        if isinstance(e, Unary):
            return self._unary(e, frame)
        if isinstance(e, Binary):
            return self._binary(e, frame)
        if isinstance(e, Call):
            args = [self.eval(a, frame) for a in e.args]
            return self.call(self.functions[e.name], args, self.base + self.sites[e])
        raise TypeError(f"not an expression: {e!r}")

    def _unary(self, e: Unary, frame: dict) -> int:
        v = self.eval(e.operand, frame)
        if e.op == "!":
            return 1 if v == 0 else 0
        # unary minus
        if e.type == UINT:
            return (-v) & _UINT_MASK
        if v == INT_MIN:
            raise _UB(UBKind.SIGNED_OVERFLOW)
        return -v

    def _binary(self, e: Binary, frame: dict) -> int:
        op = e.op
        if op == "&&":
            if self.eval(e.left, frame) == 0:
                return 0
            return 1 if self.eval(e.right, frame) != 0 else 0
        if op == "||":
            if self.eval(e.left, frame) != 0:
                return 1
            return 1 if self.eval(e.right, frame) != 0 else 0

        l = self.eval(e.left, frame)
        r = self.eval(e.right, frame)
        if op == "==":
            return 1 if l == r else 0
        if op == "!=":
            return 1 if l != r else 0
        if op == "<":
            return 1 if l < r else 0
        if op == "<=":
            return 1 if l <= r else 0
        if op == ">":
            return 1 if l > r else 0
        if op == ">=":
            return 1 if l >= r else 0

        if op in ("/", "%"):
            if r == 0:
                raise _UB(UBKind.DIV_BY_ZERO)
            if e.type == UINT:
                return l // r if op == "/" else l % r
            if l == INT_MIN and r == -1:
                raise _UB(UBKind.SIGNED_DIV_OVERFLOW)
            return c_div(l, r) if op == "/" else c_mod(l, r)

        if op == "+":
            v = l + r
        elif op == "-":
            v = l - r
        elif op == "*":
            v = l * r
        else:
            raise ValueError(f"unknown operator {op!r}")
        if e.type == UINT:
            return v & _UINT_MASK
        if not INT_MIN <= v <= INT_MAX:
            raise _UB(UBKind.SIGNED_OVERFLOW)
        return v




def reference_interpret(program, step_budget: int = DEFAULT_STEP_BUDGET) -> ExecResult:
    """The tree-walking interpreter that `spe.minilang.interp.interpret`
    replaced: one Python method per construct, dispatched by isinstance
    on every node it evaluates. The compiled interpreter must return an
    equal ExecResult, steps_used included, on every program."""
    if step_budget < 1:
        raise ValueError("step_budget must be at least 1")
    it = _Walker(program, step_budget)
    try:
        main = next(f for f in program.functions if f.name == "main")
        ret = it.call(main, [])
        return ExecResult(Status.OK, ret & 0xFF, it.output(), it.steps)
    except _UB as ub:
        return ExecResult(
            Status.UNDEFINED_BEHAVIOR, 0, it.output(), it.steps, ub.kind
        )
    except _OutOfSteps:
        return ExecResult(Status.STEP_BUDGET_EXHAUSTED, 0, it.output(), it.steps)


def c_constant(text: str) -> tuple[str, int | None, bool]:
    """What C makes of a constant expression over decimal literals that
    fit their type (plain or "u"-suffixed), "+ - * / %", unary minus and
    parentheses: its type, "int" or "unsigned"; its value, None where C
    leaves it undefined (a zero divisor, or an int result or an int
    a % b's quotient a / b outside int's range); and whether every step kept its exact mathematical value with
    operands of one type, so nothing wrapped or was converted. Read off
    the C standard: an unsigned operand converts the other one to
    unsigned, unsigned arithmetic is modulo 2**32, division truncates
    toward zero and a % b is a - (a / b) * b."""
    tokens = re.findall(r"\d+u?|\S", text)[::-1]  # next token last

    def operation(op, x, y):
        (tx, a, clean_x), (ty, b, clean_y) = x, y
        type_ = "unsigned" if "unsigned" in (tx, ty) else "int"
        if type_ == "unsigned" and a is not None and b is not None:
            a, b = a % 2 ** 32, b % 2 ** 32
        if a is None or b is None or (op in ("/", "%") and b == 0):
            return type_, None, False
        if op in ("/", "%"):
            q = abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
            exact = q if op == "/" else a - q * b
            if type_ == "int" and not INT_MIN <= q <= INT_MAX:
                return type_, None, False
        else:
            exact = {"+": a + b, "-": a - b, "*": a * b}[op]
        if type_ == "int":
            if not INT_MIN <= exact <= INT_MAX:
                return type_, None, False
            return type_, exact, clean_x and clean_y
        value = exact % 2 ** 32
        return type_, value, clean_x and clean_y and tx == ty and value == exact

    def primary():
        tok = tokens.pop()
        if tok == "(":
            x = additive()
            if tokens.pop() != ")":
                raise ValueError(f"unbalanced parentheses in {text!r}")
            return x
        if tok == "-":
            x = primary()
            return operation("-", (x[0], 0, True), x)
        if not tok.endswith("u") and int(tok) > INT_MAX:
            raise ValueError(f"{tok} is not an int literal")
        return "unsigned" if tok.endswith("u") else "int", int(tok.rstrip("u")), True

    def left_assoc(operand, ops):
        x = operand()
        while tokens and tokens[-1] in ops:
            op = tokens.pop()
            x = operation(op, x, operand())
        return x

    def multiplicative():
        return left_assoc(primary, ("*", "/", "%"))

    def additive():
        return left_assoc(multiplicative, ("+", "-"))

    result = additive()
    if tokens:
        raise ValueError(f"trailing {tokens[-1]!r} in {text!r}")
    return result
