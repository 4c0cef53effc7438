"""Reference interpreter for MiniC with undefined-behavior detection.

Evaluation is deterministic: the same Program and step budget always
produce the same ExecResult, which is what makes the interpreter usable
as a ground-truth oracle for differential compiler testing.

Semantics follow C where C defines them and stop where it does not:

- globals are zero-initialized; reading an uninitialized local is
  reported as UB rather than yielding an arbitrary value;
- signed int arithmetic that leaves [-2**31, 2**31-1] is UB, as are
  division/modulo by zero and INT_MIN / -1 (also INT_MIN % -1);
- unsigned arithmetic wraps mod 2**32 and is never UB except for
  division/modulo by zero;
- a step budget bounds total work; exceeding it (or recursing past the
  frame budget) is reported as its own status, not as UB, so looping
  variants remain usable for crash testing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .ast import (
    GLOBAL_SCOPE,
    INT,
    INT_MAX,
    INT_MIN,
    UINT,
    Assign,
    Binary,
    Block,
    Call,
    CallStmt,
    Expr,
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
    c_div,
    c_mod,
)

DEFAULT_STEP_BUDGET = 1_000_000

# Python frames the interpreter may stack. Each call checks, before it
# runs, that the deepest frame its body can reach (_frames) stays within
# this, and counts as budget exhaustion otherwise. So deep recursion ends
# the same way on every run, whatever the caller's stack, and well under
# Python's default recursion limit of 1000. The parser's nesting limit
# keeps one activation of any accepted program far below it.
MAX_FRAMES = 600

_UINT_MASK = 0xFFFFFFFF


class Status(enum.Enum):
    OK = "ok"
    UNDEFINED_BEHAVIOR = "undefined_behavior"
    STEP_BUDGET_EXHAUSTED = "step_budget_exhausted"


class UBKind(enum.Enum):
    UNINIT_READ = "uninit_read"
    DIV_BY_ZERO = "div_by_zero"
    SIGNED_OVERFLOW = "signed_overflow"
    SIGNED_DIV_OVERFLOW = "signed_div_overflow"


@dataclass(frozen=True)
class ExecResult:
    status: Status
    exit_code: int
    stdout: str
    steps_used: int
    ub_kind: Optional[UBKind] = None


_UNINIT = object()


class _UB(Exception):
    def __init__(self, kind: UBKind):
        self.kind = kind


class _OutOfSteps(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


def _frames(node, at: int, sites: dict) -> int:
    """The deepest _Interp's frames reach while it evaluates node from a
    frame `at` deep, not counting the functions it calls; records in
    sites how deep each call is made from."""
    if isinstance(node, (Num, Var)):
        return at + 1  # eval
    if isinstance(node, Unary):  # eval, _unary
        kids, at = [node.operand], at + 2
    elif isinstance(node, Binary):  # eval, _binary
        kids, at = [node.left, node.right], at + 2
    elif isinstance(node, Call):  # eval makes the call; the argument list is a frame
        sites[node] = at + 1
        kids, at = node.args, at + 2
    elif isinstance(node, Block):  # exec_block, then exec_stmt per statement
        kids, at = node.stmts, at + 2
    elif isinstance(node, If):
        kids = [node.cond, node.then] + ([] if node.orelse is None else [node.orelse])
    elif isinstance(node, While):
        kids = [node.cond, node.body]
    elif isinstance(node, Printf):
        kids = [node.arg]
    elif isinstance(node, CallStmt):
        kids = [node.call]
    else:  # Assign, Return
        kids = [node.value]
    deepest = at
    for kid in kids:  # a loop, not a generator, to stack one frame per level
        deepest = max(deepest, _frames(kid, at, sites))
    return deepest


class _Interp:
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


def interpret(program: Program, step_budget: int = DEFAULT_STEP_BUDGET) -> ExecResult:
    """Run a parsed Program and report status, exit code, and output.

    Never raises for a valid Program: UB and budget exhaustion come back
    as statuses. The exit code is main's return value truncated to its
    low byte, matching what a shell observes from a compiled binary.
    """
    if step_budget < 1:
        raise ValueError("step_budget must be at least 1")
    it = _Interp(program, step_budget)
    try:
        ret = it.call(program.main_function(), [])
        return ExecResult(Status.OK, ret & 0xFF, it.output(), it.steps)
    except _UB as ub:
        return ExecResult(
            Status.UNDEFINED_BEHAVIOR, 0, it.output(), it.steps, ub.kind
        )
    except _OutOfSteps:
        return ExecResult(Status.STEP_BUDGET_EXHAUSTED, 0, it.output(), it.steps)
