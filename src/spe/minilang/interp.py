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

A run costs one step per declaration on entering its block, one per
statement executed, one per expression node evaluated (before its
operands), and one after each iteration of a loop body; the step that
exceeds the budget ends the run, so steps_used is then budget + 1.
Every closure counts its step, but the budget is checked only where a
run could go on without end or be seen: at each call, before it enters
the callee and after the callee returns; at each loop back-edge; and in
printf, before it appends. The verdict is the one a check at every
step would give: steps only grow, so a run past the budget stays past
it; no output is appended past it; and `run` reports a UB or a return
from main that comes past the budget as the budget's verdict, with
steps_used = budget + 1. Between the step that exceeds the budget and
the check that sees it, a run neither loops nor enters nor leaves a
call, so the work done past the budget is bounded by the nodes of one
function body.

`interpret` first compiles the Program into Python closures, one per
node. Everything the tree decides is settled while compiling: which
kind of node a closure evaluates, which operator at which type, which
frame slot holds each variable and how deep each call may recurse.
Running does only the arithmetic, the checks above and the step count.
What each binary operator computes comes from `ast.BINARY_OPS`, the
table the parser's constant folder also reads; a closure adds only what
C adds at its type: the wrap of unsigned arithmetic, the range check of
signed arithmetic, and the checks before a division.

A while loop that never ends is fast-forwarded to its budget. Its
closures are a deterministic function of the running frame and the
globals: the step count only decides when the budget trips, and the
output is only appended to. So if the loop head sees the same frame and
globals twice in one activation, everything between the two visits
repeats forever, and the run can add as many whole periods of steps and
output as the budget leaves room for, then run on until the budget
trips. The loop looks for such a repeat with Brent's cycle detection,
sampling its state at the first head past every CYCLE_SAMPLE_STEPS
steps, so a loop that ends, or that never repeats, pays nothing per
iteration beyond the budget check it already made. A slot that cannot
affect the future (a block local that is reset on entry) can only hide
a repeat, never fake one.

A loop that moves its state by the same step on every iteration never
repeats it, so it is jumped ahead instead, by translation. It qualifies,
when compiled, if its body declares nothing and holds only assignments
and printfs, with no if, loop or call anywhere in the loop; each
variable it assigns is assigned once, as `v = v + e`, `v = v - e` or
`v = e + v`, where e, like every printf argument, reads no assigned
variable; and its condition is a truth test or one comparison of sums
and differences of variables and constants. Every iteration of such a
loop then takes the same steps, prints the same text and adds the same
delta to each variable, so at a sample it measures one iteration from
that head to the next and jumps the most iterations the budget leaves
room for, but only if, at the sampled head and at the head it would land
on, every moved variable and every sum in the condition lies within its
type's range, and the condition's left side minus its right has the
same strict sign or has not moved. All of these are affine in the
iteration, so what holds at both ends holds at every head between: no
arithmetic overflows or wraps, and the condition stays true. These
loops do not run Brent's check, which the jump subsumes. In both cases
the result is the one the step-by-step run gives, steps_used and output
included.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .ast import (
    BINARY_OPS,
    GLOBAL_SCOPE,
    INT_MAX,
    INT_MIN,
    RANGE,
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
    Stmt,
    Unary,
    Var,
    VarDecl,
    While,
    children,
)

DEFAULT_STEP_BUDGET = 1_000_000

# Frame-cost budget for recursion. Each call checks, before it runs,
# that the deepest frame its body can reach (_frames) stays within this,
# and counts as budget exhaustion otherwise. So deep recursion ends at
# the same depth on every run, whatever the caller's stack. The cost is
# counted in the frames a recursive tree walker stacks; neither
# compiling a program into closures nor running them stacks more Python
# frames than that, so every run stays well under Python's default
# recursion limit of 1000. The parser's nesting limit keeps one
# activation of any accepted program far below the budget.
MAX_FRAMES = 600

# A while loop compares its state with the saved one at the first loop
# head past every this many steps (see the module docstring).
CYCLE_SAMPLE_STEPS = 2048

_UINT_MASK = 0xFFFFFFFF
_SUMS = (operator.add, operator.sub)
_COMPARISONS = ("==", "!=", "<", "<=", ">", ">=")


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


def _frames(node, at: int, sites: dict) -> int:
    """The frame cost of evaluating node from a frame `at` deep, not
    counting the functions it calls; records in sites how deep each call
    is made from. It counts the frames that a recursive tree walker
    stacks, one method call per frame, named in the comments (the test
    suite keeps that walker as its reference interpreter)."""
    if isinstance(node, (Num, Var)):
        return at + 1  # eval
    if isinstance(node, (Unary, Binary, Block)):
        # eval, then _unary or _binary; exec_block, then exec_stmt per statement
        at += 2
    elif isinstance(node, Call):  # eval makes the call; the argument list is a frame
        sites[node] = at + 1
        at += 2
    deepest = at
    for kid in children(node):  # a loop, not a generator, to stack one frame per level
        deepest = max(deepest, _frames(kid, at, sites))
    return deepest


def _reads(e: Expr):
    """Yield the declaration of every variable e reads, and every call in e."""
    if isinstance(e, Var):
        yield e.decl
    elif isinstance(e, Call):
        yield e
    else:
        for kid in children(e):
            yield from _reads(kid)


def _is_sum(e: Expr) -> bool:
    """Whether e is a sum or difference of variables and constants."""
    if isinstance(e, Binary):
        return BINARY_OPS.get(e.op) in _SUMS and _is_sum(e.left) and _is_sum(e.right)
    return isinstance(e, (Num, Var))


def _exact(e: Expr, values: dict) -> Optional[int]:
    """The sum e at the given variable values, or None when e or one of
    its terms leaves the range of its type."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return values[e.decl]
    l, r = _exact(e.left, values), _exact(e.right, values)
    if l is None or r is None:
        return None
    v = BINARY_OPS[e.op](l, r)
    lo, hi = RANGE[e.type]
    return v if lo <= v <= hi else None


def _translation(s: While) -> Optional[tuple[list[VarDecl], tuple[Expr, Expr]]]:
    """For a loop that moves its variables by constant steps (see the
    module docstring), the variables its body assigns and the two sums
    its condition compares, a truth test comparing with 0; None for any
    other loop."""
    c = s.cond
    if isinstance(c, Binary) and c.op in _COMPARISONS:
        sides = (c.left, c.right)
    else:
        sides = (c, Num(0, c.type))
    if s.body.decls or not all(map(_is_sum, sides)):
        return None
    moved: list[VarDecl] = []
    steady: list[Expr] = []  # what must read no moved variable and call nothing
    for t in s.body.stmts:
        if isinstance(t, Printf):
            steady.append(t.arg)
            continue
        if not isinstance(t, Assign) or t.target.decl in moved:
            return None
        d, v = t.target.decl, t.value
        if not (isinstance(v, Binary) and BINARY_OPS.get(v.op) in _SUMS):
            return None
        if isinstance(v.left, Var) and v.left.decl is d:
            steady.append(v.right)
        elif BINARY_OPS[v.op] is operator.add and isinstance(v.right, Var) and v.right.decl is d:
            steady.append(v.left)
        else:
            return None
        moved.append(d)
    if any(x in moved or isinstance(x, Call) for e in steady for x in _reads(e)):
        return None
    return moved, sides


def _compile(program: Program) -> Callable[[int], ExecResult]:
    """Compile program into closures; return run(step_budget), which
    executes main from a fresh state on each call.

    Every closure takes the running call's frame, a list whose slot 0
    holds the frame cost stacked below the call and whose other slots
    hold the function's parameters and locals. An expression closure
    returns its value; a statement or block closure returns the running
    function's value once a return statement runs, and None otherwise.
    """
    steps = 0
    budget = 0
    out: list[str] = []
    gslot = {d: i for i, d in enumerate(program.globals)}
    ginit = [d.init if d.init is not None else 0 for d in program.globals]
    gvals = list(ginit)
    sites: dict[Call, int] = {}
    # frame cost from the call (frame 1) to the deepest in its body
    cost = {f.name: _frames(f.body, 1, sites) for f in program.functions}
    entries: dict[str, Callable[[list], int]] = {}  # filled once all are compiled

    def expr(e: Expr, slots: dict[VarDecl, int]) -> Callable[[list], int]:
        if isinstance(e, Num):
            value = e.value

            def num(f):
                nonlocal steps
                steps += 1
                return value

            return num
        if isinstance(e, Var):
            d = e.decl
            if d.scope_id == GLOBAL_SCOPE:
                g = gslot[d]

                def global_var(f):
                    nonlocal steps
                    steps += 1
                    return gvals[g]

                return global_var
            i = slots[d]

            def var(f):
                nonlocal steps
                steps += 1
                v = f[i]
                if v is _UNINIT:
                    raise _UB(UBKind.UNINIT_READ)
                return v

            return var
        if isinstance(e, Unary):
            operand = expr(e.operand, slots)
            if e.op == "!":
                def not_(f):
                    nonlocal steps
                    steps += 1
                    return 0 if operand(f) else 1

                return not_
            if e.type == UINT:
                def negate_wrapping(f):
                    nonlocal steps
                    steps += 1
                    return -operand(f) & _UINT_MASK

                return negate_wrapping

            def negate(f):
                nonlocal steps
                steps += 1
                v = operand(f)
                if v == INT_MIN:
                    raise _UB(UBKind.SIGNED_OVERFLOW)
                return -v

            return negate
        if isinstance(e, Binary):
            return binary(e.op, e.type, expr(e.left, slots), expr(e.right, slots))
        if isinstance(e, Call):
            return call(e, [expr(a, slots) for a in e.args])
        raise TypeError(f"not an expression: {e!r}")

    def binary(op: str, type_: str, left, right) -> Callable[[list], int]:
        if op == "&&":
            def and_(f):
                nonlocal steps
                steps += 1
                return 1 if left(f) and right(f) else 0

            return and_
        if op == "||":
            def or_(f):
                nonlocal steps
                steps += 1
                return 1 if left(f) or right(f) else 0

            return or_
        compute = BINARY_OPS[op]
        if op in ("/", "%"):
            # an unsigned l is never INT_MIN
            def divide(f):
                nonlocal steps
                steps += 1
                l = left(f)
                r = right(f)
                if r == 0:
                    raise _UB(UBKind.DIV_BY_ZERO)
                if l == INT_MIN and r == -1:
                    raise _UB(UBKind.SIGNED_DIV_OVERFLOW)
                return compute(l, r)

            return divide
        if op not in ("+", "-", "*"):
            def compare(f):
                nonlocal steps
                steps += 1
                return 1 if compute(left(f), right(f)) else 0

            return compare
        if type_ == UINT:
            def wrapping(f):
                nonlocal steps
                steps += 1
                return compute(left(f), right(f)) & _UINT_MASK

            return wrapping

        def checked(f):
            nonlocal steps
            steps += 1
            v = compute(left(f), right(f))
            if INT_MIN <= v <= INT_MAX:
                return v
            raise _UB(UBKind.SIGNED_OVERFLOW)

        return checked

    def call(e: Call, args: list) -> Callable[[list], int]:
        site = sites[e]
        # the callee's frame cost, stacked on the caller's, must fit
        limit = MAX_FRAMES - site - cost[e.name]
        name = e.name

        def call_(f):
            nonlocal steps
            steps += 1
            base = f[0]
            frame = [base + site]
            for a in args:
                frame.append(a(f))
            if base > limit or steps > budget:
                raise _OutOfSteps
            v = entries[name](frame)
            if steps > budget:
                raise _OutOfSteps
            return v

        return call_

    def stmt(s: Stmt, slots: dict[VarDecl, int]) -> Callable[[list], Optional[int]]:
        if isinstance(s, Assign):
            value = expr(s.value, slots)
            d = s.target.decl
            if d.scope_id == GLOBAL_SCOPE:
                g = gslot[d]

                def assign_global(f):
                    nonlocal steps
                    steps += 1
                    gvals[g] = value(f)

                return assign_global
            i = slots[d]

            def assign(f):
                nonlocal steps
                steps += 1
                f[i] = value(f)

            return assign
        if isinstance(s, If):
            cond = expr(s.cond, slots)
            then = block(s.then, slots)
            orelse = None if s.orelse is None else block(s.orelse, slots)

            def if_(f):
                nonlocal steps
                steps += 1
                if cond(f):
                    return then(f)
                if orelse is not None:
                    return orelse(f)

            return if_
        if isinstance(s, While):
            cond = expr(s.cond, slots)
            body = block(s.body, slots)
            leap = translation(s, slots)

            def while_(f):
                nonlocal steps
                steps += 1
                # Brent's cycle detection on the state at the loop head,
                # sampled at the first head past every CYCLE_SAMPLE_STEPS
                # steps: `mark` is the next step to sample at, never past
                # the budget, so the back-edge compares once to check both.
                mark = steps + CYCLE_SAMPLE_STEPS
                if mark > budget:
                    mark = budget
                seen = None  # the saved sample: (f, gvals, steps, len(out))
                while cond(f):
                    r = body(f)
                    if r is not None:
                        return r
                    steps += 1
                    if steps > mark:
                        if steps > budget:
                            raise _OutOfSteps
                        mark = min(steps + CYCLE_SAMPLE_STEPS, budget)
                        if seen is None:
                            seen = (f[:], gvals[:], steps, len(out))
                            power = 2
                            lam = 1
                            if leap is not None:
                                mark = steps  # sample again one iteration on
                        elif leap is not None:
                            if leap(f, seen):
                                mark = budget
                            seen = None
                        elif seen[0] == f and seen[1] == gvals:
                            # the state repeats, so the rest does too: skip
                            # every whole period the budget leaves room for
                            period = steps - seen[2]
                            k = (budget - steps) // period
                            steps += k * period
                            if k and len(out) > seen[3]:
                                out.append("".join(out[seen[3]:]) * k)
                            mark = budget
                        elif lam == power:
                            # compared with `power` samples: save this one
                            # and compare it with twice as many
                            seen = (f[:], gvals[:], steps, len(out))
                            power *= 2
                            lam = 1
                        else:
                            lam += 1

            return while_
        if isinstance(s, Return):
            value = expr(s.value, slots)

            def return_(f):
                nonlocal steps
                steps += 1
                return value(f)

            return return_
        if isinstance(s, Printf):
            value = expr(s.arg, slots)
            end = "\n" if s.newline else ""

            def printf(f):
                nonlocal steps
                steps += 1
                text = f"{value(f)}{end}"
                if steps > budget:
                    raise _OutOfSteps
                out.append(text)

            return printf
        if isinstance(s, CallStmt):
            value = expr(s.call, slots)

            def call_stmt(f):
                nonlocal steps
                steps += 1
                value(f)

            return call_stmt
        if isinstance(s, Block):
            inner = block(s, slots)

            def nested(f):
                nonlocal steps
                steps += 1
                return inner(f)

            return nested
        raise TypeError(f"not a statement: {s!r}")

    def translation(s: While, slots: dict[VarDecl, int]) -> Optional[Callable[[list, tuple], bool]]:
        """For a loop that moves its variables by constant steps, a
        function that, given the running frame and the sample `seen` taken
        one iteration back, jumps as many iterations as the budget leaves
        room for and says whether it did; None for any other loop."""
        form = _translation(s)
        if form is None:
            return None
        moved, (left, right) = form
        where = {
            d: (gslot[d], True) if d.scope_id == GLOBAL_SCOPE else (slots[d], False)
            for d in [*moved, *_reads(left), *_reads(right)]
        }

        def values(frame, globals_):
            return {d: (globals_ if g else frame)[i] for d, (i, g) in where.items()}

        def gap(vs):  # the condition's left side minus its right
            l, r = _exact(left, vs), _exact(right, vs)
            return None if l is None or r is None else l - r

        def leap(f, seen):
            nonlocal steps
            was, now = values(seen[0], seen[1]), values(f, gvals)
            per = steps - seen[2]
            k = (budget - steps) // per
            end = {d: v + k * (v - was[d]) for d, v in now.items()}
            # every value is affine in the iteration, so what holds at `was`
            # and at `end` holds at every head between
            if not all(RANGE[d.type][0] <= v <= RANGE[d.type][1] for d, v in end.items()):
                return False
            g0, g1 = gap(was), gap(end)
            if g0 is None or g1 is None or not (g0 == g1 or g0 * g1 > 0):
                return False
            steps += k * per
            for d, (i, g) in where.items():
                (gvals if g else f)[i] = end[d]
            if k and len(out) > seen[3]:
                out.append("".join(out[seen[3]:]) * k)
            return True

        return leap

    def block(b: Block, slots: dict[VarDecl, int]) -> Callable[[list], Optional[int]]:
        inits = []
        for d in b.decls:
            slots[d] = len(slots) + 1
            inits.append((slots[d], _UNINIT if d.init is None else d.init))
        stmts = []
        for s in b.stmts:  # a loop, not a comprehension, to stack one frame per level
            stmts.append(stmt(s, slots))
        if not inits and len(stmts) == 1:
            return stmts[0]

        def run_block(f):
            nonlocal steps
            steps += len(inits)
            for i, v in inits:
                f[i] = v
            for s in stmts:
                r = s(f)
                if r is not None:
                    return r

        return run_block

    def function(fn: Function) -> Callable[[list], int]:
        slots = {p: i for i, p in enumerate(fn.params, start=1)}
        body = block(fn.body, slots)
        pad = [_UNINIT] * (len(slots) - len(fn.params))

        def enter(frame):
            frame += pad
            r = body(frame)
            if r is None:
                # The parser guarantees the body ends with a return statement.
                raise AssertionError(f"function {fn.name!r} fell off its end")
            return r

        return enter

    for fn in program.functions:
        entries[fn.name] = function(fn)

    def run(step_budget: int) -> ExecResult:
        nonlocal steps, budget
        steps, budget = 0, step_budget
        out.clear()
        gvals[:] = ginit
        status, ret, kind = Status.STEP_BUDGET_EXHAUSTED, 0, None
        try:
            if cost["main"] > MAX_FRAMES:
                raise _OutOfSteps
            status, ret = Status.OK, entries["main"]([0]) & 0xFF
        except _UB as ub:
            status, kind = Status.UNDEFINED_BEHAVIOR, ub.kind
        except _OutOfSteps:
            pass
        if steps > budget:  # whatever ended the run came past the budget
            return ExecResult(Status.STEP_BUDGET_EXHAUSTED, 0, "".join(out), budget + 1)
        return ExecResult(status, ret, "".join(out), steps, kind)

    return run


def interpret(program: Program, step_budget: int = DEFAULT_STEP_BUDGET) -> ExecResult:
    """Run a parsed Program and report status, exit code, and output.

    Never raises for a valid Program: UB and budget exhaustion come back
    as statuses. The exit code is main's return value truncated to its
    low byte, matching what a shell observes from a compiled binary.
    """
    if step_budget < 1:
        raise ValueError("step_budget must be at least 1")
    return _compile(program)(step_budget)
