"""AST for MiniC.

Declarations are stated once, in the tree: the globals make up scope
GLOBAL_SCOPE, each Block holds its own scope's declarations and carries
that scope's id, a function's parameters share its body's scope, and
every VarDecl records the id of the scope that declares it.

Nodes use identity equality so they can serve as dictionary keys (the
interpreter keys frames by VarDecl, the renderer accepts per-node name
overrides). `children` is the one place that states the source order
of a node's children; hole extraction and the interpreter's frame
model both walk the tree through it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

INT = "int"
UINT = "uint"

INT_MIN = -(2 ** 31)
INT_MAX = 2 ** 31 - 1
UINT_MAX = 2 ** 32 - 1

#: Each integer type's least and greatest value.
RANGE = {INT: (INT_MIN, INT_MAX), UINT: (0, UINT_MAX)}

#: Scope id of the file-level (global) scope, which encloses every other.
GLOBAL_SCOPE = 0

#: Binary operator precedence, one row per level, loosest first; every
#: operator is left-associative. The parser climbs this table and the
#: renderer parenthesizes by it.
BINARY_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3,
    "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "/": 6, "%": 6,
}


def c_div(a: int, b: int) -> int:
    """C division: truncates toward zero. Caller checks b != 0."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def c_mod(a: int, b: int) -> int:
    """C remainder, satisfying a == c_div(a, b) * b + c_mod(a, b)."""
    return a - c_div(a, b) * b


#: What each binary operator but `&&` and `||` computes on exact ints: a
#: comparison its truth, arithmetic its mathematical value before any
#: wrap or range check. The interpreter and the parser's constant folder
#: both compute every operator from this table.
BINARY_OPS = {
    "==": operator.eq, "!=": operator.ne,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub,
    "*": operator.mul, "/": c_div, "%": c_mod,
}


@dataclass(eq=False)
class VarDecl:
    name: str
    type: str  # INT or UINT
    scope_id: int
    init: Optional[int] = None  # folded constant, already range-checked


# --- Expressions ---------------------------------------------------------


@dataclass(eq=False)
class Num:
    value: int
    type: str


@dataclass(eq=False)
class Var:
    decl: VarDecl

    @property
    def type(self) -> str:
        return self.decl.type

    @property
    def name(self) -> str:
        return self.decl.name


@dataclass(eq=False)
class Unary:
    op: str  # "-" | "!"
    operand: "Expr"
    type: str


@dataclass(eq=False)
class Binary:
    op: str  # a key of BINARY_PREC
    left: "Expr"
    right: "Expr"
    type: str


@dataclass(eq=False)
class Call:
    name: str
    args: list["Expr"]
    type: str


Expr = Union[Num, Var, Unary, Binary, Call]


# --- Statements ----------------------------------------------------------


@dataclass(eq=False)
class Assign:
    target: Var
    value: Expr


@dataclass(eq=False)
class If:
    cond: Expr
    then: "Block"
    orelse: Optional["Block"] = None


@dataclass(eq=False)
class While:
    cond: Expr
    body: "Block"


@dataclass(eq=False)
class Return:
    value: Expr


@dataclass(eq=False)
class Printf:
    arg: Expr
    newline: bool = False  # True for the "%d\n" form


@dataclass(eq=False)
class CallStmt:
    call: Call


@dataclass(eq=False)
class Block:
    scope_id: int
    decls: list[VarDecl]
    stmts: list["Stmt"]


Stmt = Union[Assign, If, While, Return, Printf, CallStmt, Block]


@dataclass(eq=False)
class Function:
    name: str
    ret_type: str
    # Parameters share the body's scope, as in C: `int f(int x) { int x; }`
    # is a redeclaration error.
    params: list[VarDecl]
    body: Block


@dataclass(eq=False)
class Program:
    globals: list[VarDecl]
    functions: list[Function]


#: Each node class's children, in source order.
_CHILDREN = {
    Num: lambda n: [],
    Var: lambda n: [],  # its decl is a reference, not a child
    VarDecl: lambda n: [],
    Unary: lambda n: [n.operand],
    Binary: lambda n: [n.left, n.right],
    Call: lambda n: [*n.args],
    Assign: lambda n: [n.target, n.value],
    If: lambda n: [n.cond, n.then] + ([] if n.orelse is None else [n.orelse]),
    While: lambda n: [n.cond, n.body],
    Return: lambda n: [n.value],
    Printf: lambda n: [n.arg],
    CallStmt: lambda n: [n.call],
    Block: lambda n: [*n.decls, *n.stmts],
    Function: lambda n: [*n.params, n.body],
    Program: lambda n: [*n.globals, *n.functions],
}


def children(node) -> list:
    """A node's child nodes in source order: declarations before
    statements, an assignment's target before its value, parameters
    before the body."""
    return _CHILDREN[type(node)](node)
