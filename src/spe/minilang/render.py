"""Plain-C rendering of MiniC programs.

render(p) yields a self-contained translation unit: the stdio include,
one prototype per non-main function (so definition order never matters
to the compiler), globals, then the definitions. Reparsing the output
gives a structurally identical Program.

name_overrides maps individual Var or VarDecl nodes to replacement
names without mutating the AST. The enumerator prints every hole of a
skeleton as a sentinel through it, once per skeleton, to get the
source template that each variant fills with its names.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .ast import (
    BINARY_PREC,
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
    VarDecl,
    Var,
    While,
)

_UNARY_PREC = 8
_PRIMARY_PREC = 9

_INDENT = "    "


def _type_name(t: str) -> str:
    return "unsigned" if t == UINT else "int"


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return BINARY_PREC[e.op]
    if isinstance(e, Unary):
        return _UNARY_PREC
    return _PRIMARY_PREC


def _init_text(d: VarDecl) -> str:
    """A folded initializer as a constant expression that reparses to
    it: no plain literal may exceed INT_MAX (grammar rule 5)."""
    if d.init == INT_MIN:
        return f"-{INT_MAX} - 1"
    if d.type == UINT and d.init > INT_MAX:
        return f"{d.init}u"
    return str(d.init)


class _Renderer:
    def __init__(self, overrides: Optional[Mapping] = None):
        self.overrides = overrides or {}
        self.lines: list[str] = []

    def name_of(self, node) -> str:
        """Printed name of a Var occurrence or a VarDecl site."""
        if node in self.overrides:
            return self.overrides[node]
        return node.name

    # -- expressions ---------------------------------------------------

    def expr(self, e: Expr) -> str:
        if isinstance(e, Num):
            return f"{e.value}u" if e.type == UINT else str(e.value)
        if isinstance(e, Var):
            return self.name_of(e)
        if isinstance(e, Unary):
            # Parenthesize non-primary operands: avoids `--x` and keeps
            # !(a && b) unambiguous to human readers.
            inner = self.expr(e.operand)
            if _prec(e.operand) < _PRIMARY_PREC:
                inner = f"({inner})"
            return f"{e.op}{inner}"
        if isinstance(e, Binary):
            p = BINARY_PREC[e.op]
            left = self._child(e.left, p)
            right = self._child(e.right, p + 1)  # left-associative
            return f"{left} {e.op} {right}"
        if isinstance(e, Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.name}({args})"
        raise TypeError(f"not an expression: {e!r}")

    def _child(self, e: Expr, need: int) -> str:
        s = self.expr(e)
        return f"({s})" if _prec(e) < need else s

    # -- statements ----------------------------------------------------

    def decl_line(self, d: VarDecl, indent: int) -> str:
        head = f"{_INDENT * indent}{_type_name(d.type)} {self.name_of(d)}"
        if d.init is not None:
            return f"{head} = {_init_text(d)};"
        return f"{head};"

    def block_body(self, b: Block, indent: int) -> None:
        for d in b.decls:
            self.lines.append(self.decl_line(d, indent))
        for s in b.stmts:
            self.stmt(s, indent)

    def stmt(self, s, indent: int) -> None:
        pad = _INDENT * indent
        if isinstance(s, Assign):
            self.lines.append(f"{pad}{self.name_of(s.target)} = {self.expr(s.value)};")
        elif isinstance(s, If):
            self.lines.append(f"{pad}if ({self.expr(s.cond)}) {{")
            self.block_body(s.then, indent + 1)
            if s.orelse is not None:
                self.lines.append(f"{pad}}} else {{")
                self.block_body(s.orelse, indent + 1)
            self.lines.append(f"{pad}}}")
        elif isinstance(s, While):
            self.lines.append(f"{pad}while ({self.expr(s.cond)}) {{")
            self.block_body(s.body, indent + 1)
            self.lines.append(f"{pad}}}")
        elif isinstance(s, Return):
            self.lines.append(f"{pad}return {self.expr(s.value)};")
        elif isinstance(s, Printf):
            fmt = '"%d\\n"' if s.newline else '"%d"'
            self.lines.append(f"{pad}printf({fmt}, {self.expr(s.arg)});")
        elif isinstance(s, CallStmt):
            self.lines.append(f"{pad}{self.expr(s.call)};")
        elif isinstance(s, Block):
            self.lines.append(f"{pad}{{")
            self.block_body(s, indent + 1)
            self.lines.append(f"{pad}}}")
        else:
            raise TypeError(f"not a statement: {s!r}")

    # -- top level -------------------------------------------------------

    def signature(self, f: Function) -> str:
        if not f.params:
            params = "void"
        else:
            params = ", ".join(
                f"{_type_name(p.type)} {self.name_of(p)}" for p in f.params
            )
        return f"{_type_name(f.ret_type)} {f.name}({params})"

    def program(self, p: Program) -> str:
        self.lines.append("#include <stdio.h>")
        self.lines.append("")
        protos = [self.signature(f) + ";" for f in p.functions if f.name != "main"]
        if protos:
            self.lines.extend(protos)
            self.lines.append("")
        if p.globals:
            for d in p.globals:
                self.lines.append(self.decl_line(d, 0))
            self.lines.append("")
        for i, f in enumerate(p.functions):
            if i:
                self.lines.append("")
            self.lines.append(f"{self.signature(f)} {{")
            self.block_body(f.body, 1)
            self.lines.append("}")
        return "\n".join(self.lines) + "\n"


def render(p: Program, name_overrides: Optional[Mapping] = None) -> str:
    """Render a Program as compilable C text."""
    return _Renderer(name_overrides).program(p)
