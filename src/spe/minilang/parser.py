"""Parser and semantic checks for MiniC.

One translation unit per call. The parser enforces the rules that keep
enumeration sound and the rendered output acceptable to a conforming C
compiler without diagnostics:

- declarations precede statements in every block (C89), and global
  declarations precede the first function definition;
- initializers are constant expressions, folded here by the rules of
  expressions: each operator's operands share a type and its exact
  value lies in that type's range (a % b's quotient a / b too), and the
  folded value is range-checked against the declared type;
- no implicit int/unsigned mixing: both operands of an arithmetic or
  comparison operator, and both sides of an assignment, must have the
  same type (conditions and logical operators accept either type);
- printf takes exactly "%d" or "%d\\n" and an int argument;
- a value-returning function's body must end with a return statement,
  so no control path can fall off the end;
- exactly one main, with zero parameters, returning int.

Functions may be called before their definition; prototypes are accepted
and checked for consistency but not stored in the AST.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Optional

from .ast import (
    BINARY_OPS,
    BINARY_PREC,
    GLOBAL_SCOPE,
    INT,
    RANGE,
    UINT,
    UINT_MAX,
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
)

# Stable error kinds, part of the public contract.
E_SYNTAX = "syntax"
E_DECL_AFTER_STMT = "decl_after_stmt"
E_INIT_NOT_CONST = "init_not_const"
E_UNDECLARED = "undeclared"
E_TYPE = "type"
E_DUPLICATE = "duplicate"
E_NO_MAIN = "no_main"
E_BAD_PRINTF = "bad_printf"
E_MISSING_RETURN = "missing_return"
E_RANGE = "range"
E_NESTING = "nesting"

# Deepest nesting accepted. Two measures share the limit. While parsing,
# every enclosing block, parenthesis, call argument list and unary
# operator is one level. A finished expression adds its height, in which
# every operator or call node is two levels: itself and the parentheses
# the renderer may put around it, so that the rendered text of an
# accepted program is accepted again. At 150 levels the deepest accepted
# programs take at most 605 Python frames to parse (150 parentheses at 4
# frames each), 451 to extract, render or key, and 304 for one
# interpreter activation: under Python's default recursion limit of
# 1000, with room left for the caller's own frames.
MAX_NESTING = 150
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"


class ParseError(Exception):
    def __init__(self, kind: str, message: str, line: int = 0, col: int = 0):
        loc = f"{line}:{col}: " if line else ""
        super().__init__(f"{loc}{message}")
        self.kind = kind
        self.message = message
        self.line = line
        self.col = col


# All of C's keywords are reserved so rendered variants never collide
# with them, even though MiniC only uses a handful.
KEYWORDS = frozenset(
    """
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile
    """.split()
)

# One alternative per token kind. Only comments may hold characters
# outside ASCII, as in C89: elsewhere such a character ends the token
# before it, and a directive or string literal takes it in as its last
# character, to be reported. The junk group is a character that may
# not follow a number.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[=!<>]=|&&|\|\||[(){};,=+\-*%<>!]|/(?![/*]))
    | (?P<num>[0-9]+[uU]?(?P<junk>[\w.])?)
    | (?P<comment>//[^\n]*|/\*.*?\*/)
    | (?P<directive>\#[\x00-\x09\x0b-\x7f]*[^\n]?)
    | (?P<str>"(?P<body>(?:[\x00-\x09\x0b-\x21\x23-\x5b\x5d-\x7f]|\\n)*)(?P<close>.?))
    | (?P<open_comment>/\*)
    | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# The one directive MiniC takes, spelt token by token as C89 reads it:
# only spaces and tabs may separate or follow the tokens.
_INCLUDE = re.compile(r"\#[ \t]*include[ \t]*<stdio\.h>[ \t]*\r?")

# The loosest arithmetic row of BINARY_PREC: arithmetic operators keep
# their operands' type, and constant initializers use only these rows.
_ARITH = BINARY_PREC["+"]


@dataclass
class _Token:
    kind: str  # "ident" | "num" | "str" | "punct" | "eof"
    text: str
    value: object
    line: int
    col: int


def _lex(src: str) -> list[_Token]:
    toks: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset of the current line

    def err(msg: str, col: int) -> None:
        raise ParseError(E_SYNTAX, msg, line, col)

    for m in _TOKEN.finditer(src):
        kind, text, start = m.lastgroup, m.group(), m.start()
        col = start - line_start + 1
        if kind == "space" or kind == "comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
        elif kind == "ident" or kind == "punct":
            toks.append(_Token(kind, text, text, line, col))
        elif kind == "num":
            if m.group("junk"):
                err("malformed number literal", col)
            digits = text.rstrip("uU").lstrip("0") or "0"
            # past 640 digits, the least limit int() may be set to, a
            # literal is far out of range anyway
            value = int(digits) if len(digits) <= 640 else UINT_MAX + 1
            toks.append(_Token("num", text, (value, text[-1] in "uU"), line, col))
        elif kind == "other" or not text.isascii():
            # a stray character, or the one that cut a directive or string short
            err(f"unexpected character {text[-1]!r}", col + len(text) - 1)
        elif kind == "directive":
            if toks and toks[-1].line == line:  # a directive starts its line
                err("stray '#' in program", col)
            if not _INCLUDE.fullmatch(text):
                err(f"unsupported preprocessor directive: {text.strip()!r}", col)
        elif kind == "open_comment":
            err("unterminated comment", col)
        elif m.group("close") == '"':
            toks.append(_Token("str", text, m.group("body").replace("\\n", "\n"), line, col))
        elif m.group("close") == "\\":
            err("unsupported escape in string literal", col)
        else:
            err("unterminated string literal", col)
    toks.append(_Token("eof", "", None, line, len(src) - line_start + 1))
    return toks


class _FuncSig:
    __slots__ = ("ret_type", "param_types", "defined", "line", "col")

    def __init__(self, ret_type: str, param_types: tuple, line: int, col: int):
        self.ret_type = ret_type
        self.param_types = param_types
        self.defined = False
        self.line = line
        self.col = col


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.pos = 0
        self.scope_ids = itertools.count(GLOBAL_SCOPE + 1)
        self.sigs: dict[str, _FuncSig] = {}
        self.called: dict[str, _Token] = {}
        # Environment: stack of {name: decl} frames, innermost last.
        self.env: list[dict[str, VarDecl]] = []
        self.cur_ret: Optional[str] = None
        self.depth = 0  # nesting levels entered; see MAX_NESTING
        self.heights: dict[Expr, int] = {}  # operator and call nodes only

    # -- token plumbing ----------------------------------------------

    def cur(self) -> _Token:
        return self.toks[self.pos]

    def advance(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_punct(self, text: str) -> bool:
        t = self.cur()
        return t.kind == "punct" and t.text == text

    def take_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> _Token:
        if not self.at_punct(text):
            t = self.cur()
            self.fail(E_SYNTAX, f"expected {text!r}, found {t.text or t.kind!r}", t)
        return self.advance()

    def at_word(self, word: str) -> bool:
        t = self.cur()
        return t.kind == "ident" and t.text == word

    def take_word(self, word: str) -> bool:
        if self.at_word(word):
            self.pos += 1
            return True
        return False

    def at_type(self) -> bool:
        return self.at_word("int") or self.at_word("unsigned")

    def fail(self, kind: str, message: str, tok: Optional[_Token] = None) -> None:
        t = tok or self.cur()
        raise ParseError(kind, message, t.line, t.col)

    def nest(self, tok: Optional[_Token] = None) -> None:
        """Enter one nesting level; the caller leaves it again."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(E_NESTING, _TOO_DEEP, tok)

    def expect_name(self, what: str) -> _Token:
        t = self.cur()
        if t.kind != "ident":
            self.fail(E_SYNTAX, f"expected {what}, found {t.text or t.kind!r}")
        if t.text in KEYWORDS:
            self.fail(E_SYNTAX, f"keyword {t.text!r} cannot be used as {what}")
        return self.advance()

    # -- name resolution -----------------------------------------------

    def resolve(self, tok: _Token) -> VarDecl:
        for frame in reversed(self.env):
            d = frame.get(tok.text)
            if d is not None:
                return d
        if tok.text in self.sigs:
            self.fail(E_TYPE, f"function {tok.text!r} used as a variable", tok)
        self.fail(E_UNDECLARED, f"undeclared identifier {tok.text!r}", tok)
        raise AssertionError  # unreachable

    # -- types, declarators, constant folding ----------------------------

    def parse_type(self) -> str:
        if self.take_word("int"):
            return INT
        if self.take_word("unsigned"):
            self.take_word("int")  # "unsigned int" == "unsigned"
            return UINT
        t = self.cur()
        self.fail(E_SYNTAX, f"expected a type, found {t.text or t.kind!r}")
        raise AssertionError

    def parse_declarators(self, base: str, scope_id: int, first: _Token) -> list[VarDecl]:
        """Parse `name [= const] (, name [= const])* ;` after the type."""
        decls = []
        name_tok = first
        while True:
            init = None
            if self.take_punct("="):
                init = self.fold_const(base, name_tok)
            frame = self.env[-1]
            if name_tok.text in frame:
                self.fail(
                    E_DUPLICATE,
                    f"{name_tok.text!r} already declared in this scope",
                    name_tok,
                )
            d = VarDecl(name_tok.text, base, scope_id, init)
            frame[name_tok.text] = d
            decls.append(d)
            if self.take_punct(","):
                name_tok = self.expect_name("a variable name")
                continue
            self.expect_punct(";")
            return decls

    def fold_const(self, target_type: str, name_tok: _Token) -> int:
        return self._in_range(name_tok, self.const_expr()[0], target_type, "initializer value")[0]

    def const_expr(self) -> tuple[int, str]:
        """A constant expression's value and type."""
        self.nest()
        value = self._climb(self._const_unary, self._fold, _ARITH)
        self.depth -= 1
        return value

    def _fold(self, op: _Token, left: tuple[int, str], right: tuple[int, str]) -> tuple[int, str]:
        (a, type_), (b, right_type) = left, right
        self._same_type(op, type_, right_type)
        if b == 0 and op.text in ("/", "%"):
            self.fail(E_RANGE, "division by zero in constant initializer", op)
        if op.text == "%":
            # as in expressions, a % b is undefined when a / b overflows
            self._in_range(op, BINARY_OPS["/"](a, b), type_, "'%' quotient")
        return self._in_range(op, BINARY_OPS[op.text](a, b), type_, f"{op.text!r} result")

    def _in_range(self, tok: _Token, value: int, type_: str, what: str) -> tuple[int, str]:
        """(value, type_), where type_ must hold value; the error names
        what value is and points at tok."""
        lo, hi = RANGE[type_]
        if not lo <= value <= hi:
            self.fail(E_RANGE, f"{what} {value} out of range for {type_!r}", tok)
        return value, type_

    def _const_unary(self) -> tuple[int, str]:
        if self.at_punct("-"):
            op = self.advance()
            self.nest(op)
            value, type_ = self._const_unary()
            self.depth -= 1
            return self._in_range(op, -value, type_, f"{op.text!r} result")
        return self._const_primary()

    def _const_primary(self) -> tuple[int, str]:
        t = self.cur()
        if t.kind == "num":
            return self._literal(t)
        if self.take_punct("("):
            v = self.const_expr()
            self.expect_punct(")")
            return v
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.fail(
                E_INIT_NOT_CONST,
                f"initializers must be constant expressions, found {t.text!r}",
                t,
            )
        self.fail(E_SYNTAX, f"expected a constant expression, found {t.text or t.kind!r}")
        raise AssertionError

    # -- expressions ------------------------------------------------------

    def _climb(self, operand: Callable, combine: Callable, min_prec: int = 1):
        """Precedence climbing over the BINARY_PREC rows from min_prec
        up: `operand (op operand)*`, each op folded left-associatively
        by combine(op token, left, right) as soon as its right operand
        is complete. Pending operators wait on a list, not the stack."""
        operands = [operand()]
        ops: list[_Token] = []
        while True:
            # only punct tokens carry operator text (strings keep quotes)
            prec = BINARY_PREC.get(self.cur().text, 0)
            while ops and BINARY_PREC[ops[-1].text] >= prec:
                right = operands.pop()
                operands[-1] = combine(ops.pop(), operands[-1], right)
            if prec < min_prec:
                return operands[0]
            ops.append(self.advance())
            operands.append(operand())

    def parse_expr(self) -> Expr:
        start = self.cur()
        self.nest(start)
        e = self._climb(self._parse_unary, self._binary)
        if self.depth + self.heights.get(e, 0) > MAX_NESTING:
            self.fail(E_NESTING, _TOO_DEEP, start)
        self.depth -= 1
        return e

    def _node(self, e: Expr, *children: Expr) -> Expr:
        """Record e's height (see MAX_NESTING) and return it."""
        self.heights[e] = 2 + max([self.heights.get(c, 0) for c in children], default=0)
        return e

    def _same_type(self, op: _Token, left: str, right: str) -> None:
        """Rule 4: op's operands, of types left and right, share a type
        unless op is logical."""
        if left != right and op.text not in ("&&", "||"):
            self.fail(E_TYPE, f"operands of {op.text!r} must have the same type ({left} vs {right})", op)

    def _binary(self, op: _Token, left: Expr, right: Expr) -> Binary:
        self._same_type(op, left.type, right.type)
        arithmetic = BINARY_PREC[op.text] >= _ARITH
        return self._node(
            Binary(op.text, left, right, left.type if arithmetic else INT), left, right
        )

    def _parse_unary(self) -> Expr:
        if self.at_punct("-") or self.at_punct("!"):
            op = self.advance()
            self.nest(op)
            operand = self._parse_unary()
            self.depth -= 1
            return self._node(
                Unary(op.text, operand, operand.type if op.text == "-" else INT), operand
            )
        return self._parse_primary()

    def _parse_primary(self) -> Expr:
        t = self.cur()
        if self.take_punct("("):
            e = self.parse_expr()
            self.expect_punct(")")
            return e
        if t.kind == "num":
            return Num(*self._literal(t))
        if t.kind == "ident":
            if t.text == "printf":
                self.fail(E_BAD_PRINTF, "printf is only allowed as a statement", t)
            if t.text in KEYWORDS:
                self.fail(E_SYNTAX, f"unexpected keyword {t.text!r}", t)
            self.advance()
            if self.at_punct("("):
                return self._parse_call(t)
            return Var(self.resolve(t))
        self.fail(E_SYNTAX, f"expected an expression, found {t.text or t.kind!r}")
        raise AssertionError

    def _literal(self, t: _Token) -> tuple[int, str]:
        """The number token t's value and type, consumed: a plain literal
        must fit in int and a u-suffixed one in unsigned (rule 5 of
        docs/minic-grammar.ebnf), in expressions and constant
        initializers alike."""
        self.advance()
        value, unsigned = t.value
        type_ = UINT if unsigned else INT
        if value > RANGE[type_][1]:
            self.fail(E_RANGE, f"{'unsigned' if unsigned else 'int'} literal {t.text} out of range", t)
        return value, type_

    def _parse_call(self, name_tok: _Token) -> Call:
        sig = self.sigs.get(name_tok.text)
        if sig is None:
            kind = E_TYPE if any(name_tok.text in f for f in self.env) else E_UNDECLARED
            what = "variable used as a function" if kind == E_TYPE else "undeclared function"
            self.fail(kind, f"{what}: {name_tok.text!r}", name_tok)
        self.expect_punct("(")
        args: list[Expr] = []
        if not self.at_punct(")"):
            while True:
                args.append(self.parse_expr())
                if not self.take_punct(","):
                    break
        self.expect_punct(")")
        if len(args) != len(sig.param_types):
            self.fail(
                E_TYPE,
                f"{name_tok.text!r} expects {len(sig.param_types)} argument(s), "
                f"got {len(args)}",
                name_tok,
            )
        for i, (a, pt) in enumerate(zip(args, sig.param_types)):
            if a.type != pt:
                self.fail(
                    E_TYPE,
                    f"argument {i + 1} of {name_tok.text!r} must be {pt}, got {a.type}",
                    name_tok,
                )
        self.called.setdefault(name_tok.text, name_tok)
        return self._node(Call(name_tok.text, args, sig.ret_type), *args)

    # -- statements -------------------------------------------------------

    def parse_block_body(self, scope_id: int, frame: dict) -> Block:
        """Parse `{ decls* stmts* }`; frame may be pre-seeded with params."""
        self.nest()
        self.expect_punct("{")
        self.env.append(frame)
        decls: list[VarDecl] = []
        while self.at_type():
            base = self.parse_type()
            name_tok = self.expect_name("a variable name")
            decls.extend(self.parse_declarators(base, scope_id, name_tok))
        stmts = []
        while not self.at_punct("}"):
            if self.at_type():
                self.fail(
                    E_DECL_AFTER_STMT,
                    "declarations must precede all statements in a block",
                )
            stmts.append(self.parse_stmt())
        self.expect_punct("}")
        self.env.pop()
        self.depth -= 1
        return Block(scope_id, decls, stmts)

    def parse_stmt(self):
        t = self.cur()
        if self.at_punct("{"):
            return self.parse_block_body(next(self.scope_ids), {})
        if self.at_word("if"):
            self.advance()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            then = self._parse_controlled_block()
            orelse = None
            if self.take_word("else"):
                orelse = self._parse_controlled_block()
            return If(cond, then, orelse)
        if self.at_word("while"):
            self.advance()
            self.expect_punct("(")
            cond = self.parse_expr()
            self.expect_punct(")")
            return While(cond, self._parse_controlled_block())
        if self.at_word("return"):
            self.advance()
            value = self.parse_expr()
            if value.type != self.cur_ret:
                self.fail(
                    E_TYPE,
                    f"return value must be {self.cur_ret}, got {value.type}",
                    t,
                )
            self.expect_punct(";")
            return Return(value)
        if self.at_word("printf"):
            return self._parse_printf()
        if t.kind == "ident" and t.text not in KEYWORDS:
            nxt = self.toks[self.pos + 1]
            if nxt.kind == "punct" and nxt.text == "(":
                self.advance()
                call = self._parse_call(t)
                self.expect_punct(";")
                return CallStmt(call)
            if nxt.kind == "punct" and nxt.text == "=":
                self.advance()
                self.advance()
                target = Var(self.resolve(t))
                value = self.parse_expr()
                if value.type != target.type:
                    self.fail(
                        E_TYPE,
                        f"cannot assign {value.type} to {target.type} "
                        f"variable {t.text!r}",
                        t,
                    )
                self.expect_punct(";")
                return Assign(target, value)
        self.fail(E_SYNTAX, f"expected a statement, found {t.text or t.kind!r}")
        raise AssertionError

    def _parse_controlled_block(self) -> Block:
        """Body of if/else/while: a block, or a single statement wrapped
        in a fresh (declaration-free) block."""
        if self.at_punct("{"):
            return self.parse_stmt()
        scope_id = next(self.scope_ids)
        self.env.append({})
        self.nest()
        stmt = self.parse_stmt()
        self.depth -= 1
        self.env.pop()
        return Block(scope_id, [], [stmt])

    def _parse_printf(self) -> Printf:
        t = self.advance()  # 'printf'
        self.expect_punct("(")
        fmt = self.cur()
        if fmt.kind != "str":
            self.fail(E_BAD_PRINTF, "printf needs a literal format string", fmt)
        if fmt.value not in ("%d", "%d\n"):
            self.fail(
                E_BAD_PRINTF,
                f'printf format must be "%d" or "%d\\n", found {fmt.text}',
                fmt,
            )
        self.advance()
        self.expect_punct(",")
        arg = self.parse_expr()
        if arg.type != INT:
            self.fail(E_BAD_PRINTF, '"%d" requires an int argument', t)
        self.expect_punct(")")
        self.expect_punct(";")
        return Printf(arg, newline=fmt.value.endswith("\n"))

    # -- top level ----------------------------------------------------------

    def parse_program(self) -> Program:
        globals_: list[VarDecl] = []
        functions: list[Function] = []
        pending: list[tuple[Function, int, int, dict]] = []
        seen_definition = False
        self.env.append({})

        while self.cur().kind != "eof":
            start = self.cur()
            base = self.parse_type()
            name_tok = self.expect_name("a name")
            if self.at_punct("("):
                item = self._parse_function_header(base, name_tok)
                if item is not None:
                    functions.append(item[0])
                    pending.append(item)
                    seen_definition = True
            else:
                if seen_definition:
                    self.fail(
                        E_DECL_AFTER_STMT,
                        "global declarations must precede all function definitions",
                        start,
                    )
                globals_.extend(self.parse_declarators(base, GLOBAL_SCOPE, name_tok))

        for fn, body_start, scope_id, frame in pending:
            self.pos = body_start
            self.cur_ret = fn.ret_type
            fn.body = self.parse_block_body(scope_id, frame)
            if not fn.body.stmts or not isinstance(fn.body.stmts[-1], Return):
                self.fail(
                    E_MISSING_RETURN,
                    f"function {fn.name!r} must end with a return statement",
                    self.toks[body_start],
                )

        self._check_main(functions)
        for name, tok in self.called.items():
            if not self.sigs[name].defined:
                self.fail(
                    E_UNDECLARED,
                    f"function {name!r} is declared but never defined",
                    tok,
                )
        return Program(globals_, functions)

    def _parse_function_header(self, ret_type: str, name_tok: _Token):
        """Parse params and either a prototype (returns None) or a
        definition (returns (Function, body-start token index, the
        body's scope id, frame))."""
        self.expect_punct("(")
        params: list[VarDecl] = []
        param_types: list[str] = []
        named = True
        if not self.take_punct(")"):
            if self.at_word("void") and self.toks[self.pos + 1].text == ")":
                self.advance()
                self.expect_punct(")")
            else:
                while True:
                    ptype = self.parse_type()
                    param_types.append(ptype)
                    if self.cur().kind == "ident" and self.cur().text not in KEYWORDS:
                        pname = self.advance()
                        params.append(VarDecl(pname.text, ptype, -1))
                    else:
                        named = False
                    if not self.take_punct(","):
                        break
                self.expect_punct(")")

        sig = self.sigs.get(name_tok.text)
        if sig is not None and (
            sig.ret_type != ret_type or sig.param_types != tuple(param_types)
        ):
            self.fail(
                E_TYPE,
                f"conflicting declaration of {name_tok.text!r} "
                f"(previous at {sig.line}:{sig.col})",
                name_tok,
            )
        if sig is None:
            sig = _FuncSig(ret_type, tuple(param_types), name_tok.line, name_tok.col)
            self.sigs[name_tok.text] = sig

        if self.take_punct(";"):  # prototype only
            return None

        if not self.at_punct("{"):
            self.fail(E_SYNTAX, "expected ';' or a function body")
        if sig.defined:
            self.fail(E_DUPLICATE, f"function {name_tok.text!r} already defined", name_tok)
        if not named or len(params) != len(param_types):
            self.fail(E_SYNTAX, "parameter names are required in a definition", name_tok)
        sig.defined = True

        scope_id = next(self.scope_ids)
        frame: dict[str, VarDecl] = {}
        for p in params:
            if p.name in frame:
                self.fail(E_DUPLICATE, f"duplicate parameter {p.name!r}", name_tok)
            p.scope_id = scope_id
            frame[p.name] = p

        body_start = self.pos
        self._skip_braces()
        fn = Function(name_tok.text, ret_type, params, None)  # type: ignore[arg-type]
        return fn, body_start, scope_id, frame

    def _skip_braces(self) -> None:
        depth = 0
        while True:
            t = self.advance()
            if t.kind == "eof":
                raise ParseError(E_SYNTAX, "unexpected end of input in function body",
                                 t.line, t.col)
            if t.kind == "punct" and t.text == "{":
                depth += 1
            elif t.kind == "punct" and t.text == "}":
                depth -= 1
                if depth == 0:
                    return

    def _check_main(self, functions: list[Function]) -> None:
        main = next((f for f in functions if f.name == "main"), None)
        if main is None:
            raise ParseError(E_NO_MAIN, "program has no main function")
        if main.ret_type != INT or main.params:
            raise ParseError(
                E_TYPE, "main must take no parameters and return int"
            )


def parse(source: str) -> Program:
    """Parse MiniC source into a resolved Program.

    Raises ParseError (with .kind, .line, .col) on any syntax or
    semantic-rule violation.
    """
    return _Parser(_lex(source)).parse_program()
