"""Parser, interpreter, and renderer behavior, including cross-checks
against system C compilers when present."""

import dataclasses
import math
import re
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spe.minilang import ParseError, ast, parse, render
from spe.minilang.ast import BINARY_PREC, INT_MAX, INT_MIN, UINT_MAX
from spe.minilang.interp import CYCLE_SAMPLE_STEPS, DEFAULT_STEP_BUDGET, Status, UBKind, _compile, interpret
from spe.minilang.parser import (
    E_BAD_PRINTF,
    E_DECL_AFTER_STMT,
    E_DUPLICATE,
    E_INIT_NOT_CONST,
    E_MISSING_RETURN,
    E_NESTING,
    E_NO_MAIN,
    E_RANGE,
    E_SYNTAX,
    E_TYPE,
    E_UNDECLARED,
    _TOKEN,
)
from spe.skeleton import extract

import conftest
from conftest import LOOP_SRC, SCOPED_SRC, BRANCH_SRC, random_source
from oracles import c_constant, program_key, reference_interpret, structurally_equal


def wrap(body: str) -> str:
    return "int main(void) {\n" + body + "\n    return 0;\n}\n"


# The fixtures' own characters, and non-ASCII letters, digits, spaces
# and symbols: C89 refuses all of these outside comments
NON_ASCII = "\u00e9\u00df\u00b2\u0661\u00bd\u00a0\u0085\u2028\u3000\u20ac\U0001f600"
CORPUS_ALPHABET = sorted(set(LOOP_SRC + SCOPED_SRC + BRANCH_SRC + NON_ASCII + '/"#\\'))
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


@st.composite
def mutated_fixtures(draw):
    """A fixture with one to three characters inserted, replaced or
    deleted; new characters come from the alphabet above or anywhere."""
    src = draw(st.sampled_from((LOOP_SRC, SCOPED_SRC, BRANCH_SRC)))
    chars = st.one_of(st.sampled_from(CORPUS_ALPHABET), st.characters())
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(src)))
        cut = draw(st.integers(0, 1))
        src = src[:i] + draw(st.one_of(st.just(""), chars)) + src[i + cut :]
    return src


class TestParser:
    def test_fixture_round_trips(self):
        for src in (LOOP_SRC, SCOPED_SRC, BRANCH_SRC):
            p = parse(src)
            again = parse(render(p))
            assert render(again) == render(p)
            assert structurally_equal(p, again)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_random_round_trips(self, seed):
        p = parse(random_source(seed))
        assert render(parse(render(p))) == render(p)

    @given(st.one_of(st.text(st.sampled_from(CORPUS_ALPHABET)), mutated_fixtures()))
    @example("a = 2\u00b2;")
    @example(wrap("    return \u0661;"))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_any_text_parses_or_raises_parse_error(self, src):
        try:
            p = parse(src)
        except ParseError:
            return
        # only comments may hold characters outside ASCII
        assert COMMENT.sub("", src).isascii()
        out = render(p)
        assert render(parse(out)) == out

    def test_shadowing_parses(self):
        from conftest import SHADOW_SRC

        p = parse(SHADOW_SRC)
        assert interpret(p).exit_code == 1  # outer g untouched by inner g

    def test_prototypes_and_call_order(self):
        src = """
int helper(int x);

int main(void) {
    int r;
    r = helper(3);
    return r;
}

int helper(int x) {
    return x + 1;
}
"""
        assert interpret(parse(src)).exit_code == 4

    def test_literal_bounds(self):
        parse(wrap(f"    int x;\n    x = {INT_MAX};"))
        parse(wrap(f"    unsigned u;\n    u = {UINT_MAX}u;"))
        with pytest.raises(ParseError) as e:
            parse(wrap(f"    int x;\n    x = {INT_MAX + 1};"))
        assert e.value.kind == E_RANGE
        with pytest.raises(ParseError) as e:
            parse(wrap(f"    unsigned u;\n    u = {UINT_MAX + 1}u;"))
        assert e.value.kind == E_RANGE

    def test_literals_of_any_length(self):
        # int() refuses to read thousands of digits
        with pytest.raises(ParseError) as e:
            parse(wrap("    int x;\n    x = " + "9" * 5000 + ";"))
        assert (e.value.kind, e.value.line, e.value.col) == (E_RANGE, 3, 9)
        assert interpret(parse(wrap("    return " + "0" * 5000 + "7u == 7u;"))).exit_code == 1

    def test_int_min_initializer_folds(self):
        p = parse(f"int g = -{INT_MAX} - 1;\n" + wrap("    g = g;"))
        assert p.globals[0].init == INT_MIN

    @pytest.mark.parametrize(
        "init,col",
        [
            ("99999999999 - 99999999998", 9),
            (f"-{INT_MAX + 1}", 10),
            (f"1 + ({INT_MAX + 1} - 1)", 14),
            (f"{UINT_MAX + 1}u - 1u", 9),
        ],
    )
    def test_initializer_literals_are_range_checked(self, init, col):
        # grammar rule 5 holds inside constant expressions too, even when
        # the folded value would fit
        with pytest.raises(ParseError) as e:
            parse(f"int g = {init};\n" + wrap(""))
        assert (e.value.kind, e.value.line, e.value.col) == (E_RANGE, 1, col)

    @pytest.mark.parametrize(
        "decl,value",
        [
            (f"int g = -{INT_MAX} - 1;", INT_MIN),
            (f"int g = {INT_MAX};", INT_MAX),
            (f"unsigned g = {UINT_MAX}u;", UINT_MAX),
            (f"unsigned g = {INT_MAX}u + 1u;", INT_MAX + 1),
        ],
    )
    def test_extreme_initializers_round_trip(self, decl, value):
        p = parse(decl + "\n" + wrap("    g = g;"))
        assert p.globals[0].init == value
        out = render(p)
        # plain literals (no u suffix) stay within int, as rule 5 demands
        assert all(int(n) <= INT_MAX for n in re.findall(r"\b\d+\b", out))
        again = parse(out)
        assert again.globals[0].init == value
        assert structurally_equal(p, again) and render(again) == out

    @pytest.mark.parametrize(
        "source,kind",
        [
            ("int main(void) { int x return 0; }", E_SYNTAX),
            (wrap("    int x;\n    x = 1;\n    int y;"), E_DECL_AFTER_STMT),
            ("int g;\nint main(void) { g = 1; return 0; }\nint h = 2;", E_DECL_AFTER_STMT),
            (wrap("    int x;\n    int y = x;"), E_INIT_NOT_CONST),
            (wrap("    y = 1;"), E_UNDECLARED),
            (wrap("    int x;\n    unsigned u;\n    x = x + u;"), E_TYPE),
            (wrap("    int x;\n    int x;"), E_DUPLICATE),
            ("int helper(void) { return 0; }", E_NO_MAIN),
            (wrap('    printf("%s", 1);'), E_BAD_PRINTF),
            (wrap('    unsigned u;\n    printf("%d", u);'), E_BAD_PRINTF),
            ("int main(void) { int x;\n x = 1; }", E_MISSING_RETURN),
            ("int g = 1 / 0;\nint main(void) { return 0; }", E_RANGE),
            (wrap("    int x;\n    x = main;"), E_TYPE),
            ("int f(void) { return 0; }\n" + wrap("    int x;\n    x = f(1);"), E_TYPE),
        ],
    )
    def test_error_kinds(self, source, kind):
        with pytest.raises(ParseError) as e:
            parse(source)
        assert e.value.kind == kind

    @pytest.mark.parametrize(
        "source,kind,line,col",
        [
            (wrap("    int x;\n    unsigned u;\n    x = x == u;"), E_TYPE, 4, 11),
            (wrap("    int x;\n    unsigned u;\n    x = x < u;"), E_TYPE, 4, 11),
            (wrap("    int x;\n    unsigned u;\n    x = x + u;"), E_TYPE, 4, 11),
            (wrap("    int x;\n    unsigned u;\n    x = x * u;"), E_TYPE, 4, 11),
            # the tighter operator is checked first, at its own token
            (wrap("    int x;\n    unsigned u;\n    x = x + x * u;"), E_TYPE, 4, 15),
            # an arithmetic result keeps its operands' type
            (wrap("    int x;\n    unsigned u;\n    x = u + u == x;"), E_TYPE, 4, 15),
            ("int g = 1 / (2 - 2);\n" + wrap(""), E_RANGE, 1, 11),
            # an initializer folds by the rules of expressions, so no
            # constant wraps, overflows or mixes the types on the way
            ("unsigned u = (0u - 2u) / 2u + 1u;\n" + wrap(""), E_RANGE, 1, 18),
            ("int x = (2147483647 + 1) / 2;\n" + wrap(""), E_RANGE, 1, 21),
            # a % b is undefined when a / b overflows, whatever a % b is
            ("int g = (-2147483647 - 1) % -1;\n" + wrap(""), E_RANGE, 1, 27),
            ("unsigned u = 3u - 2;\n" + wrap(""), E_TYPE, 1, 17),
            # initializers take the arithmetic operators only
            ("int g = 1 == 1;\n" + wrap(""), E_SYNTAX, 1, 11),
        ],
    )
    def test_operator_errors(self, source, kind, line, col):
        with pytest.raises(ParseError) as e:
            parse(source)
        assert (e.value.kind, e.value.line, e.value.col) == (kind, line, col)

    @pytest.mark.parametrize(
        "source,message,line,col",
        [
            (wrap("    /* open"), "unterminated comment", 2, 5),
            (wrap('    printf("%d\n'), "unterminated string literal", 2, 12),
            (wrap('    printf("%d'), "unterminated string literal", 2, 12),
            (wrap('    printf("%d\\t", 1);'), "unsupported escape in string literal", 2, 12),
            (wrap("    int x = 12x;"), "malformed number literal", 2, 13),
            (wrap("    int x = 1uu;"), "malformed number literal", 2, 13),
            (wrap("    int x = 1.5;"), "malformed number literal", 2, 13),
            ("#include <stdlib.h>\n" + wrap(""), "unsupported preprocessor directive: '#include <stdlib.h>'", 1, 1),
            (wrap("    int x;\n    x = 1 @ 2;"), "unexpected character '@'", 3, 11),
            (wrap("    int x;\n    x = 1 & 2;"), "unexpected character '&'", 3, 11),
            # outside comments, characters beyond ASCII are refused where they stand
            (wrap("    int x = 1\u00e9;"), "malformed number literal", 2, 13),
            (wrap("    int \u00e9;"), "unexpected character '\u00e9'", 2, 9),
            (wrap("    return \u0661;"), "unexpected character '\u0661'", 2, 12),
            (wrap('    printf("%d\u00e9", 1);'), "unexpected character '\u00e9'", 2, 15),
            ("#include\u00a0<stdio.h>\n" + wrap(""), "unexpected character '\\xa0'", 1, 9),
            ("#include <stdio.h> \u00e9\n" + wrap(""), "unexpected character '\u00e9'", 1, 20),
            # the directive is spelt token by token, as gcc -std=c89 reads it
            ("#inc lude <std io.h>\n" + wrap(""), "unsupported preprocessor directive: '#inc lude <std io.h>'", 1, 1),
            ("#include\x1c<stdio.h>\n" + wrap(""), "unsupported preprocessor directive: '#include\\x1c<stdio.h>'", 1, 1),
            ("#include < stdio.h >\n" + wrap(""), "unsupported preprocessor directive: '#include < stdio.h >'", 1, 1),
            # ... and starts its line
            ("int main(void) { return 0; } #include <stdio.h>\n", "stray '#' in program", 1, 30),
            (wrap("    int x; #include <stdio.h>"), "stray '#' in program", 2, 12),
        ],
    )
    def test_lexical_errors(self, source, message, line, col):
        with pytest.raises(ParseError) as e:
            parse(source)
        assert (e.value.kind, e.value.message, e.value.line, e.value.col) == (E_SYNTAX, message, line, col)

    @pytest.mark.parametrize(
        "directive",
        ["#include <stdio.h>", "# include <stdio.h>", "#include<stdio.h>", "\t#include\t<stdio.h> \t",
         "/* c */ #include <stdio.h>", "/* c\n */ #include <stdio.h>"],
    )
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_include_spellings(self, directive, newline):
        # every spelling here compiles with gcc -std=c89
        source = (directive + "\n" + wrap("    printf(\"%d\", 1);")).replace("\n", newline)
        assert render(parse(source)) == render(parse(wrap("    printf(\"%d\", 1);")))

    def test_end_of_input_is_where_the_text_ends(self):
        # also after a final // comment, whose start was reported before
        with pytest.raises(ParseError) as e:
            parse("int main(void) { return 0; // end")
        assert (e.value.line, e.value.col) == (1, 34)

    @pytest.mark.parametrize(
        "negated, ascii",
        [
            (r"[^\n\x80-\U0010ffff]", r"[\x00-\x09\x0b-\x7f]"),
            (r'[^"\\\n\x80-\U0010ffff]', r"[\x00-\x09\x0b-\x21\x23-\x5b\x5d-\x7f]"),
        ],
        ids=["directive", "string-body"],
    )
    def test_token_classes_are_ascii_ranges(self, negated, ascii):
        # the token pattern spells as ASCII ranges the classes that
        # exclude everything past ASCII, which compile far slower
        assert ascii in _TOKEN.pattern
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(ascii, every) == re.findall(negated, every)

    @pytest.mark.parametrize("expr", ["x && u", "u || x", "(u < u) + x"])
    def test_logical_and_comparison_results_mix(self, expr):
        p = parse(wrap(f"    int x = 1;\n    unsigned u = 2u;\n    x = {expr};"))
        assert interpret(p).status is Status.OK

    def test_initializer_may_not_fold_past_int_max(self):
        # C's int overflow is undefined even where a later step would
        # bring the value back into range
        with pytest.raises(ParseError) as e:
            parse("int g = 2147483647 + 1 - 1;\n" + wrap(""))
        assert (e.value.kind, e.value.line, e.value.col) == (E_RANGE, 1, 20)

    @pytest.mark.parametrize("expr,value", [("10 - 3 - 2", 5), ("100 / 10 / 5", 2)])
    def test_left_associative(self, expr, value):
        assert interpret(parse(wrap(f"    return {expr};"))).exit_code == value
        initialized = f"int g = {expr};\n" + wrap("    return g;")
        assert interpret(parse(initialized)).exit_code == value

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as e:
            parse("int main(void) {\n    y = 1;\n    return 0;\n}\n")
        assert e.value.line == 2

    def test_condition_only_blocks_allowed(self):
        # single-statement bodies parse; declarations need braces
        p = parse(wrap("    int x = 1;\n    if (x)\n        x = 0;\n    while (x)\n        x = 0;"))
        assert interpret(p).exit_code == 0

    def test_mixed_comparison_rejected(self):
        with pytest.raises(ParseError) as e:
            parse(wrap("    int x;\n    unsigned u;\n    x = x < u;"))
        assert e.value.kind == E_TYPE

    def test_logical_ops_accept_both_types(self):
        src = wrap(
            "    int x = 1;\n    unsigned u = 2u;\n    if (x && u) {\n        x = 0;\n    }"
        )
        assert interpret(parse(src)).exit_code == 0


def _with_f(body: str) -> str:
    return "int f(int p) {\n    return p;\n}\n\n" + wrap("    int x = 1;\n    " + body)


# One statement at nesting depth n, for each way of nesting.
_NESTED = {
    "parentheses": lambda n: "x = " + "(" * n + "x" + ")" * n + ";",
    "unary": lambda n: "x = " + "-" * n + "x;",
    "operators": lambda n: "x = x" + " - x" * n + ";",
    "calls": lambda n: "x = " + "f(" * n + "x" + ")" * n + ";",
    "blocks": lambda n: "{" * n + "x = x;" + "}" * n,
    "conditions": lambda n: "if (x) " * n + "x = -(x + x);",
}


class TestNesting:
    @pytest.mark.parametrize(
        "body",
        [
            "    x = " + "(" * 300 + "x" + ")" * 300 + ";",
            "    x = " + "-" * 1000 + "x;",
            "{" * 500 + "}" * 500,
        ],
        ids=["parentheses", "unary", "blocks"],
    )
    def test_too_deep_is_a_parse_error(self, body):
        with pytest.raises(ParseError) as e:
            parse(wrap("    int x = 1;\n" + body))
        assert e.value.kind == E_NESTING

    @pytest.mark.parametrize("shape", sorted(_NESTED))
    def test_deepest_accepted_program_is_walked_within_the_recursion_limit(self, shape):
        for n in range(1, 400):
            try:
                parse(_with_f(_NESTED[shape](n + 1)))
            except ParseError as e:
                assert e.kind == E_NESTING
                break
        else:
            pytest.fail("no nesting limit below 400 levels")
        assert sys.getrecursionlimit() <= 1000
        p = parse(_with_f(_NESTED[shape](n)))
        again = parse(render(p))
        assert program_key(again) == program_key(p)
        extract(p)
        assert interpret(p).status is Status.OK


class TestInterpreter:
    def run_main(self, body: str):
        return interpret(parse(wrap(body)))

    def test_uninitialized_read_is_ub(self):
        res = self.run_main("    int x;\n    int y;\n    y = x;")
        assert res.status is Status.UNDEFINED_BEHAVIOR
        assert res.ub_kind is UBKind.UNINIT_READ

    def test_globals_are_zero_initialized(self):
        res = interpret(parse("int g;\nint main(void) { return g + 1; }"))
        assert res.status is Status.OK and res.exit_code == 1

    def test_division_by_zero_is_ub(self):
        res = self.run_main("    int x = 0;\n    x = 1 / x;")
        assert res.status is Status.UNDEFINED_BEHAVIOR
        assert res.ub_kind is UBKind.DIV_BY_ZERO

    def test_signed_overflow_is_ub(self):
        res = self.run_main(f"    int x = {INT_MAX};\n    x = x + 1;")
        assert res.status is Status.UNDEFINED_BEHAVIOR
        assert res.ub_kind is UBKind.SIGNED_OVERFLOW

    def test_int_min_div_minus_one_is_ub(self):
        res = self.run_main(f"    int x = -{INT_MAX} - 1;\n    x = x / -1;")
        assert res.status is Status.UNDEFINED_BEHAVIOR

    def test_unsigned_wraps(self):
        res = self.run_main(
            f'    unsigned u = {UINT_MAX}u;\n    u = u + 1u;\n    if (u == 0u) {{\n        return 9;\n    }}'
        )
        assert res.status is Status.OK and res.exit_code == 9

    def test_truncating_division(self):
        res = self.run_main("    int x = -7;\n    return x / 2;")
        # C89 allows either direction but modern practice truncates; -7/2 == -3
        assert res.exit_code == (-3) & 0xFF

    def test_modulo_sign(self):
        res = self.run_main("    int x = -7;\n    return x % 3 + 10;")
        assert res.exit_code == 9  # -7 % 3 == -1 under truncation

    def test_exit_code_masked(self):
        assert self.run_main("    return 256;").exit_code == 0
        assert self.run_main("    return -1;").exit_code == 255
        assert self.run_main("    return 300;").exit_code == 44

    def test_printf_stream(self):
        res = self.run_main('    int x = -5;\n    printf("%d", x);\n    printf("%d\\n", x + 1);')
        assert res.stdout == "-5-4\n"

    def test_short_circuit(self):
        res = self.run_main("    int x = 0;\n    int y = 1;\n    y = x && 1 / x;")
        assert res.status is Status.OK and res.exit_code == 0

    def test_while_loop(self):
        res = self.run_main(
            '    int i = 0;\n    int s = 0;\n    while (i < 5) {\n        s = s + i;\n        i = i + 1;\n    }\n    return s;'
        )
        assert res.exit_code == 10

    def test_step_budget_exhaustion(self):
        res = interpret(parse(wrap("    int x = 1;\n    while (x) {\n        x = 1;\n    }")))
        assert res.status is Status.STEP_BUDGET_EXHAUSTED
        assert res.steps_used >= DEFAULT_STEP_BUDGET

    def test_custom_budget(self):
        res = interpret(
            parse(wrap("    int x = 1;\n    while (x) {\n        x = 1;\n    }")),
            step_budget=500,
        )
        assert res.status is Status.STEP_BUDGET_EXHAUSTED

    def test_recursion(self):
        src = """
int fact(int n) {
    if (n < 2) {
        return 1;
    }
    return n * fact(n - 1);
}

int main(void) {
    return fact(5);
}
"""
        assert interpret(parse(src)).exit_code == 120

    def test_runaway_recursion_hits_budget(self):
        src = """
int spin(int n) {
    return spin(n + 1);
}

int main(void) {
    return spin(0);
}
"""
        res = interpret(parse(src))
        assert res.status is Status.STEP_BUDGET_EXHAUSTED

    def test_deep_recursion_hits_budget(self):
        # many interpreter frames per level: the interpreter's own frame
        # budget ends the recursion, the same way from any caller's stack
        src = """
int f(int n) {
    if (n) {
        return f(n - 1) + 1;
    }
    return 0;
}

int main(void) {
    return f(150);
}
"""
        first = interpret(parse(src))
        assert first.status is Status.STEP_BUDGET_EXHAUSTED

        def from_deeper(depth: int):
            return from_deeper(depth - 1) if depth else interpret(parse(src))

        assert interpret(parse(src)) == first
        assert from_deeper(200) == first

    def test_stdout_kept_on_ub(self):
        res = self.run_main('    int x;\n    printf("%d", 1);\n    x = x + 1;')
        assert res.status is Status.UNDEFINED_BEHAVIOR
        assert res.stdout == "1"


# Boundary operands per type, and how an initializer spells each.
MATRIX_OPERANDS = {
    "int": [INT_MIN, -1, 0, 1, 2, INT_MAX],
    "unsigned": [0, 1, 2, 2 ** 31, UINT_MAX - 1, UINT_MAX],
}
_UINT_MOD = 2 ** 32
_ARITHMETIC = ("+", "-", "*", "/", "%")


def _literal(type_: str, v: int) -> str:
    if type_ == "unsigned":
        return f"{v}u"
    return f"(-{INT_MAX} - 1)" if v == INT_MIN else f"({v})"


def _exact(op: str, a: int, b: int) -> Optional[int]:
    """The mathematical value of arithmetic `a op b`, None for a zero
    divisor. C99 6.5.5: the quotient truncates toward zero."""
    if op in ("/", "%"):
        if b == 0:
            return None
        q = math.trunc(Fraction(a, b))
        return q if op == "/" else a - b * q
    return {"+": a + b, "-": a - b, "*": a * b}[op]


def c_result(op: str, type_: str, a: int, b: Optional[int] = None):
    """(UB kind or None, value) of `a op b`, or of `op a` when b is None,
    in C at type_ ("int" or "unsigned"), computed here from the C
    standard rather than by the interpreter's code."""
    if b is None:
        if op == "!":
            return None, int(a == 0)
        exact = -a
    elif op in ("&&", "||"):
        return None, int(bool(a) and bool(b)) if op == "&&" else int(bool(a) or bool(b))
    elif op in ("==", "!=", "<", "<=", ">", ">="):
        compare = {"==": a == b, "!=": a != b, "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}
        return None, int(compare[op])
    elif op in ("/", "%") and b == 0:
        return UBKind.DIV_BY_ZERO, None
    elif op in ("/", "%") and type_ == "int" and (a, b) == (INT_MIN, -1):
        # a % b is undefined whenever a / b is not representable
        return UBKind.SIGNED_DIV_OVERFLOW, None
    else:
        exact = _exact(op, a, b)
    if type_ == "unsigned":
        return None, exact % _UINT_MOD
    if not INT_MIN <= exact <= INT_MAX:
        return UBKind.SIGNED_OVERFLOW, None
    return None, exact


def _check_matrix_cell(op: str, type_: str, a: int, b: Optional[int], expr: str):
    """Run `printf("%d\\n", expr)` with a and b declared at type_; an
    unsigned result is printed as its comparison with the expected value."""
    kind, value = c_result(op, type_, a, b)
    unsigned_result = type_ == "unsigned" and op in _ARITHMETIC
    if unsigned_result:
        expr = f"({expr}) == {value or 0}u"
    decls = f"    {type_} a = {_literal(type_, a)};\n"
    if b is not None:
        decls += f"    {type_} b = {_literal(type_, b)};\n"
    p = parse(wrap(decls + f'    printf("%d\\n", {expr});'))
    res = interpret(p)
    cell = f"{op} at {type_} on {(a, b)}"
    assert res == reference_interpret(p), cell
    if kind is not None:
        assert (res.status, res.ub_kind, res.stdout) == (Status.UNDEFINED_BEHAVIOR, kind, ""), cell
    else:
        shown = 1 if unsigned_result else value
        assert (res.status, res.stdout, res.exit_code) == (Status.OK, f"{shown}\n", 0), cell


class TestOperatorMatrix:
    """Every operator at both types on boundary operands: the compiled
    interpreter agrees with the reference and with C."""

    @pytest.mark.parametrize("type_", sorted(MATRIX_OPERANDS))
    @pytest.mark.parametrize("op", sorted(BINARY_PREC))
    def test_binary(self, op, type_):
        operands = MATRIX_OPERANDS[type_]
        for a in operands:
            for b in operands:
                _check_matrix_cell(op, type_, a, b, f"a {op} b")

    @pytest.mark.parametrize("type_", sorted(MATRIX_OPERANDS))
    @pytest.mark.parametrize("op", ["-", "!"])
    def test_unary(self, op, type_):
        for a in MATRIX_OPERANDS[type_]:
            _check_matrix_cell(op, type_, a, None, f"{op}a")

    @pytest.mark.parametrize("type_", sorted(MATRIX_OPERANDS))
    @pytest.mark.parametrize("op", _ARITHMETIC)
    def test_constant_folder(self, op, type_):
        # an initializer's operator folds to its exact value, which must
        # lie in its operands' type, here also the declared type; a % b
        # also needs a / b to lie there, as C leaves it undefined otherwise
        lo, hi = (INT_MIN, INT_MAX) if type_ == "int" else (0, UINT_MAX)
        operands = MATRIX_OPERANDS[type_]
        for a in operands:
            for b in operands:
                source = f"{type_} g = {_literal(type_, a)} {op} {_literal(type_, b)};\n" + wrap("")
                exact = _exact(op, a, b)
                quotient = _exact("/", a, b) if op == "%" else exact
                if exact is None or not lo <= exact <= hi or not lo <= quotient <= hi:
                    with pytest.raises(ParseError) as e:
                        parse(source)
                    assert e.value.kind == E_RANGE, (op, a, b)
                else:
                    assert parse(source).globals[0].init == exact, (op, a, b)


# Each C type's range, and literals at and near its edges, for constant
# initializers.
C_RANGE = {"int": (INT_MIN, INT_MAX), "unsigned": (0, UINT_MAX)}
INIT_LITERALS = {
    "int": ["0", "1", "2", "7", str(INT_MAX)],
    "unsigned": ["0u", "1u", "2u", "7u", f"{INT_MAX}u", f"{UINT_MAX}u"],
}


def constant_exprs(literals: list[str], depth: int):
    """Constant expressions over literals, with at most depth operators,
    unary minus and parentheses nested."""
    leaf = st.sampled_from(literals)
    if depth == 0:
        return leaf
    sub = constant_exprs(literals, depth - 1)
    return st.one_of(
        leaf,
        sub.map(lambda e: f"({e})"),
        sub.map(lambda e: f"- {e}" if e.startswith("-") else f"-{e}"),  # never "--"
        st.tuples(sub, st.sampled_from(_ARITHMETIC), sub).map(" ".join),
    )


@st.composite
def constant_initializers(draw):
    """(declared type, initializer) of depth at most 3, its literals of
    one type or of both."""
    type_ = draw(st.sampled_from(sorted(INIT_LITERALS)))
    literals = draw(st.sampled_from([*INIT_LITERALS.values(), sum(INIT_LITERALS.values(), [])]))
    return type_, draw(constant_exprs(literals, 3))


class TestConstantInitializers:
    @given(constant_initializers())
    @example(("unsigned", "(0u - 2u) / 2u + 1u"))
    @example(("int", "(2147483647 + 1) / 2"))
    @example(("int", "(-2147483647 - 1) % -1"))
    @settings(max_examples=400, deadline=None)
    def test_fold_is_cs_value_or_refused(self, init):
        # parse refuses exactly the initializers whose value C reaches
        # only by wrapping, overflowing or converting, or that do not fit
        # the declared type; every other one holds C's value
        type_, expr = init
        _, value, clean = c_constant(expr)
        lo, hi = C_RANGE[type_]
        try:
            folded = parse(f"{type_} g = {expr};\n" + wrap("")).globals[0].init
        except ParseError as e:
            assert e.kind in (E_RANGE, E_TYPE), e
            assert not (clean and lo <= value <= hi)
        else:
            assert clean and folded == value


# Hand-written programs for the compiled-against-reference check: each
# covers constructs or outcomes that random_source does not generate.
REFERENCE_PROGRAMS = {
    "calls_and_recursion": """
int g;

int fact(int n) {
    if (n < 2) {
        return 1;
    }
    return n * fact(n - 1);
}

int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}

int bump(int by) {
    g = g + by;
    return g;
}

int main(void) {
    bump(3);
    bump(fact(3));
    printf("%d\\n", g);
    return fact(5) + fib(7);
}
""",
    "frame_budget_probe": """
int f(int n) {
    if (n) {
        return f(n - 1) + 1;
    }
    return 0;
}

int main(void) {
    return f(150);
}
""",
    "shallow_recursion": """
int f(int n) {
    if (n) {
        return f(n - 1) + 1;
    }
    return 0;
}

int main(void) {
    return f(20);
}
""",
    "work_after_return": """
int f(int n) {
    int r = 0;
    if (n) {
        r = f(n - 1);
    }
    r = r + n - n + n - n;
    return r;
}

int main(void) {
    return f(30);
}
""",
    "printf": """
int main(void) {
    int x = -5;
    printf("%d", x);
    printf("%d\\n", x + 1);
    printf("%d", 0);
    printf("%d\\n", 2147483647);
    return 0;
}
""",
    "unsigned_wrap": """
unsigned big = 4294967295u;

int main(void) {
    unsigned u = 0u;
    unsigned v;
    u = u - 1u;
    v = big * big;
    u = u + big;
    v = -v;
    if (u / 7u == 613566756u) {
        printf("%d\\n", 1);
    }
    if (v % 10u != 1u) {
        return 1;
    }
    return 0;
}
""",
    "comparisons_and_not": """
int main(void) {
    int a = 3;
    int b = -4;
    unsigned c = 3u;
    unsigned d = 7u;
    printf("%d", (a == b) + (a != b) * 2 + (a < b) * 4 + (a <= b) * 8);
    printf("%d", (a > b) + (a >= b) * 2 + !a * 4 + !(a - a) * 8);
    printf("%d\\n", (c < d) + (c >= d) * 2 + (c == c) * 4 + (d != c) * 8);
    return -a / 2 + b % 3 + 7 / -2 + -7 % 2;
}
""",
    "short_circuit": """
int main(void) {
    int x = 0;
    int y = 1;
    y = x && 1 / x;
    y = y + (1 || 1 / x);
    y = y + (x || 3) + (2 && 5) + (x && 1) + (x || x);
    return y;
}
""",
    "globals": """
int g;
int h = 5;
unsigned w;

int set(int v) {
    h = v;
    return h;
}

int main(void) {
    g = g + h;
    set(g * 2);
    w = w - 1u;
    if (w == 4294967295u) {
        return g + h;
    }
    return 0;
}
""",
    "nested_blocks": """
int main(void) {
    int x = 1;
    int i = 0;
    {
        int y = 2;
        {
            int z;
            z = x + y;
            x = z;
        }
    }
    while (i < 3) {
        int k = 10;
        int m;
        m = k + i;
        k = m;
        i = i + 1;
        x = x + k;
    }
    {
    }
    return x;
}
""",
    "return_from_loop": """
int first_over(int limit) {
    int i = 0;
    while (1) {
        if (i * i > limit) {
            return i;
        } else {
            i = i + 1;
        }
    }
    return -1;
}

int main(void) {
    return first_over(50);
}
""",
    "endless_loop": """
int main(void) {
    int a = 10;
    int b = 0;
    while (a) {
        a = a - b;
    }
    return 0;
}
""",
    # the loops below never end, and each repeats its state at the loop
    # head, so the interpreter fast-forwards them
    "cycle_printf": """
int main(void) {
    int a = 1;
    int b = 0;
    while (a) {
        printf("%d", b);
        b = a - b;
        printf("%d\\n", a + b);
    }
    return 0;
}
""",
    "cycle_global_through_call": """
int g;

int flip(int x) {
    g = x - g;
    return g;
}

int main(void) {
    int a = 3;
    while (a) {
        flip(a);
    }
    return g;
}
""",
    "cycle_in_callee": """
int spin(int n) {
    int k = 0;
    while (n) {
        k = n - k;
    }
    return k;
}

int main(void) {
    printf("%d\\n", 7);
    return spin(4) + 1;
}
""",
    "cycle_nested_outer_only": """
int main(void) {
    int i = 0;
    int t = 0;
    while (1) {
        i = 0;
        while (i < 3) {
            i = i + 1;
            t = t + i;
        }
        t = t - 6;
        printf("%d", i);
    }
    return t;
}
""",
    "cycle_block_decls": """
int main(void) {
    int a = 5;
    int b = 2;
    while (a) {
        int t;
        int u = 1;
        t = a;
        u = b - t;
        a = b - u;
        b = t;
    }
    return 0;
}
""",
    # the frame repeats at every loop head, but the global does not
    "counter_not_a_cycle": """
int g;

int tick(int by) {
    g = g + by;
    return g;
}

int main(void) {
    int a = 1;
    while (a) {
        printf("%d\\n", tick(a));
    }
    return 0;
}
""",
    # a period of three iterations and 33 steps
    "cycle_rotation": """
int main(void) {
    int a = 1;
    int b = 2;
    int c = 3;
    while (a) {
        int t;
        t = a;
        a = b;
        b = c;
        c = t;
    }
    return 0;
}
""",
    # the loops below move every variable they assign by a constant step,
    # so the interpreter jumps them ahead where nothing in between can end
    # them, overflow or wrap
    "count_up": """
int main(void) {
    int i = 0;
    int step = 3;
    while (i < 2000000000) {
        i = step + i;
    }
    return i;
}
""",
    "count_down": """
int main(void) {
    int n = 0;
    int low = -2000000000;
    while (n - 5 > low) {
        n = n - 5;
    }
    return n;
}
""",
    # reaches 0 after 2000 iterations, past the first sample
    "count_truth_reaches_zero": """
int main(void) {
    int v = 2000;
    while (v) {
        v = v - 1;
    }
    return 7;
}
""",
    # 1, then -2: the loop never ends
    "count_truth_skips_zero": """
int main(void) {
    int v = 1501;
    while (v) {
        v = v - 3;
    }
    return 0;
}
""",
    # u wraps past 0 on iteration 1501, and the loop ends 1295 later
    "count_unsigned_wrap": """
int main(void) {
    unsigned u = 1500u;
    while (u != 4294966000u) {
        u = u - 1u;
    }
    return 5;
}
""",
    "count_signed_overflow": """
int main(void) {
    int a = 2146608647;
    while (a > 0) {
        a = a + 700;
    }
    return 0;
}
""",
    # the guard turns false inside the first jump's range
    "count_guard_ends": """
int main(void) {
    int i = 0;
    while (i < 1500) {
        i = i + 1;
    }
    return i;
}
""",
    # a + b overflows long before a does
    "count_condition_sum_overflows": """
int main(void) {
    int a = 0;
    int b = 2147482647;
    while (a + b > 0) {
        a = a + 1;
    }
    return 0;
}
""",
    # u + 5u wraps to 0 when u is 4294967291u
    "count_condition_sum_wraps": """
int main(void) {
    unsigned u = 4294966095u;
    while (u + 5u > 3u) {
        u = u + 1u;
    }
    return 3;
}
""",
    "count_printf_constant": """
int main(void) {
    int a = 0;
    int k = 4;
    while (a >= 0) {
        printf("%d", k);
        a = a + 1;
        printf("%d\\n", k - 1);
    }
    return 0;
}
""",
    "count_global": """
int g = -1;

int main(void) {
    int s = 2;
    int t = 9;
    while (g != 0) {
        g = g + s;
        t = t - s;
    }
    return g;
}
""",
    # printing a moving variable prints something new each time: no jump
    "count_printf_moving": """
int main(void) {
    int i = 0;
    while (i < 2000000000) {
        printf("%d\\n", i);
        i = i + 1;
    }
    return 0;
}
""",
    "runaway_recursion": """
int spin(int n) {
    return spin(n + 1);
}

int main(void) {
    return spin(0);
}
""",
    "ub_uninit_read": """
int main(void) {
    int x;
    int y = 1;
    printf("%d", y);
    y = x;
    return y;
}
""",
    "ub_div_by_zero": """
int main(void) {
    int x = 0;
    x = 1 / x;
    return x;
}
""",
    "ub_mod_by_zero": """
int main(void) {
    int x = 0;
    x = 1 % x;
    return x;
}
""",
    "ub_unsigned_div_by_zero": """
int main(void) {
    unsigned u = 0u;
    u = 5u / u;
    return 0;
}
""",
    "ub_unsigned_mod_by_zero": """
int main(void) {
    unsigned u = 0u;
    u = 5u % u;
    return 0;
}
""",
    "ub_add_overflow": """
int main(void) {
    int x = 2147483647;
    x = x + 1;
    return 0;
}
""",
    "ub_sub_overflow": """
int main(void) {
    int x = -2147483647;
    x = x - 2;
    return 0;
}
""",
    "ub_mul_overflow": """
int main(void) {
    int x = 65536;
    x = x * x;
    return 0;
}
""",
    "ub_negate_int_min": """
int main(void) {
    int x = -2147483647 - 1;
    x = -x;
    return 0;
}
""",
    "ub_int_min_div_minus_one": """
int main(void) {
    int x = -2147483647 - 1;
    x = x / -1;
    return 0;
}
""",
    "ub_int_min_mod_minus_one": """
int main(void) {
    int x = -2147483647 - 1;
    x = x % -1;
    return 0;
}
""",
}


# Fields that hold a node but not a child: a variable's declaration
_NOT_CHILDREN = {(ast.Var, "decl")}


def _field_nodes(node) -> list:
    """The nodes node's fields hold, in field order, but for _NOT_CHILDREN."""
    found = []
    for f in dataclasses.fields(node):
        if (type(node), f.name) in _NOT_CHILDREN:
            continue
        value = getattr(node, f.name)
        for x in value if isinstance(value, list) else [value]:
            if dataclasses.is_dataclass(x) and type(x).__module__ == ast.__name__:
                found.append(x)
    return found


# The programs TestChildren walks, by name
_WALKED = {
    **{k: getattr(conftest, k) for k in vars(conftest) if k.endswith("_SRC")},
    **REFERENCE_PROGRAMS,
    **{f"random_source({seed})": random_source(seed) for seed in range(50)},
}


def _nodes(source: str):
    """Every node of the parsed source, through ast.children."""
    todo = [parse(source)]
    while todo:
        node = todo.pop()
        yield node
        todo += ast.children(node)


class TestChildren:
    """`ast.children` holds every node a node's fields hold, in source
    order, which for every node class is its field order, so that no walk
    through it can skip a field added later."""

    @pytest.mark.parametrize("name", sorted(_WALKED))
    def test_children_are_every_field_node_in_order(self, name):
        for node in _nodes(_WALKED[name]):
            assert list(map(id, ast.children(node))) == list(map(id, _field_nodes(node))), node

    def test_walked_programs_cover_every_node_class_and_else(self):
        nodes = [node for source in _WALKED.values() for node in _nodes(source)]
        classes = {
            c for c in vars(ast).values()
            if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == ast.__name__
        }
        assert {type(node) for node in nodes} == classes
        assert any(isinstance(node, ast.If) and node.orelse is not None for node in nodes)


@st.composite
def loop_programs(draw) -> str:
    """A main that runs one while loop over two or three int locals, with
    an optional global, helper call, printf, if and block local. Many of
    these loops never end, and many of those repeat their state or count
    by a constant step, which random_source's straight-line programs
    never do."""
    small = st.integers(0, 2)
    names = ["a", "b", "c"][: draw(st.integers(2, 3))]
    lines = []
    if draw(st.booleans()):
        names.append("g")
        lines += [f"int g = {draw(small)};", ""]
    use_call = draw(st.booleans())
    if use_call:
        helper = "    g = x - g;\n    return g;" if "g" in names else "    return x - 1;"
        lines += ["int h(int x) {", helper, "}", ""]
    lines.append("int main(void) {")
    for n in names:
        if n != "g":
            # mostly initialized, or nearly every loop reads one uninitialized
            init = "" if draw(st.integers(0, 4)) == 0 else f" = {draw(small)}"
            lines.append(f"    int {n}{init};")

    def operand(visible):
        return draw(st.sampled_from(visible + ["0", "1", "2"]))

    def value(visible):
        kind = draw(st.integers(0, 3 if use_call else 2))
        if kind == 0:
            return operand(visible)
        if kind == 1:
            return f"{operand(visible)} {draw(st.sampled_from('+-'))} {operand(visible)}"
        if kind == 2:
            return f"{operand(visible)} - {operand(visible)} - {operand(visible)}"
        return f"h({operand(visible)})"

    def stmt(visible, pad, nested):
        kind = draw(
            st.sampled_from(["assign", "assign", "count", "count", "printf"] + ["call"] * use_call + ["if"] * nested)
        )
        if kind == "assign":
            return [f"{pad}{draw(st.sampled_from(visible))} = {value(visible)};"]
        if kind == "count":  # the shape the interpreter jumps ahead
            v = draw(st.sampled_from(visible))
            return [f"{pad}{v} = {v} {draw(st.sampled_from('+-'))} {operand(visible)};"]
        if kind == "printf":
            end = draw(st.sampled_from(["", "\\n"]))
            return [f'{pad}printf("%d{end}", {operand(visible)});']
        if kind == "call":
            return [f"{pad}h({operand(visible)});"]
        return [f"{pad}if ({operand(visible)}) {{", *stmt(visible, pad + "    ", False), f"{pad}}}"]

    cond = draw(st.sampled_from(["{}", "{} != {}", "{} < {}", "{} > {}"]))
    lines.append(f"    while ({cond.format(operand(names), operand(names))}) {{")
    body_names = names
    if draw(st.booleans()):
        lines += ["        int t;", f"        t = {operand(names)};"]
        body_names = names + ["t"]
    for _ in range(draw(st.integers(1, 3))):
        lines += stmt(body_names, "        ", True)
    lines += ["    }", f"    return {names[0]};", "}", ""]
    return "\n".join(lines)


def check_against_reference(p, budget: int = DEFAULT_STEP_BUDGET):
    """Assert that interpret(p, budget) equals reference_interpret(p,
    budget), and return the latter. A mismatch names the fields that
    differ, and for stdout the first differing offset, because pytest's
    own diff of a long output takes minutes."""
    got, want = interpret(p, budget), reference_interpret(p, budget)
    if got != want:
        diffs = [
            f"{k}: {getattr(got, k)!r} != {getattr(want, k)!r}"
            for k in ("status", "exit_code", "steps_used", "ub_kind")
            if getattr(got, k) != getattr(want, k)
        ]
        a, b = got.stdout, want.stdout
        if a != b:
            at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            diffs.append(
                f"stdout of {len(a)} and {len(b)} chars differs at {at}: "
                f"{a[at:at + 20]!r} != {b[at:at + 20]!r}"
            )
        pytest.fail(f"budget {budget}: " + "; ".join(diffs))
    return want


def counting_calls(fn, *args):
    """fn(*args), and the number of Python calls it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        res = fn(*args)
    finally:
        sys.setprofile(None)
    return res, calls


class TestAgainstReference:
    """The compiled interpreter returns the same ExecResult as the
    tree-walking reference, steps_used and UB kind included."""

    def test_every_ub_kind_is_covered(self):
        kinds = {reference_interpret(parse(src)).ub_kind for src in REFERENCE_PROGRAMS.values()}
        assert kinds >= set(UBKind)

    @pytest.mark.parametrize("name", sorted(REFERENCE_PROGRAMS))
    def test_hand_written_program_at_every_budget(self, name):
        # every budget up to the step count ends the run at a different
        # step, so the two must tick in the same order to agree
        p = parse(REFERENCE_PROGRAMS[name])
        full = check_against_reference(p)
        for budget in range(1, min(full.steps_used, 300) + 2):
            check_against_reference(p, budget)

    @pytest.mark.parametrize("pad", range(4))
    def test_frame_budget_cuts_where_the_reference_does(self, pad):
        # each minus puts main's call two frames deeper; the probe's
        # recursion adds 8 per level, so one pad puts a call exactly on
        # MAX_FRAMES
        call = "-(" * pad + "f(150)" + ")" * pad
        p = parse(REFERENCE_PROGRAMS["frame_budget_probe"].replace("f(150)", call))
        assert interpret(p) == reference_interpret(p)

    @given(st.integers(0, 10_000), st.integers(1, 120))
    @settings(max_examples=200, deadline=None)
    def test_random_programs(self, seed, budget):
        p = parse(random_source(seed))
        assert interpret(p) == reference_interpret(p)
        assert interpret(p, budget) == reference_interpret(p, budget)

    @pytest.mark.parametrize(
        "name", sorted(n for n in REFERENCE_PROGRAMS if "cycle" in n or n.startswith("count_"))
    )
    def test_fast_forward_at_consecutive_budgets(self, name):
        # past where the cycle is found or the first jump is tried, and at
        # enough consecutive budgets for the run to end at every offset
        # into each loop's period or iteration
        p = parse(REFERENCE_PROGRAMS[name])
        start = 8 * CYCLE_SAMPLE_STEPS
        for budget in range(start, start + 80):
            check_against_reference(p, budget)

    def test_fast_forward_skips_the_work(self):
        # counted in Python calls, not timed: stepping to the budget
        # makes about 800,000 of them
        res, calls = counting_calls(interpret, parse(REFERENCE_PROGRAMS["endless_loop"]))
        assert res.status is Status.STEP_BUDGET_EXHAUSTED and res.steps_used == 10**6 + 1
        assert calls < 10_000

    # the three loop.c variants that never repeat their state
    @pytest.mark.parametrize("cond,body", [("a", "b = b - a"), ("b", "a = a - b"), ("b", "b = b - a")])
    def test_translation_skips_the_work(self, cond, body):
        p = parse(wrap(f"    int a = 10;\n    int b = 1;\n    while ({cond}) {{\n        {body};\n    }}"))
        res, calls = counting_calls(interpret, p)
        assert res.status is Status.STEP_BUDGET_EXHAUSTED and res.steps_used == DEFAULT_STEP_BUDGET + 1
        assert calls < 10_000

    def test_work_past_the_budget_stays_in_one_activation(self):
        # the budget is checked where a call starts and where it returns:
        # run out on the way down the recursion or on the way back up, the
        # run goes on at most to the end of the activation it ran out in
        p = parse(REFERENCE_PROGRAMS["work_after_return"])
        _, compiling = counting_calls(_compile, p)
        for budget in range(1, interpret(p).steps_used + 1):
            _, calls = counting_calls(interpret, p, budget)
            assert calls - compiling <= budget + 100, budget

    @given(loop_programs(), st.integers(1, 20_000))
    @settings(max_examples=150, deadline=None)
    def test_random_loop_programs(self, source, budget):
        check_against_reference(parse(source), budget)


class TestRender:
    def test_precedence_parentheses(self):
        p = parse(wrap("    int x = 2;\n    x = (x + x) * x;"))
        out = render(p)
        assert "(x + x) * x" in out
        assert render(parse(out)) == out

    def test_no_double_minus(self):
        p = parse(wrap("    int x = 1;\n    x = -(-x);"))
        out = render(p)
        assert "--" not in out
        assert interpret(parse(out)).exit_code == 0

    def test_unsigned_suffix(self):
        p = parse(wrap("    unsigned u = 3u;\n    u = u + 1u;"))
        out = render(p)
        assert "u + 1u" in out
        assert render(parse(out)) == out

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_render_is_fixpoint(self, seed):
        out = render(parse(random_source(seed)))
        assert render(parse(out)) == out


HAVE_GCC = shutil.which("gcc") is not None
HAVE_CLANG = shutil.which("clang") is not None


def compile_and_run(cc: str, source: str, flags=("-O0",)):
    with tempfile.TemporaryDirectory(prefix="spe-mt-") as d:
        src = Path(d) / "t.c"
        exe = Path(d) / "t.out"
        src.write_text(source)
        comp = subprocess.run(
            [cc, "-std=c89", *flags, "-o", str(exe), str(src)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert comp.returncode == 0, comp.stderr
        run = subprocess.run([str(exe)], capture_output=True, text=True, timeout=30)
        return run.returncode, run.stdout


@pytest.mark.skipif(not HAVE_GCC, reason="gcc not installed")
class TestAgainstGcc:
    @pytest.mark.parametrize("flags", [("-O0",), ("-O3",)])
    def test_fixtures_agree(self, flags):
        for src in (LOOP_SRC, SCOPED_SRC, BRANCH_SRC):
            ours = interpret(parse(src))
            assert ours.status is Status.OK
            exit_code, stdout = compile_and_run("gcc", src, flags)
            assert (exit_code, stdout) == (ours.exit_code, ours.stdout)

    def test_random_programs_agree(self):
        checked = 0
        for seed in range(400):
            src = random_source(seed)
            ours = interpret(parse(src))
            if ours.status is not Status.OK:
                continue  # UB runs are fair game for any compiled result
            exit_code, stdout = compile_and_run("gcc", src)
            assert (exit_code, stdout) == (ours.exit_code, ours.stdout), src
            checked += 1
            if checked >= 25:
                break
        assert checked >= 25

    def test_constant_initializers_agree(self):
        # the C reference, wherever C defines the value, and every
        # accepted fold agree with gcc; the first example wraps to
        # 2147483648, and the second overflows, so only parse judges it
        sample = [("unsigned", "(0u - 2u) / 2u + 1u"), ("int", "(2147483647 + 1) / 2")]

        @given(constant_initializers())
        @settings(max_examples=150, derandomize=True, database=None)
        def collect(init):
            sample.append(init)

        collect()
        decls, checks = [], []
        for i, (type_, expr) in enumerate(sample):
            lo, hi = C_RANGE[type_]
            _, value, _ = c_constant(expr)
            if value is None or not lo <= value <= hi:
                continue  # undefined, or converted by gcc's own rule
            decls.append(f"{type_} g{i} = {expr};\n")
            checks.append(f"g{i} == {_literal(type_, value)}")
            try:
                out = render(parse(f"{type_} g = {expr};\n" + wrap("")))
            except ParseError:
                continue
            checks.append(f"g{i} == ({re.search(rf'^{type_} g = (.*);$', out, re.M).group(1)})")
        assert len(decls) > 50 and len(checks) > len(decls) + 20
        prints = "".join(f'    printf("%d\\n", {c});\n' for c in checks)
        exit_code, stdout = compile_and_run("gcc", "#include <stdio.h>\n" + "".join(decls) + wrap(prints))
        assert exit_code == 0
        assert [c for c, seen in zip(checks, stdout.splitlines()) if seen != "1"] == []
        assert len(stdout.splitlines()) == len(checks)


@pytest.mark.skipif(not HAVE_CLANG, reason="clang not installed")
class TestAgainstClang:
    def test_fixtures_agree(self):
        for src in (LOOP_SRC, SCOPED_SRC, BRANCH_SRC):
            ours = interpret(parse(src))
            exit_code, stdout = compile_and_run("clang", src)
            assert (exit_code, stdout) == (ours.exit_code, ours.stdout)
