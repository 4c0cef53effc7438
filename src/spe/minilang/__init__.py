"""MiniC: a strict C subset with a parser, renderer, and reference interpreter.

Programs are single translation units restricted to two integer types
(int, unsigned), C89 declaration placement, constant initializers,
assignments, if/else, while, blocks, return, in-file calls, and
printf("%d", e) as the only IO. Everything a conforming C compiler
accepts here means the same thing to the reference interpreter, which
additionally flags undefined behavior instead of exploiting it.

The package re-exports only the parser and the renderer. The AST lives
in `spe.minilang.ast` and the interpreter in `spe.minilang.interp`,
which importing the package does not load.
"""

from .parser import ParseError, parse
from .render import render

__all__ = ["ParseError", "parse", "render"]
