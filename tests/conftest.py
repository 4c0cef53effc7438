"""Shared fixtures: the three worked-example programs and a seeded
random program generator for property sweeps.

The generator emits straight-line programs (declarations, assignments,
ifs, printf, return) with unique names per program, so every generated
skeleton is shadowing-free and every run terminates.
"""

from __future__ import annotations

import os
import random
import stat
from pathlib import Path

import pytest

from spe.combinat import naive_count
from spe.minilang import parse
from spe.skeleton import extract

LOOP_SRC = """\
int main(void) {
    int a;
    int b;
    a = 10;
    b = 1;
    while (a) {
        a = a - b;
    }
    return 0;
}
"""

BRANCH_SRC = """\
int main(void) {
    int a;
    int b;
    a = 0;
    b = 0;
    if (1) {
        int c;
        int d;
        c = 0;
        d = 1;
    }
    a = 0;
    return 0;
}
"""

SCOPED_SRC = """\
#include <stdio.h>

int a = 1, b = 0;

int main(void) {
    if (a) {
        int c = 3, d = 5;
        b = c + d;
    }
    printf("%d", a);
    printf("%d\\n", b);
    return 0;
}
"""

STRAIGHT_SRC = """\
int main(void) {
    int a;
    int b;
    a = 3;
    b = a;
    return b;
}
"""

# nested declaring blocks: rejected by paper mode, fine in complete mode
NESTED_SRC = """\
int main(void) {
    int a = 1;
    if (a) {
        int b = 2;
        if (b) {
            int c = 3;
            c = a + b;
        }
    }
    return 0;
}
"""

SHADOW_SRC = """\
int g = 1;

int main(void) {
    if (g) {
        int g = 2;
        g = g + 1;
    }
    return g;
}
"""


# two functions over globals of two types
TWO_FUNCTIONS_SRC = """
int g = 0;
unsigned h = 1u;

int f(unsigned p) {
    int x = 1;
    h = p;
    return x + g;
}

int main(void) {
    int y = 2;
    return y + f(h);
}
"""


def origin_vector(skel) -> tuple[str, ...]:
    """The assignment that gives back the skeleton's own program: each
    hole's source name, in hole order."""
    return tuple(h.node.name for h in skel.holes)


@pytest.fixture
def loop():
    return parse(LOOP_SRC)


@pytest.fixture
def loop_skel(loop):
    return extract(loop)


@pytest.fixture
def branch():
    return parse(BRANCH_SRC)


@pytest.fixture
def branch_skel(branch):
    return extract(branch)


@pytest.fixture
def scoped():
    return parse(SCOPED_SRC)


@pytest.fixture
def scoped_skel(scoped):
    return extract(scoped)


# ---------------------------------------------------------------------------
# Random program generation

_NAMES = ("a", "b", "c", "d")


def random_source(seed: int, max_holes: int = 8, allow_uint: bool = True) -> str:
    """A small well-formed program: <= 4 variables over <= 2 types in
    <= 3 scopes (global, main, one nested block), <= max_holes variable
    occurrences. Deterministic in the seed."""
    rng = random.Random(seed)
    use_uint = allow_uint and rng.random() < 0.25
    names = list(_NAMES)
    rng.shuffle(names)
    budget = rng.randint(1, 4)
    holes = 0

    def fresh(type_: str):
        # unique names program-wide: generated skeletons never shadow
        return (names.pop(), type_)

    def mkdecl(var) -> str:
        name, type_ = var
        t = "unsigned" if type_ == "uint" else "int"
        if rng.random() < 0.75:
            value = rng.randint(0, 9)
            suffix = "u" if type_ == "uint" else ""
            return f"{t} {name} = {value}{suffix};"
        return f"{t} {name};"

    n_global = rng.randint(0, min(2, budget))
    g_vars = [fresh("uint" if use_uint and rng.random() < 0.4 else "int") for _ in range(n_global)]
    budget -= n_global
    n_main = rng.randint(0 if g_vars else 1, budget)
    m_vars = [fresh("uint" if use_uint and rng.random() < 0.4 else "int") for _ in range(n_main)]
    budget -= n_main
    use_block = budget > 0 and rng.random() < 0.6
    b_vars = [fresh("int") for _ in range(rng.randint(1, budget))] if use_block else []

    def stmts_for(visible, depth: int, max_stmts: int) -> list[str]:
        nonlocal holes
        out = []
        pad = "    " * depth
        for _ in range(max_stmts):
            if holes >= max_holes:
                break
            by_type: dict[str, list[str]] = {}
            for name, type_ in visible:
                by_type.setdefault(type_, []).append(name)
            type_ = rng.choice(sorted(by_type))
            vs = by_type[type_]
            suffix = "u" if type_ == "uint" else ""
            kind = rng.randint(0, 4)
            if kind == 0:
                out.append(f"{pad}{rng.choice(vs)} = {rng.randint(0, 9)}{suffix};")
                holes += 1
            elif kind == 1 and holes + 2 <= max_holes:
                out.append(f"{pad}{rng.choice(vs)} = {rng.choice(vs)};")
                holes += 2
            elif kind == 2 and holes + 3 <= max_holes:
                op = rng.choice("+-*")
                out.append(f"{pad}{rng.choice(vs)} = {rng.choice(vs)} {op} {rng.choice(vs)};")
                holes += 3
            elif kind == 3 and type_ == "int" and holes + 1 <= max_holes:
                nl = "\\n" if rng.random() < 0.5 else ""
                out.append(f'{pad}printf("%d{nl}", {rng.choice(vs)});')
                holes += 1
            elif kind == 4 and depth == 1 and holes + 2 <= max_holes and type_ == "int":
                holes += 1
                inner = stmts_for(visible, depth + 1, rng.randint(1, 2))
                out.append(f"{pad}if ({rng.choice(vs)}) {{")
                out.extend(inner)
                out.append(f"{pad}}}")
        return out

    lines = ["#include <stdio.h>", ""]
    for v in g_vars:
        lines.append(mkdecl(v))
    if g_vars:
        lines.append("")
    lines.append("int main(void) {")
    for v in m_vars:
        lines.append("    " + mkdecl(v))
    visible = g_vars + m_vars
    lines.extend(stmts_for(visible, 1, rng.randint(1, 3)))
    if b_vars and holes < max_holes:
        lines.append("    {")
        for v in b_vars:
            lines.append("        " + mkdecl(v))
        lines.extend(stmts_for(visible + b_vars, 2, rng.randint(1, 2)))
        lines.append("    }")
    int_vars = [n for n, t in visible if t == "int"]
    if int_vars and holes < max_holes and rng.random() < 0.5:
        lines.append(f"    return {rng.choice(int_vars)};")
        holes += 1
    else:
        lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines) + "\n"


def random_skeleton(seed: int, max_holes: int = 8, max_naive: int = 4096, allow_uint: bool = True):
    """Extracted skeleton of a random program with a bounded naive
    space; bumps the seed until the bound holds (rarely needed)."""
    for attempt in range(50):
        src = random_source(seed * 997 + attempt, max_holes, allow_uint)
        skel = extract(parse(src))
        if 0 < skel.n <= max_holes and naive_count(skel.holes) <= max_naive:
            return skel
    raise AssertionError(f"no usable skeleton near seed {seed}")


# ---------------------------------------------------------------------------
# stub toolchains for campaign tests (no system compiler needed)

OK_STUB = """\
#!/bin/sh
out=""; prev=""
for a in "$@"; do
  if [ "$prev" = "-o" ]; then out="$a"; fi
  prev="$a"
done
printf '#!/bin/sh\\nexit 0\\n' > "$out"
chmod +x "$out"
exit 0
"""

# mimics an ICE on a planted pattern; the trailing number varies per run
CRASH_STUB = """\
#!/bin/sh
out=""; prev=""
for a in "$@"; do
  if [ "$prev" = "-o" ]; then out="$a"; fi
  prev="$a"
done
in="$a"
if grep -q 'b = a;' "$in"; then
  echo "internal compiler error: in operand_equal_p, at fold-const.c:$$" >&2
  exit 4
fi
printf '#!/bin/sh\\nexit 0\\n' > "$out"
chmod +x "$out"
exit 0
"""

# faithful except: at -O3 on a planted pattern the "binary" exits 7
EVIL_STUB = """\
#!/bin/sh
out=""; prev=""; o3=0
for a in "$@"; do
  if [ "$prev" = "-o" ]; then out="$a"; fi
  if [ "$a" = "-O3" ]; then o3=1; fi
  prev="$a"
done
in="$a"
if [ "$o3" = "1" ] && grep -q 'a = a - b;' "$in"; then
  printf '#!/bin/sh\\nexit 7\\n' > "$out"
else
  printf '#!/bin/sh\\nexit 0\\n' > "$out"
fi
chmod +x "$out"
exit 0
"""


def write_stub(dir_: Path, name: str, body: str) -> Path:
    path = dir_ / name
    path.write_text(body)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return path


def spe_env() -> dict:
    """The environment for a `python -m spe.cli` child: the spe package
    these tests import comes first on its path, so a plain `pytest` in a
    checkout runs the child from the checkout too."""
    import spe

    src = str(Path(spe.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
