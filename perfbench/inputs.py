"""Frozen, seeded input generators for the benchmark.

Everything spe receives in a benchmark run is written by this module.
The generators are copies, not imports, so that a later change to the
test suite's generator cannot silently change what the benchmark
measures. `inputs/seed0/` holds the files seed 0 produces; `run.py`
refuses to run when the generators no longer reproduce them.

- `loop.c`, `branch.c` and `scoped.c` are the paper's worked examples,
  verbatim from `tests/conftest.py`.
- `random_source` is a frozen copy of `tests/conftest.random_source`:
  straight-line single-function programs over <= 4 variables.
- `synth_source` makes the ~25-hole, three-scope program (globals,
  `main`, one nested block) that the enumerate workload streams. Its
  shape is fixed and only names, operators and constants vary with the
  seed, so every seed costs about the same per variant.
"""

from __future__ import annotations

import random

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

# worked-example counts (paper section 2); run.py asserts them on every run
WORKED_COUNTS = {
    "loop": {"naive": 64, "paper": 32, "complete": 32},
    "branch": {"naive": 128, "paper": 36, "complete": 40},
}

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


def synth_source(seed: int) -> str:
    """The enumerate workload's program: 2 globals, 3 locals of `main`
    and 2 locals of one nested block, all `int`, filled by 25 variable
    occurrences (4 three-hole statements in `main`, 3 in the block, then
    a printf and one more three-hole statement). All names are one
    letter, so the source length does not depend on the seed."""
    rng = random.Random(seed)
    names = list("abcdefghijklmnopqrstuvwxyz")
    rng.shuffle(names)
    g, m, b = names[0:2], names[2:5], names[5:7]

    def stmt(pad: str, visible: list[str]) -> str:
        x, y, z = (rng.choice(visible) for _ in range(3))
        return f"{pad}{x} = {y} {rng.choice('+-*')} {z};"

    def decl(pad: str, name: str) -> str:
        return f"{pad}int {name} = {rng.randint(0, 9)};"

    lines = ["#include <stdio.h>", ""]
    lines += [decl("", n) for n in g]
    lines += ["", "int main(void) {"]
    lines += [decl("    ", n) for n in m]
    outer = g + m
    lines += [stmt("    ", outer) for _ in range(4)]
    lines.append("    {")
    lines += [decl("        ", n) for n in b]
    lines += [stmt("        ", outer + b) for _ in range(3)]
    lines.append("    }")
    lines.append(f'    printf("%d\\n", {rng.choice(outer)});')
    lines.append(stmt("    ", outer))
    lines += ["    return 0;", "}"]
    return "\n".join(lines) + "\n"


# campaign-stub: branch.c and scoped.c, then random_source programs drawn
# in seed order until the corpus holds STUB_MIN_VARIANTS to
# STUB_MAX_VARIANTS variants; a program that would overshoot, or that alone
# has more than STUB_MAX_FILE_VARIANTS, is passed over. Every seed thus
# costs about the same, and seed 0 takes exactly random_source(0..19), the
# trial corpus the ROADMAP baseline was measured on.
STUB_MAX_HOLES = 10
STUB_MIN_VARIANTS = 1750
STUB_MAX_VARIANTS = 1800
STUB_MAX_FILE_VARIANTS = 1100
_STUB_DRAWS = 10_000


def workload_inputs(workload: str, seed: int, count) -> dict[str, str]:
    """File name -> source text, in the order spe receives them. `count`
    maps a source text to its COMPLETE-mode variant count."""
    if workload == "enumerate-synth":
        return {"synth.c": synth_source(seed)}
    if workload == "campaign-stub":
        fixed = {"branch.c": BRANCH_SRC, "scoped.c": SCOPED_SRC}
        total = sum(count(text) for text in fixed.values())
        files = {}
        for j in range(_STUB_DRAWS):
            if total >= STUB_MIN_VARIANTS:
                return {**files, **fixed}
            text = random_source(seed * _STUB_DRAWS + j, max_holes=STUB_MAX_HOLES)
            n = count(text)
            if n <= STUB_MAX_FILE_VARIANTS and total + n <= STUB_MAX_VARIANTS:
                files[f"rand{j:04d}.c"] = text
                total += n
        raise ValueError(f"seed {seed}: no campaign-stub corpus within {_STUB_DRAWS} draws")
    if workload == "campaign-gcc":
        return {"loop.c": LOOP_SRC}
    raise ValueError(f"unknown workload {workload!r}")
