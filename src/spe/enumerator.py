"""Assignment enumeration, realization, and canonical signatures.

An assignment is a characteristic vector: a tuple of one variable name
per hole, in hole order. Two assignments are alpha-equivalent when some
renaming that permutes variables only within their (scope, type) pool
maps one onto the other; `canonical_signature` decides this by reducing
an assignment to its pool configuration plus one restricted growth
string per pool, which is invariant under exactly those renamings.

`plan` fixes everything a stream depends on: the skeleton, the mode,
the granularity and its families, the declaration-holes flag, and the
threshold or cap. The stream is read off the plan alone, by `variants`,
`variant_files` and the test-only `enumerate_assignments`.

The stream walks one flat row-major product of the partition streams of
every (unit, type) family and emits one representative per equivalence
class: block labels in first-occurrence order bind to the pool's
variables in declaration order. The stream is deterministic,
duplicate-free, and at COMPLETE mode covers every class of the naive
product space; its length is the product of the same families' counts.
A row of family partitions is already its class's canonical form, so
`variants` takes every signature from the stream rather than
recomputing it from the assignment.

Under `decl_holes` the stream is instead the naive product of the hole
variable sets, row-major with the last hole varying fastest, and
declarations keep their source names. With declarations fixed an
assignment is its program's binding structure (each use bound to one
visible same-type declaration), so every entry is a distinct valid
program, and the entries are the binding structures of every filling
that renames declarations as well as uses and still parses. Each
entry's signature has no parts, and neither the mode nor the
granularity changes this stream.
"""

from __future__ import annotations

import itertools
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Literal, Optional, Sequence

from . import combinat
from .combinat import CountReport, Family, Mode, count_plan, lazy_product
from .minilang.ast import Program
from .minilang.parser import parse
from .minilang.render import render
from .skeleton import Granularity, Skeleton, characteristic_vector, normal_forms

__all__ = [
    "DEFAULT_THRESHOLD",
    "Signature",
    "Variant",
    "EnumerationPlan",
    "enumerate_assignments",
    "realize",
    "realize_source",
    "canonical_signature",
    "variants",
    "variant_files",
    "ConfigError",
    "check_unique_stems",
    "check_outputs",
    "plan",
]

#: The largest variant count a file is enumerated at without --cap.
DEFAULT_THRESHOLD = 10_000


class ConfigError(Exception):
    """A run's configuration is unusable; raised before any work."""


#: A class's canonical form: per family one (unit, type, config,
#: per-pool RGS) tuple, in stream order.
Signature = tuple[tuple[str, str, tuple[int, ...], tuple[tuple[int, ...], ...]], ...]


# ---------------------------------------------------------------------------
# Enumeration


def _classes(plan: EnumerationPlan) -> Iterator[tuple[tuple[str, ...], Signature]]:
    """The plan's whole stream: each class's representative with its
    canonical signature, read off the family partitions that produced it.
    One row-major product over every family of every unit; a row's
    pair per family fills that family's holes, block labels binding to
    the chosen pool's variables in declaration order. Under decl_holes,
    the naive product with empty signatures."""
    holes = plan.skel.holes
    if plan.decl_holes:
        for values in itertools.product(*(h.names for h in holes)):
            yield values, ()
        return
    factories = [(lambda fam=fam: combinat.family_stream(fam, plan.mode)) for fam in plan.families]
    for row in lazy_product(factories):
        values = [""] * len(holes)
        parts = []
        for fam, (config, rgs) in zip(plan.families, row):
            used = [0] * len(rgs)
            for index, pool_i in zip(fam.holes, config):
                values[index - 1] = fam.pools[pool_i].vars[rgs[pool_i][used[pool_i]]]
                used[pool_i] += 1
            parts.append((fam.unit, fam.type, config, rgs))
        yield tuple(values), tuple(parts)


def enumerate_assignments(plan: EnumerationPlan) -> Iterator[tuple[str, ...]]:
    """One representative assignment per alpha-equivalence class, the
    whole stream whatever the plan's cap.

    Deterministic: units in program order, families in type order,
    partitions in lexicographic canonical order. PAPER mode propagates
    ScopeNestingError for units with nested variable-declaring blocks.
    Under decl_holes, every filling of the naive product instead.
    """
    for a, _ in _classes(plan):
        yield a


# ---------------------------------------------------------------------------
# Realization


def _template(skel: Skeleton) -> str:
    """The skeleton's text as a str.format template: every variant has
    this text, with hole i (0-based) printed as its name at `{i}`.
    Rendered once with a NUL-delimited sentinel per hole, which no
    rendered program contains, so braces can be escaped around it."""
    marked = render(skel.program, {h.node: f"\0{i}\0" for i, h in enumerate(skel.holes)})
    escaped = marked.replace("{", "{{").replace("}", "}}")
    return re.sub(r"\0(\d+)\0", r"{\1}", escaped)


def realize_source(skel: Skeleton, assignment: Sequence[str]) -> str:
    """The skeleton's text with each hole filled by its assigned name."""
    return _template(skel).format(*characteristic_vector(skel, assignment))


def realize(skel: Skeleton, assignment: Sequence[str]) -> Program:
    """The skeleton filled by the assignment, as a parsed Program."""
    return parse(realize_source(skel, assignment))


# ---------------------------------------------------------------------------
# Canonical signatures


def canonical_signature(
    skel: Skeleton,
    assignment: Sequence[str],
    granularity: Granularity = Granularity.INTRA,
) -> Signature:
    """Stable, name-free signature: per family, the pool each hole's
    variable belongs to and the RGS of each pool's value sequence.
    Two assignments have equal signatures at a granularity exactly when
    they are alpha-equivalent at it. A decl_holes stream's entries carry
    the empty signature instead."""
    values = characteristic_vector(skel, assignment)
    parts = []
    for fam in normal_forms(skel, granularity):
        config = []
        per_pool: dict[int, list[str]] = {i: [] for i in range(len(fam.pools))}
        for pos, index in enumerate(fam.holes):
            name = values[index - 1]
            owner = None
            for pool_i in fam.eligible[pos]:
                if name in fam.pools[pool_i].vars:
                    owner = pool_i
                    break
            assert owner is not None, "assigned name outside every pool"
            config.append(owner)
            per_pool[owner].append(name)
        rgs = tuple(combinat.rgs_of_vector(per_pool[i]) for i in range(len(fam.pools)))
        parts.append((fam.unit, fam.type, tuple(config), rgs))
    return tuple(parts)


# ---------------------------------------------------------------------------
# Variant production


@dataclass(frozen=True)
class Variant:
    """One stream position: a variant's source and its class's
    canonical signature."""

    seq: int  # 1-based position in the assignment stream
    assignment: tuple[str, ...]
    signature: Signature
    source: str


def variants(plan: EnumerationPlan) -> Iterator[Variant]:
    """Realize the plan's stream, its first `cap` entries when capped, by
    filling the skeleton's template. Every filling is a valid program, so
    nothing is parsed. Signatures come with the stream."""
    template = _template(plan.skel)
    for seq, (a, sig) in enumerate(itertools.islice(_classes(plan), plan.cap), start=1):
        yield Variant(seq, a, sig, template.format(*a))


def _variant_name(stem: str) -> re.Pattern:
    """The name of a variant file of `stem`, whatever its seq's width;
    group 1 is the seq."""
    return re.compile(re.escape(stem) + r"__v([0-9]+)\.c")


@contextmanager
def variant_files(vdir: Path, plan: EnumerationPlan, stem: str) -> Iterator[Iterator[tuple[Path, Variant]]]:
    """The plan's variant stream, the first `cap` entries when capped, as
    (path, Variant) pairs: each variant is written to
    `vdir/<stem>__v<seq>.c`, its seq zero-padded to the digits of
    `plan.emitted` so names sort in stream order. When the `with` block
    ends cleanly, every `<stem>__v<digits>.c` in `vdir` this run did not
    write is removed; after an exception nothing is."""
    if plan.refusal is not None:
        raise ValueError(f"plan is refused: {plan.refusal}")
    vdir.mkdir(parents=True, exist_ok=True)
    width = len(str(max(plan.emitted, 1)))
    emitted = 0

    def stream() -> Iterator[tuple[Path, Variant]]:
        nonlocal emitted
        for v in variants(plan):
            emitted = v.seq
            path = vdir / f"{stem}__v{v.seq:0{width}d}.c"
            path.write_text(v.source)
            yield path, v

    yield stream()
    name = _variant_name(stem)
    with os.scandir(vdir) as entries:
        for e in entries:
            m = name.fullmatch(e.name)
            if m and e.is_file() and (len(m[1]) != width or not 1 <= int(m[1]) <= emitted):
                os.unlink(e.path)


def check_unique_stems(corpus: Sequence[str | Path]) -> None:
    """Variant files and ids are named after their corpus file's stem, so
    two files sharing one would overwrite each other's variants and
    outcome rows; ConfigError names the first such pair."""
    seen: dict[str, Path] = {}
    for path in map(Path, corpus):
        first = seen.setdefault(path.stem, path)
        if first is not path:
            raise ConfigError(f"{first} and {path} share the stem {path.stem!r}")


def check_outputs(
    dirs: Sequence[Path] = (), files: Sequence[Path] = (), variant_dirs: Sequence[Path] = ()
) -> None:
    """`dirs` are directories that output goes into, made when missing,
    `variant_dirs` are more such directories, each one `variant_files`
    fills and named after its stem, and `files` are files written into
    them or above them. ConfigError names the first path at or above
    one of the directories that exists and is not a directory, then the
    first of the files that is a directory, then the first directory in
    a variant directory that has a variant file's name, which no run
    could write or remove."""
    for d in (*dirs, *variant_dirs):
        for p in (d, *d.parents):
            if p.is_dir():
                break
            if p.exists():
                raise ConfigError(f"{p} is not a directory")
    for f in files:
        if f.is_dir():
            raise ConfigError(f"{f} is a directory")
    for d in variant_dirs:
        if not d.is_dir():
            continue
        name = _variant_name(d.name)
        with os.scandir(d) as entries:
            blocked = sorted(e.path for e in entries if name.fullmatch(e.name) and e.is_dir())
        if blocked:
            raise ConfigError(f"{blocked[0]} is a directory")


# ---------------------------------------------------------------------------
# Planning


@dataclass(frozen=True)
class EnumerationPlan:
    """One skeleton's stream, its counts and the enumerate/skip
    decision. `families` are the skeleton's families at `granularity`,
    computed once for both the count and the stream."""

    report: CountReport
    mode: Mode
    granularity: Granularity
    decl_holes: bool
    threshold: int
    cap: Optional[int]
    skel: Skeleton = field(repr=False, compare=False)
    families: tuple[Family, ...] = field(repr=False, compare=False)

    @property
    def selected_count(self) -> Optional[int]:
        """The stream's length: the naive count under decl_holes, else
        the mode's count."""
        if self.decl_holes:
            return self.report.naive_count
        if self.mode is Mode.PAPER:
            return self.report.paper_mode_count
        return self.report.complete_mode_count

    @property
    def emitted(self) -> int:
        """The number of entries an enumerated plan's stream yields:
        the selected count, or the cap when that is smaller."""
        return self.selected_count if self.cap is None else min(self.selected_count, self.cap)

    @property
    def refusal(self) -> Optional[Literal["unsupported", "threshold"]]:
        """Why the skeleton is not enumerated: "unsupported" when the mode
        cannot count it, "threshold" when it has more variants than the
        threshold and no cap bounds the run, None when it is enumerated."""
        if self.selected_count is None:
            return "unsupported"
        if self.cap is None and self.selected_count > self.threshold:
            return "threshold"
        return None


def plan(
    skel: Skeleton,
    mode: Mode = Mode.COMPLETE,
    granularity: Granularity = Granularity.INTRA,
    decl_holes: bool = False,
    threshold: int = DEFAULT_THRESHOLD,
    cap: Optional[int] = None,
) -> EnumerationPlan:
    families = normal_forms(skel, granularity)
    return EnumerationPlan(
        report=count_plan(skel, families),
        mode=mode,
        granularity=granularity,
        decl_holes=decl_holes,
        threshold=threshold,
        cap=cap,
        skel=skel,
        families=families,
    )
