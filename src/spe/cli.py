"""Command-line front end.

Subcommands: count (size statistics), skeleton (hole structure dump),
enumerate (write variant files + manifest), test (differential
campaign), stats (aggregate an outcome log).

Exit codes, shared by all subcommands: 0 success / no findings,
1 findings produced, 2 configuration or parse error, 3 enumeration
refused because the variant count exceeds the threshold.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

import click

from . import __version__
from .combinat import Mode
from .enumerator import (
    DEFAULT_THRESHOLD, ConfigError, check_outputs, check_unique_stems, plan, variant_files,
)
from .minilang.parser import ParseError, parse
from .skeleton import Granularity, ShadowingError, Skeleton, extract, to_json

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_CONFIG = 2
EXIT_THRESHOLD = 3


def _decl_holes_option(f):
    return click.option(
        "--decl-holes",
        is_flag=True,
        help="Enumerate every filling of the holes, declarations at their source names.",
    )(f)


def _stream_options(f):
    """--mode, --granularity and --decl-holes: which stream a command
    counts, writes or tests."""
    f = _decl_holes_option(f)
    f = click.option(
        "--granularity",
        type=click.Choice(["intra", "inter"]),
        default="intra",
        show_default=True,
        help="Combine per-function streams by product, or solve one program-wide problem.",
    )(f)
    return click.option(
        "--mode",
        type=click.Choice(["paper", "complete"]),
        default="complete",
        show_default=True,
        help="Partition semantics: the flat two-level procedure or the full scoped solution.",
    )(f)


def _budget_options(f):
    f = click.option(
        "--threshold",
        type=click.IntRange(min=1),
        default=None,
        help=f"Refuse files whose variant count exceeds this [default: {DEFAULT_THRESHOLD}].",
    )(f)
    f = click.option(
        "--cap",
        type=click.IntRange(min=1),
        default=None,
        help="Take the first N variants of the stream instead of refusing.",
    )(f)
    return f


def _resolve_budget(threshold: Optional[int], cap: Optional[int]) -> tuple[int, Optional[int]]:
    if threshold is not None and cap is not None:
        raise click.UsageError("--threshold and --cap are mutually exclusive")
    return (threshold if threshold is not None else DEFAULT_THRESHOLD), cap


def _plan(path: Path, skel, *args):
    """enumerator.plan, exiting with a configuration error when the
    skeleton cannot be pooled (ShadowingError)."""
    try:
        return plan(skel, *args)
    except ShadowingError as e:
        click.echo(f"{path}: {e}", err=True)
        sys.exit(EXIT_CONFIG)


def _skeletons(paths: tuple[str, ...]) -> list[tuple[Path, Skeleton]]:
    """Each path with its file's skeleton, extracted once per file in
    argument order. Every file is read and parsed first; each one that
    fails is named on stderr, and then the command exits 2."""
    programs = []
    for path in map(Path, paths):
        try:
            programs.append((path, parse(path.read_text(encoding="utf-8"))))
        except (OSError, UnicodeDecodeError, ParseError) as e:
            click.echo(f"{path}: {e}", err=True)
    if len(programs) < len(paths):
        sys.exit(EXIT_CONFIG)
    return [(path, extract(program)) for path, program in programs]


class _Spe(click.Group):
    """The command group; a ConfigError from any subcommand is one
    `configuration error:` line on stderr and exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ConfigError as e:
            click.echo(f"configuration error: {e}", err=True)
            sys.exit(EXIT_CONFIG)


@click.group(cls=_Spe)
@click.version_option(version=__version__)
def main() -> None:
    """Skeletal program enumeration for compiler testing."""


# ---------------------------------------------------------------------------
# count

def _row(*cells) -> str:
    """One line of count's table; None is shown as "-", and a float,
    a reduction, as "<ratio>x"."""
    widths = ("<40", ">5", ">12", ">12", ">12", ">9")
    shown = ("-" if c is None else f"{c:.1f}x" if isinstance(c, float) else c for c in cells)
    return " ".join(format(c, w) for c, w in zip(shown, widths))


@main.command("count")
@click.argument("paths", nargs=-1, type=click.Path())
@_stream_options
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json"]),
    default="table",
    show_default=True,
)
def cmd_count(paths, mode, granularity, decl_holes, fmt) -> None:
    """Per-file and corpus-wide variant counts with the size reduction
    relative to naive enumeration."""
    m = Mode(mode)
    gran = Granularity(granularity)
    rows = []
    for path, skel in _skeletons(paths):
        pl = _plan(path, skel, m, gran, decl_holes)
        report, selected = pl.report, pl.selected_count
        rows.append(
            {
                "file": str(path),
                "holes": skel.n,
                "naive": report.naive_count,
                "paper": report.paper_mode_count,
                "complete": report.complete_mode_count,
                "enumerated": selected,
                "reduction": (report.naive_count / selected) if selected else None,
            }
        )

    total_naive = sum(r["naive"] for r in rows)
    enum_known = [r["enumerated"] for r in rows if r["enumerated"] is not None]
    total_enum = sum(enum_known) if len(enum_known) == len(rows) else None
    totals = {
        "files": len(rows),
        "naive": total_naive,
        "enumerated": total_enum,
        "reduction": (total_naive / total_enum) if total_enum else None,
    }

    if fmt == "json":
        click.echo(json.dumps({"schema": 1, "files": rows, "totals": totals}, indent=2))
        return

    header = _row("file", "holes", "naive", "paper", "complete", "reduction")
    click.echo(header)
    click.echo("-" * len(header))
    for r in rows:
        click.echo(_row(r["file"], r["holes"], r["naive"], r["paper"], r["complete"], r["reduction"]))
    if rows:
        click.echo("-" * len(header))
        click.echo(_row("total", "", total_naive, "", total_enum, totals["reduction"]))


# ---------------------------------------------------------------------------
# skeleton

@main.command("skeleton")
@click.argument("paths", nargs=-1, type=click.Path())
@_decl_holes_option
def cmd_skeleton(paths, decl_holes) -> None:
    """Dump each file's skeleton (holes, variable sets, scopes) as JSON."""
    docs = []
    for path, skel in _skeletons(paths):
        doc = to_json(skel, decl_holes)
        doc["file"] = str(path)
        docs.append(doc)
    click.echo(json.dumps({"schema": 1, "skeletons": docs}, indent=2))


# ---------------------------------------------------------------------------
# enumerate

# manifest.json has the bytes of json.dumps(manifest, indent=2,
# sort_keys=True) + "\n", but is written one variant entry at a time, so
# memory does not grow with the number of variants. CPython encodes with
# `indent` in pure Python; here only scalars go through json.dumps (its
# C fast path), and the indent-2 layout of the entries' fixed shape is
# spelled out below, keys in sorted order.


def _block(items: list[str], indent: str, brackets: str = "[]") -> str:
    """A JSON list or object whose items are already encoded, opening
    where it stands and closing at `indent`, items one level deeper."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _ints(values, indent: str) -> str:
    return _block([str(x) for x in values], indent)


def _family_doc(part) -> str:
    unit, type_, config, rgs = part
    return _block(
        [
            '"config": ' + _ints(config, " " * 10),
            '"rgs": ' + _block([_ints(r, " " * 12) for r in rgs], " " * 10),
            '"type": ' + json.dumps(type_),
            '"unit": ' + json.dumps(unit),
        ],
        " " * 8,
        "{}",
    )


def _manifest_entry(path: Path, v) -> str:
    """One variant's entry in the manifest's "variants" list."""
    return _block(
        [
            '"assignment": ' + _block([json.dumps(x) for x in v.assignment], " " * 6),
            '"file": ' + json.dumps(path.name),
            '"seq": ' + str(v.seq),
            '"signature": ' + _block([_family_doc(p) for p in v.signature], " " * 6),
            '"valid": true',
        ],
        "    ",
        "{}",
    )


def _write_manifest(path: Path, fields: dict, entries: Iterable[str]) -> None:
    """Write the manifest at `path`: the top-level `fields` plus
    "variants", whose encoded entries `entries` yields, as many as
    fields["emitted"] says. It is written under a temporary name and
    renamed over `path`, so `path` holds either the complete new
    manifest or whatever it held before."""
    # every quote inside an encoded string is escaped, so the key is the
    # only place this text occurs
    head, _, tail = json.dumps(
        {**fields, "variants": []}, indent=2, sort_keys=True
    ).partition('"variants": []')
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as out:
            out.write(head + '"variants": [')
            n = 0
            for n, entry in enumerate(entries, start=1):
                out.write(("\n    " if n == 1 else ",\n    ") + entry)
            if n != fields["emitted"]:
                raise RuntimeError(f"{path}: {n} entries streamed, {fields['emitted']} expected")
            out.write(("]" if n == 0 else "\n  ]") + tail + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@main.command("enumerate")
@click.argument("paths", nargs=-1, type=click.Path())
@_stream_options
@_budget_options
@click.option(
    "--out",
    type=click.Path(file_okay=False),
    required=True,
    help="Directory to write variant files and manifests into.",
)
def cmd_enumerate(paths, mode, granularity, decl_holes, threshold, cap, out) -> None:
    """Write every variant as <stem>__v<seq>.c plus a manifest mapping
    stream positions to canonical signatures. Variant files an earlier
    run left in the stem directory are removed once the new manifest is
    in place."""
    threshold, cap = _resolve_budget(threshold, cap)
    check_unique_stems(paths)
    m = Mode(mode)
    gran = Granularity(granularity)
    out_dir = Path(out)

    # every file is planned before any is written, so a refusal leaves no output
    planned = []
    for path, skel in _skeletons(paths):
        pl = _plan(path, skel, m, gran, decl_holes, threshold, cap)
        if pl.refusal == "unsupported":
            click.echo(
                f"{path}: paper mode unsupported here (nested local scopes)", err=True
            )
            sys.exit(EXIT_CONFIG)
        if pl.refusal == "threshold":
            click.echo(
                f"{path}: {pl.selected_count} variants exceeds threshold {threshold}; "
                "pass --cap to take a prefix",
                err=True,
            )
            sys.exit(EXIT_THRESHOLD)
        planned.append((path, pl))
    vdirs = [out_dir / path.stem for path, _ in planned]
    check_outputs(files=[vdir / "manifest.json" for vdir in vdirs], variant_dirs=vdirs)

    for path, pl in planned:
        stem = path.stem
        vdir = out_dir / stem
        fields = {
            "schema": 1,
            "stem": stem,
            "source": str(path),
            "mode": m.value,
            "granularity": gran.value,
            "decl_holes": decl_holes,
            "count": pl.selected_count,
            "emitted": pl.emitted,
            "written": pl.emitted,
            "invalid": 0,
        }
        # the manifest is in place before variant_files removes the stale files
        with variant_files(vdir, pl, stem) as stream:
            _write_manifest(
                vdir / "manifest.json", fields, (_manifest_entry(vpath, v) for vpath, v in stream)
            )
        click.echo(f"{path}: wrote {pl.emitted} variants to {vdir}")


# ---------------------------------------------------------------------------
# test

@main.command("test")
@click.argument("paths", nargs=-1, type=click.Path())
@_stream_options
@_budget_options
@click.option("--config", type=click.Path(dir_okay=False), default=None,
              help="Toolchain JSON; defaults to gcc/clang found on PATH.")
@click.option("--out", type=click.Path(file_okay=False), required=True,
              help="Campaign output directory (variants, reports, outcome log).")
def cmd_test(paths, mode, granularity, decl_holes, threshold, cap, config, out) -> None:
    """Run a differential-testing campaign over the corpus."""
    from .harness import ToolchainConfig, run_campaign

    threshold, cap = _resolve_budget(threshold, cap)
    cfg = ToolchainConfig.from_file(config) if config else ToolchainConfig.detect()
    summary = run_campaign(
        corpus=list(paths),
        cfg=cfg,
        out_dir=out,
        threshold=threshold,
        cap=cap,
        mode=Mode(mode),
        granularity=Granularity(granularity),
        decl_holes=decl_holes,
    )

    t = summary["totals"]
    click.echo(
        f"files: {t['files']} tested: {t['tested']} skipped: {t['skipped']} "
        f"unparseable: {t['unparseable']} unsupported: {t['unsupported']}"
    )
    red = t["reduction"]
    red_s = f"{red:.1f}x" if red else "-"
    click.echo(f"naive: {t['naive']} enumerated: {t['enumerated']} reduction: {red_s}")
    click.echo(f"reports: {len(summary['reports'])} (see {Path(out) / 'reports'})")
    for name in summary["reports"]:
        click.echo(f"  {name}")
    sys.exit(EXIT_FINDINGS if summary["reports"] else EXIT_OK)


# ---------------------------------------------------------------------------
# stats

@main.command("stats")
@click.argument("log", type=click.Path(exists=True, dir_okay=False))
def cmd_stats(log) -> None:
    """Aggregate an outcome log (outcomes.jsonl) into per-compiler
    compile-status and run-outcome totals and the distinct crash
    signatures."""
    from .harness import log_stats

    click.echo(json.dumps(log_stats(log), indent=2))


if __name__ == "__main__":
    main()
