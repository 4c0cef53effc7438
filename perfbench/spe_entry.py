"""Run one spe command in this process and report what it cost.

    python3 perfbench/spe_entry.py STATS_JSON [--trace SPANS_JSONL] -- SPE_ARGS...
    python3 perfbench/spe_entry.py STATS_JSON --setup-only

`spe` must be importable (run.py sets PYTHONPATH=src). STATS_JSON gets
the monotonic time at which `spe.cli` and `spe.harness` finished
importing, the exit code, any uncaught exception, and this process's
own CPU time and peak RSS (RUSAGE_SELF, so compiler and binary children
are excluded). With --trace the layer tracer is installed before the
command runs and its spans are written to SPANS_JSONL afterwards.
"""

import json
import resource
import sys
import time
import traceback

import spe.cli
import spe.harness

IMPORTED = time.monotonic()


def main(argv: list[str]) -> int:
    stats_path = argv[0]
    stats = {"imported": IMPORTED, "exit": 0, "error": None}
    tracer = None
    if argv[1] == "--trace":
        from tracer import Tracer

        spe_args = argv[argv.index("--") + 1:]
        tracer = Tracer([a.rsplit("/", 1)[-1][:-2] for a in spe_args if a.endswith(".c")])
        tracer.install()
    elif argv[1] == "--":
        spe_args = argv[2:]
    else:
        spe_args = None  # --setup-only

    if spe_args is not None:
        try:
            spe.cli.main.main(args=spe_args, prog_name="spe", standalone_mode=True)
        except SystemExit as e:
            stats["exit"] = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
        except Exception:
            stats["exit"] = 70
            stats["error"] = traceback.format_exc()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats.update(cpu_s=usage.ru_utime + usage.ru_stime, maxrss_kb=usage.ru_maxrss)
    if tracer is not None:
        tracer.write(argv[2])
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
