"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables-serial --seed 20090525 \\
        --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced.  Its
times (``wall_s``, ``setup_s``) are reference seconds: wall seconds
rescaled by the host-speed yardstick of ``perfbench/yardstick.py``, so
that runs made while the shared host is slower or faster compare; the
unscaled figures are printed on a ``#`` line above the result.
``--trace 1`` reports the per-layer metrics: it runs the workload
untraced, then once more with every layer function of
``perfbench/layers.py`` wrapped in a span, and checks the layer
predictions of ``perfbench/predictions.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 5
#: Fresh interpreters run for the import breakdown.
IMPORT_RUNS = 3
#: Modules whose cumulative import time the traced run reports.
IMPORT_MODULES = ("repro", "repro.geometric", "repro.obs", "repro.campaign",
                  "repro.engine")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20090525)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _passes(work, seconds: float, clock) -> list:
    """Passes until *seconds* have gone by (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(work.run_pass(clock))
        if time.perf_counter() >= deadline:
            return passes


def _timed(work, seconds: float) -> tuple[dict, list]:
    from perfbench import measure, yardstick

    # The workload's prepare() imported the program in this process first,
    # so where bytecode caching is on the timed interpreters find compiled
    # bytecode, as every run after a user's first one does.
    setup = measure.setup_times(SRC, ("repro",) + work.entry_modules,
                                SETUP_RUNS)
    with yardstick.HostClock() as clock:
        passes = _passes(work, seconds, clock)
    print(f"# unscaled: {len(passes)} passes, median wall "
          f"{statistics.median(p.wall for p in passes):.3f} s; median setup "
          f"{statistics.median(raw for raw, _ in setup):.3f} s; host slowdown "
          f"{statistics.median(clock.samples) / yardstick.REFERENCE_S:.3f} "
          f"(median of {len(clock.samples)} yardsticks)")
    metrics = {
        "wall_s": (statistics.median(p.scaled for p in passes), "s"),
        "setup_s": (statistics.median(raw * yardstick.REFERENCE_S / took
                                      for raw, took in setup), "s"),
        "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
    }
    return metrics, passes


def _traced(work, workload: str, seconds: float) -> tuple[dict, list, list]:
    from perfbench import layers, measure, spans, yardstick

    imports = measure.import_times(SRC, IMPORT_MODULES + work.entry_modules,
                                   IMPORT_RUNS)
    untraced = _passes(work, seconds, yardstick.WallClock())
    recorder = spans.Recorder()
    with spans.installed(layers.targets(), recorder):
        traced = work.traced_pass(recorder)
    totals = spans.aggregate(recorder.spans)
    given = {f"import.{module}.s": imports[module] for module in IMPORT_MODULES}
    given.update(work.layer_ratios(traced, untraced, totals))
    values = layers.layer_values(totals, given)
    problems, zeros = layers.check_predictions(workload, values)
    if traced.outputs != untraced[-1].outputs:
        problems.append("traced outputs differ from untraced outputs")
    print(f"# predicted zeros held on {workload}: {', '.join(zeros) or 'none'}")
    metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}
    return metrics, untraced + [traced], problems


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[0] = str(ROOT)  # the script's own directory is not a package root
    sys.path.insert(1, str(SRC))
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = workloads.make(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work.prepare(Path(tmp))
        if args.trace:
            metrics, passes, problems = _traced(work, args.workload,
                                                args.seconds)
        else:
            metrics, passes = _timed(work, args.seconds)
            problems = []
    attempted = sum(p.ops for p in passes)
    failures = [problem for p in passes for problem in p.failed]
    for line in failures[:20] + problems:
        print(f"# FAILED {line}")
    print(f"# failed_frac {len(failures)}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<52} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
