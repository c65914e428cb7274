"""Bridges between the harness and the pytest benchmark tier.

The files under ``benchmarks/`` stay valid pytest entry points (tier-1
runs them once each with ``--benchmark-disable``), but their workloads
and thresholds now live in the case registry.  Two bridges keep the
wrappers thin:

* :func:`run_in_pytest` — time one registered case through the
  ``benchmark`` fixture and validate its result.
* :func:`run_showdown` — measure a group of cases with the harness
  timer, their rounds interleaved, render the classic
  backend-comparison table, and report any speedup-floor violations;
  the acceptance tests print the table and assert the failure list is
  empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.analysis.tables import render_table
from repro.bench.case import get_case
from repro.bench.timer import MeasureConfig, measure_cases

__all__ = ["run_in_pytest", "run_showdown", "ShowdownResult"]


def run_in_pytest(benchmark, name: str):
    """Run the registered case *name* under pytest's ``benchmark``
    fixture and validate the workload result.

    Construction cost stays outside the timed region here too: the
    workload is built once up front, and fixed-round / fresh-state
    cases run a single pedantic round (one fresh setup is exactly one
    round's worth of state).
    """
    case = get_case(name)
    workload = case.setup()
    if case.rounds is not None or case.fresh_state:
        result = benchmark.pedantic(workload, rounds=1, iterations=1)
    else:
        result = benchmark(workload)
    case.check_result(result)
    return result


@dataclass(frozen=True)
class ShowdownResult:
    """A rendered comparison table plus machine-readable outcomes."""

    table: str
    best: dict[str, float]      # case name -> best seconds
    speedups: dict[str, float]  # case name -> speedup vs its ref
    failures: tuple[str, ...]   # floor violations, empty when green


def run_showdown(names: Sequence[str],
                 config: MeasureConfig | None = None) -> ShowdownResult:
    """Measure *names* with the harness timer and compare against each
    case's declared serial reference.

    The cases' rounds are interleaved (:func:`measure_cases`), so a
    case and its reference are timed across the same stretch of the
    host's speed rather than one after the other.
    """
    cases = [get_case(name) for name in names]
    best = {name: measurement.best
            for name, (measurement, _) in measure_cases(cases, config).items()}

    rows = []
    speedups: dict[str, float] = {}
    failures: list[str] = []
    for case in cases:
        seconds = best[case.name]
        row = {"case": case.name.split("/", 1)[1],
               "ms_best": round(seconds * 1e3, 1)}
        if case.ref is not None and case.ref in best:
            speedup = best[case.ref] / seconds
            speedups[case.name] = speedup
            row["speedup"] = round(speedup, 2)
            if case.floor is not None and speedup < case.floor:
                failures.append(
                    f"{case.name}: {speedup:.2f}x vs {case.ref} is below "
                    f"the asserted floor {case.floor:.2f}x")
        elif case.ref is None:
            row["speedup"] = 1.0
        rows.append(row)
    return ShowdownResult(table=render_table(rows), best=best,
                          speedups=speedups, failures=tuple(failures))
