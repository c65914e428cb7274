"""Calibrated repetition timing for benchmark cases.

Built on :class:`repro.util.timing.Timer`: the first round's elapsed
time calibrates how many further rounds fit a wall-clock budget, so
microsecond kernels get dozens of rounds while multi-second campaign
runs get one.  The summary statistics are the noise-robust pair the
result schema records: the **median** (trend gating) and the **best**
(speedup ratios — system jitter only ever adds time).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Any, Sequence

from repro.bench.case import BenchCase
from repro.util.timing import Timer
from repro.util.validation import require

__all__ = ["Measurement", "MeasureConfig", "measure_case", "measure_cases"]


@dataclass(frozen=True)
class Measurement:
    """Per-round wall-clock seconds of one measured case."""

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        require(len(self.times) >= 1, "a measurement needs >= 1 round")
        require(all(t >= 0 for t in self.times),
                "round times must be non-negative")

    @property
    def rounds(self) -> int:
        return len(self.times)

    @property
    def best(self) -> float:
        return min(self.times)

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def iqr(self) -> float:
        """Interquartile range; 0 for fewer than four rounds."""
        if len(self.times) < 4:
            return 0.0
        q = statistics.quantiles(self.times, n=4)
        return q[2] - q[0]


@dataclass(frozen=True)
class MeasureConfig:
    """Calibration knobs shared by a suite run.

    ``target_seconds`` is the per-case wall-clock budget the round count
    is calibrated against; ``min_rounds``/``max_rounds`` clamp it.  A
    case's own fixed ``rounds`` always wins over calibration.
    """

    target_seconds: float = 0.4
    min_rounds: int = 3
    max_rounds: int = 25

    def __post_init__(self) -> None:
        require(self.target_seconds > 0, "target_seconds must be positive")
        require(1 <= self.min_rounds <= self.max_rounds,
                "need 1 <= min_rounds <= max_rounds")

    def calibrated_rounds(self, first_elapsed: float) -> int:
        """Total round count implied by the first round's elapsed time."""
        estimate = max(first_elapsed, 1e-9)
        goal = math.ceil(self.target_seconds / estimate)
        return max(self.min_rounds, min(self.max_rounds, goal))


def measure_case(case: BenchCase,
                 config: MeasureConfig | None = None,
                 ) -> tuple[Measurement, Any]:
    """Measure *case*: calibrated repetitions, per-round validation.

    Returns the measurement and the last round's workload result.  The
    case's ``check`` runs on every round, so an invalid result aborts
    the measurement instead of polluting the artifact.
    """
    return measure_cases([case], config)[case.name]


def _spread(rounds: int, passes: int) -> set[int]:
    """*rounds* pass indices spread evenly over ``0 .. passes - 1``,
    first and last included (just ``{0}`` for one round)."""
    if rounds == 1:
        return {0}
    return {i * (passes - 1) // (rounds - 1) for i in range(rounds)}


def measure_cases(cases: Sequence[BenchCase],
                  config: MeasureConfig | None = None,
                  ) -> dict[str, tuple[Measurement, Any]]:
    """Measure several cases with their rounds interleaved.

    Every case runs one round first, which calibrates the cases without
    a fixed round count.  The rest run in passes: pass ``k`` times each
    case whose rounds, spread evenly over the passes, include ``k``.
    A slow drift of the host's speed then lands on every case alike,
    not on whichever case happened to run last, so same-run ratios
    between the cases hold steady.  Each case keeps its own round
    count, so a single case is timed exactly as on its own.
    """
    config = config or MeasureConfig()
    workloads = {case.name: case.setup() for case in cases}
    times: dict[str, list[float]] = {case.name: [] for case in cases}
    results: dict[str, Any] = {}

    def run_round(case: BenchCase) -> None:
        if case.fresh_state and times[case.name]:
            workloads[case.name] = case.setup()
        with Timer() as timer:
            result = workloads[case.name]()
        times[case.name].append(timer.elapsed)
        case.check_result(result)
        results[case.name] = result

    for case in cases:
        run_round(case)
    totals = {case.name: case.rounds if case.rounds is not None
              else config.calibrated_rounds(times[case.name][0])
              for case in cases}
    passes = max(totals.values())
    schedule = {name: _spread(total, passes) for name, total in totals.items()}
    for k in range(1, passes):
        for case in cases:
            if k in schedule[case.name]:
                run_round(case)
    return {case.name: (Measurement(tuple(times[case.name])),
                        results[case.name]) for case in cases}
