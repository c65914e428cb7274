"""Timing helpers owned by the benchmark: percentiles, set-up time,
import-time breakdown and peak memory.

Everything here times with ``time.perf_counter`` and
``resource.getrusage`` directly, never through the measured program.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAILS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], p: float) -> float:
    """The *p*-th percentile by linear interpolation between order
    statistics (``statistics.quantiles(..., method="inclusive")``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def supported_tail(count: int) -> float | None:
    """The highest percentile of :data:`TAILS` with at least ten of
    *count* samples beyond it, or ``None`` when there are too few."""
    for p in TAILS:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _python_env(*paths: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(path) for path in paths]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _import_statement(modules: Sequence[str]) -> str:
    return "import " + ", ".join(modules)


#: Yardsticks each set-up interpreter times after its imports.
CHILD_YARDSTICKS = 7


def setup_times(src: Path, modules: Sequence[str],
                runs: int) -> list[tuple[float, float]]:
    """``(import seconds, yardstick seconds)`` of *runs* fresh
    interpreters, started one at a time.

    Each interpreter imports *modules* from *src* and then times
    :data:`CHILD_YARDSTICKS` yardsticks of :mod:`perfbench.yardstick`,
    so that its set-up can be scaled by the host speed it ran at: the
    import seconds are its wall seconds less its time on yardsticks,
    and the yardstick seconds their median."""
    command = [sys.executable, "-c", _import_statement(modules)
               + "\nfrom perfbench.yardstick import timed_yardsticks"
               + f"\nprint(*timed_yardsticks({CHILD_YARDSTICKS}))"]
    env = _python_env(src, src.parent)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run(command, env=env, check=True, timeout=120,
                              stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        spent, *samples = map(float, done.stdout.split())
        times.append((wall - spent, statistics.median(samples)))
    return times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = [part.strip() for part in line[len("import time:"):].split("|")]
        if len(fields) != 3 or not fields[1].isdigit():
            continue  # the header line
        out[fields[2].strip()] = int(fields[1]) / 1e6
    return out


def import_times(src: Path, modules: Sequence[str],
                 runs: int) -> dict[str, float]:
    """Median cumulative import seconds of each of *modules* over *runs*
    fresh ``-X importtime`` interpreters, started one at a time."""
    command = [sys.executable, "-X", "importtime", "-c",
               _import_statement(modules)]
    env = _python_env(src)
    samples: dict[str, list[float]] = {module: [] for module in modules}
    for _ in range(runs):
        done = subprocess.run(command, env=env, check=True, timeout=120,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        parsed = parse_importtime(done.stderr)
        for module in modules:
            samples[module].append(parsed.get(module, 0.0))
    return {module: statistics.median(values)
            for module, values in samples.items()}


