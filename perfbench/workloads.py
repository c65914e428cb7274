"""The benchmark's workloads and the checks on their outputs.

``tables-serial`` and ``tables-native`` regenerate experiment tables
through :func:`repro.experiments.runner.run_one`, the path of
``python -m repro.experiments``.  ``campaign-sweep`` runs a grid of
tiny edge-MEG flooding cells through
:func:`repro.campaign.plan.plan_sweep` and
:func:`repro.campaign.scheduler.run_campaign` on a fresh store: a cold
pass computes and checkpoints every unit, warm passes fetch them.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from perfbench.spans import Recorder, Totals
from perfbench.yardstick import WallClock

DEFAULT_SEED = 20090525

#: Experiments whose trials route through ``config.flood_kwargs()`` onto
#: the batched engine; E12 is in the set because it is the next
#: experiment due to move onto the geometric native kernel.
NATIVE_IDS = ("E4", "E6", "E8", "E9", "E11", "E12", "E13", "E14", "E16")
SERIAL_IDS = tuple(f"E{i}" for i in range(1, 17))

#: Experiment seeds whose ``tables-serial`` digests are recorded in
#: ``digests.json``; ``--seed`` picks one of them.
SEED_POOL = 8

#: Campaign grid size and trials per cell.
SWEEP_UNITS = 250
CELL_TRIALS = 2
SWEEP_ID = "perfbench.edge_flooding_cell/v1"

DIGESTS = json.loads(
    (Path(__file__).resolve().parent / "digests.json").read_text())


def experiment_seed(seed: int) -> int:
    """The recorded experiment seed that *seed* selects."""
    return DEFAULT_SEED + (seed - DEFAULT_SEED) % SEED_POOL


def digest(result) -> str:
    """Canonical digest of an experiment table."""
    return hashlib.sha256(result.to_json().encode()).hexdigest()


@dataclass
class Pass:
    """One timed pass over a workload's operations: *wall* in wall
    seconds, *scaled* in the reference seconds of
    :mod:`perfbench.yardstick` (equal to *wall* under a ``WallClock``)."""

    wall: float
    ops: int
    scaled: float = 0.0
    #: per-unit latencies: gaps between campaign progress callbacks
    unit_s: list[float] = field(default_factory=list)
    failed: list[str] = field(default_factory=list)
    #: canonical output per operation, compared across passes
    outputs: list[str] = field(default_factory=list)
    hits: int = 0


class Tables:
    """Experiment tables at standard scale on one backend."""

    entry_modules = ("repro.experiments.runner",)

    def __init__(self, backend: str, ids: tuple[str, ...], seed: int) -> None:
        self.backend = backend
        self.ids = ids
        self.seed = experiment_seed(seed)

    def prepare(self, work_dir: Path) -> None:
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.registry import load_experiment

        self.config = ExperimentConfig(seed=self.seed, scale="standard",
                                       backend=self.backend)
        for experiment_id in self.ids:
            load_experiment(experiment_id)  # imports are set-up, not work

    def run_pass(self, clock, recorder: Recorder | None = None) -> Pass:
        from repro.experiments.runner import run_one

        span = recorder.span if recorder else lambda _name: nullcontext()
        results, errors = {}, {}
        done = Pass(wall=0.0, ops=len(self.ids))
        for experiment_id in self.ids:
            try:
                with clock.op() as timing, span(f"experiments.{experiment_id}"):
                    results[experiment_id] = run_one(experiment_id, self.config)
            except Exception as exc:  # one failed table must not stop the pass
                errors[experiment_id] = f"{type(exc).__name__}: {exc}"
            done.wall += timing.raw
            done.scaled += timing.scaled
        for experiment_id in self.ids:
            result = results.get(experiment_id)
            problem = errors.get(experiment_id) or self._check(experiment_id,
                                                               result)
            if problem:
                done.failed.append(f"{experiment_id}: {problem}")
            done.outputs.append(digest(result) if result else "")
        return done

    def _check(self, experiment_id: str, result) -> str | None:
        if self.backend == "serial":
            expected = DIGESTS[str(self.seed)][experiment_id]
            actual = digest(result)
            if actual != expected:
                return f"table digest {actual[:12]} != recorded {expected[:12]}"
            return None
        if not result.rows:
            return "empty table"
        if result.verdict == "inconsistent":
            return "verdict inconsistent"
        return None

    def traced_pass(self, recorder: Recorder) -> Pass:
        return self.run_pass(WallClock(), recorder)

    def layer_ratios(self, traced: Pass, untraced: list[Pass],
                     totals: dict[str, Totals]) -> dict[str, float]:
        return {"trace.overhead_frac": traced.wall / statistics.median(
            p.wall for p in untraced) - 1.0}


def edge_flooding_cell(point) -> dict[str, Any]:
    """One sweep cell: serial flooding trials on a small edge-MEG."""
    from repro.core.flooding import flooding_trials
    from repro.edgemeg.meg import EdgeMEG

    graph = EdgeMEG(point["n"], point["p"], point["q"])
    results = flooding_trials(graph, trials=CELL_TRIALS, seed=point.seed)
    return {"mean_time": float(np.mean([r.time for r in results])),
            "completed": int(sum(r.completed for r in results))}


def sweep_grid(seed: int, units: int = SWEEP_UNITS) -> list[dict[str, Any]]:
    """*units* distinct edge-MEG cells with n <= 64, drawn from *seed*."""
    rng = np.random.default_rng(seed)
    grid = []
    for index in range(units):
        n = int(rng.choice([16, 24, 32, 48, 64]))
        grid.append({"n": n, "p": round(float(rng.uniform(1.0, 4.0)) / n, 6),
                     "q": round(float(rng.uniform(0.2, 0.8)), 4),
                     "cell": index})
    return grid


def _canonical(section: Any) -> str:
    return json.dumps(section, sort_keys=True)


class Campaign:
    """A sweep of tiny cells through the campaign store and queue.

    Set-up fills a fresh store with one cold pass, which computes and
    checkpoints every unit; each timed pass is a warm pass over that
    store, which fetches every unit.  The cold pass is disk-bound (every
    unit commits several SQLite transactions), so it is reported with
    the traced run's per-layer metrics rather than gated end to end.
    """

    entry_modules = ("repro.campaign.plan", "repro.campaign.scheduler",
                     "repro.campaign.store")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.grid = sweep_grid(seed)

    def prepare(self, work_dir: Path) -> None:
        from repro.analysis.records import rows_to_json
        from repro.analysis.sweep import SweepPoint
        from repro.campaign.plan import plan_sweep

        self.work_dir = work_dir
        plan = plan_sweep(edge_flooding_cell, self.grid, seed=self.seed,
                          sweep_id=SWEEP_ID)
        # The expected rows come from calling the cell directly, outside
        # the campaign layer, through the same row codec execute_unit uses.
        self.expected = []
        for unit in plan:
            point = SweepPoint(params=dict(unit.payload["params"]),
                               seed=unit.payload["seed"],
                               index=unit.payload["index"])
            row = dict(point.params)
            row.update(edge_flooding_cell(point))
            self.expected.append(
                _canonical({"row": json.loads(rows_to_json([row]))[0]}))
        self.store_dir = Path(tempfile.mkdtemp(dir=work_dir))
        self.cold = self._campaign(WallClock(), self.store_dir, fetch=False)
        print(f"# cold pass: {self.cold.wall:.3f} s for {self.cold.ops} units")

    def _campaign(self, clock, store_dir: Path, *, fetch: bool) -> Pass:
        """One campaign over the grid; *fetch* says whether every unit
        must come from the store (else every unit must be computed)."""
        from repro.campaign.plan import plan_sweep
        from repro.campaign.scheduler import run_campaign
        from repro.campaign.store import ResultStore

        ticks: list[float] = []
        with clock.op() as timing:
            plan = plan_sweep(edge_flooding_cell, self.grid, seed=self.seed,
                              sweep_id=SWEEP_ID)
            report = run_campaign(plan, ResultStore(store_dir), jobs=1,
                                  progress=lambda *_: ticks.append(
                                      time.perf_counter()))
        done = Pass(wall=timing.raw, ops=len(plan), scaled=timing.scaled,
                    unit_s=list(np.diff(ticks)), hits=len(report.fetched))
        served = set(report.fetched if fetch else report.computed)
        for index, unit in enumerate(plan):
            output = _canonical(report.results.get(unit.key))
            done.outputs.append(output)
            if unit.key not in served:
                done.failed.append(f"{unit.label}: not "
                                   + ("fetched" if fetch else "computed"))
            elif output != self.expected[index]:
                done.failed.append(f"{unit.label}: row differs from the cell")
        return done

    def run_pass(self, clock) -> Pass:
        warm = self._campaign(clock, self.store_dir, fetch=True)
        if warm.outputs != self.cold.outputs:
            warm.failed.append("warm rows differ from cold rows")
        return warm

    def traced_pass(self, recorder: Recorder) -> Pass:
        """A cold pass over a fresh store, then a warm pass over it."""
        store_dir = Path(tempfile.mkdtemp(dir=self.work_dir))
        cold = self._campaign(WallClock(), store_dir, fetch=False)
        warm = self._campaign(WallClock(), store_dir, fetch=True)
        self.traced_cold = cold
        return Pass(wall=cold.wall + warm.wall, ops=cold.ops + warm.ops,
                    failed=cold.failed + warm.failed, outputs=warm.outputs,
                    hits=warm.hits)

    def layer_ratios(self, traced: Pass, untraced: list[Pass],
                     totals: dict[str, Totals]) -> dict[str, float]:
        from perfbench import measure

        executed = totals.get("campaign.scheduler.execute_unit")
        units_ms = [1000.0 * s for s in self.cold.unit_s]
        tail = measure.supported_tail(len(units_ms))
        print(f"# campaign.cold_unit_ms from {len(units_ms)} samples (highest "
              f"percentile with >= 10 samples beyond it: "
              f"{'none' if tail is None else f'p{tail:g}'})")
        warm = statistics.median(p.wall for p in untraced)
        return {
            "campaign.cold_s": self.cold.wall,
            "campaign.cold_unit_ms.p50": measure.percentile(units_ms, 50),
            "campaign.cold_unit_ms.p95": measure.percentile(units_ms, 95),
            "campaign.cache_hit_frac": traced.hits / traced.ops,
            "campaign.overhead_frac": 1.0 - (executed.s if executed else 0.0)
            / self.traced_cold.wall,
            "trace.overhead_frac": traced.wall / (self.cold.wall + warm) - 1.0,
        }


WORKLOADS = ("tables-serial", "tables-native", "campaign-sweep")


def make(name: str, seed: int):
    """The workload called *name*, with inputs drawn from *seed*."""
    if name == "tables-serial":
        return Tables("serial", SERIAL_IDS, seed)
    if name == "tables-native":
        return Tables("native", NATIVE_IDS, seed)
    if name == "campaign-sweep":
        return Campaign(seed)
    raise ValueError(f"unknown workload {name!r}")
