"""The layer table: which functions the traced run wraps, the per-layer
metrics it reports, and the predicted zeros it checks.

The predictions (which end-to-end metric each layer should move, on
which workloads it must do work, and where it must stay at zero) live
in ``predictions.json`` beside this file, so issues can cite them by
layer name.
"""

from __future__ import annotations

import importlib
import json
import statistics
from pathlib import Path

from perfbench.spans import Target, Totals

PREDICTIONS = json.loads(
    (Path(__file__).resolve().parent / "predictions.json").read_text())

EXPERIMENT_IDS = tuple(f"E{i}" for i in range(1, 17))

#: Plain functions and methods, wrapped one by one: (metric, module, qualname).
_CALLS = (
    ("geometric.neighbors.within_radius_of_members",
     "repro.geometric.neighbors", "within_radius_of_members"),
    ("geometric.neighbors.batched_within_radius",
     "repro.geometric.neighbors", "batched_within_radius"),
    ("core.expansion.estimate_worst_expansion",
     "repro.core.expansion", "estimate_worst_expansion"),
    ("core.flooding.flood", "repro.core.flooding", "flood"),
    ("core.flooding.flooding_trials", "repro.core.flooding", "flooding_trials"),
    ("edgemeg.meg.EdgeMEG.step", "repro.edgemeg.meg", "EdgeMEG.step"),
    ("edgemeg.meg.EdgeMEG.snapshot", "repro.edgemeg.meg", "EdgeMEG.snapshot"),
    ("geometric.meg.GeometricMEG.step", "repro.geometric.meg",
     "GeometricMEG.step"),
    ("geometric.meg.GeometricMEG.snapshot", "repro.geometric.meg",
     "GeometricMEG.snapshot"),
    ("protocols.runner.spreading_trials", "repro.protocols.runner",
     "spreading_trials"),
    ("protocols.runner.spread", "repro.protocols.runner", "spread"),
    ("core.spreading.protocol_trials", "repro.core.spreading",
     "protocol_trials"),
    ("engine.batch.run_chunk", "repro.engine.batch", "run_chunk"),
    ("campaign.scheduler.execute_unit", "repro.campaign.scheduler",
     "execute_unit"),
    ("campaign.store.put", "repro.campaign.store", "ResultStore.put"),
    ("campaign.store.get", "repro.campaign.store", "ResultStore.get"),
    ("campaign.jobs.submit", "repro.campaign.jobs", "JobQueue.submit"),
    ("campaign.jobs.heartbeat", "repro.campaign.jobs", "JobQueue.heartbeat"),
    ("campaign.jobs.complete", "repro.campaign.jobs", "JobQueue.complete"),
)

_KERNEL_FAMILIES = ("edgemeg", "geometric", "mobility")


def targets() -> list[Target]:
    """Every wrapped call of the traced run."""
    from repro.dynamics.batched import BatchedDynamics, GenericBatchedDynamics
    from repro.protocols.batched import BatchedProtocol, GenericBatchedProtocol

    out = [Target(metric, module, qualname)
           for metric, module, qualname in _CALLS]
    out += [
        Target("engine.executor.run_plan", "repro.engine.executor",
               "run_plan", observe=lambda ensemble: ensemble.num_trials),
        Target("campaign.jobs.lease", "repro.campaign.jobs", "JobQueue.lease",
               observe=lambda job: float(job is None)),
        Target("dynamics.batched.batched_dynamics_for",
               "repro.dynamics.batched", "batched_dynamics_for",
               observe=lambda p: float(isinstance(p, GenericBatchedDynamics))),
        Target("protocols.batched.batched_protocol_for",
               "repro.protocols.batched", "batched_protocol_for",
               observe=lambda p: float(isinstance(p, GenericBatchedProtocol))),
    ]
    out += _methods("protocols.batched.batch_active", "repro.protocols.batched",
                    BatchedProtocol, "batch_active")
    for family in _KERNEL_FAMILIES:
        for attr in ("batch_step", "batch_neighborhood"):
            out += _methods(f"{family}.kernels.{attr}",
                            f"repro.{family}.kernels", BatchedDynamics, attr)
    return out


def _methods(metric: str, module_name: str, base: type,
             attr: str) -> list[Target]:
    """One target per class of *module_name* that defines *attr* itself
    (subclasses that inherit it are covered by their base's wrapper)."""
    module = importlib.import_module(module_name)
    found = [Target(metric, module_name, f"{cls.__name__}.{attr}")
             for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, base)
             and cls.__module__ == module_name and attr in vars(cls)]
    if not found:
        raise LookupError(f"no class in {module_name} defines {attr}")
    return found


def _calls_s(name: str) -> list[tuple[str, str]]:
    return [(f"{name}.calls", "count"), (f"{name}.s", "s")]


#: Every per-layer metric, in report order, with its unit.
PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    [(f"experiments.{e}.s", "s") for e in EXPERIMENT_IDS]
    + _calls_s("geometric.neighbors.within_radius_of_members")
    + _calls_s("geometric.neighbors.batched_within_radius")
    + _calls_s("core.expansion.estimate_worst_expansion")
    + _calls_s("core.flooding.flood") + [("core.flooding.flood.self_s", "s")]
    + _calls_s("core.flooding.flooding_trials")
    + [(f"{name}.s", "s") for name in (
        "edgemeg.meg.EdgeMEG.step", "edgemeg.meg.EdgeMEG.snapshot",
        "geometric.meg.GeometricMEG.step",
        "geometric.meg.GeometricMEG.snapshot")]
    + _calls_s("protocols.runner.spreading_trials")
    + _calls_s("protocols.runner.spread")
    + _calls_s("core.spreading.protocol_trials")
    + [("protocols.batched.batch_active.s", "s"),
       ("protocols.batched.generic_frac", "frac")]
    + _calls_s("engine.executor.run_plan") + _calls_s("engine.batch.run_chunk")
    + [("engine.trials", "count"), ("engine.trials_per_s", "1/s")]
    + [metric for family in _KERNEL_FAMILIES
       for attr in ("batch_step", "batch_neighborhood")
       for metric in _calls_s(f"{family}.kernels.{attr}")]
    + [("dynamics.batched.generic_frac", "frac")]
    + _calls_s("campaign.scheduler.execute_unit")
    + _calls_s("campaign.store.put") + _calls_s("campaign.store.get")
    + [("campaign.jobs.submit.s", "s")]
    + _calls_s("campaign.jobs.lease") + _calls_s("campaign.jobs.heartbeat")
    + _calls_s("campaign.jobs.complete")
    + [("campaign.lease_empty_frac", "frac"), ("campaign.cache_hit_frac", "frac"),
       ("campaign.overhead_frac", "frac"), ("campaign.cold_s", "s"),
       ("campaign.cold_unit_ms.p50", "ms"), ("campaign.cold_unit_ms.p95", "ms")]
    + [(f"import.{module}.s", "s") for module in (
        "repro", "repro.geometric", "repro.obs", "repro.campaign",
        "repro.engine")]
    + [("trace.overhead_frac", "frac")]
)


def _mean_note(totals: dict[str, Totals], name: str) -> float:
    tot = totals.get(name)
    return statistics.fmean(tot.notes) if tot and tot.notes else 0.0


def layer_values(totals: dict[str, Totals],
                 given: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric, from span *totals* plus the
    workload-level values in *given* (imports, campaign and tracing
    ratios)."""
    run_plan = totals.get("engine.executor.run_plan")
    trials = sum(run_plan.notes) if run_plan else 0.0
    derived = {
        "protocols.batched.generic_frac":
            _mean_note(totals, "protocols.batched.batched_protocol_for"),
        "dynamics.batched.generic_frac":
            _mean_note(totals, "dynamics.batched.batched_dynamics_for"),
        "engine.trials": trials,
        "engine.trials_per_s": trials / run_plan.s if trials else 0.0,
        "campaign.lease_empty_frac":
            _mean_note(totals, "campaign.jobs.lease"),
    }
    values = {}
    for name, _unit in PER_LAYER:
        if name in given:
            values[name] = float(given[name])
        elif name in derived:
            values[name] = float(derived[name])
        else:  # a span total, or a workload-level value this workload lacks
            base, _, field = name.rpartition(".")
            tot = totals.get(base)
            values[name] = float(getattr(tot, field)) if tot else 0.0
    return values


def check_predictions(workload: str,
                      values: dict[str, float]) -> tuple[list[str], list[str]]:
    """Problems with the layer predictions on *workload*, and the layers
    whose predicted zero held.

    A layer predicted to work records calls (or time, for layers with
    no call counts); a layer predicted idle records no call and no time.
    Ratios and other derived metrics are not checked.
    """
    problems, zeros = [], []
    for row in PREDICTIONS:
        timed = [m for m in row["metrics"] if m.endswith((".calls", ".s"))]
        counted = [m for m in timed if m.endswith(".calls")] or timed
        if workload in row["on"] and timed \
                and not sum(values[m] for m in counted) > 0:
            problems.append(f"{row['layer']}: predicted to work on "
                            f"{workload} but recorded 0 calls")
        if workload in row["zero_on"]:
            busy = [m for m in timed if values[m] != 0]
            if busy:
                problems.append(f"{row['layer']}: predicted 0 on {workload} "
                                f"but {', '.join(busy)} non-zero")
            else:
                zeros.append(row["layer"])
    return problems, zeros
