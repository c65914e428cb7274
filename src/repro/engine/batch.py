"""Chunk execution: the per-trial reference loop and the native kernels.

A chunk runs on one of two paths, by the plan's stream layout (see
:mod:`repro.engine.plan`):

*replay*
    The serial reference loop itself — one
    :func:`repro.core.flooding.flood` (flooding) or
    :func:`repro.protocols.runner.spread` (other protocols) call per
    trial on one model, fed the chunk's slice of the serial stream
    layout — so every result is bit-identical to ``flooding_trials`` /
    ``spreading_trials`` on ``backend="serial"`` by construction.
*native*
    One chunk-level generator drawn in batch order, advancing **B
    trials simultaneously** as a ``(B, n)`` boolean informed matrix.
    Everything model-specific — the vectorised population kernels
    (sparse edge churn, shared lattice steps, stacked mobility
    kinematics) — comes from the
    :class:`~repro.dynamics.batched.BatchedDynamics` registry
    (:func:`~repro.dynamics.batched.batched_dynamics_for`), and
    everything *process*-specific — activation, transmission, stalling
    — from the :class:`~repro.protocols.batched.BatchedProtocol`
    registry (:func:`~repro.protocols.batched.batched_protocol_for`).
    Pairs without native kernels on both axes fall back to the
    reference round loop per trial, with streams spawned from the
    chunk generator.

This module owns only the protocol- and model-agnostic bookkeeping:
informed matrices, count histories, truncation, multi-source seeding,
and chunk assembly.  It imports **no concrete model classes** — model
packages register their kernel providers (``repro.edgemeg.kernels``,
``repro.geometric.kernels``, ``repro.mobility.kernels``).
"""
from __future__ import annotations

from dataclasses import replace
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.flooding import _resolve_sources, flood
from repro.dynamics.base import EvolvingGraph
from repro.dynamics.batched import BatchedDynamics, batched_dynamics_for
from repro.engine.results import TrialEnsemble
from repro.protocols.batched import BatchedProtocol, batched_protocol_for
from repro.protocols.runner import _spread_rounds, draw_trial_source, spread
from repro.util.validation import require, require_node

__all__ = [
    "run_chunk",
    "run_multisource_replay",
]


# ---------------------------------------------------------------------------
# per-trial reference loop: replay chunks and the native fallback
# ---------------------------------------------------------------------------

def _ensemble(plan, results: list, n: int) -> TrialEnsemble:
    """Per-trial *results* as one ensemble, honouring the plan's
    recording flags so every path returns the same ensemble shape."""
    ensemble = TrialEnsemble.from_results(results, num_nodes=n)
    return replace(
        ensemble,
        histories=ensemble.histories if plan.record_history else (),
        informed=ensemble.informed if plan.record_informed else None)


def _run_chunk_replay(plan, payload: dict, budget: int) -> TrialEnsemble:
    """Run the chunk's trials on their replay streams, one reference
    :func:`~repro.core.flooding.flood` (flooding: a ``(graph, source)``
    generator pair per trial) or :func:`~repro.protocols.runner.spread`
    (other protocols: per-trial ``(run_seed, source_seed)`` integers)
    call at a time — bit-identical to the serial loops by construction."""
    model = plan.make_model()
    n = model.num_nodes
    results = []
    if plan.is_flooding:
        streams = payload["streams"]
        for rng_graph, rng_src in zip(streams[::2], streams[1::2]):
            src = (int(rng_src.integers(n)) if plan.source is None
                   else plan.source)
            results.append(flood(model, src, seed=rng_graph, max_steps=budget))
    else:
        for run_seed, source_seed in payload["trial_streams"]:
            src = draw_trial_source(plan.source, n, source_seed)
            results.append(spread(plan.protocol, model, src, seed=run_seed,
                                  max_steps=budget))
    return _ensemble(plan, results, n)


# ---------------------------------------------------------------------------
# native path: one chunk stream, kernels from the provider registry
# ---------------------------------------------------------------------------

def _chunk_sources(plan, rng: np.random.Generator, count: int,
                   n: int) -> list[tuple[int, ...]]:
    if plan.source is None:
        drawn = rng.integers(n, size=count)
        return [(int(s),) for s in drawn]
    fixed = _resolve_sources(plan.source, n)
    return [fixed] * count


def _finish_native(n, sources, times, completed, count_log, informed,
                   record_history, record_informed) -> TrialEnsemble:
    histories: tuple[np.ndarray, ...] = ()
    if record_history:
        log = np.stack(count_log, axis=1)  # (B, steps+1)
        histories = tuple(log[i, :int(times[i]) + 1] for i in range(len(sources)))
    return TrialEnsemble(
        num_nodes=n,
        sources=tuple(sources),
        times=times,
        completed=completed,
        histories=histories,
        informed=informed if record_informed else None,
    )


def _run_chunk_native(plan, kernel: BatchedDynamics, pk: BatchedProtocol,
                      rng: np.random.Generator, count: int,
                      budget: int) -> TrialEnsemble:
    """The generic native loop: model- and protocol-agnostic bookkeeping
    around the dynamics provider's ``batch_init`` /
    ``batch_neighborhood`` / ``batch_step`` hooks composed with the
    protocol provider's ``batch_active`` / ``batch_absorb`` /
    ``batch_stalled`` hooks.  The update order matches the serial
    reference (inform across the time-``t`` graphs, then advance the
    survivors), so every family's native results share the semantics of
    the serial process — as different realisations of the same law.
    For flooding the protocol hooks are the identity (``batch_active``
    returns ``None`` and the informed matrix goes to the dynamics
    kernel untouched), keeping its native draws byte-for-byte what they
    were before the protocol subsystem."""
    n = kernel.num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    state = kernel.batch_init(count, rng)
    pstate = pk.batch_state(count, sources)

    informed = np.zeros((count, n), dtype=bool)
    for i, src in enumerate(sources):
        informed[i, list(src)] = True
    counts = informed.sum(axis=1)
    times = np.zeros(count, dtype=np.int64)
    completed = counts == n
    active = ~completed
    count_log = [counts.copy()]

    t = 0
    while active.any() and t < budget:
        act = np.flatnonzero(active)
        # -- inform across the edges of the time-t graphs ------------------
        members = pk.batch_active(pstate, informed, act, t, rng)
        if members is None:
            fresh = kernel.batch_neighborhood(state, informed, act)
        else:
            stacked = np.zeros_like(informed)
            stacked[act] = members
            fresh = (kernel.batch_neighborhood(state, stacked, act)
                     & ~informed[act])
        informed[act] |= fresh
        t += 1
        pk.batch_absorb(pstate, act, fresh, t)
        counts[act] = informed[act].sum(axis=1)
        count_log.append(counts.copy())
        newly_done = active & (counts == n)
        if newly_done.any():
            times[newly_done] = t
            completed |= newly_done
            active &= ~newly_done
            kernel.batch_retire(state, active)
        if active.any():
            act = np.flatnonzero(active)
            stalled = pk.batch_stalled(pstate, informed, act, t)
            if stalled is not None and stalled.any():
                retired = act[stalled]
                times[retired] = t  # completed stays False
                active[retired] = False
                kernel.batch_retire(state, active)
        if not active.any() or t >= budget:
            break
        # -- advance the still-active trial populations --------------------
        kernel.batch_step(state, rng, active)
    times[active] = t
    return _finish_native(n, sources, times, completed, count_log, informed,
                          plan.record_history, plan.record_informed)


def _run_chunk_native_generic(plan, model: EvolvingGraph,
                              rng: np.random.Generator, count: int,
                              budget: int) -> TrialEnsemble:
    """Native fallback for protocol/model pairs without composed batched
    kernels: the reference round loop per trial on one *model*, with
    generators spawned from the chunk stream.  Each trial resets the
    model from its own graph stream; protocols drawing per-round
    randomness get a second block of per-trial protocol streams."""
    n = model.num_nodes
    sources = _chunk_sources(plan, rng, count, n)
    graph_streams = rng.spawn(count)
    proto_streams = (rng.spawn(count) if plan.protocol.splits_seed
                     else [None] * count)
    results = []
    for src, rng_graph, rng_proto in zip(sources, graph_streams,
                                         proto_streams):
        model.reset(rng_graph)
        results.append(_spread_rounds(plan.protocol, model, src, budget,
                                      rng_proto))
    return _ensemble(plan, results, n)


# ---------------------------------------------------------------------------
# chunk entry point (also the multiprocessing worker function)
# ---------------------------------------------------------------------------

def run_chunk(payload: dict) -> TrialEnsemble:
    """Run one chunk of a plan; the executor's unit of work.

    *payload* carries the plan, the trial range, and the pre-derived
    randomness (replay generator pairs or the native chunk seed), so a
    worker process needs nothing beyond this dict.  Kernel selection
    goes through the :class:`BatchedDynamics` registry.
    """
    plan = payload["plan"]
    start, stop = payload["range"]
    count = stop - start
    budget = payload["budget"]
    with obs.span("engine.chunk", start=start, stop=stop, trials=count,
                  mode=plan.rng_mode, protocol=plan.protocol.name) as sp:
        if plan.rng_mode == "replay":
            ensemble = _run_chunk_replay(plan, payload, budget)
        else:
            rng = np.random.default_rng(payload["chunk_seed"])
            template = plan.make_model()
            kernel = batched_dynamics_for(template)
            pk = batched_protocol_for(plan.protocol, template.num_nodes)
            sp.set(kernel=type(kernel).__name__,
                   protocol_kernel=type(pk).__name__,
                   native=kernel.native_capable and pk.native_capable)
            if kernel.native_capable and pk.native_capable:
                ensemble = _run_chunk_native(plan, kernel, pk, rng, count,
                                             budget)
            else:
                ensemble = _run_chunk_native_generic(plan, template, rng,
                                                     count, budget)
        if obs.enabled():
            times = np.asarray(ensemble.times)
            obs.counter("engine.trials", count)
            obs.counter("engine.rounds",
                        int(times.max(initial=0)))
            obs.gauge("engine.completed_fraction",
                      float(np.asarray(ensemble.completed).mean()))
            obs.histogram("engine.spreading_time", float(times.mean()))
        return ensemble


# ---------------------------------------------------------------------------
# multi-source flooding of a single replayed realisation
# ---------------------------------------------------------------------------

def run_multisource_replay(graph: EvolvingGraph, sources: Sequence[int],
                           replay_seed: int, budget: int) -> int:
    """``max_s T(s)`` over *sources* on one realisation, in a single pass.

    The serial definition replays the same seed once per source; here
    the realisation is advanced exactly once while every source floods
    as one row of an ``(S, n)`` informed matrix.  Bit-identical to the
    serial replay: same graph sequence, same per-row update rule.  The
    shared snapshot answers all rows through its batched
    :meth:`~repro.dynamics.base.GraphSnapshot.neighborhood_masks` query
    (a boolean row-gather for adjacency snapshots — no per-row float
    re-materialisation).

    Raises
    ------
    RuntimeError
        If any source fails to flood within *budget* steps (matching
        :func:`repro.core.flooding.flooding_time`); the first such
        source in *sources* order is reported.
    """
    n = graph.num_nodes
    source_list = [require_node(int(s), n, "source") for s in sources]
    require(len(source_list) > 0, "at least one source is required")
    graph.reset(replay_seed)
    num = len(source_list)
    informed = np.zeros((num, n), dtype=bool)
    informed[np.arange(num), source_list] = True
    counts = informed.sum(axis=1)
    times = np.zeros(num, dtype=np.int64)
    active = counts < n
    t = 0
    while active.any() and t < budget:
        act = np.flatnonzero(active)
        fresh = graph.snapshot().neighborhood_masks(informed[act])
        informed[act] |= fresh
        t += 1
        counts[act] = informed[act].sum(axis=1)
        newly_done = active & (counts == n)
        times[newly_done] = t
        active &= ~newly_done
        if active.any() and t < budget:
            graph.step()
    if active.any():
        worst = int(np.flatnonzero(active)[0])
        raise RuntimeError(
            f"flooding did not complete within {budget} steps "
            f"({int(counts[worst])}/{n} nodes informed)"
        )
    return int(times.max())
