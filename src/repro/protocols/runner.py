"""Serial reference runner and engine-backed trial batches for protocols.

:func:`spread` is the protocol generalisation of
:func:`repro.core.flooding.flood` — one run of one protocol on one
evolving-graph realisation, returning the same
:class:`~repro.core.flooding.FloodingResult` record.  It is the only
exact round loop for protocols: the serial backend calls it per trial,
the engine's replay chunks call it per trial on their slice of the
same stream layout, and the engine's native fallback runs its round
loop (:func:`_spread_rounds`) on chunk-spawned streams.  For
:class:`~repro.protocols.base.Flooding` it is **bit-identical** to
``flood`` (same seed handling, same per-round query, same bookkeeping);
for randomized protocols it splits the seed as
``rng_graph, rng_protocol = spawn(seed, 2)`` (the coupling convention
of :mod:`repro.core.spreading`, kept so the new
:class:`~repro.protocols.zoo.ProbabilisticFlooding` /
:class:`~repro.protocols.zoo.ExpiringFlooding` reproduce the legacy
``probabilistic_flood`` / ``parsimonious_flood`` draw for draw).

:func:`spreading_trials` is the protocol counterpart of
:func:`repro.core.flooding.flooding_trials`: independent trials on the
serial backend (a loop here, outside the engine) or on the engine's
batched / parallel backends.  Per-trial
randomness uses the ``derive_seed`` discipline of
:func:`repro.core.spreading.protocol_trials` — trial ``i`` of any
protocol gets the integer seed ``derive_seed(seed, 2 i)`` (and its
random source from ``derive_seed(seed, 2 i + 1)``), so running
different protocols with the same master seed couples the
evolving-graph realisation trial by trial.  Flooding keeps the legacy
``spawn(seed, 2 trials)`` stream layout of ``flooding_trials`` — the
frozen layout existing campaign cache entries were computed under.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.flooding import (
    DEFAULT_MAX_STEPS,
    FloodingResult,
    _resolve_sources,
    resolve_max_steps,
)
from repro.dynamics.base import EvolvingGraph
from repro.protocols.base import FLOODING, Flooding, SpreadingProtocol
from repro.util.rng import SeedLike, as_generator, as_seed_sequence, derive_seed, spawn
from repro.util.validation import require_positive_int

__all__ = [
    "spread",
    "spreading_trials",
    "protocol_trial_streams",
    "split_protocol_seed",
    "draw_trial_source",
]


def split_protocol_seed(protocol: SpreadingProtocol,
                        seed: SeedLike) -> tuple:
    """``(graph_seed, protocol_rng)`` from one trial seed.

    The single definition of the seed-split convention: protocols with
    ``splits_seed`` get ``spawn(seed, 2)`` streams; flooding-style
    protocols hand the seed to ``graph.reset`` untouched and consume no
    protocol randomness.  Every replay path (serial :func:`spread`, the
    engine's protocol chunks) goes through here, so cross-backend
    bit-identity cannot drift.
    """
    if protocol.splits_seed:
        rng_graph, rng_proto = spawn(seed, 2)
        return rng_graph, rng_proto
    return seed, None


def draw_trial_source(source, n: int, source_seed: int):
    """One trial's source: *source* as given, or — when ``None`` — a
    uniform node from the trial's dedicated source stream (the other
    half of the replay-layout discipline shared by all backends)."""
    if source is None:
        return int(as_generator(source_seed).integers(n))
    return source


def spread(
    protocol: SpreadingProtocol,
    graph: EvolvingGraph,
    source: int | Sequence[int] = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    reset: bool = True,
) -> FloodingResult:
    """Run *protocol* on *graph* from *source*; the serial reference path.

    Mirrors :func:`repro.core.flooding.flood` exactly (update order,
    truncation, history bookkeeping) with the protocol's four rules
    plugged into the round.  A stalled protocol (retire predicate
    fires) returns early with ``completed = False`` and ``time`` equal
    to the rounds actually run.
    """
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = resolve_max_steps(n, max_steps)

    rng_graph, rng_proto = split_protocol_seed(protocol, seed)
    if reset:
        graph.reset(rng_graph)
    return _spread_rounds(protocol, graph, sources, budget, rng_proto)


def _spread_rounds(protocol: SpreadingProtocol, graph: EvolvingGraph,
                   sources: tuple[int, ...], budget: int,
                   rng_proto: "np.random.Generator | None") -> FloodingResult:
    """The round loop of :func:`spread` on an already-reset *graph*.

    *sources* are resolved and *budget* is a resolved step count;
    *rng_proto* is the protocol's own generator (``None`` for protocols
    that draw none).  The engine's native fallback calls this with its
    chunk-spawned streams.
    """
    n = graph.num_nodes
    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    state = protocol.state_init(n, sources)
    history = [len(sources)]

    # Per-run transmit/sample kernel attribution, only when a live sink
    # is installed: the accumulation adds two clock reads per round.
    traced = obs.enabled()
    transmit_s = 0.0

    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        active = protocol.active_mask(state, informed, t, rng_proto)
        if traced:
            t0 = time.perf_counter()
        fresh = protocol.transmit(snap, state, informed, active, t, rng_proto)
        if traced:
            transmit_s += time.perf_counter() - t0
        count = history[-1]
        if fresh.any():
            informed |= fresh
            protocol.absorb(state, fresh, t + 1)
            count = int(informed.sum())
        graph.step()
        t += 1
        history.append(count)
        if count < n and protocol.stalled(state, informed, t):
            break

    if traced:
        obs.histogram("protocol.transmit_s", transmit_s,
                      protocol=protocol.name, rounds=t)
        obs.counter("protocol.rounds", t, protocol=protocol.name)

    return FloodingResult(
        source=sources,
        time=t,
        completed=history[-1] == n,
        informed_history=np.asarray(history, dtype=np.int64),
        informed=informed,
    )


def protocol_trial_streams(seed: SeedLike, start: int,
                           stop: int) -> list[tuple[int, int]]:
    """Per-trial ``(run_seed, source_seed)`` integers for trials
    ``start .. stop - 1`` — the protocol replay stream layout.

    The seed is normalised to a :class:`~numpy.random.SeedSequence`
    exactly once, so callers slicing different trial ranges from the
    same master seed (the engine's chunks) agree with a caller deriving
    all of them at once (the serial loop).
    """
    root = as_seed_sequence(seed)
    return [(derive_seed(root, 2 * i), derive_seed(root, 2 * i + 1))
            for i in range(start, stop)]


def _is_plain_flooding(protocol: SpreadingProtocol) -> bool:
    return type(protocol) is Flooding


def spreading_trials(
    protocol: "SpreadingProtocol | str",
    graph: EvolvingGraph,
    *,
    trials: int,
    seed: SeedLike = None,
    source: int | Sequence[int] | None = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    backend: str = "serial",
    jobs: int | None = None,
    rng_mode: str = "replay",
    chunk_size: int | None = None,
) -> list[FloodingResult]:
    """Independent trials of *protocol* with deterministic per-trial seeds.

    Parameters mirror :func:`repro.core.flooding.flooding_trials`;
    *protocol* may be an instance or a registry token (``"push-pull"``,
    ``"p-flood:transmit_probability=0.3"``, ...).  With the default
    ``rng_mode="replay"`` the serial, batched, and parallel backends
    are bit-identical for the same seed; ``"native"`` draws protocol
    and model randomness from the engine's chunk streams (deterministic
    in ``(seed, trials, chunk_size)``, independent of *jobs*).

    Plain flooding delegates to :func:`flooding_trials`, keeping its
    legacy stream layout (and therefore its campaign cache identity)
    byte for byte.
    """
    from repro.protocols.registry import resolve_protocol

    protocol = resolve_protocol(protocol)
    trials = require_positive_int(trials, "trials")
    if chunk_size is not None:
        require_positive_int(chunk_size, "chunk_size")
    if _is_plain_flooding(protocol):
        from repro.core.flooding import flooding_trials

        return flooding_trials(graph, trials=trials, seed=seed, source=source,
                               max_steps=max_steps, backend=backend,
                               jobs=jobs, rng_mode=rng_mode,
                               chunk_size=chunk_size)
    if backend != "serial":
        from repro.engine import SimulationPlan, run_plan
        from repro.engine.plan import DEFAULT_CHUNK_SIZE

        plan = SimulationPlan(model=graph, trials=trials, source=source,
                              max_steps=max_steps, seed=seed,
                              rng_mode=rng_mode, protocol=protocol,
                              chunk_size=(DEFAULT_CHUNK_SIZE if chunk_size is None
                                          else chunk_size))
        return run_plan(plan, backend=backend, jobs=jobs).to_results()
    n = graph.num_nodes
    with obs.span("protocol.trials", protocol=protocol.name,
                  backend=backend, trials=trials, n=n):
        results: list[FloodingResult] = []
        for run_seed, source_seed in protocol_trial_streams(seed, 0, trials):
            src = draw_trial_source(source, n, source_seed)
            results.append(spread(protocol, graph, src, seed=run_seed,
                                  max_steps=max_steps))
        return results
