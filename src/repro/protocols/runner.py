"""Serial reference runner and engine-backed trial batches for protocols.

:func:`_spread_rounds` is the one single-trial round loop of the
library.  :func:`spread` runs it for any protocol,
:func:`repro.core.flooding.flood` runs it with
:data:`~repro.protocols.base.FLOODING` (plus its observer), the legacy
functions of :mod:`repro.core.spreading` are :func:`spread` calls, the
engine's replay chunks call ``flood`` / ``spread`` per trial, and the
engine's native fallback calls the loop on chunk-spawned streams.
Plain flooding on a static graph stops querying at its first silent
round (the static fixpoint of :mod:`repro.core.flooding`); a random
protocol's silent round is no fixpoint, so others stop only when
``stalled``.

:func:`spread` returns the :class:`~repro.core.flooding.FloodingResult`
record of ``flood``.  For :class:`~repro.protocols.base.Flooding` it is
**bit-identical** to ``flood`` (same seed handling, same loop); for
randomized protocols it splits the seed as
``rng_graph, rng_protocol = spawn(seed, 2)`` (the coupling convention
of :mod:`repro.core.spreading`).

:func:`spreading_trials` is the protocol counterpart of
:func:`repro.core.flooding.flooding_trials`: independent trials on the
serial backend (a loop here, outside the engine) or on the engine's
batched / parallel backends.  Per-trial randomness follows the protocol
replay layout of :func:`protocol_trial_streams`, shared with
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
    FloodingObserver,
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

    Shares :func:`repro.core.flooding.flood`'s round loop (update
    order, truncation, history bookkeeping) with the protocol's four
    rules plugged into the round.  A stalled protocol (retire predicate
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
                   rng_proto: "np.random.Generator | None",
                   observer: FloodingObserver | None = None) -> FloodingResult:
    """The round loop of :func:`spread` on an already-reset *graph*.

    *sources* are resolved and *budget* is a resolved step count;
    *rng_proto* is the protocol's own generator (``None`` for protocols
    that draw none); *observer* is called as in
    :func:`~repro.core.flooding.flood`.  ``flood`` and the engine's
    native fallback (with its chunk-spawned streams) call this directly.
    """
    n = graph.num_nodes
    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    state = protocol.state_init(n, sources)
    history = [len(sources)]
    fixpoint = graph.is_static and _is_plain_flooding(protocol)

    # Per-run transmit/sample kernel attribution, only when a live sink
    # is installed: the accumulation adds two clock reads per round.
    traced = obs.enabled()
    transmit_s = 0.0

    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        if observer is not None:
            observer(t, snap, informed)
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
        if fixpoint and count == history[-2]:
            break

    # Static fixpoint: the rest of the budget only steps the clock.
    while fixpoint and history[-1] < n and t < budget:
        if observer is not None:
            observer(t, graph.snapshot(), informed)
        graph.step()
        t += 1
        history.append(history[-1])

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
