"""Spreading protocols beyond flooding: the baseline zoo.

The paper motivates flooding as *the* natural lower bound for broadcast
in unknown dynamic topologies: any broadcast protocol informs a subset
of what flooding informs at every step.  Experiment E14 demonstrates
this dominance empirically against the standard alternatives:

* :func:`probabilistic_flood` — every informed node transmits
  independently with probability ``f`` per step (Oikonomou–Stavrakakis
  style probabilistic flooding, reference [29] of the paper).
* :func:`parsimonious_flood` — a node transmits only for the first
  ``active_steps`` steps after becoming informed (the parsimonious
  flooding of Baumann, Crescenzi and Fraigniaud, reference [4]).
* :func:`push_gossip` — each informed node contacts one uniformly
  random neighbor per step (classical rumor spreading, reference [30]).
* :func:`pull_gossip` — each uninformed node queries one uniformly
  random neighbor.
* :func:`push_pull_gossip` — push plus pull in the same step.

Every function here is one :func:`repro.protocols.runner.spread` call,
so all of them run the same round loop as :func:`~repro.core.flooding.flood`
and return its :class:`~repro.core.flooding.FloodingResult` record.
The gossip functions keep this module's per-node draw rule, which the
vectorised zoo gossip of :mod:`repro.protocols.zoo` does not reproduce.

Seeding convention: every protocol splits its seed as
``rng_graph, rng_protocol = spawn(seed, 2)`` — so passing the *same*
seed to different protocols couples the evolving-graph realisation
while keeping protocol randomness independent.  Flooding itself is
deterministic given the graph; couple it by passing
``spawn(seed, 2)[0]`` as its seed.

Dominance invariant (tested): on the same evolving-graph realisation
and source, the flooding informed set contains the informed set of any
protocol here at every time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from repro.core.flooding import DEFAULT_MAX_STEPS, FloodingResult
from repro.dynamics.base import EvolvingGraph
from repro.protocols.base import SpreadingProtocol
from repro.protocols.runner import draw_trial_source, protocol_trial_streams, spread
from repro.protocols.zoo import ExpiringFlooding, ProbabilisticFlooding
from repro.util.rng import SeedLike
from repro.util.validation import require, require_positive_int

__all__ = [
    "probabilistic_flood",
    "parsimonious_flood",
    "push_gossip",
    "pull_gossip",
    "push_pull_gossip",
    "protocol_trials",
]


def probabilistic_flood(
    graph: EvolvingGraph,
    source: int = 0,
    *,
    transmit_probability: float,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> FloodingResult:
    """Flooding where each informed node transmits w.p. *transmit_probability*.

    With probability 1 it is never faster than flooding; with
    ``transmit_probability = 1`` it coincides with flooding.
    """
    return spread(ProbabilisticFlooding(transmit_probability), graph, source,
                  seed=seed, max_steps=max_steps)


def parsimonious_flood(
    graph: EvolvingGraph,
    source: int = 0,
    *,
    active_steps: int,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> FloodingResult:
    """Flooding where nodes transmit only for *active_steps* steps after
    becoming informed.

    The protocol of reference [4]; it trades completion guarantees for
    message complexity.  On fast-mixing MEGs a small ``active_steps``
    already completes, on slowly-changing ones it can stall — both
    behaviours are exercised in E14.
    """
    return spread(ExpiringFlooding(active_steps), graph, source,
                  seed=seed, max_steps=max_steps)


def _one_random_neighbor(snap, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """For each node in *nodes*, one uniform neighbor (or -1 if isolated)."""
    picks = np.full(nodes.shape[0], -1, dtype=np.int64)
    for idx, u in enumerate(nodes):
        nbrs = snap.neighbors_of(int(u))
        if nbrs.size:
            picks[idx] = int(nbrs[rng.integers(nbrs.size)])
    return picks


@dataclass(frozen=True)
class _Gossip(SpreadingProtocol):
    """Push and/or pull gossip on this module's per-node draw rule: each
    informed node (push), then each uninformed node (pull), draws
    ``rng.integers(degree)`` in node order.  Not registered: the zoo
    gossip draws differently, and E14's tables are drawn with this."""

    push: bool = True
    pull: bool = False

    name: ClassVar[str] = "legacy-gossip"

    def transmit(self, snapshot, state, informed, active, t, rng):
        fresh = np.zeros(informed.shape[0], dtype=bool)
        if self.push:
            pushed = _one_random_neighbor(snapshot, np.flatnonzero(active), rng)
            fresh[pushed[pushed >= 0]] = True
        if self.pull:
            pullers = np.flatnonzero(~informed)
            pulled_from = _one_random_neighbor(snapshot, pullers, rng)
            ok = pulled_from >= 0
            ok[ok] = informed[pulled_from[ok]]
            fresh[pullers[ok]] = True
        return fresh & ~informed


def push_gossip(
    graph: EvolvingGraph,
    source: int = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> FloodingResult:
    """Push rumor spreading: every informed node pushes to one random neighbor."""
    return spread(_Gossip(), graph, source, seed=seed, max_steps=max_steps)


def pull_gossip(
    graph: EvolvingGraph,
    source: int = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> FloodingResult:
    """Pull rumor spreading: every *uninformed* node queries one random
    neighbor and learns the rumor if that neighbor is informed.

    Complements :func:`push_gossip`; pull is known to dominate push in
    the endgame (few uninformed nodes, many potential informers) and to
    lag in the opening — both visible in E14-style comparisons.
    """
    return spread(_Gossip(push=False, pull=True), graph, source, seed=seed,
                  max_steps=max_steps)


def push_pull_gossip(
    graph: EvolvingGraph,
    source: int = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> FloodingResult:
    """Push–pull rumor spreading.

    Informed nodes push to one random neighbor; uninformed nodes pull
    from one random neighbor (successful if that neighbor is informed).
    """
    return spread(_Gossip(pull=True), graph, source, seed=seed, max_steps=max_steps)


# ---------------------------------------------------------------------------
# trial batches
# ---------------------------------------------------------------------------

def _protocol_chunk(payload: dict) -> list[FloodingResult]:
    """Worker entry: run a contiguous block of protocol trials."""
    protocol = payload["protocol"]
    graph = payload["graph"]
    return [protocol(graph, src, seed=run_seed, max_steps=payload["max_steps"],
                     **payload["kwargs"])
            for run_seed, src in payload["runs"]]


def protocol_trials(
    protocol: Callable[..., FloodingResult],
    graph: EvolvingGraph,
    *,
    trials: int,
    seed: SeedLike = None,
    source: int | None = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    backend: str = "serial",
    jobs: int | None = None,
    rng_mode: str = "replay",
    chunk_size: int = 16,
    **protocol_kwargs,
) -> list[FloodingResult]:
    """Independent trials of a spreading *protocol* (engine-executed).

    The protocol counterpart of
    :func:`~repro.core.flooding.flooding_trials`, on the replay layout of
    :func:`~repro.protocols.runner.protocol_trial_streams`: trial ``i``
    gets the integer seed ``derive_seed(seed, 2 i)`` and, when *source*
    is ``None``, a uniform source from ``derive_seed(seed, 2 i + 1)``.
    Integers, so the same *seed* couples the evolving-graph realisation
    of *different* protocols trial by trial (the E14 dominance
    methodology), and ``protocol_trials(partial(spread, P), ...)``
    equals ``spreading_trials(P, ...)`` for non-flooding ``P``.

    *protocol* is any callable with the module's protocol signature
    ``protocol(graph, source, *, seed, max_steps, **kwargs)`` —
    including :func:`repro.core.flooding.flood` itself.

    Backends: ``"serial"`` and ``"batched"`` run in-process (*protocol*
    is an opaque callable, so ``"batched"`` — and with it the
    experiments' ``--backend native`` — is an alias kept for interface
    uniformity with the flooding engine); ``"parallel"`` fans chunks
    out to worker processes, which requires *protocol* to be picklable
    (module-level function or :func:`functools.partial`).
    """
    trials = require_positive_int(trials, "trials")
    require(backend in ("serial", "batched", "parallel"),
            f"backend must be serial, batched, or parallel, got {backend!r}")
    require(rng_mode in ("replay", "native"),
            "rng_mode must be replay or native")
    # Protocol randomness has a single (replay) layout today; rng_mode is
    # accepted so ExperimentConfig.flood_kwargs() routes uniformly.
    n = graph.num_nodes
    runs = [(run_seed, draw_trial_source(source, n, source_seed))
            for run_seed, source_seed in protocol_trial_streams(seed, 0, trials)]
    if backend != "parallel" or (jobs is not None and jobs == 1) or trials == 1:
        return [protocol(graph, src, seed=run_seed, max_steps=max_steps,
                         **protocol_kwargs)
                for run_seed, src in runs]
    from repro.engine.executor import fan_out_chunks

    chunk_size = require_positive_int(chunk_size, "chunk_size")
    payloads = [{"protocol": protocol, "graph": graph,
                 "runs": runs[start:start + chunk_size],
                 "max_steps": max_steps, "kwargs": protocol_kwargs}
                for start in range(0, trials, chunk_size)]
    chunks = fan_out_chunks(_protocol_chunk, payloads, jobs)
    return [result for chunk in chunks for result in chunk]
