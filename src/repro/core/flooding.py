"""The flooding mechanism on evolving graphs (Section 2 of the paper).

Given a source node ``s``, the flooding process is the node-set sequence

.. math::

    I_0 = \\{s\\}, \\qquad I_{t+1} = I_t \\cup N(I_t)

where ``N(I_t)`` is the out-neighborhood of ``I_t`` *in the graph at
time step t* (the paper's convention, Section 2).  The *flooding time*
``T(s)`` is the first time step at which ``I_t = [n]``; the flooding
time of the evolving graph is ``max_s T(s)``.

The engine below works on any :class:`~repro.dynamics.base.EvolvingGraph`
and records the full informed-count trajectory ``m_t = |I_t|``, which the
expansion experiments consume (the sets ``I_t`` are exactly the sets
whose expansion drives Lemma 2.4).

Notes on semantics
------------------
* A node is informed at step ``t+1`` iff it has an informed neighbor in
  ``G_t``; information crosses one edge per time step (no intra-step
  chaining).
* If the process does not complete within ``max_steps`` the result is
  returned with ``completed = False`` and ``time = max_steps`` — callers
  decide how to treat truncation (the experiments treat it as a failure
  of the w.h.p. event and count it separately).
* On a static graph (:attr:`~repro.dynamics.base.EvolvingGraph.is_static`)
  a round that informs no one is a fixpoint: ``G_t`` and ``I_t`` never
  change again, so ``N(I_t)`` stays empty.  :func:`flood` stops
  querying it and spends the rest of the budget stepping the graph and
  repeating the count, so the result is the one the full loop returns.
* :func:`flood` runs the one single-trial round loop of the library
  (:mod:`repro.protocols.runner`) with the flooding protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.dynamics.base import EvolvingGraph
from repro.util.rng import SeedLike, as_generator, spawn
from repro.util.validation import require, require_node, require_positive_int

__all__ = [
    "FloodingResult",
    "FloodingObserver",
    "flood",
    "flooding_time",
    "flooding_trials",
    "max_flooding_time_over_sources",
    "resolve_max_steps",
    "DEFAULT_MAX_STEPS",
]

#: Conservative default step cap: on every model in this library the
#: expected flooding time is polylogarithmic-to-sqrt in ``n``; the
#: resolved budget of ``4n + 64`` steps (see :func:`resolve_max_steps`)
#: is far beyond any regime we simulate and signals a disconnected or
#: mis-parameterised instance rather than a slow one.
DEFAULT_MAX_STEPS = None  # sentinel: resolved by resolve_max_steps(n)


def resolve_max_steps(n: int, max_steps: int | None = DEFAULT_MAX_STEPS) -> int:
    """Resolve a step budget for a flooding-style process on ``n`` nodes.

    ``None`` (the :data:`DEFAULT_MAX_STEPS` sentinel) resolves to
    ``4n + 64`` — linear headroom for the adversarial/worst-case
    experiments plus a constant floor so tiny graphs are not truncated
    prematurely.  An explicit *max_steps* is validated and returned
    unchanged.  This is the single budget rule shared by
    the round loop of :mod:`repro.protocols.runner`, the engine, the
    journeys and the count chain of :mod:`repro.edgemeg.independent`.
    """
    n = require_positive_int(n, "n")
    if max_steps is None:
        return 4 * n + 64
    return require_positive_int(max_steps, "max_steps")

#: Signature of per-step observers: ``observer(t, snapshot, informed_mask)``.
FloodingObserver = Callable[[int, object, np.ndarray], None]


@dataclass(frozen=True)
class FloodingResult:
    """Outcome of one flooding run.

    Attributes
    ----------
    source:
        The initiating node(s).
    time:
        ``T(s)`` when *completed*; otherwise the number of steps run.
    completed:
        Whether all nodes were informed within the step budget.
    informed_history:
        ``m_t`` for ``t = 0 .. time`` (``informed_history[0] == len(sources)``,
        and when completed ``informed_history[-1] == n``).
    informed:
        Final informed mask (length ``n``).
    """

    source: tuple[int, ...]
    time: int
    completed: bool
    informed_history: np.ndarray
    informed: np.ndarray = field(repr=False)

    @property
    def num_nodes(self) -> int:
        """Number of nodes of the underlying graph."""
        return int(self.informed.shape[0])

    @property
    def num_informed(self) -> int:
        """Number of informed nodes at the end of the run."""
        return int(self.informed_history[-1])

    def growth_factors(self) -> np.ndarray:
        """Per-step growth ratios ``m_{t+1} / m_t`` (length ``time``).

        These are lower-bounded by ``1 + k_i`` whenever ``G_t`` is an
        ``(h_i, k_i)``-expander and ``m_t <= h_i <= n/2`` — the inequality
        at the heart of Lemma 2.4.
        """
        m = self.informed_history.astype(float)
        if len(m) < 2:
            return np.empty(0)
        return m[1:] / m[:-1]


def _resolve_sources(source: int | Sequence[int], n: int) -> tuple[int, ...]:
    if isinstance(source, (int, np.integer)):
        return (require_node(source, n, "source"),)
    sources = tuple(require_node(s, n, "source") for s in source)
    require(len(sources) > 0, "at least one source is required")
    require(len(set(sources)) == len(sources), "sources must be distinct")
    return sources


def flood(
    graph: EvolvingGraph,
    source: int | Sequence[int] = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    reset: bool = True,
    observer: FloodingObserver | None = None,
) -> FloodingResult:
    """Run the flooding process on *graph* and return the full trace.

    Parameters
    ----------
    graph:
        The evolving graph; it is ``reset(seed)`` first unless
        ``reset=False`` (in which case flooding starts at the process's
        current time, which is how "non-stationary start" experiments
        are expressed).
    source:
        Initiator node, or several initiators (multi-source flooding).
    seed:
        Randomness for the evolving graph (ignored when ``reset=False``).
    max_steps:
        Step budget; ``None`` resolves to ``4n + 64``.
    observer:
        Optional callback ``observer(t, snapshot, informed)`` invoked
        once per step *before* the update, e.g. to measure the expansion
        of the visited sets.

    On a static graph the first round that informs no one ends the
    neighbourhood queries: the remaining rounds only step the graph
    and repeat the count (see the module notes).  A traced run records
    ``protocol.rounds`` and ``protocol.transmit_s`` with
    ``protocol=flooding``, like every protocol run.

    Returns
    -------
    FloodingResult
    """
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = resolve_max_steps(n, max_steps)

    if reset:
        graph.reset(seed)
    # Function-level import: repro.protocols imports this module.
    from repro.protocols.base import FLOODING
    from repro.protocols.runner import _spread_rounds

    return _spread_rounds(FLOODING, graph, sources, budget, None, observer)


def flooding_time(
    graph: EvolvingGraph,
    source: int | Sequence[int] = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
    reset: bool = True,
) -> int:
    """Flooding time ``T(s)`` of one run.

    Raises
    ------
    RuntimeError
        If the process does not complete within *max_steps* — use
        :func:`flood` to inspect truncated runs instead.
    """
    result = flood(graph, source, seed=seed, max_steps=max_steps, reset=reset)
    if not result.completed:
        raise RuntimeError(
            f"flooding did not complete within {result.time} steps "
            f"({result.num_informed}/{result.num_nodes} nodes informed)"
        )
    return result.time


def flooding_trials(
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
    """Run independent flooding trials with spawned RNG streams.

    Each trial resets the evolving graph with an independent generator
    (fresh stationary sample) and — when *source* is ``None`` — a source
    drawn uniformly at random.  Both models in the paper are
    vertex-symmetric in distribution, so a random source has the same
    ``T(s)`` distribution as any fixed one; the option to pin *source*
    exists for regression tests.

    Parameters
    ----------
    backend:
        ``"serial"`` (this loop, the reference path), ``"batched"``
        (the in-process engine of :mod:`repro.engine`), or
        ``"parallel"`` (chunked multiprocessing fan-out).  With the
        default ``rng_mode="replay"`` every backend is bit-identical
        to the serial path for the same *seed*.
    jobs:
        Worker count for the parallel backend (``None`` = one per CPU).
    rng_mode:
        ``"replay"`` reproduces the serial seed tree draw-for-draw;
        ``"native"`` uses the engine's own batched stream layout —
        identical process law, different realisations, and a much
        faster kernel (see DESIGN.md).
    chunk_size:
        Trials per engine chunk (``None``: the plan default).  Replay
        results never depend on it; native realisations do (the
        ``(seed, trials, chunk_size)`` contract).  Unused by the
        serial backend.
    """
    trials = require_positive_int(trials, "trials")
    if chunk_size is not None:
        require_positive_int(chunk_size, "chunk_size")
    if backend != "serial":
        from repro.engine import SimulationPlan, run_plan
        from repro.engine.plan import DEFAULT_CHUNK_SIZE

        plan = SimulationPlan(model=graph, trials=trials, source=source,
                              max_steps=max_steps, seed=seed, rng_mode=rng_mode,
                              chunk_size=(DEFAULT_CHUNK_SIZE if chunk_size is None
                                          else chunk_size))
        return run_plan(plan, backend=backend, jobs=jobs).to_results()
    streams = spawn(seed, 2 * trials)
    results: list[FloodingResult] = []
    n = graph.num_nodes
    for i in range(trials):
        rng_graph, rng_src = streams[2 * i], streams[2 * i + 1]
        src = int(rng_src.integers(n)) if source is None else source
        results.append(flood(graph, src, seed=rng_graph, max_steps=max_steps))
    return results


def max_flooding_time_over_sources(
    graph: EvolvingGraph,
    *,
    seed: SeedLike = None,
    sources: Sequence[int] | None = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> int:
    """``max_s T(s)`` over *sources* on a **single** realisation.

    The same evolving-graph realisation serves every source, which is
    exactly the paper's definition of flooding time (max over sources
    for one sample of the process).  Defaults to all ``n`` sources;
    pass a subset for large graphs.

    The shared realisation is advanced once while all sources flood
    simultaneously as rows of an ``(S, n)`` informed matrix
    (:func:`repro.engine.run_multisource_replay`) — bit-identical to
    resetting with one frozen seed and calling :func:`flooding_time`
    source by source, without re-simulating the graph per source.
    """
    from repro.engine.batch import run_multisource_replay

    n = graph.num_nodes
    if sources is None:
        sources = range(n)
    rng = as_generator(seed)
    # Freeze one replayable seed for the shared realisation.
    replay_seed = int(rng.integers(0, 2**63 - 1))
    return run_multisource_replay(graph, sources, replay_seed,
                                  resolve_max_steps(n, max_steps))
