"""The legacy protocols of :mod:`repro.core.spreading` against their
original round loops.

Each ``oracle_*`` function below is the standalone loop the module ran
before its functions became thin :func:`repro.protocols.runner.spread`
calls, kept verbatim as the reference.  The properties check that every
public function reproduces its oracle field for field — with the same
graph clock and graph RNG state afterwards — on edge-MEGs, geometric
MEGs and static graphs, including multi-source runs, ``max_steps``
truncation, isolated nodes and the stall of two disjoint cliques.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flooding import (
    DEFAULT_MAX_STEPS,
    FloodingResult,
    _resolve_sources,
    resolve_max_steps,
)
from repro.core.spreading import (
    parsimonious_flood,
    probabilistic_flood,
    pull_gossip,
    push_gossip,
    push_pull_gossip,
)
from repro.dynamics.base import EvolvingGraph
from repro.dynamics.sequence import StaticEvolvingGraph, complete_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.util.rng import spawn
from repro.util.validation import require_positive_int, require_probability


def _budget(graph: EvolvingGraph, max_steps: int | None) -> int:
    return resolve_max_steps(graph.num_nodes, max_steps)


def _finish(sources, t, informed, history) -> FloodingResult:
    return FloodingResult(
        source=sources,
        time=t,
        completed=history[-1] == informed.shape[0],
        informed_history=np.asarray(history, dtype=np.int64),
        informed=informed,
    )


def oracle_probabilistic_flood(
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
    f = require_probability(transmit_probability, "transmit_probability", open_left=True)
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = _budget(graph, max_steps)
    rng_graph, rng_proto = spawn(seed, 2)
    graph.reset(rng_graph)

    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        active = informed & (rng_proto.random(n) < f)
        if active.any():
            fresh = snap.neighborhood_mask(active) & ~informed
            if fresh.any():
                informed |= fresh
        graph.step()
        t += 1
        history.append(int(informed.sum()))
    return _finish(sources, t, informed, history)


def oracle_parsimonious_flood(
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
    k = require_positive_int(active_steps, "active_steps")
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = _budget(graph, max_steps)
    # Same seed split as the randomized protocols (graph stream first),
    # so one trial seed couples the graph realisation across protocols.
    rng_graph, _ = spawn(seed, 2)
    graph.reset(rng_graph)

    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    informed_at = np.full(n, -1, dtype=np.int64)
    informed_at[list(sources)] = 0
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        active = informed & (informed_at > t - k)
        if active.any():
            fresh = snap.neighborhood_mask(active) & ~informed
            if fresh.any():
                informed |= fresh
                informed_at[fresh] = t + 1
        graph.step()
        t += 1
        history.append(int(informed.sum()))
        if not (informed & (informed_at > t - k)).any() and history[-1] < n:
            break  # all transmitters expired: the protocol has stalled
    return _finish(sources, t, informed, history)


def _one_random_neighbor(snap, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """For each node in *nodes*, one uniform neighbor (or -1 if isolated)."""
    picks = np.full(nodes.shape[0], -1, dtype=np.int64)
    for idx, u in enumerate(nodes):
        nbrs = snap.neighbors_of(int(u))
        if nbrs.size:
            picks[idx] = int(nbrs[rng.integers(nbrs.size)])
    return picks


def oracle_push_gossip(
    graph: EvolvingGraph,
    source: int = 0,
    *,
    seed: SeedLike = None,
    max_steps: int | None = DEFAULT_MAX_STEPS,
) -> FloodingResult:
    """Push rumor spreading: every informed node pushes to one random neighbor."""
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = _budget(graph, max_steps)
    rng_graph, rng_proto = spawn(seed, 2)
    graph.reset(rng_graph)

    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        senders = np.flatnonzero(informed)
        targets = _one_random_neighbor(snap, senders, rng_proto)
        targets = targets[targets >= 0]
        if targets.size:
            informed[targets] = True
        graph.step()
        t += 1
        history.append(int(informed.sum()))
    return _finish(sources, t, informed, history)


def oracle_pull_gossip(
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
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = _budget(graph, max_steps)
    rng_graph, rng_proto = spawn(seed, 2)
    graph.reset(rng_graph)

    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        pullers = np.flatnonzero(~informed)
        pulled_from = _one_random_neighbor(snap, pullers, rng_proto)
        ok = (pulled_from >= 0) & informed[np.clip(pulled_from, 0, n - 1)]
        fresh = pullers[ok]
        if fresh.size:
            informed[fresh] = True
        graph.step()
        t += 1
        history.append(int(informed.sum()))
    return _finish(sources, t, informed, history)


def oracle_push_pull_gossip(
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
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = _budget(graph, max_steps)
    rng_graph, rng_proto = spawn(seed, 2)
    graph.reset(rng_graph)

    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        senders = np.flatnonzero(informed)
        pushed = _one_random_neighbor(snap, senders, rng_proto)
        pushed = pushed[pushed >= 0]
        pullers = np.flatnonzero(~informed)
        pulled_from = _one_random_neighbor(snap, pullers, rng_proto)
        ok = (pulled_from >= 0) & informed[np.clip(pulled_from, 0, n - 1)]
        fresh_pullers = pullers[ok]
        if pushed.size:
            informed[pushed] = True
        if fresh_pullers.size:
            informed[fresh_pullers] = True
        graph.step()
        t += 1
        history.append(int(informed.sum()))
    return _finish(sources, t, informed, history)


#: (oracle, function, protocol-parameter strategy, fixed parameters)
PAIRS = [
    pytest.param(oracle_probabilistic_flood, probabilistic_flood,
                 st.fixed_dictionaries({"transmit_probability":
                                        st.sampled_from([0.2, 0.5, 0.9, 1.0])}),
                 {"transmit_probability": 0.5}, id="probabilistic"),
    pytest.param(oracle_parsimonious_flood, parsimonious_flood,
                 st.fixed_dictionaries({"active_steps": st.integers(1, 4)}),
                 {"active_steps": 2}, id="parsimonious"),
    pytest.param(oracle_push_gossip, push_gossip, st.just({}), {}, id="push"),
    pytest.param(oracle_pull_gossip, pull_gossip, st.just({}), {}, id="pull"),
    pytest.param(oracle_push_pull_gossip, push_pull_gossip, st.just({}), {},
                 id="push-pull"),
]

_SEED = st.integers(0, 2**32 - 1)
_BUDGET = st.one_of(st.none(), st.integers(1, 30))


def _random_adjacency(n, p, rng):
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = rng.random(len(iu[0])) < p
    return adj | adj.T


def _static(adj) -> StaticEvolvingGraph:
    return StaticEvolvingGraph(AdjacencySnapshot(adj))


def _sources(n, draw):
    k = draw(st.integers(1, min(n, 3)))
    picked = draw(st.permutations(range(n)))[:k]
    return picked[0] if k == 1 and draw(st.booleans()) else list(picked)


def _rng_state(graph):
    rng = getattr(graph, "_rng", None)
    if rng is None:
        rng = getattr(getattr(graph, "walkers", None), "_rng", None)
    return None if rng is None else rng.bit_generator.state


def _assert_matches_oracle(oracle, function, make_graph, source, *, seed,
                           **kwargs):
    """Run *function* and *oracle* on two identical graphs; compare every
    result field, the graph clock and the graph RNG state."""
    graphs = make_graph(), make_graph()
    got = function(graphs[0], source, seed=seed, **kwargs)
    want = oracle(graphs[1], source, seed=seed, **kwargs)
    assert got.source == want.source
    assert got.time == want.time
    assert got.completed == want.completed
    assert got.informed_history.dtype == want.informed_history.dtype
    np.testing.assert_array_equal(got.informed_history, want.informed_history)
    np.testing.assert_array_equal(got.informed, want.informed)
    assert graphs[0].time == graphs[1].time
    assert _rng_state(graphs[0]) == _rng_state(graphs[1])
    return got


@pytest.mark.parametrize("oracle, function, params, fixed", PAIRS)
class TestLegacyMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(2, 24),
           p=st.floats(0.01, 0.3), q=st.floats(0.2, 0.9), budget=_BUDGET)
    def test_edge_meg(self, oracle, function, params, fixed, data, seed, n, p, q,
                      budget):
        _assert_matches_oracle(oracle, function, lambda: EdgeMEG(n, p, q),
                               _sources(n, data.draw), seed=seed,
                               max_steps=budget, **data.draw(params))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(2, 24),
           rel=st.floats(0.45, 1.0), move=st.sampled_from([0.0, 2.0]),
           budget=_BUDGET)
    def test_geometric_meg(self, oracle, function, params, fixed, data, seed,
                           n, rel, move, budget):
        eps = 0.5  # move = 0 is static, move = 2 * eps is not

        def make():
            # The region side is sqrt(n); the radius stays within it.
            return GeometricMEG(n, move_radius=move * eps,
                                radius=rel * np.sqrt(n), eps=eps)

        _assert_matches_oracle(oracle, function, make, _sources(n, data.draw),
                               seed=seed, max_steps=budget,
                               **data.draw(params))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(1, 20),
           p=st.floats(0.0, 0.4), budget=_BUDGET)
    def test_static_graph(self, oracle, function, params, fixed, data, seed,
                          n, p, budget):
        adj = _random_adjacency(n, p, np.random.default_rng(seed))
        _assert_matches_oracle(oracle, function, lambda: _static(adj),
                               _sources(n, data.draw), seed=seed,
                               max_steps=budget, **data.draw(params))

    @pytest.mark.parametrize("source", [0, 3, [0, 3], [1, 2, 4]])
    @pytest.mark.parametrize("budget", [None, 1, 4])
    def test_isolated_nodes(self, oracle, function, params, fixed, source,
                            budget):
        # Node 0 is isolated and 3-4 is a lone edge: pushes from 0 and
        # pulls into 0 find no neighbor, and the run never completes.
        adj = np.zeros((6, 6), dtype=bool)
        for u, v in [(1, 2), (2, 5), (3, 4)]:
            adj[u, v] = adj[v, u] = True
        res = _assert_matches_oracle(oracle, function, lambda: _static(adj),
                                     source, seed=17, max_steps=budget,
                                     **fixed)
        assert not res.completed

    @pytest.mark.parametrize("bridge", [False, True])
    @pytest.mark.parametrize("source", [0, [0, 5]])
    @pytest.mark.parametrize("seed", [1, 8])
    def test_two_clique_stall(self, oracle, function, params, fixed, bridge,
                              source, seed):
        # Cliques 0..3 and 4..8, optionally joined by the edge 3-4.
        adj = np.zeros((9, 9), dtype=bool)
        adj[:4, :4] = adj[4:, 4:] = True
        np.fill_diagonal(adj, False)
        adj[3, 4] = adj[4, 3] = bridge
        _assert_matches_oracle(oracle, function, lambda: _static(adj), source,
                               seed=seed, max_steps=None, **fixed)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_complete_graph(self, oracle, function, params, fixed, seed):
        _assert_matches_oracle(oracle, function,
                               lambda: _static(complete_adjacency(16)), 2,
                               seed=seed, **fixed)
