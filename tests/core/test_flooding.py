"""Tests for repro.core.flooding — the flooding engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flooding import (
    FloodingResult,
    _resolve_sources,
    flood,
    flooding_time,
    flooding_trials,
    max_flooding_time_over_sources,
    resolve_max_steps,
)
from repro.dynamics.sequence import (
    GeneratedEvolvingGraph,
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
    sequence_from_adjacencies,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.protocols import FLOODING, spread


def static(adj) -> StaticEvolvingGraph:
    return StaticEvolvingGraph(AdjacencySnapshot(adj))


class TestFloodOnStaticGraphs:
    def test_complete_graph_one_step(self):
        assert flooding_time(static(complete_adjacency(10)), 0) == 1

    def test_star_from_center(self):
        assert flooding_time(static(star_adjacency(8)), 0) == 1

    def test_star_from_leaf(self):
        assert flooding_time(static(star_adjacency(8)), 3) == 2

    def test_cycle_flooding_equals_eccentricity(self):
        # On C_n the source's eccentricity is floor(n/2).
        for n in (4, 5, 9, 12):
            assert flooding_time(static(cycle_adjacency(n)), 0) == n // 2

    def test_single_node_completes_immediately(self):
        adj = np.zeros((1, 1), dtype=bool)
        res = flood(static(adj), 0)
        assert res.completed and res.time == 0

    def test_disconnected_graph_truncates(self):
        adj = np.zeros((4, 4), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        res = flood(static(adj), 0, max_steps=10)
        assert not res.completed
        assert res.num_informed == 2

    def test_flooding_time_raises_on_truncation(self):
        adj = np.zeros((3, 3), dtype=bool)
        with pytest.raises(RuntimeError, match="did not complete"):
            flooding_time(static(adj), 0, max_steps=5)


class TestFloodResultStructure:
    def test_history_monotone_and_endpoints(self):
        res = flood(static(cycle_adjacency(9)), 0)
        hist = res.informed_history
        assert hist[0] == 1 and hist[-1] == 9
        assert (np.diff(hist) >= 0).all()
        assert len(hist) == res.time + 1

    def test_growth_factors(self):
        res = flood(static(cycle_adjacency(8)), 0)
        factors = res.growth_factors()
        assert len(factors) == res.time
        assert (factors >= 1.0).all()

    def test_multi_source(self):
        res = flood(static(cycle_adjacency(12)), [0, 6])
        assert res.completed
        assert res.time == 3  # two antipodal sources halve the time
        assert res.informed_history[0] == 2

    def test_duplicate_sources_rejected(self):
        with pytest.raises(ValueError):
            flood(static(cycle_adjacency(6)), [0, 0])

    def test_bad_source_rejected(self):
        with pytest.raises(ValueError):
            flood(static(cycle_adjacency(6)), 17)

    def test_observer_sees_every_step(self):
        seen = []
        flood(static(cycle_adjacency(8)), 0,
              observer=lambda t, snap, informed: seen.append((t, int(informed.sum()))))
        assert seen[0] == (0, 1)
        assert len(seen) == 4  # flooding time of C_8 from one source


class TestFloodOnEvolvingGraphs:
    def test_sequence_uses_graph_at_time_t(self):
        # G_0 is empty, G_1 is complete: nothing spreads at step 1
        # (which uses G_0), everything at step 2 (uses G_1).
        n = 5
        empty = np.zeros((n, n), dtype=bool)
        seq = sequence_from_adjacencies([empty, complete_adjacency(n)])
        res = flood(seq, 0)
        assert res.time == 2
        np.testing.assert_array_equal(res.informed_history, [1, 1, 5])

    def test_diameter_vs_flooding_adversarial(self):
        """An evolving graph with constant diameter 2 but flooding time ~ n.

        At time t the 'hub' is node (t mod n): stars keep the diameter
        at 2 forever, but a moving hub can leak information slowly.
        """
        n = 8

        def factory(t: int):
            return AdjacencySnapshot(star_adjacency(n, center=(n - 1 - t) % n))

        gen = GeneratedEvolvingGraph(n, factory)
        res = flood(gen, 0, max_steps=200)
        assert res.completed
        assert res.time > 2  # far exceeds the diameter

    def test_seed_reproducibility_on_meg(self):
        meg = EdgeMEG(40, 0.2, 0.2)
        t1 = flood(meg, 0, seed=99).time
        t2 = flood(meg, 0, seed=99).time
        assert t1 == t2

    def test_reset_false_continues_from_current_state(self):
        meg = EdgeMEG(30, 0.3, 0.3)
        meg.reset_empty(seed=5)
        res = flood(meg, 0, reset=False)
        # From the empty graph, the first step can inform nobody.
        assert res.informed_history[1] == 1


class TestFloodingTrials:
    def test_count_and_reproducibility(self):
        meg = EdgeMEG(30, 0.3, 0.3)
        a = [r.time for r in flooding_trials(meg, trials=5, seed=1)]
        b = [r.time for r in flooding_trials(meg, trials=5, seed=1)]
        assert a == b and len(a) == 5

    def test_fixed_source(self):
        meg = EdgeMEG(30, 0.3, 0.3)
        results = flooding_trials(meg, trials=3, seed=2, source=7)
        assert all(r.source == (7,) for r in results)

    def test_random_sources_vary(self):
        meg = EdgeMEG(50, 0.3, 0.3)
        results = flooding_trials(meg, trials=10, seed=3)
        assert len({r.source for r in results}) > 1


class TestResolveMaxSteps:
    def test_default_is_linear_with_floor(self):
        assert resolve_max_steps(1) == 68
        assert resolve_max_steps(100) == 464

    def test_explicit_budget_passes_through(self):
        assert resolve_max_steps(100, 7) == 7

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            resolve_max_steps(10, 0)
        with pytest.raises(ValueError):
            resolve_max_steps(0)

    def test_matches_flood_truncation_point(self):
        # A disconnected graph runs out exactly at the resolved budget.
        adj = np.zeros((3, 3), dtype=bool)
        res = flood(static(adj), 0)
        assert res.time == resolve_max_steps(3)


class TestMaxOverSources:
    def test_static_cycle_equals_diameter(self):
        # On a static graph, max_s T(s) is the diameter.
        assert max_flooding_time_over_sources(static(cycle_adjacency(9)), seed=0) == 4

    def test_replay_consistency_on_meg(self):
        meg = EdgeMEG(16, 0.3, 0.3)
        a = max_flooding_time_over_sources(meg, seed=4, sources=range(4))
        b = max_flooding_time_over_sources(meg, seed=4, sources=range(4))
        assert a == b

    def test_max_at_least_single_source(self):
        meg = EdgeMEG(16, 0.3, 0.3)
        worst = max_flooding_time_over_sources(meg, seed=4)
        some = max_flooding_time_over_sources(meg, seed=4, sources=[0])
        assert worst >= some


def oracle_flood(graph, source=0, *, seed=None, max_steps=None, reset=True,
                 observer=None):
    """Brute-force flooding: query ``N(I_t)`` every round until the
    budget runs out, static graph or not.

    The reference :func:`flood` must reproduce field for field, with
    the same graph clock and RNG state after return and the same
    observer calls.
    """
    n = graph.num_nodes
    sources = _resolve_sources(source, n)
    budget = resolve_max_steps(n, max_steps)
    if reset:
        graph.reset(seed)
    informed = np.zeros(n, dtype=bool)
    informed[list(sources)] = True
    history = [len(sources)]
    t = 0
    while history[-1] < n and t < budget:
        snap = graph.snapshot()
        if observer is not None:
            observer(t, snap, informed)
        fresh = snap.neighborhood_mask(informed)
        count = history[-1]
        if fresh.any():
            informed |= fresh
            count = int(informed.sum())
        graph.step()
        t += 1
        history.append(count)
    return FloodingResult(source=sources, time=t,
                          completed=history[-1] == n,
                          informed_history=np.asarray(history, dtype=np.int64),
                          informed=informed)


def _random_adjacency(n, p, rng):
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = rng.random(len(iu[0])) < p
    return adj | adj.T


def _flood_logged(run, graph, sources, **kwargs):
    calls = []
    res = run(graph, sources,
              observer=lambda t, snap, informed: calls.append((t, informed.copy())),
              **kwargs)
    return res, calls


def _assert_same_flood(make_graph, sources, *, pre_steps, **kwargs):
    """Flood two identical graphs with :func:`flood` and the oracle."""
    graphs = []
    for _ in range(2):
        graph = make_graph()
        for _ in range(pre_steps):
            graph.step()
        graphs.append(graph)
    for observe in (False, True):
        if observe:
            got, got_calls = _flood_logged(flood, graphs[0], sources, **kwargs)
            want, want_calls = _flood_logged(oracle_flood, graphs[1], sources,
                                             **kwargs)
            assert [t for t, _ in got_calls] == [t for t, _ in want_calls]
            for (_, a), (_, b) in zip(got_calls, want_calls):
                np.testing.assert_array_equal(a, b)
        else:
            got = flood(graphs[0], sources, **kwargs)
            want = oracle_flood(graphs[1], sources, **kwargs)
        assert got.source == want.source
        assert got.time == want.time
        assert got.completed == want.completed
        assert got.informed_history.dtype == want.informed_history.dtype
        np.testing.assert_array_equal(got.informed_history,
                                      want.informed_history)
        np.testing.assert_array_equal(got.informed, want.informed)
        assert graphs[0].time == graphs[1].time
    return graphs


_SEED = st.integers(0, 2**32 - 1)


def _sources(n, draw):
    k = draw(st.integers(1, min(n, 3)))
    picked = draw(st.permutations(range(n)))[:k]
    return picked[0] if k == 1 and draw(st.booleans()) else list(picked)


class TestFloodMatchesOracle:
    """The static-graph fixpoint changes how :func:`flood` gets its
    result, never the result: every field, the clock and the observer
    log equal the brute-force loop's."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(1, 24),
           p=st.floats(0.0, 0.3), budget=st.integers(1, 60),
           pre_steps=st.integers(0, 3))
    def test_static_adjacency(self, data, seed, n, p, budget, pre_steps):
        adj = _random_adjacency(n, p, np.random.default_rng(seed))
        sources = _sources(n, data.draw)
        _assert_same_flood(lambda: static(adj), sources, pre_steps=pre_steps,
                           max_steps=budget, reset=data.draw(st.booleans()))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(2, 30),
           radius=st.floats(0.6, 1.4), move=st.sampled_from([0.0, 0.5, 1.0]),
           budget=st.one_of(st.none(), st.integers(1, 40)),
           reset=st.booleans(), pre_steps=st.integers(0, 3))
    def test_geometric(self, data, seed, n, radius, move, budget, reset,
                       pre_steps):
        eps = 0.5  # move = 0 and 0.5 * eps are static, move = 2 * eps is not
        sources = _sources(n, data.draw)

        def make():
            meg = GeometricMEG(n, move_radius=move * eps, radius=radius, eps=eps)
            meg.reset(seed)
            return meg

        a, b = _assert_same_flood(make, sources, pre_steps=pre_steps,
                                  seed=seed + 1, max_steps=budget, reset=reset)
        assert a.walkers._rng.bit_generator.state == \
            b.walkers._rng.bit_generator.state
        np.testing.assert_array_equal(a.snapshot().positions,
                                      b.snapshot().positions)

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 40])
    def test_budget_before_and_after_the_stall(self, budget):
        # Path 0-1-2 plus isolated nodes: the flood stalls after round 2.
        adj = np.zeros((6, 6), dtype=bool)
        adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
        graph, _ = _assert_same_flood(lambda: static(adj), 0, pre_steps=0,
                                      max_steps=budget)
        res = flood(graph, 0, max_steps=budget)
        assert res.time == budget and not res.completed
        assert len(res.informed_history) == budget + 1
        assert res.informed_history[-1] == min(budget, 2) + 1

    def test_fixpoint_skips_neighbourhood_queries(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        snap = AdjacencySnapshot(adj)
        queries = []
        query = snap.neighborhood_mask
        snap.neighborhood_mask = lambda members: queries.append(1) or query(members)
        graph = StaticEvolvingGraph(snap)
        res = flood(graph, 0, max_steps=100)
        assert res.time == 100 and graph.time == 100
        assert len(queries) == 2  # round 0 informs node 1, round 1 stalls


def _assert_spread_matches_oracle(make_graph, sources, **kwargs):
    """``spread(FLOODING)`` and ``oracle_flood`` on two identical graphs."""
    graphs = make_graph(), make_graph()
    got = spread(FLOODING, graphs[0], sources, **kwargs)
    want = oracle_flood(graphs[1], sources, **kwargs)
    assert got.source == want.source
    assert got.time == want.time
    assert got.completed == want.completed
    assert got.informed_history.dtype == want.informed_history.dtype
    np.testing.assert_array_equal(got.informed_history, want.informed_history)
    np.testing.assert_array_equal(got.informed, want.informed)
    assert graphs[0].time == graphs[1].time
    return graphs


class TestSpreadFloodingMatchesOracle:
    """Flooding through :func:`spread` shares the static fixpoint of
    :func:`flood`'s round loop and still equals the full loop."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(1, 24),
           p=st.floats(0.0, 0.3), budget=st.one_of(st.none(),
                                                   st.integers(1, 60)))
    def test_static_adjacency(self, data, seed, n, p, budget):
        adj = _random_adjacency(n, p, np.random.default_rng(seed))
        _assert_spread_matches_oracle(lambda: static(adj),
                                      _sources(n, data.draw), max_steps=budget)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=_SEED, n=st.integers(2, 30),
           radius=st.floats(0.6, 1.4), move=st.sampled_from([0.0, 0.5]),
           budget=st.one_of(st.none(), st.integers(1, 40)))
    def test_static_geometric(self, data, seed, n, radius, move, budget):
        eps = 0.5  # move = 0 and 0.5 * eps are both static

        def make():
            return GeometricMEG(n, move_radius=move * eps, radius=radius,
                                eps=eps)

        a, b = _assert_spread_matches_oracle(make, _sources(n, data.draw),
                                             seed=seed, max_steps=budget)
        assert a.is_static
        assert a.walkers._rng.bit_generator.state == \
            b.walkers._rng.bit_generator.state

    def test_fixpoint_skips_neighbourhood_queries(self):
        adj = np.zeros((5, 5), dtype=bool)
        adj[0, 1] = adj[1, 0] = True
        snap = AdjacencySnapshot(adj)
        queries = []
        query = snap.neighborhood_mask
        snap.neighborhood_mask = lambda members: queries.append(1) or query(members)
        graph = StaticEvolvingGraph(snap)
        res = spread(FLOODING, graph, 0, max_steps=100)
        assert res.time == 100 and graph.time == 100
        assert len(queries) == 2
