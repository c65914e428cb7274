"""Tests for repro.core.spreading — the protocol zoo and its dominance."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.flooding import flood
from repro.core.spreading import (
    parsimonious_flood,
    probabilistic_flood,
    protocol_trials,
    pull_gossip,
    push_gossip,
    push_pull_gossip,
)
from repro.dynamics.sequence import StaticEvolvingGraph, complete_adjacency, cycle_adjacency
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.protocols import ExpiringFlooding, PushPullGossip, spread, spreading_trials
from repro.util.rng import spawn


def static(adj) -> StaticEvolvingGraph:
    return StaticEvolvingGraph(AdjacencySnapshot(adj))


ALL_PROTOCOLS = [
    ("probabilistic", lambda g, s, seed: probabilistic_flood(
        g, s, transmit_probability=0.5, seed=seed)),
    ("parsimonious", lambda g, s, seed: parsimonious_flood(
        g, s, active_steps=3, seed=seed)),
    ("push", lambda g, s, seed: push_gossip(g, s, seed=seed)),
    ("pull", lambda g, s, seed: pull_gossip(g, s, seed=seed)),
    ("push-pull", lambda g, s, seed: push_pull_gossip(g, s, seed=seed)),
]


class TestProbabilisticFlood:
    def test_f_one_equals_flooding_on_static(self):
        g = static(cycle_adjacency(10))
        res = probabilistic_flood(g, 0, transmit_probability=1.0, seed=0)
        assert res.completed and res.time == 5

    def test_lower_f_is_slower_on_average(self):
        g = static(complete_adjacency(30))
        fast = np.mean([probabilistic_flood(g, 0, transmit_probability=1.0,
                                            seed=s).time for s in range(10)])
        slow = np.mean([probabilistic_flood(g, 0, transmit_probability=0.1,
                                            seed=s).time for s in range(10)])
        assert slow >= fast

    def test_rejects_zero_probability(self):
        with pytest.raises(ValueError):
            probabilistic_flood(static(cycle_adjacency(4)), 0,
                                transmit_probability=0.0)


class TestParsimoniousFlood:
    def test_completes_on_complete_graph(self):
        res = parsimonious_flood(static(complete_adjacency(12)), 0,
                                 active_steps=1, seed=0)
        assert res.completed and res.time == 1

    def test_stalls_when_transmitters_expire(self):
        # Two cliques joined at one node; with the bridge never crossed
        # in time, transmitters expire and the run reports incomplete.
        n = 9
        adj = np.zeros((n, n), dtype=bool)
        adj[:4, :4] = True  # clique A: 0..3
        adj[4:, 4:] = True  # clique B: 4..8
        np.fill_diagonal(adj, False)
        # No edge between the cliques at all: must stall.
        res = parsimonious_flood(static(adj), 0, active_steps=2, seed=1)
        assert not res.completed
        assert res.time < 50  # stalled early, not at the step budget

    def test_large_active_steps_behaves_like_flooding(self):
        g = static(cycle_adjacency(12))
        res = parsimonious_flood(g, 0, active_steps=100, seed=0)
        assert res.completed and res.time == 6


class TestGossip:
    def test_push_completes_on_complete_graph(self):
        res = push_gossip(static(complete_adjacency(16)), 0, seed=0)
        assert res.completed

    def test_push_pull_not_slower_than_push_on_average(self):
        g = static(complete_adjacency(24))
        push_mean = np.mean([push_gossip(g, 0, seed=s).time for s in range(8)])
        pp_mean = np.mean([push_pull_gossip(g, 0, seed=s).time for s in range(8)])
        assert pp_mean <= push_mean + 1.0

    def test_pull_completes_on_complete_graph(self):
        res = pull_gossip(static(complete_adjacency(16)), 0, seed=0)
        assert res.completed

    def test_pull_endgame_faster_than_push(self):
        """With one uninformed node on K_n, pull finishes next step w.p. 1
        while push needs a lucky hit — pull's classic endgame advantage."""
        n = 24
        g = static(complete_adjacency(n))
        pull_mean = np.mean([pull_gossip(g, 0, seed=s).time for s in range(8)])
        push_mean = np.mean([push_gossip(g, 0, seed=s).time for s in range(8)])
        assert pull_mean <= push_mean

    def test_push_on_isolated_source_stalls(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 2] = adj[2, 1] = True
        res = push_gossip(static(adj), 0, seed=0, max_steps=5)
        assert not res.completed and res.num_informed == 1


class TestDominanceInvariant:
    """Flooding dominates every protocol on the same realisation."""

    @pytest.mark.parametrize("name,runner", ALL_PROTOCOLS)
    def test_dominance_on_edge_meg(self, name, runner):
        meg = EdgeMEG(40, 0.15, 0.3)
        for trial_seed in range(5):
            flood_res = flood(meg, 0, seed=spawn(trial_seed, 2)[0])
            proto_res = runner(meg, 0, trial_seed)
            if proto_res.completed:
                assert flood_res.completed
                assert flood_res.time <= proto_res.time, name

    @pytest.mark.parametrize("name,runner", ALL_PROTOCOLS)
    def test_informed_set_containment_static(self, name, runner):
        """On a static graph flooding's informed set contains any
        protocol's at the common horizon."""
        g = static(cycle_adjacency(14))
        proto_res = runner(g, 0, 7)
        flood_res = flood(g, 0, max_steps=max(1, proto_res.time))
        assert not (proto_res.informed & ~flood_res.informed).any()


class TestHistoryContracts:
    @pytest.mark.parametrize("name,runner", ALL_PROTOCOLS)
    def test_history_monotone(self, name, runner):
        meg = EdgeMEG(30, 0.2, 0.2)
        res = runner(meg, 0, 3)
        assert (np.diff(res.informed_history) >= 0).all()
        assert res.informed_history[0] == 1
        assert res.informed_history[-1] == res.num_informed


class TestProtocolTrialsLayout:
    """``protocol_trials`` draws per-trial seeds and sources from the
    protocol replay layout of ``spreading_trials``."""

    @pytest.mark.parametrize("make_seed", [
        lambda: 11,
        lambda: np.random.SeedSequence(11),
        lambda: np.random.default_rng(11),
    ], ids=["int", "seed-sequence", "generator"])
    @pytest.mark.parametrize("protocol", [PushPullGossip(), ExpiringFlooding(2)],
                             ids=["push-pull", "expiring"])
    @pytest.mark.parametrize("source", [None, 3])
    def test_matches_spreading_trials(self, make_seed, protocol, source):
        meg = EdgeMEG(20, 0.1, 0.4)
        got = protocol_trials(partial(spread, protocol), meg, trials=5,
                              seed=make_seed(), source=source)
        want = spreading_trials(protocol, meg, trials=5, seed=make_seed(),
                                source=source)
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert a.source == b.source
            assert a.time == b.time and a.completed == b.completed
            np.testing.assert_array_equal(a.informed_history,
                                          b.informed_history)
            np.testing.assert_array_equal(a.informed, b.informed)
