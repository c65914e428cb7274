"""Gossip neighbour sampling on radius snapshots.

Geometric and sphere snapshots answer ``sample_neighbors`` from their
cached CSR.  Its rows ascend, so the picks, the ``valid`` mask and the
generator's draws must equal those of the one-hot path every snapshot
without a CSR takes (kept here as :func:`oracle_sample_neighbors`) —
and so must whole push / pull / push–pull runs.  Flooding never builds
the CSR.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.protocols.zoo as zoo
from repro.core.flooding import flood
from repro.geometric.meg import GeometricMEG
from repro.mobility.base import MobilityMEG
from repro.mobility.sphere import SphereWaypointMEG
from repro.mobility.waypoint import RandomWaypointTorus
from repro.protocols import PullGossip, PushGossip, PushPullGossip, spread
from repro.protocols.runner import spreading_trials


def oracle_sample_neighbors(snapshot, nodes: np.ndarray,
                            rng: np.random.Generator):
    """The generic gather: one-hot rows through ``neighborhood_masks``,
    then rank ``floor(draw * degree)`` into each row's set columns."""
    n = snapshot.num_nodes
    onehots = np.zeros((nodes.shape[0], n), dtype=bool)
    onehots[np.arange(nodes.shape[0]), nodes] = True
    rows = snapshot.neighborhood_masks(onehots)
    counts = rows.sum(axis=1)
    draws = rng.random(counts.shape[0])
    ranks = (draws * counts).astype(np.int64)
    valid = counts > 0
    cols = np.nonzero(rows)[1]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    picks = np.zeros(nodes.shape[0], dtype=np.int64)
    picks[valid] = cols[starts[valid] + ranks[valid]]
    return picks, valid


def geometric(n: int = 40) -> GeometricMEG:
    return GeometricMEG(n, move_radius=1.0, radius=2.0)


def waypoint_torus(n: int = 40) -> MobilityMEG:
    return MobilityMEG(RandomWaypointTorus(n, 8.0, speed=1.0), 1.5, torus=True)


def sphere(n: int = 40) -> SphereWaypointMEG:
    return SphereWaypointMEG(n, radius=1.5, speed=0.5)


MODELS = [
    pytest.param(geometric, id="geometric"),
    pytest.param(waypoint_torus, id="waypoint-torus"),
    pytest.param(sphere, id="sphere"),
]

GOSSIP = [
    pytest.param(PushGossip(), id="push"),
    pytest.param(PullGossip(), id="pull"),
    pytest.param(PushPullGossip(), id="push-pull"),
]


def assert_same_results(fast, slow):
    """Every field of two ``FloodingResult`` sequences agrees."""
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert (a.source, a.time, a.completed) == (b.source, b.time,
                                                   b.completed)
        np.testing.assert_array_equal(a.informed_history, b.informed_history)
        np.testing.assert_array_equal(a.informed, b.informed)


class TestSampleNeighbors:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_one_hot_oracle(self, model, seed):
        meg = model()
        meg.reset(seed)
        pick_rng = np.random.default_rng(seed)
        for _ in range(4):
            snap = meg.snapshot()
            n = snap.num_nodes
            for nodes in (np.arange(n), pick_rng.permutation(n)[: n // 3],
                          np.array([0, 0, 5]), np.empty(0, dtype=np.int64)):
                fast_rng = np.random.default_rng(seed + 100)
                slow_rng = np.random.default_rng(seed + 100)
                picks, valid = zoo.sample_neighbors(snap, nodes, fast_rng)
                want_picks, want_valid = oracle_sample_neighbors(snap, nodes,
                                                                 slow_rng)
                np.testing.assert_array_equal(valid, want_valid)
                np.testing.assert_array_equal(picks, want_picks)
                assert (fast_rng.bit_generator.state
                        == slow_rng.bit_generator.state)
            assert snap._csr is not None  # the CSR branch answered
            meg.step()

    def test_isolated_nodes_are_invalid(self):
        meg = GeometricMEG(30, move_radius=1.0, radius=1.2)
        meg.reset(1)
        snap = meg.snapshot()
        degrees = np.diff(snap.csr[0])
        assert (degrees == 0).any(), "fixture should have isolated nodes"
        _, valid = zoo.sample_neighbors(snap, np.arange(30),
                                        np.random.default_rng(0))
        np.testing.assert_array_equal(valid, degrees > 0)


class TestSpreadUnchanged:
    """Whole gossip runs from the CSR path equal the oracle's runs."""

    @staticmethod
    def _run(protocol, model, seed):
        return spread(protocol, model(), 2, seed=seed)

    @pytest.mark.parametrize("protocol", GOSSIP)
    @pytest.mark.parametrize("model", MODELS[:2])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_spread_results_equal(self, protocol, model, seed, monkeypatch):
        fast = self._run(protocol, model, seed)
        monkeypatch.setattr(zoo, "sample_neighbors", oracle_sample_neighbors)
        slow = self._run(protocol, model, seed)
        assert_same_results([fast], [slow])

    @pytest.mark.parametrize("protocol", GOSSIP)
    def test_native_trials_equal(self, protocol, monkeypatch):
        def run():
            return spreading_trials(protocol, geometric(32), trials=3, seed=9,
                                    backend="batched", rng_mode="native")
        fast = run()
        monkeypatch.setattr(zoo, "sample_neighbors", oracle_sample_neighbors)
        assert_same_results(fast, run())


class TestFloodBuildsNoCsr:
    def test_flood_leaves_every_csr_unbuilt(self):
        meg = geometric(48)
        taken = []
        snapshot = meg.snapshot

        def recording():
            snap = snapshot()
            taken.append(snap)
            return snap

        meg.snapshot = recording
        result = flood(meg, 0, seed=4)
        assert result.time > 0 and len(taken) >= result.time
        assert all(snap._csr is None for snap in taken)
