"""Tests for repro.core.expansion — (h, k)-expander machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expansion import (
    _GREEDY_CANDIDATES,
    _bfs_ball,
    _mask_from_nodes,
    estimate_worst_expansion,
    expansion_of_set,
    expansion_profile,
    is_expander_exact,
    neighborhood_size,
    trajectory_expansion,
    worst_expansion_exact,
)
from repro.dynamics.sequence import (
    complete_adjacency,
    cycle_adjacency,
    ring_of_cliques_adjacency,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.geometric.meg import GeometricMEG
from repro.util.rng import as_generator


def snap(adj) -> AdjacencySnapshot:
    return AdjacencySnapshot(adj)


def mask(nodes, n):
    m = np.zeros(n, dtype=bool)
    m[list(nodes)] = True
    return m


class TestNeighborhood:
    def test_neighborhood_size_on_cycle(self):
        s = snap(cycle_adjacency(8))
        assert neighborhood_size(s, mask([0], 8)) == 2
        assert neighborhood_size(s, mask([0, 1, 2], 8)) == 2

    def test_expansion_of_set(self):
        s = snap(complete_adjacency(6))
        assert expansion_of_set(s, mask([0, 1], 6)) == pytest.approx(2.0)

    def test_expansion_rejects_empty_set(self):
        s = snap(complete_adjacency(4))
        with pytest.raises(ValueError):
            expansion_of_set(s, np.zeros(4, dtype=bool))


class TestExactWorstExpansion:
    def test_complete_graph(self):
        s = snap(complete_adjacency(8))
        for size in (1, 2, 4):
            worst, witness = worst_expansion_exact(s, size)
            assert worst == 8 - size
            assert witness.sum() == size

    def test_cycle_contiguous_arcs_are_worst(self):
        s = snap(cycle_adjacency(10))
        for size in (1, 2, 3, 5):
            worst, _ = worst_expansion_exact(s, size)
            assert worst == 2  # an arc has exactly two boundary nodes

    def test_star_worst_set_avoids_center(self):
        s = snap(star_adjacency(7))
        worst, witness = worst_expansion_exact(s, 3)
        # Three leaves see only the center.
        assert worst == 1
        assert not witness[0]

    def test_budget_guard(self):
        s = snap(complete_adjacency(60))
        with pytest.raises(ValueError, match="budget"):
            worst_expansion_exact(s, 30)


class TestIsExpanderExact:
    def test_complete_graph_is_good_expander(self):
        # For |I| <= n/2 in K_n: |N(I)| = n - |I| >= |I|.
        assert is_expander_exact(snap(complete_adjacency(10)), 5, 1.0)

    def test_cycle_is_poor_expander(self):
        assert not is_expander_exact(snap(cycle_adjacency(12)), 6, 1.0)

    def test_cycle_weak_parameters_hold(self):
        # |N(I)| >= 2 >= (2/h) * |I| for |I| <= h... at |I| = i, k = 2/i.
        assert is_expander_exact(snap(cycle_adjacency(12)), 4, 0.5)

    def test_definition_monotone_in_k(self):
        s = snap(ring_of_cliques_adjacency(3, 3))
        assert is_expander_exact(s, 3, 0.1)
        # larger k is a strictly stronger property
        if is_expander_exact(s, 3, 1.0):
            assert is_expander_exact(s, 3, 0.1)


class TestEstimator:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 500), size=st.integers(1, 5))
    def test_estimate_never_below_exact(self, seed, size):
        """The randomized search reports an achievable value, so it is
        always >= the exact minimum."""
        rng = np.random.default_rng(seed)
        n = 10
        iu = np.triu_indices(n, 1)
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = rng.random(len(iu[0])) < 0.4
        adj |= adj.T
        s = snap(adj)
        exact, _ = worst_expansion_exact(s, size)
        est = estimate_worst_expansion(s, size, trials=8, seed=seed)
        assert est.neighborhood_size >= exact - 1e-12

    def test_estimator_finds_cycle_arc(self):
        # On a cycle, the BFS-ball candidates are exactly the optimal arcs.
        s = snap(cycle_adjacency(20))
        est = estimate_worst_expansion(s, 5, trials=6, seed=0)
        assert est.neighborhood_size == 2

    def test_witness_consistency(self):
        s = snap(cycle_adjacency(16))
        est = estimate_worst_expansion(s, 4, trials=4, seed=1)
        assert est.witness.sum() == est.size
        assert neighborhood_size(s, est.witness) == est.neighborhood_size

    def test_certifies_not_expander(self):
        s = snap(cycle_adjacency(16))
        est = estimate_worst_expansion(s, 4, trials=4, seed=1)
        # |N| = 2 < 1.0 * 4, so the witness refutes (4, 1)-expansion.
        assert est.certifies_not_expander(4, 1.0)
        assert not est.certifies_not_expander(4, 0.4)
        assert not est.certifies_not_expander(3, 1.0)  # size exceeds h

    def test_profile_sizes(self):
        s = snap(complete_adjacency(12))
        profile = expansion_profile(s, [1, 2, 4], trials=3, seed=2)
        assert [e.size for e in profile] == [1, 2, 4]

    def test_full_set_has_zero_expansion(self):
        s = snap(complete_adjacency(6))
        est = estimate_worst_expansion(s, 6, trials=2, seed=0)
        assert est.neighborhood_size == 0


def oracle_descend(snapshot, mask, *, rng, sweeps):
    """Brute-force greedy descent: re-query ``N(I)`` after every swap.

    The reference the incremental member-neighbour counts must follow
    draw for draw: same candidate permutation, same boundary draw per
    swap, same acceptance rule.
    """
    mask = mask.copy()
    current = neighborhood_size(snapshot, mask)
    for _ in range(sweeps):
        improved = False
        members = rng.permutation(np.flatnonzero(mask))[:_GREEDY_CANDIDATES]
        for u in members:
            boundary = np.flatnonzero(snapshot.neighborhood_mask(mask))
            if boundary.size == 0:
                return mask
            v = int(boundary[rng.integers(boundary.size)])
            mask[u] = False
            mask[v] = True
            cand = neighborhood_size(snapshot, mask)
            if cand < current:
                current = cand
                improved = True
            else:
                mask[v] = False
                mask[u] = True
        if not improved:
            break
    return mask


def oracle_estimate(snapshot, size, *, trials, seed, greedy_sweeps=1):
    """:func:`estimate_worst_expansion` over :func:`oracle_descend`."""
    n = snapshot.num_nodes
    rng = as_generator(seed)
    best_val = np.inf
    best_mask = _mask_from_nodes(range(size), n)
    for trial in range(trials):
        if trial % 2 == 0:
            candidate = _bfs_ball(snapshot, int(rng.integers(n)), size)
        else:
            candidate = _mask_from_nodes(rng.choice(n, size=size, replace=False), n)
        if greedy_sweeps > 0 and size < n:
            candidate = oracle_descend(snapshot, candidate, rng=rng,
                                       sweeps=greedy_sweeps)
        value = neighborhood_size(snapshot, candidate)
        if value < best_val:
            best_val = float(value)
            best_mask = candidate
            if best_val == 0:
                break
    return best_val, best_mask


class TestDescentMatchesOracle:
    """The incremental descent returns exactly the brute-force witness."""

    @staticmethod
    def _assert_same(snapshot, size, seed, sweeps):
        est = estimate_worst_expansion(snapshot, size, trials=6, seed=seed,
                                       greedy_sweeps=sweeps)
        value, witness = oracle_estimate(snapshot, size, trials=6, seed=seed,
                                         greedy_sweeps=sweeps)
        assert est.neighborhood_size == value
        np.testing.assert_array_equal(est.witness, witness)

    @pytest.mark.parametrize("radius", [2.5, 5.0])
    @pytest.mark.parametrize("size", [4, 32, 128])
    def test_geometric(self, radius, size):
        meg = GeometricMEG(n=256, move_radius=1.0, radius=radius)
        meg.reset(seed=int(radius * 10) + size)
        snapshot = meg.snapshot()
        for seed in range(3):
            self._assert_same(snapshot, size, seed, sweeps=1 + seed % 2)

    @pytest.mark.parametrize("p", [0.05, 0.2])
    @pytest.mark.parametrize("size", [1, 5, 30])
    def test_random_adjacency(self, p, size):
        rng = np.random.default_rng(size)
        n = 60
        iu = np.triu_indices(n, 1)
        adj = np.zeros((n, n), dtype=bool)
        adj[iu] = rng.random(len(iu[0])) < p
        snapshot = snap(adj | adj.T)
        for seed in range(4):
            self._assert_same(snapshot, size, seed, sweeps=1 + seed % 2)


class TestTrajectoryExpansion:
    def test_matches_history(self):
        ratios = trajectory_expansion(np.array([1, 3, 6, 6]))
        np.testing.assert_allclose(ratios, [2.0, 1.0, 0.0])

    def test_short_history(self):
        assert trajectory_expansion(np.array([1])).size == 0

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            trajectory_expansion(np.ones((2, 2)))
