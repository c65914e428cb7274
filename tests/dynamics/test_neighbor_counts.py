"""``GraphSnapshot.neighbor_counts`` on every snapshot type.

The worst-expansion search builds these counts once and then moves them
along ``neighbors_of`` lists, so each override must equal a brute-force
count over the snapshot's own edges, reproduce ``neighborhood_mask`` as
its positive non-member entries, and agree with the contract's default
(which sums ``neighbors_of`` over the members).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamics.base import GraphSnapshot
from repro.dynamics.snapshots import AdjacencySnapshot, EdgeListSnapshot
from repro.geometric.meg import GeometricSnapshot
from repro.geometric.neighbors import radius_bound2
from repro.mobility.sphere import SphereSnapshot


def _random_adjacency(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu] = rng.random(len(iu[0])) < p
    return adj | adj.T


def _pairwise_adjacency(positions: np.ndarray, radius: float, *,
                        boxsize: float | None = None) -> np.ndarray:
    """Brute-force radius graph over all ``n^2`` ordered pairs."""
    delta = positions[:, None, :] - positions[None, :, :]
    if boxsize is not None:
        delta -= boxsize * np.round(delta / boxsize)
    adj = np.einsum("ijk,ijk->ij", delta, delta) <= radius_bound2(radius)
    np.fill_diagonal(adj, False)
    return adj


def _check(snap: GraphSnapshot, adj: np.ndarray, members: np.ndarray) -> None:
    counts = snap.neighbor_counts(members)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, adj[:, members].sum(axis=1))
    np.testing.assert_array_equal((counts > 0) & ~members,
                                  snap.neighborhood_mask(members))
    np.testing.assert_array_equal(counts,
                                  GraphSnapshot.neighbor_counts(snap, members))


_SEED = st.integers(0, 2**32 - 1)
_FRAC = st.floats(0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=_SEED, n=st.integers(1, 40), p=st.floats(0.0, 1.0), frac=_FRAC)
def test_adjacency_snapshot(seed, n, p, frac):
    rng = np.random.default_rng(seed)
    adj = _random_adjacency(n, p, rng)
    _check(AdjacencySnapshot(adj), adj, rng.random(n) < frac)


@settings(max_examples=25, deadline=None)
@given(seed=_SEED, n=st.integers(1, 40), p=st.floats(0.0, 1.0), frac=_FRAC)
def test_edge_list_snapshot(seed, n, p, frac):
    rng = np.random.default_rng(seed)
    adj = _random_adjacency(n, p, rng)
    us, vs = np.nonzero(np.triu(adj, 1))
    snap = EdgeListSnapshot(n, np.column_stack([us, vs]))
    _check(snap, adj, rng.random(n) < frac)


@settings(max_examples=25, deadline=None)
@given(seed=_SEED, n=st.integers(1, 60), radius=st.floats(0.5, 7.0),
       frac=_FRAC)
def test_planar_geometric_snapshot(seed, n, radius, frac):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, 15.0, size=(n, 2))
    snap = GeometricSnapshot(positions, radius)
    _check(snap, _pairwise_adjacency(positions, radius), rng.random(n) < frac)


@settings(max_examples=25, deadline=None)
@given(seed=_SEED, n=st.integers(1, 60), radius=st.floats(0.5, 7.5),
       frac=_FRAC)
def test_toroidal_geometric_snapshot(seed, n, radius, frac):
    rng = np.random.default_rng(seed)
    box = 15.0
    positions = rng.uniform(0.0, box, size=(n, 2))
    snap = GeometricSnapshot(positions, radius, boxsize=box)
    adj = _pairwise_adjacency(positions, radius, boxsize=box)
    _check(snap, adj, rng.random(n) < frac)


@settings(max_examples=25, deadline=None)
@given(seed=_SEED, n=st.integers(1, 60), radius=st.floats(0.3, 3.0),
       frac=_FRAC)
def test_sphere_snapshot(seed, n, radius, frac):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, 3))
    snap = SphereSnapshot(raw / np.linalg.norm(raw, axis=1, keepdims=True),
                          2.0, radius)
    adj = _pairwise_adjacency(snap.positions, radius)
    _check(snap, adj, rng.random(n) < frac)


def test_lattice_points_at_exactly_the_radius_connect():
    # Integer points at distance exactly R = 2: the k-d count and the
    # per-node scan must both take the inclusive side.
    positions = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [4.0, 0.0]])
    snap = GeometricSnapshot(positions, 2.0)
    members = np.array([True, False, False, True])
    np.testing.assert_array_equal(snap.neighbor_counts(members), [0, 2, 1, 0])
    _check(snap, _pairwise_adjacency(positions, 2.0), members)
