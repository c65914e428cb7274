"""Tests for repro.geometric.neighbors — radius queries vs brute force."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometric.lattice import Lattice
from repro.geometric.meg import GeometricMEG, GeometricSnapshot
from repro.geometric.neighbors import (
    batched_within_radius,
    brute_force_within_radius,
    lattice_within_radius,
    member_neighbor_counts,
    radius_bound2,
    radius_csr,
    radius_degrees,
    radius_edges,
    within_radius_of_members,
)
from repro.mobility.sphere import SphereSnapshot


def oracle_neighbors_of(positions: np.ndarray, radius: float, node: int, *,
                        boxsize: float | None = None) -> np.ndarray:
    """The per-node distance scan radius snapshots once answered
    ``neighbors_of`` with: every point against *node* under the one
    inclusive edge rule, minimum-image on a torus."""
    delta = positions - positions[node]
    if boxsize is not None:
        delta -= boxsize * np.round(delta / boxsize)
    mask = np.einsum("ij,ij->i", delta, delta) <= radius_bound2(radius)
    mask[node] = False
    return np.flatnonzero(mask)


class TestWithinRadius:
    def test_empty_members(self, small_positions):
        members = np.zeros(len(small_positions), dtype=bool)
        out = within_radius_of_members(small_positions, members, 3.0)
        assert not out.any()

    def test_all_members(self, small_positions):
        members = np.ones(len(small_positions), dtype=bool)
        out = within_radius_of_members(small_positions, members, 3.0)
        assert not out.any()

    def test_disjoint_from_members(self, small_positions, rng):
        members = rng.random(len(small_positions)) < 0.5
        out = within_radius_of_members(small_positions, members, 3.0)
        assert not (out & members).any()

    def test_inclusive_boundary(self):
        pos = np.array([[0.0, 0.0], [3.0, 0.0], [3.0001, 0.0]])
        members = np.array([True, False, False])
        out = within_radius_of_members(pos, members, 3.0)
        assert out[1] and not out[2]

    def test_coincident_points_connect(self):
        pos = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = within_radius_of_members(pos, np.array([True, False]), 0.5)
        assert out[1]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), radius=st.floats(0.5, 8.0),
           frac=st.floats(0.05, 0.95))
    def test_property_matches_brute_force(self, seed, radius, frac):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 15, size=(40, 2))
        members = rng.random(40) < frac
        fast = within_radius_of_members(pos, members, radius)
        slow = brute_force_within_radius(pos, members, radius)
        np.testing.assert_array_equal(fast, slow)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), radius=st.floats(0.5, 7.0))
    def test_property_toroidal_matches_brute_force(self, seed, radius):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 15, size=(30, 2))
        members = rng.random(30) < 0.4
        fast = within_radius_of_members(pos, members, radius, boxsize=15.0)
        slow = brute_force_within_radius(pos, members, radius, boxsize=15.0)
        np.testing.assert_array_equal(fast, slow)

    def test_toroidal_wraps_around(self):
        pos = np.array([[0.5, 5.0], [19.5, 5.0]])
        members = np.array([True, False])
        assert not within_radius_of_members(pos, members, 2.0)[1]
        assert within_radius_of_members(pos, members, 2.0, boxsize=20.0)[1]

    def test_wrong_mask_length(self, small_positions):
        with pytest.raises(ValueError):
            within_radius_of_members(small_positions, np.zeros(3, dtype=bool), 1.0)


class TestRadiusEdges:
    def test_simple_chain(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]])
        edges = radius_edges(pos, 1.6)
        np.testing.assert_array_equal(edges, [[0, 1], [1, 2]])

    def test_no_edges(self):
        pos = np.array([[0.0, 0.0], [10.0, 0.0]])
        assert radius_edges(pos, 1.0).shape == (0, 2)

    def test_canonical_order(self, small_positions):
        edges = radius_edges(small_positions, 4.0)
        assert (edges[:, 0] < edges[:, 1]).all()

    def test_edge_count_matches_brute_force(self, small_positions):
        edges = radius_edges(small_positions, 3.0)
        count = 0
        n = len(small_positions)
        for i in range(n):
            for j in range(i + 1, n):
                d = small_positions[i] - small_positions[j]
                if d @ d <= 9.0 * (1 + 1e-12):
                    count += 1
        assert len(edges) == count


class TestRadiusDegrees:
    def test_degrees_match_edges(self, small_positions):
        edges = radius_edges(small_positions, 3.5)
        deg = radius_degrees(small_positions, 3.5)
        expected = np.zeros(len(small_positions), dtype=np.int64)
        for u, v in edges:
            expected[u] += 1
            expected[v] += 1
        np.testing.assert_array_equal(deg, expected)

    def test_isolated_point(self):
        pos = np.array([[0.0, 0.0], [100.0, 100.0]])
        np.testing.assert_array_equal(radius_degrees(pos, 1.0), [0, 0])


class TestBatchedWithinRadius:
    """The shared multi-trial query vs the per-trial reference."""

    def _stack(self, rng, trials, n, side):
        positions = rng.uniform(0.0, side, size=(trials, n, 2))
        members = rng.random((trials, n)) < 0.3
        members[:, 0] = True  # no empty member rows
        return positions, members

    @staticmethod
    def _assert_on_cell_grid_path(n, side, radius):
        """Guard the fixture against silently drifting onto the
        per-trial k-d fallback (the cell-grid join must stay covered)."""
        from repro.geometric.neighbors import (_CELLS_PER_RADIUS,
                                               _MAX_CELLS_PER_POINT)
        grid = math.ceil(side * _CELLS_PER_RADIUS / radius)
        assert grid * grid <= _MAX_CELLS_PER_POINT * n, (
            "fixture exercises the k-d fallback, not the cell grid")

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    def test_matches_per_trial_query(self, rng, boxsize):
        self._assert_on_cell_grid_path(40, 20.0, 4.0)
        positions, members = self._stack(rng, trials=5, n=40, side=20.0)
        batched = batched_within_radius(positions, members, 4.0,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                within_radius_of_members(positions[b], members[b], 4.0,
                                         boxsize=boxsize),
                err_msg=f"trial {b} diverges from the per-trial query")

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    def test_matches_brute_force(self, rng, boxsize):
        self._assert_on_cell_grid_path(25, 20.0, 5.0)
        positions, members = self._stack(rng, trials=4, n=25, side=20.0)
        batched = batched_within_radius(positions, members, 5.0,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                brute_force_within_radius(positions[b], members[b], 5.0,
                                          boxsize=boxsize))

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    def test_kd_fallback_matches_brute_force(self, rng, boxsize):
        """Tiny radius vs span: the grid would be degenerate, so the
        per-trial k-d fallback must answer — and agree with brute force."""
        positions, members = self._stack(rng, trials=3, n=30, side=20.0)
        batched = batched_within_radius(positions, members, 0.9,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                brute_force_within_radius(positions[b], members[b], 0.9,
                                          boxsize=boxsize))

    @pytest.mark.parametrize("boxsize", [None, 20.0])
    @pytest.mark.parametrize("member_rate", [0.03, 0.3, 0.8])
    def test_cell_grid_sweep_matches_brute_force(self, rng, boxsize,
                                                 member_rate):
        """Dense fixture pinned to the cell-grid join across sparse,
        mid, and dense member sets."""
        self._assert_on_cell_grid_path(80, 20.0, 4.0)
        positions = rng.uniform(0.0, 20.0, size=(4, 80, 2))
        members = rng.random((4, 80)) < member_rate
        members[:, 0] = True
        batched = batched_within_radius(positions, members, 4.0,
                                        boxsize=boxsize)
        for b in range(positions.shape[0]):
            np.testing.assert_array_equal(
                batched[b],
                brute_force_within_radius(positions[b], members[b], 4.0,
                                          boxsize=boxsize))

    def test_no_cross_trial_contamination(self):
        """Co-located points in different trials must not connect."""
        positions = np.zeros((2, 2, 2))
        positions[0] = [[0.0, 0.0], [10.0, 10.0]]
        positions[1] = [[0.1, 0.0], [10.0, 10.0]]
        members = np.array([[True, False], [False, False]])
        out = batched_within_radius(positions, members, 1.0)
        assert not out[1].any()  # trial 1's origin point is not informed
        assert not out[0].any()  # trial 0's far point is out of range

    def test_degenerate_member_rows(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0.0, 10.0, size=(3, 8, 2))
        members = np.zeros((3, 8), dtype=bool)
        assert not batched_within_radius(positions, members, 2.0).any()
        members[:] = True
        assert not batched_within_radius(positions, members, 2.0).any()
        # Mixed: one full row, one empty row, one ordinary row.
        members[0] = True
        members[1] = False
        members[2] = rng.random(8) < 0.5
        out = batched_within_radius(positions, members, 2.0)
        assert not out[0].any() and not out[1].any()
        np.testing.assert_array_equal(
            out[2], within_radius_of_members(positions[2], members[2], 2.0))

    def test_single_trial_matches(self, small_positions, rng):
        members = rng.random(len(small_positions)) < 0.4
        members[0] = True
        np.testing.assert_array_equal(
            batched_within_radius(small_positions[None], members[None], 3.0)[0],
            within_radius_of_members(small_positions, members, 3.0))

    def test_tight_cluster_terminates_quickly(self):
        """span << radius collapses the grid to one cell; the offset
        range must clamp to the grid instead of scaling with R/span."""
        positions = np.array([[[0.0, 0.0], [1e-5, 1e-5], [2e-5, 0.0]]])
        members = np.array([[True, False, False]])
        out = batched_within_radius(positions, members, 2.5)
        np.testing.assert_array_equal(out, [[False, True, True]])


class TestOneEdgeRule:
    """Every query path applies the same inclusive bound, including on
    the slack band just past ``R``: a pair at ``d = R (1 + 0.75e-12)``
    lies beyond ``R^2 (1 + 1e-12)`` but within ``(R (1 + 1e-12))^2``."""

    RADIUS = 3.0
    D = RADIUS * (1 + 0.75e-12)

    def _assert_in_band(self, positions, boxsize=None):
        delta = positions[1] - positions[0]
        if boxsize is not None:
            delta -= boxsize * np.round(delta / boxsize)
        d2 = float(delta @ delta)
        assert self.RADIUS ** 2 * (1 + 1e-12) < d2 <= radius_bound2(self.RADIUS)

    def _assert_all_paths_connect(self, snap, positions, boxsize=None):
        first = np.array([True, False])
        # Snapshot queries.
        assert snap.neighborhood_mask(first).tolist() == [False, True]
        assert snap.neighborhood_mask(~first).tolist() == [True, False]
        assert snap.neighbors_of(0).tolist() == [1]
        assert snap.neighbors_of(1).tolist() == [0]
        assert snap.neighbor_counts(first).tolist() == [0, 1]
        assert snap.degrees().tolist() == [1, 1]
        assert snap.edge_count() == 1
        assert snap.has_edge(0, 1) and snap.has_edge(1, 0)
        # Module-level queries.
        kw = {"boxsize": boxsize}
        assert within_radius_of_members(positions, first, self.RADIUS, **kw)[1]
        assert brute_force_within_radius(positions, first, self.RADIUS, **kw)[1]
        assert member_neighbor_counts(positions, first, self.RADIUS,
                                      **kw).tolist() == [0, 1]
        assert radius_edges(positions, self.RADIUS, **kw).tolist() == [[0, 1]]
        assert radius_degrees(positions, self.RADIUS, **kw).tolist() == [1, 1]

    def test_planar(self):
        positions = np.array([[1.0, 2.0], [1.0 + self.D, 2.0]])
        self._assert_in_band(positions)
        snap = GeometricSnapshot(positions, self.RADIUS)
        self._assert_all_paths_connect(snap, positions)
        assert batched_within_radius(positions[None], np.array([[True, False]]),
                                     self.RADIUS)[0, 1]

    def test_toroidal(self):
        box = 10.0
        positions = np.array([[0.5, 4.0], [box + 0.5 - self.D, 4.0]])
        self._assert_in_band(positions, box)
        snap = GeometricSnapshot(positions, self.RADIUS, boxsize=box)
        self._assert_all_paths_connect(snap, positions, box)
        assert batched_within_radius(positions[None], np.array([[True, False]]),
                                     self.RADIUS, boxsize=box)[0, 1]

    def test_sphere(self):
        rho = 4.0
        angle = 2 * math.asin(self.D / (2 * rho))
        unit = np.array([[1.0, 0.0, 0.0], [math.cos(angle), math.sin(angle), 0.0]])
        snap = SphereSnapshot(unit, rho, self.RADIUS)
        positions = snap.positions
        self._assert_in_band(positions)
        self._assert_all_paths_connect(snap, positions)


#: Lattice spacings, relative to ``R``: half, exactly ``R``, inside the
#: slack band of the inclusive edge rule, and clearly past it.
_SPACINGS = (0.5, 1.0, 1 + 0.75e-12, 1 + 3e-12)


@st.composite
def radius_inputs(draw):
    """``(snapshot, positions, radius, boxsize)``: a planar, toroidal or
    sphere radius snapshot over uniform, lattice or coincident points."""
    kind = draw(st.sampled_from(["plane", "torus", "sphere"]))
    layout = draw(st.sampled_from(["uniform", "lattice", "coincident"]))
    n = draw(st.integers(1, 36))
    radius = draw(st.floats(0.5, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sphere":
        rho = 3.0
        if layout == "lattice":
            # Points on one great circle, consecutive chords at the spacing.
            chord = min(radius * draw(st.sampled_from(_SPACINGS)), 2 * rho)
            step = 2 * math.asin(chord / (2 * rho))
            angles = step * rng.integers(0, max(1, int(2 * math.pi / step)), n)
            unit = np.stack([np.cos(angles), np.sin(angles),
                             np.zeros(n)], axis=1)
        else:
            unit = rng.normal(size=(n if layout == "uniform" else 4, 3))
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            if layout == "coincident":
                unit = unit[rng.integers(0, 4, n)]
        snap = SphereSnapshot(unit, rho, radius)
        return snap, snap.positions, radius, None
    side = 12.0
    boxsize = side if kind == "torus" else None
    if layout == "lattice":
        spacing = radius * draw(st.sampled_from(_SPACINGS))
        cells = max(1, int(side / spacing))
        positions = spacing * rng.integers(0, cells, size=(n, 2)).astype(float)
    elif layout == "uniform":
        positions = rng.uniform(0.0, side, size=(n, 2))
    else:
        positions = rng.uniform(0.0, side, size=(4, 2))[rng.integers(0, 4, n)]
    snap = GeometricSnapshot(positions, radius, boxsize=boxsize)
    return snap, positions, radius, boxsize


def _onehot(n: int, node: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[node] = True
    return mask


def assert_csr_is_radius_graph(indptr, indices, positions, radius, boxsize):
    """Rows equal brute-force one-hot rows and ascend strictly; the CSR
    is symmetric, int64 and free of self-loops."""
    n = len(positions)
    assert indptr.dtype == np.int64 and indices.dtype == np.int64
    assert indptr.shape == (n + 1,)
    assert indptr[0] == 0 and indptr[-1] == indices.shape[0]
    for u in range(n):
        row = indices[indptr[u]:indptr[u + 1]]
        assert (np.diff(row) > 0).all(), f"row {u} is not strictly ascending"
        expected = brute_force_within_radius(positions, _onehot(n, u), radius,
                                             boxsize=boxsize)
        np.testing.assert_array_equal(row, np.flatnonzero(expected),
                                      err_msg=f"row {u}")
    rows = np.repeat(np.arange(n), np.diff(indptr))
    assert not (rows == indices).any(), "self-loop"
    arcs = set(zip(rows.tolist(), indices.tolist()))
    assert arcs == {(v, u) for u, v in arcs}, "not symmetric"


class TestRadiusCsr:
    """The cached whole-graph CSR behind ``neighbors_of`` and gossip
    sampling, against brute force and the per-node scan it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(case=radius_inputs())
    def test_property_matches_brute_force(self, case):
        snap, positions, radius, boxsize = case
        indptr, indices = radius_csr(positions, radius, boxsize=boxsize)
        assert_csr_is_radius_graph(indptr, indices, positions, radius, boxsize)
        assert snap._csr is None  # nothing above touched the snapshot's
        for u in range(snap.num_nodes):
            row = snap.neighbors_of(u)
            np.testing.assert_array_equal(
                row, oracle_neighbors_of(positions, radius, u, boxsize=boxsize))
            assert not row.flags.writeable
        snap_indptr, snap_indices = snap.csr
        np.testing.assert_array_equal(snap_indptr, indptr)
        np.testing.assert_array_equal(snap_indices, indices)

    def test_built_once_and_read_only(self, small_positions):
        snap = GeometricSnapshot(small_positions, 3.0)
        assert snap._csr is None
        indptr, indices = snap.csr
        assert snap.csr[0] is indptr and snap.csr[1] is indices
        assert not indptr.flags.writeable and not indices.flags.writeable
        row = snap.neighbors_of(int(np.argmax(np.diff(indptr))))
        assert row.size > 0
        with pytest.raises(ValueError):
            row[0] = 0

    def test_isolated_nodes_and_singleton(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 50.0]])
        indptr, indices = radius_csr(pos, 1.5)
        assert indptr.tolist() == [0, 1, 2, 2]
        assert indices.tolist() == [1, 0]
        indptr, indices = radius_csr(pos[:1], 1.5)
        assert indptr.tolist() == [0, 0] and indices.size == 0
        snap = GeometricSnapshot(pos[:1], 1.5)
        assert snap.neighbors_of(0).size == 0

    def test_coincident_points_connect(self):
        pos = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]])
        indptr, indices = radius_csr(pos, 0.5)
        assert indptr.tolist() == [0, 2, 4, 6]
        assert indices.tolist() == [1, 2, 0, 2, 0, 1]

    def test_slack_band_pairs_connect(self):
        """Every consecutive pair of the line sits at ``R`` or inside the
        slack band; the pair past the band stays apart."""
        radius = 3.0
        gaps = [radius, radius * (1 + 0.75e-12), radius * (1 + 3e-12)]
        xs = np.concatenate(([0.0], np.cumsum(gaps)))
        pos = np.stack([xs, np.zeros_like(xs)], axis=1)
        indptr, indices = radius_csr(pos, radius)
        assert indices.tolist() == [1, 0, 2, 1]
        assert_csr_is_radius_graph(indptr, indices, pos, radius, None)


class TestTorusWrapEdge:
    """``np.mod(-1e-17, L) == L``: a coordinate that wraps onto the box
    edge must still reach every periodic k-d helper as a valid point."""

    BOX = 10.0
    RADIUS = 1.0

    @pytest.fixture
    def positions(self):
        return np.array([[-1e-17, 5.0], [self.BOX, 2.0], [9.6, 5.0],
                         [0.3, 2.0], [5.0, -1e-17], [5.0, 9.5]])

    def test_prepare_stays_inside_the_box(self, positions):
        from repro.geometric.neighbors import _prepare
        wrapped = _prepare(positions, self.BOX)
        assert ((wrapped >= 0.0) & (wrapped < self.BOX)).all()

    def test_every_kd_helper_matches_brute_force(self, positions):
        n = len(positions)
        kw = {"boxsize": self.BOX}
        members = np.array([True, False, False, True, False, False])
        expected = brute_force_within_radius(positions, members, self.RADIUS, **kw)
        assert expected[[2, 1]].all()  # the pairs across the seam connect
        np.testing.assert_array_equal(
            within_radius_of_members(positions, members, self.RADIUS, **kw),
            expected)
        np.testing.assert_array_equal(
            batched_within_radius(positions[None], members[None],
                                  self.RADIUS, **kw)[0],
            expected)
        counts = member_neighbor_counts(positions, members, self.RADIUS, **kw)
        indptr, indices = radius_csr(positions, self.RADIUS, **kw)
        assert_csr_is_radius_graph(indptr, indices, positions, self.RADIUS,
                                   self.BOX)
        degrees = np.diff(indptr)
        np.testing.assert_array_equal(
            radius_degrees(positions, self.RADIUS, **kw), degrees)
        edges = radius_edges(positions, self.RADIUS, **kw)
        assert edges.shape[0] * 2 == int(degrees.sum())
        for u, v in edges:
            assert v in indices[indptr[u]:indptr[u + 1]]
        for u in range(n):
            np.testing.assert_array_equal(
                counts[u], np.count_nonzero(members[indices[indptr[u]:indptr[u + 1]]]))


#: Radius factors relative to a lattice offset's length ``d``: the offset
#: at exactly ``R``, inside the slack band (``d = R (1 + 0.75e-12)``),
#: and just past it (``d = R (1 + 3e-12)``).
_OFFSET_FACTORS = (1.0, 1 / (1 + 0.75e-12), 1 / (1 + 3e-12))


@st.composite
def lattice_stencil_inputs(draw):
    """``(lattice, ix, iy, members, radius)``: ``B`` stacked trials of
    walkers on ``L_{n,eps}`` for the lattice-disk stencil."""
    eps = draw(st.sampled_from([1.0, 0.5, 0.3, 0.7]))
    n = draw(st.integers(1, 40))
    density = draw(st.sampled_from([1.0, 0.6, 2.0, 3.3]))
    lattice = Lattice(side=max(math.sqrt(n / density), eps), eps=eps,
                      move_radius=0.0)
    g = lattice.grid_size
    num_trials = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["uniform", "coincident", "border"]))
    if layout == "uniform":
        ix = rng.integers(0, g, size=(num_trials, n))
        iy = rng.integers(0, g, size=(num_trials, n))
    elif layout == "coincident":
        cells = rng.integers(0, g, size=(2, 3))
        pick = rng.integers(0, 3, size=(num_trials, n))
        ix, iy = cells[0][pick], cells[1][pick]
    else:  # every walker on the lattice border
        ix = rng.integers(0, g, size=(num_trials, n))
        iy = rng.choice([0, g - 1], size=(num_trials, n))
        swap = rng.random((num_trials, n)) < 0.5
        ix, iy = np.where(swap, iy, ix), np.where(swap, ix, iy)
    fill = draw(st.sampled_from(["empty", "full", "random"]))
    if fill == "random":
        members = rng.random((num_trials, n)) < draw(st.floats(0.05, 0.95))
    else:
        members = np.full((num_trials, n), fill == "full")
    kind = draw(st.sampled_from(["offset", "side", "free"]))
    if kind == "offset":
        a, b = draw(st.tuples(st.integers(0, g - 1), st.integers(1, g - 1)))
        radius = math.hypot(a * eps, b * eps) * draw(
            st.sampled_from(_OFFSET_FACTORS))
    elif kind == "side":
        radius = lattice.side * draw(st.sampled_from([1.0, 0.97]))
    else:
        radius = draw(st.floats(0.1, 1.5)) * lattice.side
    return lattice, ix, iy, members, radius


class TestLatticeStencil:
    """The exact lattice-disk stencil behind the geometric MEG's ``N(I)``
    (native kernel and serial snapshots) against brute force on the
    lattice coordinates, under the one inclusive edge rule."""

    @settings(max_examples=300, deadline=None)
    @given(case=lattice_stencil_inputs())
    def test_property_matches_brute_force(self, case):
        lattice, ix, iy, members, radius = case
        out = lattice_within_radius(ix, iy, members, radius, eps=lattice.eps,
                                    grid_size=lattice.grid_size)
        assert out.shape == members.shape and out.dtype == bool
        for b in range(members.shape[0]):
            positions = lattice.to_coordinates(ix[b], iy[b])
            np.testing.assert_array_equal(
                out[b], brute_force_within_radius(positions, members[b], radius),
                err_msg=f"trial {b}")

    @pytest.mark.parametrize("eps", [1.0, 0.5, 0.3, 0.7])
    @pytest.mark.parametrize("factor, connects", [
        pytest.param(1.0, True, id="exact"),
        pytest.param(1 / (1 + 0.75e-12), True, id="in-band"),
        pytest.param(1 / (1 + 3e-12), False, id="past-band")])
    def test_offset_at_the_edge_rule(self, eps, factor, connects):
        """Offset ``(3, 4)``: at exactly ``R``, inside the slack band,
        and just past it."""
        radius = 5 * eps * factor
        ix, iy = np.array([[1, 4]]), np.array([[2, 6]])
        out = lattice_within_radius(ix, iy, np.array([[True, False]]), radius,
                                    eps=eps, grid_size=8)
        assert out.tolist() == [[False, connects]]
        positions = Lattice(side=7 * eps, eps=eps,
                            move_radius=0.0).to_coordinates(ix[0], iy[0])
        assert brute_force_within_radius(
            positions, np.array([True, False]), radius)[1] == connects

    @settings(max_examples=25, deadline=None)
    @given(params=st.sampled_from([
               dict(move_radius=0.0, radius=1.6),
               dict(move_radius=1.0, radius=2.0),
               dict(move_radius=2.5, radius=3.0),
               dict(move_radius=0.6, radius=1.5, eps=0.3),
               dict(move_radius=1.0, radius=1.2, eps=0.5),
               dict(move_radius=0.7, radius=2.1, eps=0.7, density=2.0)]),
           n=st.integers(12, 60), seed=st.integers(0, 2**32 - 1))
    def test_meg_snapshot_along_floods(self, params, n, seed):
        """Along static and moving floods, the lattice snapshot's
        ``N(I)`` equals the k-d query on its coordinates, and
        ``neighborhood_masks`` equals the row-by-row query."""
        meg = GeometricMEG(n, **params)
        meg.reset(seed)
        informed = np.zeros(n, dtype=bool)
        informed[0] = True
        for _ in range(12):
            snap = meg.snapshot()
            fresh = snap.neighborhood_mask(informed)
            np.testing.assert_array_equal(
                fresh, within_radius_of_members(snap.positions, informed,
                                                meg.radius))
            rows = np.stack([informed, ~informed, fresh])
            np.testing.assert_array_equal(
                snap.neighborhood_masks(rows),
                [within_radius_of_members(snap.positions, row, meg.radius)
                 for row in rows])
            informed |= fresh
            meg.step()

    def test_rejects_malformed_input(self):
        meg = GeometricMEG(16, move_radius=1.0, radius=2.0)
        meg.reset(0)
        with pytest.raises(ValueError):
            meg.snapshot().neighborhood_mask(np.zeros(15, dtype=bool))
        members = np.array([[True, False]])
        for ix in ([[0, 9]], [[-1, 0]]):
            with pytest.raises(ValueError, match="lattice indices"):
                lattice_within_radius(np.array(ix), np.zeros((1, 2), int),
                                      members, 2.0, eps=1.0, grid_size=9)
