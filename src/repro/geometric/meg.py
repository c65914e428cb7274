"""Geometric Markovian evolving graphs ``G(n, r, R, eps)`` (Section 3).

``n`` walkers perform independent random walks on the lattice
``L_{n,eps}`` (move radius ``r``); at every time step two nodes are
adjacent iff their Euclidean distance is at most the transmission
radius ``R``.  The graph process is a function of the hidden product
chain of walker positions — a Markovian evolving graph in the sense of
Definition 3.1, stationary when the walkers start from their exact
stationary distribution.

Snapshots keep the walkers' lattice indices, so ``N(I)`` is answered
on the lattice itself: the informed nodes' occupancy grid dilated by
the fixed disk of lattice offsets within ``R``
(:func:`~repro.geometric.neighbors.lattice_within_radius`).

Density scaling (Observation 3.3): the constructor takes a ``density``
parameter; the region side becomes ``sqrt(n / density)`` and all
theorems apply with ``R >= c sqrt(log n / density)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dynamics.base import EvolvingGraph, GraphSnapshot
from repro.geometric.cells import CellPartition
from repro.geometric.lattice import Lattice
from repro.geometric.neighbors import (
    lattice_within_radius,
    member_neighbor_counts,
    radius_bound2,
    radius_csr,
    radius_degrees,
    radius_edges,
    within_radius_of_members,
)
from repro.geometric.walk import WalkerPopulation
from repro.util.rng import SeedLike
from repro.util.validation import require, require_positive, require_positive_int

__all__ = ["GeometricSnapshot", "GeometricMEG"]


class GeometricSnapshot(GraphSnapshot):
    """Snapshot of a geometric graph: point set + transmission radius.

    ``N(I)`` queries never materialise edges, so a flood never builds
    the whole graph.  A snapshot of lattice walkers
    (:meth:`on_lattice`, what :meth:`GeometricMEG.snapshot` returns)
    answers them with the exact lattice-disk stencil, one call for all
    rows of :meth:`neighborhood_masks`; a snapshot of arbitrary points
    runs a nearest-member k-d tree query.  :meth:`neighbor_counts` is a
    k-d ball-count query over the members.  Per-node queries
    (:meth:`neighbors_of`, gossip neighbour sampling) slice :attr:`csr`,
    built by one k-d pair query on first use and cached;
    :meth:`degrees` and :meth:`edge_count` build a full tree on demand
    (diagnostics, not the flooding hot path).
    """

    __slots__ = ("_positions", "_radius", "_boxsize", "_csr", "_cells")

    def __init__(self, positions: np.ndarray, radius: float, *,
                 boxsize: float | None = None) -> None:
        self._positions = np.ascontiguousarray(positions, dtype=float)
        require(self._positions.ndim == 2 and self._positions.shape[1] == 2,
                "positions must be (n, 2)")
        self._radius = require_positive(radius, "radius")
        if boxsize is not None:
            require(radius <= boxsize / 2 * (1 + 1e-12),
                    "toroidal queries need radius <= boxsize/2")
        self._boxsize = boxsize
        self._csr = None
        self._cells = None

    @classmethod
    def on_lattice(cls, lattice: Lattice, ix: np.ndarray, iy: np.ndarray,
                   radius: float) -> GeometricSnapshot:
        """Snapshot of walkers at lattice indices ``(ix, iy)`` of
        *lattice*; ``N(I)`` queries run on the indices."""
        snap = cls(lattice.to_coordinates(ix, iy), radius)
        snap._cells = (lattice, ix, iy)
        return snap

    @property
    def num_nodes(self) -> int:
        return self._positions.shape[0]

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates (do not mutate)."""
        return self._positions

    @property
    def radius(self) -> float:
        """Transmission radius ``R``."""
        return self._radius

    @property
    def boxsize(self) -> float | None:
        """Toroidal period, or ``None`` for the plain Euclidean square."""
        return self._boxsize

    def neighborhood_mask(self, members: np.ndarray) -> np.ndarray:
        if self._cells is None:
            return within_radius_of_members(self._positions, members,
                                            self._radius, boxsize=self._boxsize)
        members = np.asarray(members, dtype=bool)
        require(members.shape == (self.num_nodes,),
                "members mask has wrong length")
        return self.neighborhood_masks(members[None])[0]

    def neighborhood_masks(self, members: np.ndarray) -> np.ndarray:
        if self._cells is None:
            return super().neighborhood_masks(members)
        lattice, ix, iy = self._cells
        return lattice_within_radius(ix, iy, members, self._radius,
                                     eps=lattice.eps,
                                     grid_size=lattice.grid_size)

    def neighbor_counts(self, members: np.ndarray) -> np.ndarray:
        return member_neighbor_counts(self._positions, members, self._radius,
                                      boxsize=self._boxsize)

    def degrees(self) -> np.ndarray:
        return radius_degrees(self._positions, self._radius, boxsize=self._boxsize)

    def edge_count(self) -> int:
        return self.edges().shape[0]

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The radius graph as read-only ``(indptr, indices)`` CSR arrays
        with ascending rows (:func:`~repro.geometric.neighbors.radius_csr`),
        built on first access and cached."""
        if self._csr is None:
            self._csr = radius_csr(self._positions, self._radius,
                                   boxsize=self._boxsize)
        return self._csr

    def neighbors_of(self, node: int) -> np.ndarray:
        indptr, indices = self.csr
        return indices[indptr[node]:indptr[node + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        delta = self._positions[u] - self._positions[v]
        if self._boxsize is not None:
            delta = delta - self._boxsize * np.round(delta / self._boxsize)
        return bool(delta @ delta <= radius_bound2(self._radius))

    def edges(self) -> np.ndarray:
        """All edges as an ``(m, 2)`` array with ``u < v``."""
        return radius_edges(self._positions, self._radius, boxsize=self._boxsize)


class GeometricMEG(EvolvingGraph):
    """The geometric-MEG ``G(n, r, R, eps)``.

    Parameters
    ----------
    n:
        Number of nodes (radio stations).
    move_radius:
        ``r`` — maximum distance a node travels per time step
        ("maximum node velocity").  ``r = 0`` gives the static random
        geometric graph.
    radius:
        ``R`` — transmission radius; the paper assumes ``eps < R``.
    eps:
        Lattice resolution (default 1, the coarsest resolution the
        paper's analysis allows; any ``0 < eps <= 1`` works).
    density:
        Node density ``delta``; the region side is ``sqrt(n / density)``
        (Observation 3.3).  Default 1 as in the paper's main setup.

    Examples
    --------
    >>> meg = GeometricMEG(n=64, move_radius=1.0, radius=4.0)
    >>> meg.reset(seed=0)
    >>> snap = meg.snapshot()
    >>> snap.num_nodes
    64
    """

    def __init__(self, n: int, move_radius: float, radius: float, *,
                 eps: float = 1.0, density: float = 1.0) -> None:
        self._n = require_positive_int(n, "n")
        radius = require_positive(radius, "radius")
        eps = require_positive(eps, "eps")
        density = require_positive(density, "density")
        require(eps < radius, "the paper assumes eps < R")
        side = math.sqrt(n / density)
        require(radius <= side * (1 + 1e-12),
                f"radius {radius} exceeds the region side {side:.4g}")
        self.lattice = Lattice(side=side, eps=eps, move_radius=move_radius)
        self.walkers = WalkerPopulation(n, self.lattice)
        self._radius = radius
        self._density = density
        self._t = 0

    @property
    def num_nodes(self) -> int:
        return self._n

    @property
    def radius(self) -> float:
        """Transmission radius ``R``."""
        return self._radius

    @property
    def move_radius(self) -> float:
        """Move radius ``r``."""
        return self.lattice.move_radius

    @property
    def side(self) -> float:
        """Side length of the square region."""
        return self.lattice.side

    @property
    def density(self) -> float:
        """Node density ``n / side^2``."""
        return self._density

    def reset(self, seed: SeedLike = None) -> None:
        self.walkers.reset(seed)
        self._t = 0

    def reset_at(self, positions: np.ndarray, *, seed: SeedLike = None) -> None:
        """Non-stationary start at explicit Euclidean *positions*.

        Positions are snapped to the nearest lattice point.  Used by
        adversarial experiments (all nodes in a corner, two far groups).
        """
        positions = np.asarray(positions, dtype=float)
        require(positions.shape == (self._n, 2), "positions must be (n, 2)")
        g = self.lattice.grid_size
        ix = np.clip(np.rint(positions[:, 0] / self.lattice.eps), 0, g - 1)
        iy = np.clip(np.rint(positions[:, 1] / self.lattice.eps), 0, g - 1)
        self.walkers.reset_at(ix.astype(np.int64), iy.astype(np.int64), seed=seed)
        self._t = 0

    def step(self) -> None:
        self.walkers.step()
        self._t += 1

    def snapshot(self) -> GeometricSnapshot:
        ix, iy = self.walkers.indices
        return GeometricSnapshot.on_lattice(self.lattice, ix, iy, self._radius)

    @property
    def time(self) -> int:
        return self._t

    @property
    def is_static(self) -> bool:
        """True when ``r < eps``: no walker can leave its lattice point."""
        return self.lattice.dmax == 0

    def cell_partition(self) -> CellPartition:
        """The Theorem 3.2 proof partition for this instance."""
        return CellPartition(self.side, self._radius)
