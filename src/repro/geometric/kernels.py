"""Batched flooding kernels of the geometric-MEG family.

Implements the :class:`~repro.dynamics.batched.BatchedDynamics`
protocol for :class:`~repro.geometric.meg.GeometricMEG`.  The walker
populations of all ``B`` trials share one ``(B, n)`` lattice-index
array: the stationary initialisation and every move step are single
vectorised lattice calls, and the ``N(I)`` query is one exact
lattice-disk stencil over the walker indices of all active trials
(:func:`~repro.geometric.neighbors.lattice_within_radius`) — no
coordinates are formed.

Subclass gating mirrors the edge family: the factory serves only
subclasses that inherit ``snapshot``, ``reset`` and ``step`` unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.batched import (
    BatchedDynamics,
    register_batched_dynamics,
    uses_inherited,
)
from repro.geometric.meg import GeometricMEG
from repro.geometric.neighbors import lattice_within_radius

__all__ = ["GeometricBatchedDynamics"]


class _WalkerState:
    """Lattice indices of all trial populations, shape ``(B, n)`` each."""

    __slots__ = ("ix", "iy")


class GeometricBatchedDynamics(BatchedDynamics):
    """Kernels for :class:`GeometricMEG` (lattice walkers + radius graph)."""

    def __init__(self, template: GeometricMEG) -> None:
        super().__init__(template)
        self._lattice = template.lattice
        self._radius = template.radius
        self._n = template.num_nodes

    def batch_init(self, count: int, rng: np.random.Generator) -> _WalkerState:
        ix, iy = self._lattice.sample_stationary_indices(count * self._n,
                                                         seed=rng)
        state = _WalkerState()
        state.ix = ix.reshape(count, self._n)
        state.iy = iy.reshape(count, self._n)
        return state

    def batch_neighborhood(self, state: _WalkerState, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        return lattice_within_radius(state.ix[act], state.iy[act],
                                     informed[act], self._radius,
                                     eps=self._lattice.eps,
                                     grid_size=self._lattice.grid_size)

    def batch_step(self, state: _WalkerState, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        act = np.flatnonzero(active)
        moved_x, moved_y = self._lattice.step_indices(
            state.ix[act].ravel(), state.iy[act].ravel(), rng=rng)
        state.ix[act] = moved_x.reshape(act.shape[0], self._n)
        state.iy[act] = moved_y.reshape(act.shape[0], self._n)


def _geometric_factory(template: GeometricMEG) -> GeometricBatchedDynamics | None:
    if not uses_inherited(template, GeometricMEG, "snapshot", "reset", "step"):
        return None
    return GeometricBatchedDynamics(template)


register_batched_dynamics(GeometricMEG, _geometric_factory)
