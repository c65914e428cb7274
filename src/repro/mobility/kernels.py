"""Batched flooding kernels of the mobility zoo.

This is the first *new* kernel family written against the
:class:`~repro.dynamics.batched.BatchedDynamics` protocol (the edge and
geometric kernels were extracted from the engine): it batches all ``B``
:class:`~repro.mobility.base.MobilityMEG` trial populations as stacked
``(B, n, 2)`` position arrays with fully vectorised kinematics per
mobility model, and answers the ``N(I)`` query with the shared batched
radius query of :func:`repro.geometric.neighbors.batched_within_radius`
— so the Section 3 "further mobility models" experiments (E11/E12) run
natively on the engine instead of through its per-trial fallback.

The kinematics are drawn from the chunk generator.  Each supported
:class:`~repro.mobility.base.MobilityModel` has a ``_Batched*`` twin
below that holds the whole chunk's kinematic state and replicates the
serial model's update law vectorised over the extra batch axis,
including ``MobilityMEG``'s warm-up semantics for models without an
exact stationary start.  Models without a twin, and ``MobilityMEG``
subclasses overriding ``snapshot``/``reset``/``step``, get the generic
provider and run the engine's per-trial fallback.

Adding a mobility model to the native fast path = writing its
``_Batched*`` twin and adding one ``_KINEMATICS`` entry; the registry
entry for ``MobilityMEG`` already covers it.
"""

from __future__ import annotations

import numpy as np

from repro.dynamics.batched import (
    BatchedDynamics,
    register_batched_dynamics,
    uses_inherited,
)
from repro.geometric.neighbors import batched_within_radius
from repro.mobility.base import MobilityMEG, MobilityModel
from repro.mobility.direction import RandomDirection
from repro.mobility.torus_walk import TorusGridWalk
from repro.mobility.waypoint import RandomWaypoint, RandomWaypointTorus

__all__ = ["MobilityBatchedDynamics"]


# ---------------------------------------------------------------------------
# batched kinematics: one twin class per mobility model
# ---------------------------------------------------------------------------

class _BatchedWaypoint:
    """Vectorised random waypoint, square (``torus=False``) or toroidal.

    State: positions and destinations as ``(B, n, 2)`` stacks.  The step
    law mirrors :class:`RandomWaypoint` / :class:`RandomWaypointTorus`
    exactly: arriving nodes land on their waypoint and redraw, moving
    nodes advance ``speed`` along the (toroidally shortest, on the
    torus) connecting segment.
    """

    torus = False

    def __init__(self, model: RandomWaypoint | RandomWaypointTorus) -> None:
        self.n = model.n
        self.side = model.side
        self.speed = model.speed

    def init(self, count: int, rng: np.random.Generator) -> None:
        self.pos = rng.uniform(0.0, self.side, size=(count, self.n, 2))
        self.dest = rng.uniform(0.0, self.side, size=(count, self.n, 2))

    def step(self, rng: np.random.Generator, act: np.ndarray) -> None:
        full = act.shape[0] == self.pos.shape[0]
        pos = self.pos if full else self.pos[act]
        dest = self.dest if full else self.dest[act]
        delta = dest - pos
        if self.torus:
            delta -= self.side * np.round(delta / self.side)
        dist2 = np.einsum("bij,bij->bi", delta, delta)
        speed2 = self.speed * self.speed
        arriving = dist2 <= speed2
        # Arriving nodes land exactly on the waypoint, movers advance
        # `speed` along the segment (the max() only silences the movers'
        # branch at arriving entries, whose value np.where discards).
        scale = self.speed / np.sqrt(np.maximum(dist2, speed2))
        pos = np.where(arriving[:, :, None], dest, pos + delta * scale[:, :, None])
        redraws = int(arriving.sum())
        if redraws:
            dest[arriving] = rng.uniform(0.0, self.side, size=(redraws, 2))
        if self.torus:
            np.mod(pos, self.side, out=pos)
        else:
            np.clip(pos, 0.0, self.side, out=pos)
        if full:
            self.pos = pos
        else:
            self.pos[act] = pos
            self.dest[act] = dest

    def positions(self, act: np.ndarray) -> np.ndarray:
        return self.pos[act]


class _BatchedWaypointTorus(_BatchedWaypoint):
    torus = True


class _BatchedDirection:
    """Vectorised billiard mobility (:class:`RandomDirection`): straight
    lines, specular reflection at the borders, per-step direction
    redraws with probability ``turn_probability``."""

    def __init__(self, model: RandomDirection) -> None:
        self.n = model.n
        self.side = model.side
        self.speed = model.speed
        self.turn_probability = model.turn_probability

    def _fresh_velocities(self, rng: np.random.Generator,
                          count: int) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * np.pi, size=count)
        return np.column_stack([self.speed * np.cos(theta),
                                self.speed * np.sin(theta)])

    def init(self, count: int, rng: np.random.Generator) -> None:
        self.pos = rng.uniform(0.0, self.side, size=(count, self.n, 2))
        self.vel = self._fresh_velocities(rng, count * self.n)
        self.vel = self.vel.reshape(count, self.n, 2)

    def step(self, rng: np.random.Generator, act: np.ndarray) -> None:
        vel = self.vel[act]
        if self.turn_probability > 0:
            turn = rng.random(vel.shape[:2]) < self.turn_probability
            redraws = int(turn.sum())
            if redraws:
                vel[turn] = self._fresh_velocities(rng, redraws)
        pos = self.pos[act] + vel
        # Specular reflection by folding, exactly like the serial model
        # (speed <= side, so at most one fold per axis per border).
        for axis in range(2):
            over = pos[..., axis] > self.side
            pos[over, axis] = 2.0 * self.side - pos[over, axis]
            vel[over, axis] = -vel[over, axis]
            under = pos[..., axis] < 0.0
            pos[under, axis] = -pos[under, axis]
            vel[under, axis] = -vel[under, axis]
        np.clip(pos, 0.0, self.side, out=pos)
        self.pos[act] = pos
        self.vel[act] = vel

    def positions(self, act: np.ndarray) -> np.ndarray:
        return self.pos[act]


class _BatchedTorusWalk:
    """Vectorised walkers model (:class:`TorusGridWalk`): uniform random
    moves over the toroidal disc offset set, all trials in one draw."""

    def __init__(self, model: TorusGridWalk) -> None:
        self.n = model.n
        self.grid_size = model.grid_size
        self.spacing = model.spacing
        self.offsets = model._offsets

    def init(self, count: int, rng: np.random.Generator) -> None:
        self.idx = rng.integers(0, self.grid_size, size=(count, self.n, 2))

    def step(self, rng: np.random.Generator, act: np.ndarray) -> None:
        sub = self.idx[act]
        picks = rng.integers(0, self.offsets.shape[0], size=sub.shape[:2])
        self.idx[act] = (sub + self.offsets[picks]) % self.grid_size

    def positions(self, act: np.ndarray) -> np.ndarray:
        return self.idx[act].astype(float) * self.spacing


#: Mobility-model classes with batched twins.  A subclass qualifies only
#: when it inherits the kinematic methods unchanged (the twin replicates
#: exactly those semantics).
_KINEMATICS: dict[type, type] = {
    RandomWaypoint: _BatchedWaypoint,
    RandomWaypointTorus: _BatchedWaypointTorus,
    RandomDirection: _BatchedDirection,
    TorusGridWalk: _BatchedTorusWalk,
}


def _kinematics_for(model: MobilityModel) -> type | None:
    for base, twin in _KINEMATICS.items():
        if isinstance(model, base):
            if uses_inherited(model, base, "reset", "step", "positions"):
                return twin
            return None
    return None


# ---------------------------------------------------------------------------
# the provider
# ---------------------------------------------------------------------------

class MobilityBatchedDynamics(BatchedDynamics):
    """Kernels for :class:`MobilityMEG` over any supported mobility model."""

    def __init__(self, template: MobilityMEG, kinematics: type) -> None:
        super().__init__(template)
        self._kinematics = kinematics
        self._radius = template.radius
        self._boxsize = template.boxsize
        self._warmup = template.warmup_steps

    def batch_init(self, count: int, rng: np.random.Generator):
        kin = self._kinematics(self.template.model)
        kin.init(count, rng)
        everyone = np.arange(count)
        for _ in range(self._warmup):
            kin.step(rng, everyone)
        return kin

    def batch_neighborhood(self, kin, informed: np.ndarray,
                           act: np.ndarray) -> np.ndarray:
        return batched_within_radius(kin.positions(act), informed[act],
                                     self._radius, boxsize=self._boxsize)

    def batch_step(self, kin, rng: np.random.Generator,
                   active: np.ndarray) -> None:
        kin.step(rng, np.flatnonzero(active))


def _mobility_factory(template: MobilityMEG) -> MobilityBatchedDynamics | None:
    if not uses_inherited(template, MobilityMEG, "snapshot", "reset", "step"):
        return None
    kinematics = _kinematics_for(template.model)
    if kinematics is None:
        return None
    return MobilityBatchedDynamics(template, kinematics)


register_batched_dynamics(MobilityMEG, _mobility_factory)
