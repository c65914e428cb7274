"""``EvolvingGraph.is_static``: which models can never change ``G_t``.

:func:`repro.core.flooding.flood` stops querying a stalled flood on a
static graph, so a model that claims ``True`` while its snapshots move
would truncate floods.  Only two models override the ``False`` default,
and the registry check below keeps any other class from picking up an
override by accident.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro
from repro.dynamics.base import EvolvingGraph
from repro.dynamics.sequence import (
    GeneratedEvolvingGraph,
    SequenceEvolvingGraph,
    StaticEvolvingGraph,
    cycle_adjacency,
    sequence_from_adjacencies,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.er import ErMEG
from repro.edgemeg.independent import IndependentDynamicGraph, IndependentMEG
from repro.edgemeg.meg import EdgeMEG
from repro.edgemeg.sparse import SparseEdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.mobility import (
    MobilityMEG,
    RandomDirection,
    RandomWaypoint,
    RandomWaypointTorus,
    SphereWaypointMEG,
    TorusGridWalk,
)

EPS = 0.5


def _geometric(move_radius: float) -> GeometricMEG:
    return GeometricMEG(36, move_radius=move_radius, radius=1.5, eps=EPS)


STATIC = {
    "static": lambda: StaticEvolvingGraph(AdjacencySnapshot(cycle_adjacency(6))),
    "geometric-r0": lambda: _geometric(0.0),
    "geometric-r-half-eps": lambda: _geometric(EPS / 2),
}

DYNAMIC = {
    "geometric-r-eps": lambda: _geometric(EPS),
    "geometric-r-2eps": lambda: _geometric(2 * EPS),
    "edge": lambda: EdgeMEG(10, 0.2, 0.3),
    "edge-er": lambda: ErMEG(10, 0.3, 0.5),
    "edge-independent": lambda: IndependentMEG(10, 0.3),
    "independent-dynamic": lambda: IndependentDynamicGraph(10, 0.3),
    "sparse-edge": lambda: SparseEdgeMEG(10, 0.2, 0.3),
    "waypoint": lambda: MobilityMEG(RandomWaypoint(16, 4.0, speed=1.0), 1.5),
    "waypoint-torus": lambda: MobilityMEG(RandomWaypointTorus(16, 4.0, speed=1.0),
                                          1.5, torus=True),
    "direction": lambda: MobilityMEG(RandomDirection(16, 4.0, speed=1.0), 1.5),
    "torus-walk": lambda: MobilityMEG(
        TorusGridWalk(16, 4.0, grid_size=8, move_radius=1.0), 1.5, torus=True),
    "sphere": lambda: SphereWaypointMEG(16, radius=1.0, speed=0.5),
    "generated": lambda: GeneratedEvolvingGraph(
        6, lambda t: AdjacencySnapshot(star_adjacency(6, center=t % 6))),
    "sequence-multi": lambda: sequence_from_adjacencies(
        [cycle_adjacency(6), star_adjacency(6)]),
    "sequence-no-cycle": lambda: SequenceEvolvingGraph(
        [AdjacencySnapshot(cycle_adjacency(6))], cycle=False),
}


@pytest.mark.parametrize("make", STATIC.values(), ids=STATIC.keys())
def test_static_models(make):
    assert make().is_static is True


@pytest.mark.parametrize("make", DYNAMIC.values(), ids=DYNAMIC.keys())
def test_dynamic_models(make):
    assert make().is_static is False


@pytest.mark.parametrize("make", STATIC.values(), ids=STATIC.keys())
def test_static_models_keep_their_snapshot(make):
    graph = make()
    graph.reset(7)
    first = graph.snapshot().to_networkx()
    for _ in range(3):
        graph.step()
    assert sorted(graph.snapshot().to_networkx().edges) == sorted(first.edges)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_only_the_two_static_models_override_the_default():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    overriding = {cls for cls in _all_subclasses(EvolvingGraph)
                  if cls.__module__.startswith("repro.")
                  and "is_static" in vars(cls)}
    assert overriding == {GeometricMEG, StaticEvolvingGraph}
    assert not [cls for cls in _all_subclasses(StaticEvolvingGraph)
                if cls.__module__.startswith("repro.")]

