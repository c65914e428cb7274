"""Pinned realisations of the engine's native paths: the per-trial
fallback and the geometric family's flooding kernel.

Protocol/model pairs without composed native kernels — push, pull and
push–pull gossip on any family, and every protocol on a model whose
``reset``/``step`` the family kernels do not replicate — run natively
through the engine's per-trial fallback, with graph and protocol
streams spawned from each chunk's generator.  Those realisations are
deterministic in ``(seed, trials, chunk_size)`` and are pinned here as
SHA-256 digests of every trial's source, time, completion flag,
informed-count history and final informed mask, so a refactor of the
fallback loop cannot silently change them.  ``chunk_size < trials``
keeps the per-chunk seeding under the pin.

Native flooding on :class:`~repro.geometric.meg.GeometricMEG` runs the
geometric family's own kernels (lattice walkers, batched ``N(I)``); its
realisations are pinned the same way across move radii (``r = 1``,
``r > eps`` and the static ``r = 0``, completing and stalling),
resolutions ``eps`` of 1, 0.5 and 0.3 (an offset at exactly ``R``),
density 2, multi-source and truncated runs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.flooding import flooding_trials
from repro.edgemeg.meg import EdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.protocols import (
    ExpiringFlooding,
    Flooding,
    ProbabilisticFlooding,
    PullGossip,
    PushPullGossip,
    spreading_trials,
)


class SteppedEdgeMEG(EdgeMEG):
    """Overrides ``step``, so the edge family's native kernel declines it
    and native runs take the generic fallback."""

    def step(self):
        super().step()


def _digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(np.asarray(r.source, dtype=np.int64).tobytes())
        h.update(np.int64(r.time).tobytes())
        h.update(bytes([r.completed]))
        h.update(np.asarray(r.informed_history, dtype=np.int64).tobytes())
        h.update(np.packbits(r.informed).tobytes())
    return h.hexdigest()


def _edge():
    return EdgeMEG(24, 0.08, 0.4)


def _geometric():
    return GeometricMEG(30, move_radius=1.0, radius=3.0)


def _stepped():
    return SteppedEdgeMEG(20, 0.1, 0.4)


CASES = [
    pytest.param(PushPullGossip(), _edge, {},
                 "9caa89d7076308d4f41d41802d362ec7f25ce7205ab7eb2d0f672cacc31f428a",
                 id="push-pull-edge"),
    pytest.param(PullGossip(), _edge, {},
                 "32a78d492904ee332d60532cea87e6d76f2cdf0f275960eb3586ac5be501186a",
                 id="pull-edge"),
    pytest.param(PushPullGossip(), _geometric, {},
                 "81fb95043b9b180d8b2c04c164ad982d0fe9644e452a5a340850724c8e0c9861",
                 id="push-pull-geometric"),
    pytest.param(PullGossip(), _geometric, {},
                 "6d20a94876c261211f1e1a54af251c883f8b7ea0ffe2353b39f79eabed320a65",
                 id="pull-geometric"),
    pytest.param(Flooding(), _stepped, {},
                 "065db27aed066de6f7d8dae7785d2a62bbecf93d69ee198a6e1e805421654085",
                 id="flooding-stepped-edge"),
    pytest.param(ProbabilisticFlooding(0.4), _stepped, {},
                 "0a8936374643825ec853a5263fd86567ae3328f6a3b005e8a279c25e182b7fd3",
                 id="p-flood-stepped-edge"),
    # Stalls two of the seven trials (completed=False before the budget).
    pytest.param(ExpiringFlooding(1), _stepped, {},
                 "bea25b1d73d0d184a1af5d36db2dab073cf9eba2089d574060a212fa72466ae1",
                 id="expiring-stepped-edge"),
    pytest.param(PushPullGossip(), _edge, {"source": (0, 5)},
                 "d2a2aaba9fffd19492c81707baac1d68d968f6761954f0608cadb15598ce452b",
                 id="push-pull-edge-multisource"),
    # Truncates every trial at the step budget.
    pytest.param(PullGossip(), _edge, {"max_steps": 3},
                 "5087e905a336fe7dc29d16942968b23b53e7518f51f140292565d07559b3183b",
                 id="pull-edge-truncated"),
]


@pytest.mark.parametrize("protocol, factory, kwargs, expected", CASES)
def test_native_fallback_realisations_pinned(protocol, factory, kwargs,
                                             expected):
    results = spreading_trials(protocol, factory(), trials=7, seed=2009,
                               backend="batched", rng_mode="native",
                               chunk_size=3, **kwargs)
    assert _digest(results) == expected


GEOMETRIC_CASES = [
    pytest.param(dict(move_radius=1.0, radius=3.0), {},
                 "77cc606ac96ee045a344e6c65a5378656d8f26be14af150840da07a9fb0bed9d",
                 id="r1"),
    pytest.param(dict(move_radius=2.5, radius=3.0), {},
                 "7cbc93d0296b84a596bcf89f41def25d3e9842a2abea9242d6c3a6807a33c7e3",
                 id="r-above-eps"),
    pytest.param(dict(move_radius=0.0, radius=3.0), {},
                 "988f30abe0c4c885db22bac60d95e8aa3815bb1d1494bd02b8e99c4a4edca8d9",
                 id="static"),
    # Disconnected: five of the seven trials stall until the budget.
    pytest.param(dict(move_radius=0.0, radius=1.5), {},
                 "b68c82213488c21303f93e28398131bb7039a34a0558bbc632c66d0e0aaf16e2",
                 id="static-stall"),
    pytest.param(dict(move_radius=1.0, radius=2.0, eps=0.5), {},
                 "c6453c21a24e651a4fce14afcb0d870ab93332d03d4577b2976aee8308951ebb",
                 id="eps-half"),
    # R = 5 eps: the (3, 4) lattice offset sits at exactly R.
    pytest.param(dict(move_radius=0.6, radius=1.5, eps=0.3, density=4.0), {},
                 "4a0ac7ea5f685027f0107beca33ba92939e4a0cdaab09860f7dc9f0f00938ac5",
                 id="eps-0.3-exact-R"),
    pytest.param(dict(move_radius=1.0, radius=2.0, density=2.0), {},
                 "7a3037767b4b4674a5405d705a2dd9aaee9c6abc7a89a2eeab81133a9d72aed6",
                 id="density-2"),
    pytest.param(dict(move_radius=1.0, radius=3.0), {"source": (0, 5, 11)},
                 "b7226b73fc7ae15fcd5756996e9ac7bad5043e11cd4bc581ba5d4323574fda61",
                 id="multisource"),
    # Truncates every trial at the step budget.
    pytest.param(dict(move_radius=1.0, radius=2.0), {"max_steps": 3},
                 "b312774cda9f204400f266064c33d4765946cf725db401e88855cf52a700ad24",
                 id="truncated"),
]


@pytest.mark.parametrize("params, kwargs, expected", GEOMETRIC_CASES)
def test_native_geometric_flooding_pinned(params, kwargs, expected):
    results = flooding_trials(GeometricMEG(100, **params), trials=7,
                              seed=2009, backend="batched",
                              rng_mode="native", chunk_size=3, **kwargs)
    assert _digest(results) == expected
