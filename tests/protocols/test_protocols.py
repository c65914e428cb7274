"""Serial semantics of the protocol zoo.

Anchors of the subsystem: flooding through the protocol interface is
bit-identical to the legacy serial flood, the new probabilistic /
expiring protocols reproduce the legacy ``repro.core.spreading``
implementations draw for draw, flooding dominates every protocol on a
coupled realisation, and the registry round-trips tokens.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.flooding import flood
from repro.core.spreading import parsimonious_flood, probabilistic_flood
from repro.dynamics.sequence import (
    StaticEvolvingGraph,
    complete_adjacency,
    cycle_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.edgemeg.meg import EdgeMEG
from repro.geometric.meg import GeometricMEG
from repro.protocols import (
    FLOODING,
    ExpiringFlooding,
    Flooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
    default_zoo,
    protocol_names,
    resolve_protocol,
    spread,
)
from repro.util.rng import spawn


def _load_oracles():
    """The standalone legacy round loops of ``test_spreading_oracles.py``
    (loaded by path: the test directories are not packages)."""
    path = Path(__file__).resolve().parents[1] / "core" / "test_spreading_oracles.py"
    spec = importlib.util.spec_from_file_location("_spreading_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLES = _load_oracles()


def static(adj) -> StaticEvolvingGraph:
    return StaticEvolvingGraph(AdjacencySnapshot(adj))


ZOO = [
    pytest.param(ProbabilisticFlooding(0.5), id="p-flood"),
    pytest.param(ExpiringFlooding(3), id="expiring"),
    pytest.param(PushGossip(), id="push"),
    pytest.param(PullGossip(), id="pull"),
    pytest.param(PushPullGossip(), id="push-pull"),
]


def assert_same_result(a, b):
    assert a.source == b.source
    assert a.time == b.time
    assert a.completed == b.completed
    np.testing.assert_array_equal(a.informed_history, b.informed_history)
    np.testing.assert_array_equal(a.informed, b.informed)


class TestFloodingAnchor:
    @pytest.mark.parametrize("seed", [0, 1, 7, 13])
    def test_spread_is_bit_identical_to_flood(self, seed):
        meg = EdgeMEG(24, 0.3, 0.3)
        assert_same_result(flood(meg, 2, seed=seed),
                           spread(FLOODING, meg, 2, seed=seed))

    def test_multi_source(self):
        meg = GeometricMEG(30, move_radius=1.0, radius=3.0)
        assert_same_result(flood(meg, (0, 5, 11), seed=4),
                           spread(FLOODING, meg, (0, 5, 11), seed=4))

    def test_truncation(self):
        meg = EdgeMEG(40, 0.01, 0.9)
        a = flood(meg, 0, seed=3, max_steps=2)
        b = spread(FLOODING, meg, 0, seed=3, max_steps=2)
        assert not a.completed
        assert_same_result(a, b)

    def test_flooding_does_not_split_its_seed(self):
        """The seed is the graph seed, exactly like the legacy flood."""
        assert not Flooding.splits_seed


class TestLegacyEquivalence:
    """The frozen-dataclass protocols, and the legacy
    ``repro.core.spreading`` functions that now call them, reproduce the
    original standalone round loops (the ``oracle_*`` loops) draw for
    draw."""

    @pytest.mark.parametrize("seed", [0, 2, 9])
    @pytest.mark.parametrize("p", [0.2, 0.5, 1.0])
    def test_probabilistic(self, seed, p):
        meg = EdgeMEG(24, 0.25, 0.4)
        oracle = _ORACLES.oracle_probabilistic_flood(
            meg, 1, transmit_probability=p, seed=seed)
        legacy = probabilistic_flood(meg, 1, transmit_probability=p, seed=seed)
        fresh = spread(ProbabilisticFlooding(p), meg, 1, seed=seed)
        assert_same_result(oracle, legacy)
        assert_same_result(oracle, fresh)

    @pytest.mark.parametrize("seed", [0, 2, 9])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_expiring_vs_parsimonious(self, seed, k):
        meg = EdgeMEG(24, 0.1, 0.6)
        oracle = _ORACLES.oracle_parsimonious_flood(
            meg, 1, active_steps=k, seed=seed)
        legacy = parsimonious_flood(meg, 1, active_steps=k, seed=seed)
        fresh = spread(ExpiringFlooding(k), meg, 1, seed=seed)
        assert_same_result(oracle, legacy)
        assert_same_result(oracle, fresh)


class TestProtocolSemantics:
    def test_p_one_equals_flooding_informed_sets(self):
        """p-flood with p=1 is flooding on the coupled realisation."""
        meg = EdgeMEG(20, 0.3, 0.3)
        proto = spread(ProbabilisticFlooding(1.0), meg, 0, seed=5)
        coupled_seed = spawn(5, 2)[0]
        reference = flood(meg, 0, seed=coupled_seed)
        assert proto.time == reference.time
        np.testing.assert_array_equal(proto.informed, reference.informed)

    def test_expiring_stalls_and_reports_truncation(self):
        """Two isolated cliques: transmitters expire, the run retires
        early instead of burning the 4n + 64 budget."""
        adj = np.zeros((8, 8), dtype=bool)
        adj[:4, :4] = True
        adj[4:, 4:] = True
        np.fill_diagonal(adj, False)
        res = spread(ExpiringFlooding(2), static(adj), 0, seed=0)
        assert not res.completed
        assert res.num_informed == 4
        assert res.time <= 4  # retired, not budget-truncated (budget 96)

    @pytest.mark.parametrize("protocol", ZOO)
    def test_dominated_by_flooding(self, protocol):
        """On the same coupled realisation, flooding completes no later
        than any protocol (it transmits a superset of messages)."""
        meg = EdgeMEG(24, 0.2, 0.4)
        for seed in range(6):
            proto = spread(protocol, meg, 0, seed=seed)
            reference = flood(meg, 0, seed=spawn(seed, 2)[0])
            if proto.completed:
                assert reference.completed
                assert reference.time <= proto.time

    @pytest.mark.parametrize("protocol", ZOO)
    def test_histories_well_formed(self, protocol):
        res = spread(protocol, static(complete_adjacency(16)), 0, seed=3)
        assert res.informed_history[0] == 1
        assert (np.diff(res.informed_history) >= 0).all()
        assert res.informed_history[-1] == res.informed.sum()

    def test_push_on_cycle_advances_slowly(self):
        """On a cycle, push has at most two frontier nodes: time >= n/2-ish."""
        res = spread(PushGossip(), static(cycle_adjacency(12)), 0, seed=1)
        assert res.completed
        assert res.time >= 6  # flooding needs exactly 6

    def test_pull_completes_on_complete_graph(self):
        res = spread(PullGossip(), static(complete_adjacency(32)), 0, seed=2)
        assert res.completed


class TestRegistryTokens:
    def test_round_trip(self):
        for protocol in default_zoo():
            assert resolve_protocol(protocol.token()) == protocol

    def test_cli_spellings(self):
        assert resolve_protocol("push-pull") == PushPullGossip()
        assert (resolve_protocol("p-flood:transmit_probability=0.3")
                == ProbabilisticFlooding(0.3))
        assert (resolve_protocol("expiring(active_steps=4)")
                == ExpiringFlooding(4))
        assert resolve_protocol("flooding") is FLOODING

    def test_instances_pass_through(self):
        proto = ExpiringFlooding(7)
        assert resolve_protocol(proto) is proto

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            resolve_protocol("carrier-pigeon")

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="bad parameters"):
            resolve_protocol("push:wings=2")
        with pytest.raises(ValueError):
            resolve_protocol("p-flood:transmit_probability=1.5")

    def test_names_registered(self):
        assert {"flooding", "p-flood", "expiring", "push", "pull",
                "push-pull"} <= set(protocol_names())

    def test_tokens_pin_parameters(self):
        assert (ProbabilisticFlooding(0.25).token()
                != ProbabilisticFlooding(0.5).token())
        assert ExpiringFlooding(2).token() == "expiring(active_steps=2)"
        assert FLOODING.token() == "flooding"
