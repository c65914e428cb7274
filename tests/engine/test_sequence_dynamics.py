"""Engine coverage for sequence-driven dynamics (adversarial + replay).

The deterministic evolving graphs — explicit snapshot sequences, static
graphs, and the moving-hub adversary of ``dynamics/adversarial.py`` —
carry no registered :class:`~repro.dynamics.batched.BatchedDynamics`
provider, so they ride the engine on the generic snapshot fallback.
Before this suite they had no engine coverage at all; here they get the
same replay bit-identity guarantees as the kernel-backed families
(random/fixed/multi-source, truncated runs, chunking invariance) plus
native-mode determinism, for both flooding and the protocol zoo.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import flooding_trials
from repro.dynamics.adversarial import moving_hub_star
from repro.dynamics.sequence import (
    StaticEvolvingGraph,
    cycle_adjacency,
    hypercube_adjacency,
    ring_of_cliques_adjacency,
    sequence_from_adjacencies,
    star_adjacency,
)
from repro.dynamics.snapshots import AdjacencySnapshot
from repro.engine import SimulationPlan, TrialEnsemble, run_plan
from repro.engine.testing import assert_results_bit_identical as assert_bit_identical
from repro.protocols import ExpiringFlooding, PushPullGossip, spreading_trials

SEQUENCE_MODELS = [
    pytest.param(lambda: moving_hub_star(12), id="moving-hub-star"),
    pytest.param(lambda: StaticEvolvingGraph(
        AdjacencySnapshot(hypercube_adjacency(4))), id="static-hypercube"),
    pytest.param(lambda: sequence_from_adjacencies(
        [cycle_adjacency(12), star_adjacency(12, 3),
         ring_of_cliques_adjacency(3, 4)]), id="cycling-sequence"),
]


class TestSequenceReplayBitIdentical:
    @pytest.mark.parametrize("factory", SEQUENCE_MODELS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_sources(self, factory, seed):
        serial = flooding_trials(factory(), trials=5, seed=seed)
        engine = flooding_trials(factory(), trials=5, seed=seed,
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", SEQUENCE_MODELS)
    def test_multi_source(self, factory):
        serial = flooding_trials(factory(), trials=4, seed=5, source=(0, 5, 11))
        engine = flooding_trials(factory(), trials=4, seed=5, source=(0, 5, 11),
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", SEQUENCE_MODELS)
    def test_truncated_runs(self, factory):
        serial = flooding_trials(factory(), trials=5, seed=2, max_steps=1)
        engine = flooding_trials(factory(), trials=5, seed=2, max_steps=1,
                                 backend="batched")
        assert any(not r.completed for r in serial), "fixture should truncate"
        assert_bit_identical(serial, engine)

    def test_chunking_is_invisible(self):
        adversary = moving_hub_star(10)
        reference = TrialEnsemble.from_results(
            flooding_trials(adversary, trials=9, seed=11))
        for chunk_size in (1, 2, 4, 9, 50):
            plan = SimulationPlan(model=adversary, trials=9, seed=11,
                                  chunk_size=chunk_size)
            ensemble = run_plan(plan, backend="batched")
            np.testing.assert_array_equal(reference.times, ensemble.times)
            assert reference.sources == ensemble.sources
            for a, b in zip(reference.histories, ensemble.histories):
                np.testing.assert_array_equal(a, b)

    def test_adversary_times_match_theory_through_the_engine(self):
        """Flooding from node 0 on the moving-hub star takes exactly
        n - 1 steps (each round informs one new node) — on the batched
        engine, not just the serial loop."""
        n = 9
        ensemble = run_plan(SimulationPlan(model=moving_hub_star(n), trials=3,
                                           seed=0, source=0),
                            backend="batched")
        assert ensemble.completed.all()
        assert (ensemble.times == n - 1).all()


class TestSequenceNativeMode:
    @pytest.mark.parametrize("factory", SEQUENCE_MODELS)
    def test_deterministic_in_seed_trials_chunk(self, factory):
        plan_kwargs = dict(trials=8, seed=5, rng_mode="native", chunk_size=4)
        first = run_plan(SimulationPlan(model=factory(), **plan_kwargs),
                         backend="batched")
        second = run_plan(SimulationPlan(model=factory(), **plan_kwargs),
                          backend="batched")
        np.testing.assert_array_equal(first.times, second.times)
        assert first.sources == second.sources
        np.testing.assert_array_equal(first.informed, second.informed)

    def test_deterministic_models_agree_across_layouts(self):
        """The adversary consumes no graph randomness, so for a fixed
        source replay and native runs produce identical times."""
        n = 11
        times = set()
        for rng_mode in ("replay", "native"):
            ensemble = run_plan(SimulationPlan(model=moving_hub_star(n),
                                               trials=4, seed=3, source=0,
                                               rng_mode=rng_mode),
                                backend="batched")
            times.add(tuple(ensemble.times.tolist()))
        assert times == {(n - 1,) * 4}


class TestSequenceProtocols:
    """Sequence-driven dynamics compose with the protocol registry."""

    @pytest.mark.parametrize("factory", SEQUENCE_MODELS)
    def test_push_pull_replay_bit_identical(self, factory):
        serial = spreading_trials(PushPullGossip(), factory(), trials=4, seed=3)
        engine = spreading_trials(PushPullGossip(), factory(), trials=4, seed=3,
                                  backend="batched", chunk_size=2)
        assert_bit_identical(serial, engine)

    def test_expiring_survives_the_adversary(self):
        """On the moving-hub star the one-node-wide frontier is always
        freshly informed, so even one-round memory completes in the
        adversary's n - 1 steps — finite memory costs nothing here."""
        n = 16
        results = spreading_trials(ExpiringFlooding(1), moving_hub_star(n),
                                   trials=3, seed=0, source=0)
        assert all(r.completed and r.time == n - 1 for r in results)

    def test_expiring_stalls_on_a_disconnected_sequence(self):
        """Two static cliques: transmitters expire with half the nodes
        uninformed, and the engine retires the runs at the same round
        as the serial reference instead of burning the 4n + 64 budget."""
        adj = np.zeros((10, 10), dtype=bool)
        adj[:5, :5] = True
        adj[5:, 5:] = True
        np.fill_diagonal(adj, False)
        model = StaticEvolvingGraph(AdjacencySnapshot(adj))
        serial = spreading_trials(ExpiringFlooding(2), model, trials=3,
                                  seed=0, source=0)
        assert all(not r.completed and r.time <= 4 for r in serial)
        engine = spreading_trials(ExpiringFlooding(2), model, trials=3,
                                  seed=0, source=0, backend="batched")
        assert_bit_identical(serial, engine)
