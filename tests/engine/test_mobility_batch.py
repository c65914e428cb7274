"""Mobility-zoo kernels: replay equivalence and native determinism.

Mirrors ``tests/engine/test_batch_equivalence.py`` for the four
Section 3 mobility models (random waypoint on the square and on the
torus, random direction / billiard, walkers on the toroidal grid): the
engine's replay backend must reproduce serial ``flood`` **bit for bit**
on every model — including truncated and multi-source runs — while the
native mobility kernels must be deterministic in ``(seed, trials,
chunk_size)`` and independent of the worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.flooding import flooding_trials
from repro.engine import SimulationPlan, TrialEnsemble, run_plan
from repro.engine.testing import assert_results_bit_identical as assert_bit_identical
from repro.mobility import (
    MobilityMEG,
    RandomDirection,
    RandomWaypoint,
    RandomWaypointTorus,
    TorusGridWalk,
)


# The four Section 3 mobility models at test scale, including a
# warmed-up square waypoint (the only model without an exact stationary
# start, so the warm-up path is exercised end to end).
MOBILITY_MODELS = [
    pytest.param(lambda: MobilityMEG(RandomWaypoint(25, side=5.0, speed=1.0),
                                     radius=2.5), id="waypoint-square"),
    pytest.param(lambda: MobilityMEG(RandomWaypoint(25, side=5.0, speed=1.0),
                                     radius=2.5, warmup_steps=10),
                 id="waypoint-square-warmup"),
    pytest.param(lambda: MobilityMEG(RandomWaypointTorus(25, side=5.0, speed=1.0),
                                     radius=2.5, torus=True),
                 id="waypoint-torus"),
    pytest.param(lambda: MobilityMEG(
        RandomDirection(25, side=5.0, speed=1.0, turn_probability=0.1),
        radius=2.5), id="direction"),
    pytest.param(lambda: MobilityMEG(
        TorusGridWalk(25, side=5.0, grid_size=10, move_radius=1.0),
        radius=2.5, torus=True), id="torus-walk"),
]


class TestMobilityReplayBitIdentical:
    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_sources(self, factory, seed):
        serial = flooding_trials(factory(), trials=5, seed=seed)
        engine = flooding_trials(factory(), trials=5, seed=seed,
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    def test_multi_source(self, factory):
        serial = flooding_trials(factory(), trials=4, seed=5, source=(0, 5, 11))
        engine = flooding_trials(factory(), trials=4, seed=5, source=(0, 5, 11),
                                 backend="batched")
        assert_bit_identical(serial, engine)

    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    def test_truncated_runs(self, factory):
        """max_steps=1 forces completed=False paths through the kernel."""
        serial = flooding_trials(factory(), trials=5, seed=2, max_steps=1)
        engine = flooding_trials(factory(), trials=5, seed=2, max_steps=1,
                                 backend="batched")
        assert any(not r.completed for r in serial), "fixture should truncate"
        assert_bit_identical(serial, engine)

    def test_parallel_equals_serial(self):
        meg = MobilityMEG(RandomWaypointTorus(25, side=5.0, speed=1.0),
                          radius=2.5, torus=True)
        serial = flooding_trials(meg, trials=8, seed=13)
        parallel = flooding_trials(meg, trials=8, seed=13, backend="parallel",
                                   jobs=2)
        assert_bit_identical(serial, parallel)

    def test_chunking_is_invisible(self):
        meg = MobilityMEG(RandomDirection(20, side=4.5, speed=1.0),
                          radius=2.0)
        reference = TrialEnsemble.from_results(
            flooding_trials(meg, trials=9, seed=11))
        for chunk_size in (1, 2, 4, 9, 50):
            plan = SimulationPlan(model=meg, trials=9, seed=11,
                                  chunk_size=chunk_size)
            ensemble = run_plan(plan, backend="batched")
            np.testing.assert_array_equal(reference.times, ensemble.times)
            assert reference.sources == ensemble.sources
            for a, b in zip(reference.histories, ensemble.histories):
                np.testing.assert_array_equal(a, b)


class TestMobilityNative:
    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    def test_deterministic_in_seed_trials_chunk(self, factory):
        plan = SimulationPlan(model=factory(), trials=10, seed=5,
                              rng_mode="native", chunk_size=4)
        first = run_plan(plan, backend="batched")
        second = run_plan(plan, backend="batched")
        np.testing.assert_array_equal(first.times, second.times)
        assert first.sources == second.sources
        np.testing.assert_array_equal(first.informed, second.informed)

    def test_chunk_size_is_part_of_the_native_contract(self):
        """Different chunk sizes are different native realisations (the
        cache-key contract keys them as native/cs<chunk>)."""
        meg = MobilityMEG(RandomWaypointTorus(25, side=5.0, speed=1.0),
                          radius=1.5, torus=True)
        a = run_plan(SimulationPlan(model=meg, trials=12, seed=3,
                                    rng_mode="native", chunk_size=4),
                     backend="batched")
        b = run_plan(SimulationPlan(model=meg, trials=12, seed=3,
                                    rng_mode="native", chunk_size=6),
                     backend="batched")
        assert (a.times != b.times).any() or a.sources != b.sources

    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    def test_jobs_invariant(self, factory):
        plan = SimulationPlan(model=factory(), trials=8, seed=9,
                              rng_mode="native", chunk_size=4)
        batched = run_plan(plan, backend="batched")
        fanned = run_plan(plan, backend="parallel", jobs=2)
        np.testing.assert_array_equal(batched.times, fanned.times)
        assert batched.sources == fanned.sources
        np.testing.assert_array_equal(batched.informed, fanned.informed)

    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    def test_native_results_well_formed(self, factory):
        ensemble = run_plan(SimulationPlan(model=factory(), trials=6, seed=9,
                                           rng_mode="native"),
                            backend="batched")
        n = ensemble.num_nodes
        assert ensemble.times.shape == (6,)
        for i, history in enumerate(ensemble.histories):
            assert history.shape == (ensemble.times[i] + 1,)
            assert history[0] == len(ensemble.sources[i])
            assert (np.diff(history) >= 0).all()
            if ensemble.completed[i]:
                assert history[-1] == n
            assert history[-1] == ensemble.informed[i].sum()

    @pytest.mark.parametrize("factory", MOBILITY_MODELS)
    def test_native_matches_serial_distribution(self, factory):
        """Same process law: mean flooding times agree across layouts."""
        serial = flooding_trials(factory(), trials=32, seed=17)
        native = flooding_trials(factory(), trials=32, seed=17,
                                 backend="batched", rng_mode="native")
        mean_serial = np.mean([r.time for r in serial])
        mean_native = np.mean([r.time for r in native])
        assert 0.6 <= mean_native / mean_serial <= 1.6

    def test_native_truncation(self):
        meg = MobilityMEG(RandomWaypointTorus(30, side=40.0, speed=0.5),
                          radius=1.5, torus=True)  # sparse: cannot flood in 2
        ensemble = run_plan(SimulationPlan(model=meg, trials=6, seed=1,
                                           max_steps=2, rng_mode="native"),
                            backend="batched")
        assert not ensemble.completed.all()
        truncated = ~ensemble.completed
        assert (ensemble.times[truncated] == 2).all()

    def test_native_multi_source(self):
        meg = MobilityMEG(RandomDirection(30, side=5.5, speed=1.0), radius=2.0)
        plan = SimulationPlan(model=meg, trials=5, seed=2, source=(0, 7),
                              rng_mode="native")
        ensemble = run_plan(plan, backend="batched")
        assert all(src == (0, 7) for src in ensemble.sources)
        assert all(h[0] == 2 for h in ensemble.histories)
