"""Calibrated timer: round selection, statistics, per-round checks."""

from __future__ import annotations

import pytest

from repro.bench.case import BenchCase
from repro.bench.timer import (
    Measurement,
    MeasureConfig,
    _spread,
    measure_case,
    measure_cases,
)


def make_case(setup, **kwargs) -> BenchCase:
    return BenchCase(name="demo/case", suite="demo", scale="",
                     setup=setup, **kwargs)


def test_measurement_statistics():
    m = Measurement((0.4, 0.1, 0.3, 0.2))
    assert m.rounds == 4
    assert m.best == pytest.approx(0.1)
    assert m.median == pytest.approx(0.25)
    assert m.iqr > 0
    assert Measurement((0.1, 0.2)).iqr == 0.0  # too few rounds


def test_calibration_clamps_rounds():
    config = MeasureConfig(target_seconds=1.0, min_rounds=3, max_rounds=10)
    assert config.calibrated_rounds(10.0) == 3      # slow case: floor
    assert config.calibrated_rounds(1e-9) == 10     # fast case: ceiling
    assert config.calibrated_rounds(0.25) == 4      # budget / estimate


def test_fast_case_gets_many_rounds_slow_case_few():
    calls = {"n": 0}

    def setup():
        def run():
            calls["n"] += 1
        return run

    config = MeasureConfig(target_seconds=0.01, min_rounds=2, max_rounds=7)
    measurement, _ = measure_case(make_case(setup), config)
    assert measurement.rounds == 7  # instant workload hits the ceiling
    assert calls["n"] == 7


def test_fixed_rounds_override_calibration():
    calls = {"n": 0}

    def setup():
        def run():
            calls["n"] += 1
        return run

    case = make_case(setup, rounds=2)
    measurement, _ = measure_case(
        case, MeasureConfig(target_seconds=5.0, min_rounds=3, max_rounds=9))
    assert measurement.rounds == 2
    assert calls["n"] == 2


def test_fresh_state_reruns_setup_every_round():
    setups = {"n": 0}

    def setup():
        setups["n"] += 1
        return lambda: None

    case = make_case(setup, fresh_state=True, rounds=4)
    measure_case(case, MeasureConfig())
    assert setups["n"] == 4


def test_check_runs_every_round_and_aborts_on_failure():
    rounds = {"n": 0}

    def setup():
        def run():
            rounds["n"] += 1
            return rounds["n"]
        return run

    def check(result):
        if result >= 2:
            raise ValueError("round 2 produced a bad result")

    case = make_case(setup, check=check, rounds=5)
    with pytest.raises(ValueError, match="bad result"):
        measure_case(case)
    assert rounds["n"] == 2  # aborted at the failing round


def test_setup_cost_is_not_measured():
    import time

    def setup():
        time.sleep(0.05)  # construction: must not appear in the times
        return lambda: None

    measurement, _ = measure_case(
        make_case(setup, rounds=2), MeasureConfig())
    assert measurement.median < 0.05


def test_spread_picks_distinct_passes_first_and_last():
    for passes in range(1, 30):
        for rounds in range(1, passes + 1):
            picked = _spread(rounds, passes)
            assert len(picked) == rounds
            assert 0 in picked and max(picked) == (passes - 1 if rounds > 1 else 0)


def test_measure_cases_interleaves_rounds():
    log = []

    def tagged(tag, **kwargs):
        def setup():
            return lambda: log.append(tag)
        return BenchCase(name=f"demo/{tag}", suite="demo", scale="",
                         setup=setup, **kwargs)

    measured = measure_cases([tagged("ref", rounds=2), tagged("fast", rounds=5)])
    assert [m.rounds for m, _ in measured.values()] == [2, 5]
    # The reference's two rounds bracket the five: first and last pass.
    assert log == ["ref", "fast", "fast", "fast", "fast", "ref", "fast"]


def test_measure_cases_calibrates_each_case_from_its_first_round():
    config = MeasureConfig(target_seconds=0.01, min_rounds=2, max_rounds=6)
    measured = measure_cases(
        [make_case(lambda: lambda: None),
         BenchCase(name="demo/fixed", suite="demo", scale="",
                   setup=lambda: lambda: None, rounds=3)], config)
    assert measured["demo/case"][0].rounds == 6
    assert measured["demo/fixed"][0].rounds == 3
