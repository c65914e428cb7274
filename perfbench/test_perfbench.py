"""Self-tests of the benchmark's own arithmetic and patching."""

from __future__ import annotations

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

from perfbench import layers, measure, spans, yardstick
from perfbench.spans import Recorder, Span, Target

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_union_of_children():
    parent = Span(1, "outer", 0.0, 10.0, None)
    kids = [Span(2, "a", 1.0, 3.0, 1), Span(3, "b", 2.0, 4.0, 1),
            Span(4, "c", 9.0, 12.0, 1)]  # overlaps, and runs past the parent
    assert spans.covered(parent, kids) == pytest.approx(3.0 + 1.0)
    totals = spans.aggregate([parent] + kids)
    assert totals["outer"].self_s == pytest.approx(6.0)
    assert totals["outer"].s == pytest.approx(10.0)


def test_aggregate_counts_nested_same_name_once():
    records = [Span(1, "f", 0.0, 4.0, None), Span(2, "g", 1.0, 3.0, 1),
               Span(3, "f", 1.5, 2.5, 2)]
    totals = spans.aggregate(records)
    assert totals["f"].calls == 2
    assert totals["f"].s == pytest.approx(4.0)
    assert totals["f"].self_s == pytest.approx(2.0 + 1.0)
    assert totals["g"].self_s == pytest.approx(1.0)


def test_percentile_rule_and_sample_count():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == pytest.approx(50.5)
    assert measure.percentile(samples, 95) == pytest.approx(95.05)
    assert measure.percentile([7.0], 95) == 7.0
    assert measure.supported_tail(200) == 95.0
    assert measure.supported_tail(199) == 90.0
    assert measure.supported_tail(1000) == 99.0
    assert measure.supported_tail(19) is None


def test_parse_importtime():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:       120 |        120 |   repro.util\n"
              "import time:      2000 |     500000 | repro\n")
    assert measure.parse_importtime(stderr) == {"repro.util": 120e-6,
                                                "repro": 0.5}


@pytest.fixture
def fake_modules():
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    exec("def work(x):\n    return helper(x) + 1\n\n"
         "def helper(x):\n    return x * 2\n\n"
         "class Model:\n    def step(self):\n        return 'stepped'\n",
         vars(home))
    user.work = home.work  # imported by name elsewhere
    saved = {name: sys.modules.get(name) for name in ("fakepkg.home",
                                                      "fakepkg.user")}
    sys.modules.update({"fakepkg.home": home, "fakepkg.user": user})
    yield home, user
    for name, module in saved.items():
        if module is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = module


def test_wrappers_install_everywhere_and_restore(fake_modules):
    home, user = fake_modules
    work, helper, step = home.work, home.helper, vars(home.Model)["step"]
    recorder = Recorder()
    targets = [Target("work", "fakepkg.home", "work"),
               Target("helper", "fakepkg.home", "helper", observe=float),
               Target("step", "fakepkg.home", "Model.step")]
    with spans.installed(targets, recorder, prefix="fakepkg"):
        assert user.work is home.work is not work
        assert user.work(3) == 7
        assert home.Model().step() == "stepped"
        late = types.ModuleType("fakepkg.late")
        late.work = home.work  # a module loaded while wrapped
        sys.modules["fakepkg.late"] = late
    try:
        assert home.work is work and user.work is work and late.work is work
        assert home.helper is helper and vars(home.Model)["step"] is step
    finally:
        del sys.modules["fakepkg.late"]
    totals = spans.aggregate(recorder.spans)
    # work looks helper up in its module globals, so the nested call is seen
    assert {name: t.calls for name, t in totals.items()} == {
        "work": 1, "helper": 1, "step": 1}
    assert totals["helper"].notes == [6.0]
    by_name = {sp.name: sp for sp in recorder.spans}
    assert by_name["helper"].parent == by_name["work"].id


def test_wrappers_restore_after_an_exception(fake_modules):
    home, _ = fake_modules
    work = home.work
    with pytest.raises(RuntimeError):
        with spans.installed([Target("work", "fakepkg.home", "work")],
                             Recorder(), prefix="fakepkg"):
            raise RuntimeError("boom")
    assert home.work is work


def test_per_layer_metrics_match_benchmark_json_and_predictions():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(layers.PER_LAYER)
    names = {name for name, _ in layers.PER_LAYER}
    for row in layers.PREDICTIONS:
        assert set(row["metrics"]) <= names, row["layer"]


def test_layer_targets_resolve_against_the_program():
    pytest.importorskip("repro")
    found = {target.metric for target in layers.targets()}
    for target in layers.targets():
        spans._resolve(target)
    wrapped = {name.rpartition(".")[0] for name, _ in layers.PER_LAYER
               if name.endswith(".calls")}
    assert wrapped <= found


def test_host_clock_scales_by_the_yardsticks_around_an_op():
    previous = signal.getsignal(signal.SIGALRM)
    with yardstick.HostClock() as clock:
        assert signal.getsignal(signal.SIGALRM) == clock._on_alarm
        with pytest.raises(RuntimeError):
            with clock.op() as timing:
                time.sleep(0.02)
                raise RuntimeError("boom")
        probes = clock.samples[-timing.probes:]
    assert signal.getsignal(signal.SIGALRM) == previous
    assert timing.probes == 2 and timing.raw >= 0.02
    assert timing.scaled == pytest.approx(
        timing.raw * yardstick.REFERENCE_S / (sum(probes) / 2))


def test_wall_clock_leaves_times_unscaled():
    with yardstick.WallClock().op() as timing:
        time.sleep(0.01)
    assert timing.scaled == timing.raw >= 0.01
