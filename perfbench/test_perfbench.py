"""Self-tests of the benchmark's pure helpers (no gateway, no timing).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import layers  # noqa: E402
import paper  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------- #
# Normalisation and the percentile rule
# ---------------------------------------------------------------------- #
def test_normalisation_restates_at_reference_speed():
    slow = common.REFERENCE_SPEED / 2
    # Half the reference speed: the throughput seen is half what the
    # reference host would do, the time seen twice as long.
    assert common.at_reference_rate(100.0, slow) == pytest.approx(200.0)
    assert common.at_reference_time(2.0, slow) == pytest.approx(1.0)
    assert common.at_reference_rate(100.0, common.REFERENCE_SPEED) == 100.0


def test_normalised_rate_and_time_agree():
    speed = 0.37 * common.REFERENCE_SPEED
    seconds = 4.0
    rate = 1000 / seconds
    assert common.at_reference_rate(rate, speed) == pytest.approx(
        1000 / common.at_reference_time(seconds, speed)
    )


@pytest.mark.parametrize(
    "samples, ceiling, expected",
    [
        (19, 99.0, None),
        (20, 99.0, 50.0),
        (99, 99.0, 50.0),
        (100, 99.0, 90.0),
        (999, 99.0, 95.0),
        (1000, 99.0, 99.0),
        (100_000, 99.0, 99.0),
        (100_000, 100.0, 99.99),
        (10_000, 100.0, 99.9),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(samples, ceiling, expected):
    assert common.tail_percentile(samples, ceiling) == expected
    if expected is not None:
        assert samples * (100 - expected) / 100 >= 10 - 1e-9


def test_percentile_matches_numpy_linear_rule():
    values = list(np.random.default_rng(3).random(257))
    for q in (0.0, 50.0, 95.0, 99.0, 100.0):
        assert common.percentile(values, q) == pytest.approx(float(np.percentile(values, q)))


def test_segment_speed_is_mean_of_surrounding_probes():
    clock = common.SegmentClock([0, 1])
    clock.probes = [{0: 4.0, 1: 8.0}, {0: 6.0, 1: 8.0}, {0: 2.0, 1: 2.0}]
    assert clock.segment_speed(0, 0) == 5.0
    assert clock.segment_speed(1, 1) == 5.0
    assert clock.median_speeds() == {0: 4.0, 1: 8.0}


def test_weighted_speed_weights_vcpus_by_cpu_time():
    clock = common.SegmentClock([0, 1])
    clock.probes = [{0: 4.0, 1: 8.0}, {0: 6.0, 1: 12.0}]
    assert clock.weighted_speed(0, [(0, 3.0), (1, 1.0)]) == pytest.approx(6.25)
    assert clock.weighted_speed(0, [(0, 2.0), (1, 0.0)]) == 5.0
    assert clock.weighted_speed(0, [(0, 1.0), (0, 1.0)]) == 5.0
    with pytest.raises(ValueError):
        clock.weighted_speed(0, [(0, 0.0), (1, 0.0)])


# ---------------------------------------------------------------------- #
# Spans: self time and remainder
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children():
    # root [0, 10] has children [1, 4] and [5, 9]; the second has a child
    # [6, 7].  Self: root 10 - 3 - 4 = 3, child two 4 - 1 = 3.
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert spans.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_aggregate_sums_calls_yields_and_self_time():
    columns = {
        "name": np.array([0, 1, 1], dtype=np.int32),
        "parent": np.array([-1, 0, 0], dtype=np.int32),
        "start": np.array([0.0, 1.0, 3.0]),
        "end": np.array([6.0, 2.0, 5.0]),
        "yielded": np.array([0, 1, 0], dtype=np.int8),
    }
    aggregates = spans.aggregate(columns, ["router.drain", "node.execute"])
    assert aggregates["router.drain"] == {"calls": 1, "yields": 0, "total_s": 6.0, "self_s": 3.0}
    assert aggregates["node.execute"] == {"calls": 2, "yields": 1, "total_s": 3.0, "self_s": 3.0}
    assert spans.layer_self_s(aggregates) == {"router": 3.0, "node": 3.0}


def test_window_filter_reparents_dropped_spans():
    keep = np.array([False, True, True])
    parent = np.array([-1, 0, 1], dtype=np.int32)
    assert spans._reindex(parent, keep).tolist() == [-1, 0]


def test_merge_aggregates_sums_processes():
    a = {"engine.matmul": {"calls": 2, "yields": 0, "total_s": 1.0, "self_s": 1.0}}
    b = {"engine.matmul": {"calls": 1, "yields": 0, "total_s": 0.5, "self_s": 0.25}}
    merged = spans.merge_aggregates([a, b])
    assert merged["engine.matmul"] == {"calls": 3, "yields": 0, "total_s": 1.5, "self_s": 1.25}


def _toy_module():
    module = types.ModuleType("repro_toy_layer")

    class Engine:
        def matmul(self, size):
            return sum(range(size))

        def frames(self, count):
            for index in range(count):
                yield index

    class Router:
        def __init__(self):
            self.engine = Engine()

        def submit(self, size):
            self.engine.matmul(size)
            return 7

    module.Engine, module.Router = Engine, Router
    return module


def test_recorder_wraps_by_name_nests_and_restores(tmp_path):
    module = _toy_module()
    sys.modules[module.__name__] = module
    original = module.Router.submit
    recorder = spans.SpanRecorder()
    try:
        recorder.install(
            entry_points=(
                (module.__name__, "Router.submit", "router.submit", "return"),
                (module.__name__, "Engine.matmul", "engine.matmul", None),
                (module.__name__, "Engine.frames", "protocol.feed", None),
                (module.__name__, "Engine.gone", "engine.gone", None),
            ),
            obs_classes=(),
        )
        router = module.Router()
        assert router.submit(1000) == 7
        assert list(router.engine.frames(3)) == [0, 1, 2]
    finally:
        recorder.uninstall()
        del sys.modules[module.__name__]
    assert module.Router.submit is original
    assert recorder.absent == ["repro_toy_layer.Engine.gone"]
    recorder.write(str(tmp_path / "toy"))
    aggregates, meta = spans.load(str(tmp_path / "toy"))
    assert aggregates["router.submit"]["calls"] == 1
    assert aggregates["engine.matmul"]["calls"] == 1
    # Four resumes of a three-value generator: three frames and the end.
    assert aggregates["protocol.feed"]["calls"] == 4
    assert aggregates["protocol.feed"]["yields"] == 3
    columns = recorder.columns()
    submit = columns["name"].tolist().index(recorder.name_ids["router.submit"])
    matmul = columns["name"].tolist().index(recorder.name_ids["engine.matmul"])
    assert columns["parent"][matmul] == submit
    assert columns["request"][submit] == 7
    assert meta["absent"] == ["repro_toy_layer.Engine.gone"]


def test_per_layer_reports_every_metric_and_zero_for_unreached_layers():
    aggregates = {
        "router.submit": {"calls": 10, "yields": 0, "total_s": 0.002, "self_s": 0.001},
        "scheduler.choose": {"calls": 10, "yields": 0, "total_s": 0.001, "self_s": 0.001},
    }
    values = layers.per_layer(
        aggregates, 10, {"traced_cpu_s": 0.003, "untraced_rps": 100.0, "traced_rps": 80.0}
    )
    assert set(values) == {name for name, _ in layers.PER_LAYER}
    assert values["router.submit_us_per_request"] == pytest.approx(200.0)
    assert values["scheduler.choose_us_per_call"] == pytest.approx(100.0)
    assert values["gateway.unattributed_us_per_request"] == pytest.approx(100.0)
    assert values["trace.attributed_us_per_request"] == pytest.approx(200.0)
    assert values["trace.overhead_pct"] == pytest.approx(20.0)
    assert values["fleet.sync_ms"] == 0.0


# ---------------------------------------------------------------------- #
# paper_error_pct
# ---------------------------------------------------------------------- #
def _synthetic_paper():
    return {
        "max_frequency_ghz_at_1v": 2.0,
        "frequency_mhz_at_0p6v": 400.0,
        "tops_per_watt_add_8b_0p6v": 8.0,
        "tops_per_watt_mult_8b_0p6v": 0.5,
        "fig8_breakdown_ps": {"logic": 200.0},
    }


def test_paper_error_reduction_takes_the_worst_figure():
    sweep = {
        1.0: {"frequency_hz": 2.1e9},
        0.6: {"frequency_hz": 380e6, "add_tops_per_watt": 8.0, "mult_tops_per_watt": 0.55},
    }
    table2 = {"ADD": {8: {"with_separator": 99.0, "without_separator": 99.0,
                          "paper_with": 100.0, "paper_without": 100.0}}}
    errors = paper.relative_errors(_synthetic_paper(), sweep, {"logic": 210.0}, table2)
    assert errors["fig8.f_max_1v"] == pytest.approx(0.05)
    assert errors["fig8.f_max_0p6v"] == pytest.approx(0.05)
    assert errors["fig8.add_tops_w_0p6v"] == 0.0
    assert errors["table2.ADD.8b.with"] == pytest.approx(0.01)
    name, pct = paper.worst_error(errors)
    assert name == "fig8.mult_tops_w_0p6v"
    assert pct == pytest.approx(10.0)


def test_paper_error_pct_is_deterministic():
    pytest.importorskip("repro")
    first = paper.paper_error_pct()
    assert first == paper.paper_error_pct()
    name, pct, figures = first
    assert figures == 27
    assert 0.0 < pct < 100.0


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with what a run prints
# ---------------------------------------------------------------------- #
def test_benchmark_json_names_match_the_reported_metrics():
    import json

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("BENCHMARK.json sits at the checkout root")
    with open(path) as handle:
        bench = json.load(handle)
    assert [m["name"] for m in bench["end_to_end"]] == list(common.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
