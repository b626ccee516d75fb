"""Tests of the benchmark's own rules: ``python -m pytest bench -q``."""

from __future__ import annotations

import re

import pytest

from bench.compare import compare, judge
from bench.runner import contract_line
from bench.spec import (LAYER_METRICS, RECORD_METRICS, WORKLOADS,
                        gate_metrics, load_benchmark_json)
from bench.stats import percentile, quartiles
from bench.trace import Span, Tracer, self_times, summarize

# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
RATE = RECORD_METRICS["rps"]          # higher is better, 10% relative
FAILS = RECORD_METRICS["fail_ratio"]  # any increase regresses


def test_gain_needs_nine_tenths_of_ten_pairs_and_a_gap_beyond_the_iqr():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert judge(RATE, base, [v + 5.0 for v in base])["status"] == "gain"
    # One lost pair out of ten is still nine tenths...
    new = [v + 5.0 for v in base[:9]] + [90.0]
    assert judge(RATE, base, new)["status"] == "gain"
    # ...two are not.
    new = [v + 5.0 for v in base[:8]] + [90.0, 90.0]
    assert judge(RATE, base, new)["status"] != "gain"
    # Winning every pair by less than the base's own spread is no gain.
    assert judge(RATE, base, [v + 0.1 for v in base])["status"] == "unchanged"
    # Five pairs can never establish a gain.
    assert judge(RATE, base[:5], [v + 5 for v in base[:5]])["status"] \
        == "unchanged"


def test_regression_is_a_median_worse_by_more_than_the_bound():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert judge(RATE, base, [v * 0.85 for v in base])["status"] \
        == "regression"
    assert judge(RATE, base, [v * 0.95 for v in base])["status"] \
        == "unchanged"


def test_spread_wider_than_the_bound_is_unresolved():
    base = [100.0, 60.0, 140.0, 80.0, 120.0]
    new = [95.0, 55.0, 135.0, 75.0, 115.0]
    assert judge(RATE, base, new)["status"] == "unresolved"
    # A median worse by more than the bound regresses whatever the spread.
    new = [70.0, 40.0, 130.0, 60.0, 100.0]
    assert judge(RATE, base, new)["status"] == "regression"
    # ...unless every new run beats every base run.
    assert judge(RATE, base, [v + 200.0 for v in base])["status"] == "better"


def test_any_rise_in_fail_ratio_regresses_and_voids_gains():
    assert judge(FAILS, [0.0] * 5, [0.0, 0.0, 0.01, 0.0, 0.0])["status"] \
        == "regression"
    assert judge(FAILS, [0.0] * 5, [0.0] * 5)["status"] == "unchanged"

    def record(rps, fails):
        return {"workloads": {"serve": {"summary": {
            "rps": {"values": rps}, "fail_ratio": {"values": fails}}}}}

    base = [100.0 + 0.1 * i for i in range(10)]
    rows = compare(record(base, [0.0] * 10),
                   record([v + 20 for v in base], [0.1] * 10))
    status = {r["metric"]: r["status"] for r in rows}
    assert status == {"rps": "unchanged", "fail_ratio": "regression"}


def test_absolute_bounds_are_in_the_metric_unit():
    auc = RECORD_METRICS["auc"]  # 0.2 percentage points
    assert judge(auc, [90.0] * 5, [89.7] * 5)["status"] == "regression"
    assert judge(auc, [90.0] * 5, [89.9] * 5)["status"] == "unchanged"


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(199)), 0.95) is None
    assert percentile(list(range(200)), 0.95) == pytest.approx(189.05)
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)


def test_quartiles_match_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [Span(1, "root", None, "t", 0.0, 10.0),
             Span(2, "a", 1, "t", 1.0, 3.0),
             Span(3, "b", 1, "t", 2.0, 5.0),   # overlaps a
             Span(4, "c", 1, "t", 7.0, 8.0),
             Span(5, "d", 3, "t", 2.5, 3.5),   # grandchild
             Span(6, "e", 1, "t", 9.5, 12.0)]  # overruns the root
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[3] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(2.0)
    by_name = summarize(spans)
    assert by_name["root"] == {"n": 1, "total": 10.0,
                               "self": pytest.approx(4.5)}


class _Layer:
    def work(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return cls().work(x)


def test_wrap_nests_spans_and_unwrap_restores_the_originals():
    original_work = _Layer.__dict__["work"]
    original_build = _Layer.__dict__["build"]
    tracer = Tracer()
    tracer.wrap(_Layer, "work", "layer.work", trace=lambda args: args[1])
    tracer.wrap(_Layer, "build", "layer.build")
    assert _Layer.build(41) == 42
    tracer.unwrap_all()
    assert _Layer.__dict__["work"] is original_work
    assert _Layer.__dict__["build"] is original_build
    work, build = sorted(tracer.spans, key=lambda s: s.name, reverse=True)
    assert (work.name, build.name) == ("layer.work", "layer.build")
    assert work.parent == build.id and build.parent is None
    assert work.trace == 41


# ----------------------------------------------------------------------
# BENCHMARK.json against the runner
# ----------------------------------------------------------------------
_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _fake_record(workload: str, trace: bool) -> dict:
    metrics = {name: {"value": 1.0, "unit": m.unit, "n": 1}
               for name, m in RECORD_METRICS.items()
               if workload in m.workloads}
    return {"workload": workload, "trace": trace, "correct": True,
            "attempted": 1, "failed": 0, "metrics": metrics,
            "layers": {name: 1.0 for name, m in LAYER_METRICS.items()
                       if workload in m.workloads},
            "params": {"cells": 12}}


def test_benchmark_json_schema():
    spec = load_benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert _UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]


def test_benchmark_json_names_what_the_runner_emits():
    spec = load_benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, m.unit, m.better) for n, m in LAYER_METRICS.items()]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    for workload in WORKLOADS:
        assert list(gate_metrics(workload, _fake_record(workload, False))) \
            == end_to_end
        for trace, names in ((False, end_to_end),
                             (True, [m["name"] for m in spec["per_layer"]])):
            line = contract_line(_fake_record(workload, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == names
