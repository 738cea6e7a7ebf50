"""Metric arithmetic and correctness gates, fed hand-made and doctored inputs."""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import gates
from perfbench.workload import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles --------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert gates.samples_beyond(1000, 0.99) == 10
    assert gates.samples_beyond(999, 0.99) == 9
    values = np.arange(1000, dtype=float)
    assert gates.percentile(values, 0.99) == pytest.approx(np.quantile(values, 0.99))
    assert gates.percentile(values[:999], 0.99) is None
    assert gates.percentile(np.arange(20.0), 0.5) == pytest.approx(9.5)
    assert gates.percentile(np.arange(19.0), 0.5) is None
    assert gates.percentile([], 0.5) is None


# -- the SLO rung -------------------------------------------------------------


def _rung(name, rate, p99, backlog=True):
    return gates.Rung(name, rate, rate * 1.001, p99, backlog)


def test_slo_rung_is_highest_passing_rung():
    rungs = [
        _rung("low", 5e3, 0.5), _rung("mid", 2e4, 1.3),
        _rung("high", 2.5e4, 9.9), _rung("probe", 5e4, 190.0),
    ]
    assert gates.slo_rung(rungs).name == "high"
    assert gates.slo_rung(list(reversed(rungs))).name == "high"


def test_slo_rung_stops_at_first_failure():
    rungs = [
        _rung("low", 5e3, 0.5), _rung("mid", 2e4, 10.5),
        _rung("high", 2.5e4, 2.0), _rung("probe", 5e4, 3.0),
    ]
    assert gates.slo_rung(rungs).name == "low"


def test_slo_rung_counts_growing_backlog_and_unsupported_p99_as_misses():
    assert gates.slo_rung([_rung("low", 5e3, 0.5, backlog=False)]) is None
    assert gates.slo_rung([_rung("low", 5e3, None)]) is None
    assert gates.slo_rung([]) is None
    # The limit itself passes.
    assert gates.slo_rung([_rung("low", 5e3, gates.SLO_P99_MS)]).name == "low"


def test_backlog_ok_sees_latency_grow_through_the_rung():
    t0 = np.arange(1000)
    assert gates.backlog_ok(t0, np.full(1000, 0.3))
    growing = np.linspace(0.3, 40.0, 1000)
    assert not gates.backlog_ok(t0, growing)
    # Order comes from the intended start, not from the array order.
    assert not gates.backlog_ok(t0[::-1], growing[::-1])
    assert not gates.backlog_ok(t0[:0], growing[:0])


# -- failure counting ---------------------------------------------------------


def test_failed_ops_counts_missing_completions():
    assert gates.failed_ops(10, 10) == 0
    assert gates.failed_ops(10, 7) == 3
    with pytest.raises(ValueError):
        gates.failed_ops(10, 11)
    with pytest.raises(ValueError):
        gates.failed_ops(-1, 0)


# -- service gates ------------------------------------------------------------

PREFILL, INSERTS, DELETES, OFFERED = 1024, 500, 500, 1000


def _service_result():
    residual = PREFILL + INSERTS - DELETES
    return {
        "ops_offered": OFFERED,
        "ops_processed": OFFERED,
        "deletes": DELETES,
        "audit": {"rings": 12, "torn": 0, "pending": 0},
        "conservation": {"ok": True, "events_match": True, "residual_total": residual},
        "owner_exitcodes": [0, 0],
        "loadgen_exitcodes": [0],
        "residual_sizes": [residual // 2, residual - residual // 2],
    }


def test_check_service_passes_a_clean_result():
    assert gates.check_service(_service_result(), PREFILL, INSERTS, OFFERED) == []


def test_check_service_accepts_an_unreported_exit_code_after_a_bye():
    result = _service_result()
    result["owner_exitcodes"] = [None, 0]
    assert gates.check_service(result, PREFILL, INSERTS, OFFERED) == []


def test_check_service_fails_a_dropped_event():
    # What a collector that lost one event reports: one op short, and the
    # journal no longer matches what was collected.
    result = _service_result()
    result["ops_processed"] -= 1
    result["conservation"]["events_match"] = False
    failures = gates.check_service(result, PREFILL, INSERTS, OFFERED - 1)
    assert len(failures) == 3
    assert any("events_match" in f for f in failures)


def test_check_service_fails_a_flipped_ok():
    result = _service_result()
    result["conservation"]["ok"] = False
    assert gates.check_service(result, PREFILL, INSERTS, OFFERED) == [
        "conservation audit failed (conservation.ok is not true)"
    ]


@pytest.mark.parametrize(
    "doctor",
    [
        lambda r: r["audit"].update(torn=1),
        lambda r: r.update(owner_exitcodes=[0, -9]),
        lambda r: r.update(owner_exitcodes=[0, None], residual_sizes=[512, None]),
        lambda r: r.update(owner_exitcodes=[0]),
        lambda r: r.update(loadgen_exitcodes=[4]),
        lambda r: r.update(loadgen_exitcodes=[]),
        lambda r: r.update(residual_sizes=[500, None]),
        lambda r: r.update(residual_sizes=[600, 425]),
        lambda r: r["conservation"].update(residual_total=1023),
        lambda r: r.update(deletes=DELETES + 1),
        lambda r: r.pop("conservation"),
    ],
)
def test_check_service_fails_each_doctored_field(doctor):
    result = copy.deepcopy(_service_result())
    doctor(result)
    assert gates.check_service(result, PREFILL, INSERTS, OFFERED)


# -- sweep gates --------------------------------------------------------------

SHAPE = (256, 16384, 20000, 64)


def _rows(elapsed=1.0):
    return [
        {"beta": beta, "mean_rank": 200.0 + k, "oracle_ks": 0.01, "oracle_mean_err": 0.01,
         "elapsed_s": elapsed, "ops_per_sec": 1e6 / elapsed, "_bench_pid": 100 + k, "_bench_seed": k}
        for k, beta in enumerate((0.5, 1.0, 0.5, 1.0))
    ]


def test_check_sweep_ignores_timing_fields():
    assert gates.check_sweep([_rows(1.0), _rows(2.0)], 4, SHAPE) == []


def test_check_sweep_fails_rows_that_differ_between_repeats():
    second = _rows()
    second[1]["mean_rank"] += 1e-9
    assert gates.check_sweep([_rows(), second], 4, SHAPE) == ["repeat 1: rows differ from repeat 0"]


def test_check_sweep_fails_oracle_bounds_missing_cells_and_failed_cells():
    rows = _rows()
    rows[0]["oracle_mean_err"] = 0.5
    rows[3]["oracle_ks"] = None
    assert len(gates.check_sweep([rows], 4, SHAPE)) == 2
    assert gates.check_sweep([_rows()[:3]], 4, SHAPE) == ["repeat 0: 3 rows, expected 4"]
    assert gates.check_sweep([_rows()], 4, SHAPE, failed_cells=1) == ["1 sweep cell(s) failed"]
    assert gates.check_sweep([_rows()], 4, (1, 2, 3, 4))
    assert gates.check_sweep([], 4, SHAPE)


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_workloads_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
