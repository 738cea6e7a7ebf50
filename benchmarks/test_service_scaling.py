"""Service-scaling: real processes on real cores, plus sim cross-check.

The claim the simulator could model but never demonstrate: adding shard
owners to the live shared-memory service scales delete-min throughput.
Runs the same closed-throttle load at 1..4 shard owners (one
``run_service`` call each) and archives the speedup curve, then
cross-validates the rank-vs-beta shape against the discrete-event
simulator and archives everything as ``BENCH_service.json``.

The >2x speedup floor only binds on hardware with enough cores to scale
(CI runners have 4 vCPUs); on smaller boxes the curve is still archived
but the floor is informational.
"""

import os

from _helpers import archive_json, emit, once

from repro.bench.tables import format_table
from repro.service.loadgen import ScheduleSpec
from repro.service.server import run_service
from repro.service.validate import compare_service_and_sim

SHARD_COUNTS = (1, 2, 4)
WORKERS = 4
OPS = 60_000
PREFILL = 4_096
BETA = 0.5
SEED = 0

VALIDATE_BETAS = (0.0, 0.5, 1.0)
VALIDATE_OPS = 4_000
VALIDATE_RATE = 2_000.0

SPEEDUP_FLOOR = 2.0
#: The scaling floor needs cores to scale onto.
ENOUGH_CORES = (os.cpu_count() or 1) >= 4


def _run():
    spec = ScheduleSpec(mode="poisson", ops=OPS, prefill=PREFILL, rate=0.0, seed=SEED)
    rows = []
    for shards in SHARD_COUNTS:
        res = run_service(shards, WORKERS, spec, beta=BETA, seed=SEED)
        rows.append(
            {
                "shards": shards,
                "workers": WORKERS,
                "throughput_ops_s": res["throughput_ops_s"],
                "delete_p99_ms": res["delete_p99_ms"],
                "rank": res["rank"],
                "torn": res["audit"]["torn"],
            }
        )
    base = rows[0]["throughput_ops_s"]
    for row in rows:
        row["speedup"] = row["throughput_ops_s"] / base if base else float("nan")
    scaling = {
        "beta": BETA,
        "gamma": 0.0,
        "policy": "mq",
        "mode": spec.mode,
        "ops": OPS,
        "prefill": PREFILL,
        "rows": rows,
    }
    validation = compare_service_and_sim(
        shards=max(SHARD_COUNTS),
        workers=2,
        betas=VALIDATE_BETAS,
        ops=VALIDATE_OPS,
        prefill=512,
        seed=SEED,
        rate=VALIDATE_RATE,
    )
    return {"scaling": scaling, "validation": validation, "cores": os.cpu_count()}


def test_service_scaling(benchmark):
    result = once(benchmark, _run)
    scaling, validation = result["scaling"], result["validation"]

    rows = [
        {
            "shards": row["shards"],
            "ops/s": round(row["throughput_ops_s"], 0),
            "speedup": round(row["speedup"], 2),
            "delete p99 ms": round(row["delete_p99_ms"], 2),
            "mean rank": round(row["rank"]["mean_rank"], 2) if row["rank"] else None,
            "torn": row["torn"],
        }
        for row in scaling["rows"]
    ]
    val_rows = [
        {
            "beta": row["beta"],
            "service mean rank": round(row["service"]["mean_rank"], 2),
            "sim mean rank": round(row["sim"]["mean_rank"], 2),
            "ks stat": round(row["ks_stat"], 3),
        }
        for row in validation["rows"]
    ]
    table = (
        format_table(
            rows,
            title=(
                "Live service: throughput vs shard owners\n"
                f"{WORKERS} loadgen workers, beta={BETA}, ops={OPS}, "
                f"prefill={PREFILL}, {result['cores']} cores"
            ),
        )
        + "\n\n"
        + format_table(
            val_rows,
            title=(
                "Rank-shape cross-validation vs simulator "
                f"(paced at {VALIDATE_RATE:.0f} ops/s; "
                f"agreement={validation['ordering_agreement']})"
            ),
        )
    )
    emit("service_scaling", table)
    # Raw per-beta rank samples are for the KS test, not the archive.
    for row in validation["rows"]:
        row.pop("rank_values", None)
    archive_json("BENCH_service", result)

    for row in scaling["rows"]:
        assert row["torn"] == 0, f"{row['shards']}-shard run tore ring slots"
    assert validation["ordering_agreement"], (
        "service does not reproduce the simulator's rank-vs-beta shape: "
        f"{val_rows}"
    )
    top_speedup = max(row["speedup"] for row in scaling["rows"])
    if ENOUGH_CORES:
        assert top_speedup > SPEEDUP_FLOOR, (
            f"best speedup {top_speedup:.2f}x across {SHARD_COUNTS}; "
            f"need > {SPEEDUP_FLOOR}x on {result['cores']} cores"
        )
