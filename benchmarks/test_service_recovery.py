"""Supervised recovery: the live service survives SIGKILL and zombies.

The claim the simulator's fault models (``ext-chaos``) could only
gesture at: when a real shard-owner *process* is SIGKILLed mid-publish,
a supervisor respawns it from the durable shm snapshot + commit journal
and the service keeps the paper's guarantees — every prefilled element
is conserved (journal-exact, not sampled), no ring slot is torn, no
fenced zombie commits an operation, and the post-takeover rank
distribution still matches the exact stationary oracle.

One seeded chaos run: ``KILLS`` SIGKILLs (the schedule lands at least
one mid-stream) plus one SIGSTOP zombie that is fenced by an epoch bump
and exits ``EXIT_FENCED`` on resume.  Archives the incident table and
the full machine-readable result as ``BENCH_service_recovery.json``.

The post-recovery KS gate mirrors the calibrated envelope documented in
``tests/service/test_supervisor.py``: a paced 3-shard live run on a
busy/small host sits at KS ~0.05-0.10 against the oracle even with no
faults, so the gate is 0.15 — real recovery bugs (lost or duplicated
elements, a successor booting from a stale snapshot) push it past 0.2.
"""

import os

from _helpers import archive_json, emit, once

from repro.bench.tables import format_table
from repro.service.loadgen import ScheduleSpec
from repro.service.server import EXIT_FENCED, run_service
from repro.service.supervisor import ChaosSpec

SHARDS = 3
WORKERS = 2
OPS = 12_000
PREFILL = 512
RATE = 3_000.0
BETA = 1.0
SEED = 0

KILLS = 3
ZOMBIES = 1
DEAD_AFTER_S = 0.35
ORACLE_KS_GATE = 0.15


def _run():
    spec = ScheduleSpec(
        mode="poisson", ops=OPS, prefill=PREFILL, rate=RATE, seed=SEED
    )
    chaos = ChaosSpec(
        kills=KILLS, stalls=0, zombies=ZOMBIES, seed=SEED,
        start_s=0.25, window_s=1.2,
    )
    result = run_service(
        SHARDS,
        WORKERS,
        spec,
        beta=BETA,
        seed=SEED,
        dead_after_s=DEAD_AFTER_S,
        snapshot_every=256,
        rank_sample_every=4,
        supervise=True,
        chaos_spec=chaos,
    )
    result["cores"] = os.cpu_count()
    return result


def test_service_recovery(benchmark):
    result = once(benchmark, _run)
    supervision = result["supervision"]
    conservation = result["conservation"]
    post = result["post_recovery"]

    incident_rows = [
        {
            "shard": inc["shard"],
            "kind": inc["kind"],
            "action": inc["action"],
            "recovery ms": round(inc["recovery_s"] * 1e3, 1)
            if inc["recovery_s"] is not None
            else None,
            "replayed": inc["replayed"],
            "heap": inc["recovered_heap"],
            "ok": inc["takeover_ok"],
        }
        for inc in supervision["incidents"]
    ]
    headline = [
        {
            "takeovers": supervision["takeovers"],
            "ops/s": round(result["throughput_ops_s"], 0),
            "conserved": conservation["ok"],
            "residual": conservation["residual_total"],
            "torn": result["audit"]["torn"],
            "zombie commits": conservation["epoch_regressions"],
            "post-recovery ks": round(post["oracle_ks"], 3)
            if post["oracle_ks"] is not None
            else None,
        }
    ]
    table = (
        format_table(
            headline,
            title=(
                f"Supervised recovery: {KILLS} SIGKILLs + {ZOMBIES} zombie, "
                f"{SHARDS} shards, {WORKERS} workers\n"
                f"beta={BETA}, ops={OPS}, prefill={PREFILL}, "
                f"{result['cores']} cores"
            ),
        )
        + "\n\n"
        + format_table(
            incident_rows,
            title="recovery incidents (journal replay per takeover)",
        )
    )
    emit("service_recovery", table)
    result.pop("rank_values", None)
    archive_json("BENCH_service_recovery", result)

    # Every planned fault fired on a live owner.
    missed = [ev for ev in result["chaos"]["events"] if ev["kind"].endswith("-missed")]
    assert not missed, f"chaos schedule missed faults: {missed}"
    # Final owner generation exits clean; retirees died by SIGKILL or fence.
    assert result["owner_exitcodes"] == [0] * SHARDS
    assert all(
        row["exitcode"] in (-9, EXIT_FENCED)
        for row in supervision["retired_exitcodes"]
    ), supervision["retired_exitcodes"]
    assert supervision["takeovers"] >= 1
    # Journal-exact conservation: nothing lost, nothing duplicated.
    assert conservation["ok"], conservation
    assert conservation["events_match"]
    assert conservation["residual_total"] == PREFILL
    assert conservation["epoch_regressions"] == 0, "a fenced zombie committed"
    assert result["audit"]["torn"] == 0
    assert result["audit"]["pending"] == 0
    assert result["ops_processed"] == OPS
    # Successors boot from real state and the rank law survives takeover.
    assert all(inc["recovered_heap"] > 0 for inc in supervision["incidents"])
    assert any(inc["replayed"] > 0 for inc in supervision["incidents"])
    assert post["n_ranks"] >= 300, post
    assert post["oracle_ks"] < ORACLE_KS_GATE, post
