"""Vec-backend: the vector engine vs the reference, head to head.

The headline sweep from the vector subsystem's acceptance bar: 64
replicas of the (1+beta) process at n=256 with 200k steady-state steps
each, run once through :class:`SequentialProcess` (per replica) and once
through :class:`VectorSequentialProcess` (all replicas in lockstep).
Asserts the >= 10x throughput target and rank-law parity (KS), and
archives both the table and a machine-readable ``BENCH_vector.json``.
"""

import json
import os
import platform

import numpy as np
from _helpers import RESULTS_DIR, emit, once

from repro.bench.tables import format_table
from repro.orchestrate import git_sha
from repro.vector.sweep import compare_backends

N = 256
BETA = 1.0
PREFILL = 16384
STEPS = 200_000
REPLICAS = 64
#: Reference replicas actually timed — throughput is a per-op rate, so a
#: few replicas measure it as well as 64 would at an eighth of the cost.
REF_REPLICAS = 4

SPEEDUP_FLOOR = 10.0


def _run():
    return compare_backends(
        N, BETA, PREFILL, STEPS, REPLICAS, seed=0, ref_replicas=REF_REPLICAS
    )


def test_vector_backend(benchmark):
    result = once(benchmark, _run)

    rows = [dict(result["reference"]), dict(result["vector"])]
    rows[-1]["speedup"] = round(result["speedup"], 2)
    rows[-1]["ks_p"] = round(result["ks_p_value"], 4)
    columns = list(rows[0].keys()) + ["speedup", "ks_p"]
    table = format_table(
        rows,
        columns=columns,
        title=(
            "Vector backend vs reference — headline (1+beta) sweep\n"
            f"n={N}, beta={BETA}, prefill={PREFILL}, steps={STEPS}, "
            f"replicas={REPLICAS} (reference timed on {REF_REPLICAS})"
        ),
    )
    emit("vector_backend", table)
    # Throughput means little without the machine it was measured on.
    affinity = getattr(os, "sched_getaffinity", None)
    result["host"] = {
        "cpus_usable": len(affinity(0)) if affinity else None,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }
    with open(RESULTS_DIR / "BENCH_vector.json", "w") as fh:
        json.dump(result, fh, indent=2)

    assert result["speedup"] >= SPEEDUP_FLOOR, (
        f"vector backend {result['speedup']:.1f}x reference; need >= {SPEEDUP_FLOOR}x"
    )
    assert result["parity_ok"], (
        f"rank-law KS test failed (p={result['ks_p_value']:.3e})"
    )
    # Same law on both sides: the mean ranks agree to a few sd of the
    # per-replica spread.
    ref, vec = result["reference"], result["vector"]
    tolerance = 4 * max(ref["mean_rank_sd"], vec["mean_rank_sd"], 1e-9)
    assert abs(ref["mean_rank"] - vec["mean_rank"]) < tolerance
