"""Metric arithmetic and correctness gates for the benchmark.

Everything here is a pure function of numbers the benchmark already
collected, so the tests can feed it hand-made (and deliberately broken)
inputs.  A gate returns a list of human-readable failures; an empty list
means the output was correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

#: The service's latency limit: delete p99 at or under this many ms.
SLO_P99_MS = 10.0

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the sample cannot support it.
MIN_BEYOND = 10

#: Sweep-row fields that are wall-clock measurements, not results.
SWEEP_VOLATILE = frozenset({"elapsed_s", "ops_per_sec"})

#: Prefix of the fields the benchmark's own cell wrapper adds to a row.
BENCH_PREFIX = "_bench_"

#: Oracle bounds per sweep shape ``(n, prefill, steps, replicas)`` and
#: beta: ``(max oracle_ks, max oracle_mean_err)``.  Calibrated on 24
#: seeds per beta at each shape (see NOTES.md) with about 1.5x headroom
#: over the worst seed.  beta=0.5 has not converged from its prefill at
#: these step counts, so its bounds sit well above the stationary law's.
ORACLE_BOUNDS: Dict[tuple, Dict[float, tuple]] = {
    (256, 16384, 20000, 64): {0.5: (0.06, 0.11), 1.0: (0.03, 0.045)},
    (256, 2048, 2000, 8): {0.5: (0.27, 0.55), 1.0: (0.12, 0.23)},
}


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ordered samples rank above the ``q``-quantile."""
    return n - math.ceil(q * n)


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The ``q``-quantile of ``values``, or ``None`` if too few lie beyond it."""
    values = np.asarray(values, dtype=float)
    if values.size == 0 or samples_beyond(values.size, q) < min_beyond:
        return None
    return float(np.quantile(values, q))


def failed_ops(attempted: int, completed: int) -> int:
    """Ops that were offered but never completed.

    A completion count above the offered count means something was
    served twice, which is as wrong as a loss; it raises instead of
    returning a negative failure count.
    """
    if attempted < 0 or completed < 0:
        raise ValueError(f"negative counts: attempted={attempted}, completed={completed}")
    if completed > attempted:
        raise ValueError(f"{completed} completions for {attempted} offered ops")
    return attempted - completed


@dataclass(frozen=True)
class Rung:
    """One rate of the open-loop ladder, as measured."""

    name: str
    rate: float  # offered ops/s
    achieved_ops_s: float  # completed ops / measured window
    p99_ms: Optional[float]  # None when the sample cannot support a p99
    backlog_ok: bool  # the queue did not keep growing through the rung

    def meets_slo(self, limit_ms: float = SLO_P99_MS) -> bool:
        return self.p99_ms is not None and self.p99_ms <= limit_ms and self.backlog_ok


def slo_rung(rungs: Sequence[Rung], limit_ms: float = SLO_P99_MS) -> Optional[Rung]:
    """The highest rung that meets the SLO with every lower rung meeting it too.

    Requiring the lower rungs as well keeps one lucky high rung from
    reporting a rate the service cannot hold below it.
    """
    best = None
    for rung in sorted(rungs, key=lambda r: r.rate):
        if not rung.meets_slo(limit_ms):
            break
        best = rung
    return best


def backlog_ok(t0_ns: np.ndarray, latency_ms: np.ndarray, limit_ms: float = SLO_P99_MS) -> bool:
    """False when the last tenth of ops (by intended start) waited past the limit.

    A queue that grows through a rung charges its latest ops the most,
    so the median of the final tenth rises with the backlog.
    """
    if latency_ms.size == 0:
        return False
    order = np.argsort(t0_ns, kind="stable")
    tail = latency_ms[order][-max(1, latency_ms.size // 10):]
    return float(np.median(tail)) <= limit_ms


def check_service(result: Mapping, prefill: int, n_inserts: int, completed: int) -> List[str]:
    """Correctness gates for one ``run_service`` result.

    ``completed`` is the number of offered ops the benchmark itself saw
    complete (events stamped with an intended start).
    """
    failures = []
    conservation = result.get("conservation") or {}
    if conservation.get("ok") is not True:
        failures.append("conservation audit failed (conservation.ok is not true)")
    if conservation.get("events_match") is not True:
        failures.append("collected events do not match the journal (events_match is not true)")
    torn = (result.get("audit") or {}).get("torn")
    if torn != 0:
        failures.append(f"ring audit found torn slots: {torn}")
    offered = result.get("ops_offered")
    if result.get("ops_processed") != offered:
        failures.append(f"ops_processed {result.get('ops_processed')} != ops_offered {offered}")
    if completed != offered:
        failures.append(f"benchmark saw {completed} offered ops complete, expected {offered}")
    loadgens = result.get("loadgen_exitcodes")
    if not loadgens or any(code != 0 for code in loadgens):
        failures.append(f"loadgen_exitcodes not all 0: {loadgens}")
    # run_service's collector thread polls owner liveness while the main
    # thread joins the owners; when the poll reaps an owner first, its
    # exit code comes back as None.  An owner's BYE (its residual size)
    # is the last thing it does before a clean exit, so None counts as
    # clean only with that shard's BYE received.
    owners = result.get("owner_exitcodes")
    residuals = result.get("residual_sizes") or []
    if not owners or len(residuals) != len(owners) or any(
        code != 0 and not (code is None and residual is not None)
        for code, residual in zip(owners, residuals)
    ):
        failures.append(f"owner_exitcodes not all 0 (None needs a BYE): {owners}, BYE {residuals}")
    expected_residual = prefill + n_inserts - int(result.get("deletes", -1))
    if None in residuals or sum(residuals) != expected_residual:
        failures.append(
            f"residual heap {residuals} != prefill + inserts - deletes = {expected_residual}"
        )
    if conservation.get("residual_total") != expected_residual:
        failures.append(
            f"journal residual {conservation.get('residual_total')} != {expected_residual}"
        )
    return failures


def stable_row(row: Mapping) -> Dict:
    """A sweep row without its wall-clock fields and benchmark bookkeeping."""
    return {
        k: v for k, v in row.items()
        if k not in SWEEP_VOLATILE and not k.startswith(BENCH_PREFIX)
    }


def check_sweep(
    repeats: Sequence[Sequence[Mapping]],
    expected_cells: int,
    shape: tuple,
    failed_cells: int = 0,
) -> List[str]:
    """Correctness gates over every repeat of one sweep.

    Rows must be identical across repeats (apart from timing fields),
    and every row must sit within the calibrated oracle bounds for its
    beta at this sweep shape.
    """
    failures = []
    if failed_cells:
        failures.append(f"{failed_cells} sweep cell(s) failed")
    if not repeats:
        return failures + ["no sweep completed"]
    first = [stable_row(r) for r in repeats[0]]
    for k, rows in enumerate(repeats):
        if len(rows) != expected_cells:
            failures.append(f"repeat {k}: {len(rows)} rows, expected {expected_cells}")
        if k and [stable_row(r) for r in rows] != first:
            failures.append(f"repeat {k}: rows differ from repeat 0")
    bounds = ORACLE_BOUNDS.get(shape)
    if bounds is None:
        return failures + [f"no oracle bounds calibrated for sweep shape {shape}"]
    for row in repeats[0]:
        beta = row.get("beta")
        if beta not in bounds:
            failures.append(f"no oracle bound for beta={beta}")
            continue
        ks_max, err_max = bounds[beta]
        ks, err = row.get("oracle_ks"), row.get("oracle_mean_err")
        if ks is None or ks > ks_max:
            failures.append(f"beta={beta} seed={row.get(BENCH_PREFIX + 'seed')}: oracle_ks {ks} > {ks_max}")
        if err is None or err > err_max:
            failures.append(
                f"beta={beta} seed={row.get(BENCH_PREFIX + 'seed')}: oracle_mean_err {err} > {err_max}"
            )
    return failures
