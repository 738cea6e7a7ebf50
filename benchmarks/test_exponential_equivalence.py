"""T2-equiv (Theorem 2): the exponential process has the same rank law.

Three checks:

1. *Exact coupling* — under a shared rank layout and choice stream the
   original and exponential processes pay identical costs, step by step.
2. *Marginals* — the bin holding rank r is distributed as pi, for both
   uniform and gamma-biased insertion.
3. *Independent runs* — rank traces from independently seeded original
   and exponential runs agree in distribution (small KS distance).
"""

import numpy as np
from _helpers import emit, once

from repro.analysis.stats import ks_2sample
from repro.bench.tables import format_table
from repro.core.exponential import ExponentialProcess, coupled_removal_costs
from repro.core.policies import biased_insert_probs
from repro.core.process import SequentialProcess

N = 8
PREFILL = 4000
REMOVALS = 2000
REPS = 200


def _marginal_tv(insert_probs):
    """Total-variation distance between empirical rank placement and pi."""
    pi = insert_probs if insert_probs is not None else np.full(N, 1 / N)
    counts = np.zeros(N)
    for s in range(REPS):
        proc = ExponentialProcess(N, 64, insert_probs=insert_probs, rng=9000 + s)
        proc.generate(64)
        counts += np.bincount(proc.bin_assignment(), minlength=N)
    freq = counts / counts.sum()
    return 0.5 * float(np.abs(freq - pi).sum())


def _run():
    rows = []
    for beta in (1.0, 0.5):
        orig, expo = coupled_removal_costs(N, PREFILL, REMOVALS, beta=beta, seed=11)
        rows.append(
            {
                "check": f"exact coupling (beta={beta})",
                "statistic": "max |cost diff|",
                "value": float(np.abs(orig.ranks - expo.ranks).max()),
                "target": 0.0,
            }
        )

    rows.append(
        {
            "check": "rank-placement marginals (uniform pi)",
            "statistic": "TV distance",
            "value": _marginal_tv(None),
            "target": 0.0,
        }
    )
    pi = biased_insert_probs(N, 0.4, pattern="two-point")
    rows.append(
        {
            "check": "rank-placement marginals (gamma=0.4)",
            "statistic": "TV distance",
            "value": _marginal_tv(pi),
            "target": 0.0,
        }
    )

    # Independent-seed distributional agreement.
    seq = SequentialProcess(N, PREFILL, beta=1.0, rng=21)
    trace_seq = seq.run_prefill_drain(PREFILL, REMOVALS)
    expo = ExponentialProcess(N, PREFILL, beta=1.0, rng=22)
    expo.generate(PREFILL)
    trace_exp = expo.run_drain(REMOVALS)
    rows.append(
        {
            "check": "independent runs, original vs exponential",
            "statistic": "KS distance of rank CDFs",
            "value": ks_2sample(trace_seq.ranks, trace_exp.ranks)[0],
            "target": 0.0,
        }
    )
    return rows


def test_exponential_equivalence(benchmark):
    rows = once(benchmark, _run)
    table = format_table(
        rows,
        title="Theorem 2 — rank-distribution equivalence of the exponential process",
        floatfmt=".4f",
    )
    emit("exponential_equivalence", table)

    by_check = {r["check"]: r["value"] for r in rows}
    assert by_check["exact coupling (beta=1.0)"] == 0.0
    assert by_check["exact coupling (beta=0.5)"] == 0.0
    assert by_check["rank-placement marginals (uniform pi)"] < 0.02
    assert by_check["rank-placement marginals (gamma=0.4)"] < 0.02
    assert by_check["independent runs, original vs exponential"] < 0.05
