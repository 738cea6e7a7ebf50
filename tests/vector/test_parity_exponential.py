"""Parity: the batched weight-only exponential process vs the reference.

The batched process draws its choices and increments from its own
streams, so traces are *not* RNG-coupled — parity here is
distributional: the time-averaged Theorem 3 potential of both.
"""

import numpy as np

from repro.core.exponential import ExponentialTopProcess
from repro.core.potential import recommended_alpha
from repro.vector.exponential import VectorExponentialTopProcess


class TestTopProcess:
    def test_matches_reference_distribution(self):
        # Compare time-averaged Gamma/n of the batched top process
        # against the reference implementation across seeds.
        n, steps, replicas = 16, 2000, 12
        alpha = recommended_alpha(1.0)
        vec = VectorExponentialTopProcess(n, replicas, beta=1.0, rng=7)
        series = vec.run_potentials(steps, alpha, sample_every=50)
        vec_avg = series.gamma_over_n(n).mean(axis=0)

        ref_avgs = []
        for seed in range(replicas):
            ref = ExponentialTopProcess(n, beta=1.0, rng=200 + seed)
            gammas = []
            for t in range(1, steps + 1):
                ref.step()
                if t % 50 == 0:
                    w = ref.top_weights
                    y = w / n - w.mean() / n
                    gammas.append(np.exp(alpha * y).sum() + np.exp(-alpha * y).sum())
            ref_avgs.append(np.mean(gammas) / n)
        # Both hover just above the AM-GM floor of 2; means must agree
        # to well under a percent of that scale.
        assert abs(vec_avg.mean() - np.mean(ref_avgs)) < 0.05

    def test_step_advances_all_replicas(self):
        vec = VectorExponentialTopProcess(8, 4, beta=1.0, rng=1)
        before = vec.top_weights
        vec.run(10)
        after = vec.top_weights
        assert vec.steps == 10
        # Every replica advanced some bin.
        assert (after != before).any(axis=1).all()
