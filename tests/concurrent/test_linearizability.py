"""Tests for distributional-linearizability comparisons and Appendix C."""

import numpy as np
import pytest

from repro.concurrent.linearizability import (
    DistributionalComparisonReport,
    compare_rank_distributions,
    multiqueue_vs_sequential,
    stalled_lock_counterexample,
)
from repro.core.records import RankTrace


def _report_ks(a, b):
    """The KS statistic a comparison report carries."""
    return compare_rank_distributions(RankTrace(a), RankTrace(b)).ks_statistic


class TestKS:
    def test_identical_samples_zero(self):
        a = np.array([1, 2, 3, 4])
        assert _report_ks(a, a) == 0.0

    def test_disjoint_samples_one(self):
        assert _report_ks(np.array([1, 2]), np.array([10, 20])) == 1.0

    def test_symmetry(self):
        a = np.array([1, 3, 5, 9])
        b = np.array([2, 3, 8])
        assert _report_ks(a, b) == pytest.approx(_report_ks(b, a))


class TestCompare:
    def test_report_fields(self):
        a = RankTrace([1, 2, 3, 4, 5])
        b = RankTrace([1, 2, 3, 4, 50])
        report = compare_rank_distributions(a, b)
        assert report.concurrent_mean == pytest.approx(3.0)
        assert report.sequential_mean == pytest.approx(12.0)
        assert report.n_concurrent == 5
        assert not report.means_within(0.5)
        assert "conc_mean" in repr(report)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            compare_rank_distributions(RankTrace(), RankTrace([1]))

    def test_means_within(self):
        report = compare_rank_distributions(RankTrace([10] * 5), RankTrace([11] * 5))
        assert report.means_within(0.2)
        assert not report.means_within(0.05)


class TestMultiQueueVsSequential:
    def test_distributions_agree_for_benign_schedule(self):
        """The concurrent MultiQueue's rank distribution tracks the
        sequential process closely (Section 5's empirical claim)."""
        report = multiqueue_vs_sequential(
            n_threads=4, n_queues=8, prefill=10_000, ops_per_thread=1_000, seed=42
        )
        assert report.means_within(0.25)
        assert report.ks_statistic < 0.12


class TestStallCounterexample:
    def test_stall_inflates_rank_error(self):
        """Appendix C: with two queues locked by a stalled thread, rank
        error grows far beyond the baseline."""
        result = stalled_lock_counterexample(
            n_threads=4,
            n_queues=8,
            prefill=10_000,
            ops_per_thread=600,
            stall_fraction=0.9,
            seed=11,
        )
        baseline, stalled = result["baseline"], result["stalled"]
        assert stalled.mean_rank() > 5 * baseline.mean_rank()
        assert stalled.max_rank() > 2 * baseline.max_rank()

    def test_validation(self):
        with pytest.raises(ValueError):
            stalled_lock_counterexample(stall_fraction=0.0)
