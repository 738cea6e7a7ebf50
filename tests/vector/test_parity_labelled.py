"""Parity: vector labelled processes vs their reference counterparts.

Two tiers of evidence:

* **Exact trace equality** — driving the vector engine with a
  :class:`ReferenceMirror` (per-replica generators consumed in the
  reference order) must reproduce each reference run label-for-label:
  same ranks at every step, same top-rank snapshots, same redraw counts.
* **Distributional equality** — with its own i.i.d. choice stream
  (:class:`BatchedChooser`), the vector backend's rank law must be
  KS-indistinguishable from the reference's.
"""

import numpy as np
import pytest

from repro.analysis.stats import ks_2sample
from repro.core.dchoice import DChoiceProcess
from repro.core.policies import biased_insert_probs
from repro.core.process import SequentialProcess
from repro.core.round_robin import RoundRobinProcess
from repro.core.single_choice import SingleChoiceProcess
from repro.vector.chooser import ReferenceMirror
from repro.vector.engine import VectorProcessBase
from repro.vector.labelled import (
    VectorDChoiceProcess,
    VectorRoundRobinProcess,
    VectorSequentialProcess,
    VectorSingleChoiceProcess,
)
from repro.vector.sweep import _ks_sample, run_reference_backend, run_vector_backend

SEEDS = list(range(10))


class TestExactTraceParity:
    @pytest.mark.parametrize("beta", [1.0, 0.6, 0.0])
    def test_steady_state_matches_reference(self, beta):
        n, prefill, steps = 16, 400, 403  # steps not a chunk multiple
        cap = prefill + steps
        mirror = ReferenceMirror(n, beta, SEEDS)
        vec = VectorSequentialProcess(n, cap, len(SEEDS), beta=beta, source=mirror)
        result = vec.run_steady_state(prefill, steps, sample_every=50)
        for r, seed in enumerate(SEEDS):
            ref = SequentialProcess(n, cap, beta=beta, rng=np.random.default_rng(seed))
            run = ref.run_steady_state_sampled(prefill, steps, sample_every=50)
            np.testing.assert_array_equal(result.ranks[:, r], run.trace.ranks)
            np.testing.assert_array_equal(
                result.max_top_ranks[:, r], run.max_top_ranks
            )
            np.testing.assert_array_equal(
                result.mean_top_ranks[:, r], run.mean_top_ranks
            )
            assert result.empty_redraws[r] == ref.empty_redraws

    def test_biased_insertion_matches_reference(self):
        n, prefill, steps = 8, 300, 200
        cap = prefill + steps
        pi = biased_insert_probs(n, 0.4)
        mirror = ReferenceMirror(n, 1.0, SEEDS, insert_probs=pi)
        vec = VectorSequentialProcess(
            n, cap, len(SEEDS), beta=1.0, insert_probs=pi, source=mirror
        )
        result = vec.run_steady_state(prefill, steps)
        for r, seed in enumerate(SEEDS):
            ref = SequentialProcess(
                n, cap, beta=1.0, insert_probs=pi, rng=np.random.default_rng(seed)
            )
            trace = ref.run_steady_state(prefill, steps)
            np.testing.assert_array_equal(result.ranks[:, r], trace.ranks)

    def test_prefill_drain_matches_reference(self):
        n, prefill, removals = 8, 500, 333
        mirror = ReferenceMirror(n, 1.0, SEEDS)
        vec = VectorSequentialProcess(n, prefill, len(SEEDS), beta=1.0, source=mirror)
        result = vec.run_prefill_drain(prefill, removals)
        for r, seed in enumerate(SEEDS):
            ref = SequentialProcess(n, prefill, beta=1.0, rng=np.random.default_rng(seed))
            trace = ref.run_prefill_drain(prefill, removals)
            np.testing.assert_array_equal(result.ranks[:, r], trace.ranks)

    def test_single_choice_matches_reference(self):
        n, prefill, steps = 8, 400, 150
        cap = prefill + steps
        mirror = ReferenceMirror(n, 0.0, SEEDS)
        vec = VectorSingleChoiceProcess(n, cap, len(SEEDS), source=mirror)
        result = vec.run_steady_state(prefill, steps)
        for r, seed in enumerate(SEEDS):
            ref = SingleChoiceProcess(n, cap, rng=np.random.default_rng(seed))
            trace = ref.run_steady_state(prefill, steps)
            np.testing.assert_array_equal(result.ranks[:, r], trace.ranks)

    @pytest.mark.parametrize("d", [1, 3])
    def test_dchoice_matches_reference(self, d):
        n, prefill, steps = 8, 400, 150
        cap = prefill + steps
        mirror = ReferenceMirror(n, 1.0, SEEDS)
        vec = VectorDChoiceProcess(n, cap, len(SEEDS), d=d, source=mirror)
        result = vec.run_steady_state(prefill, steps)
        for r, seed in enumerate(SEEDS):
            ref = DChoiceProcess(n, cap, d=d, rng=np.random.default_rng(seed))
            trace = ref.run_steady_state(prefill, steps)
            np.testing.assert_array_equal(result.ranks[:, r], trace.ranks)

    def test_grow_mid_run_matches_reference(self, monkeypatch):
        # A small bulk prefill sizes the link window at 128 labels; the
        # insert()-driven fill that follows must widen it, and the
        # removals after it run on the regrown window.
        grows = []
        cover = VectorProcessBase._cover

        def counted_cover(proc, label, count):
            window = proc._window
            cover(proc, label, count)
            if proc._window > window:
                grows.append(proc._window)

        monkeypatch.setattr(VectorProcessBase, "_cover", counted_cover)
        n, first, prefill, steps = 4, 8, 400, 150
        cap = prefill + steps
        mirror = ReferenceMirror(n, 0.6, SEEDS)
        vec = VectorSequentialProcess(n, cap, len(SEEDS), beta=0.6, source=mirror)
        vec.prefill(first)
        vec.prefill(prefill - first)
        assert grows, "the insert-driven fill never grew the window"
        steady = vec.run_steady_state(0, steps)
        drained = vec.run_drain(prefill)
        assert vec.present_count == 0
        for r, seed in enumerate(SEEDS):
            ref = SequentialProcess(n, cap, beta=0.6, rng=np.random.default_rng(seed))
            trace = ref.run_steady_state(prefill, steps)
            np.testing.assert_array_equal(steady.ranks[:, r], trace.ranks)
            ranks = [ref.remove().rank for _ in range(prefill)]
            np.testing.assert_array_equal(drained.ranks[:, r], ranks)
            assert drained.empty_redraws[r] == ref.empty_redraws

    def test_single_choice_regrows_the_window_mid_run(self, monkeypatch):
        # Theorem 6: under single choice the oldest label falls ever
        # further behind, so the live label span outgrows the window
        # again and again while removals run (W: 128 -> 1024 here).
        grows = []
        cover = VectorProcessBase._cover

        def counted_cover(proc, label, count):
            window = proc._window
            cover(proc, label, count)
            if proc._window > window:
                grows.append(label)

        monkeypatch.setattr(VectorProcessBase, "_cover", counted_cover)
        n, prefill, steps = 64, 64, 6000
        cap = prefill + steps
        mirror = ReferenceMirror(n, 0.0, SEEDS)
        vec = VectorSingleChoiceProcess(n, cap, len(SEEDS), source=mirror)
        result = vec.run_steady_state(prefill, steps)
        assert len([label for label in grows if label > prefill]) >= 3, grows
        for r, seed in enumerate(SEEDS):
            ref = SingleChoiceProcess(n, cap, rng=np.random.default_rng(seed))
            trace = ref.run_steady_state(prefill, steps)
            np.testing.assert_array_equal(result.ranks[:, r], trace.ranks)
            np.testing.assert_array_equal(vec.queue_sizes()[r], ref.queue_sizes())
            assert result.empty_redraws[r] == ref.empty_redraws

    def test_round_robin_matches_reference(self):
        n, prefill, steps = 8, 400, 150
        cap = prefill + steps
        mirror = ReferenceMirror(n, 1.0, SEEDS)
        vec = VectorRoundRobinProcess(n, cap, len(SEEDS), beta=1.0, source=mirror)
        result = vec.run_steady_state(prefill, steps)
        counts = vec.removal_counts()
        for r, seed in enumerate(SEEDS):
            ref = RoundRobinProcess(n, cap, beta=1.0, rng=np.random.default_rng(seed))
            trace = ref.run_steady_state(prefill, steps)
            np.testing.assert_array_equal(result.ranks[:, r], trace.ranks)
            np.testing.assert_array_equal(counts[r], ref.removal_counts())


class TestDistributionalParity:
    @pytest.mark.parametrize("beta", [1.0, 0.5])
    def test_rank_law_ks(self, beta):
        n, prefill, steps, replicas = 32, 3000, 4000, 10
        ref = run_reference_backend(n, beta, prefill, steps, replicas, seed=5)
        vec = run_vector_backend(n, beta, prefill, steps, replicas, seed=99)
        _, p = ks_2sample(_ks_sample(ref.ranks), _ks_sample(vec.ranks))
        assert p > 1e-3, f"rank laws differ (p={p:.2e})"

    def test_mean_rank_within_spread(self):
        n, prefill, steps, replicas = 32, 3000, 4000, 16
        ref = run_reference_backend(n, 1.0, prefill, steps, replicas, seed=5)
        vec = run_vector_backend(n, 1.0, prefill, steps, replicas, seed=99)
        ref_means = ref.ranks.mean(axis=0)
        vec_means = vec.ranks.mean(axis=0)
        pooled_sd = max(ref_means.std(ddof=1), vec_means.std(ddof=1))
        assert abs(ref_means.mean() - vec_means.mean()) < 4 * pooled_sd


class TestVectorApiEdges:
    def test_capacity_exhaustion(self):
        vec = VectorSequentialProcess(4, 100, 3, rng=0)
        with pytest.raises(RuntimeError, match="capacity"):
            vec.run_steady_state(80, 40)

    def test_capacity_beyond_int32_links_refused(self):
        with pytest.raises(ValueError, match=r"2\*\*31 - 1"):
            VectorSequentialProcess(4, 2**31, 1, rng=0)

    def test_drain_empty_raises(self):
        vec = VectorSequentialProcess(4, 50, 3, rng=0)
        vec.prefill(10)
        with pytest.raises(LookupError):
            vec.run_drain(11)

    def test_insert_probs_length_validated(self):
        with pytest.raises(ValueError):
            VectorSequentialProcess(4, 50, 2, insert_probs=np.ones(3) / 3)

    def test_bad_d(self):
        with pytest.raises(ValueError):
            VectorDChoiceProcess(4, 50, 2, d=0)

    def test_trace_roundtrip(self):
        vec = VectorSequentialProcess(8, 2000, 4, rng=3)
        result = vec.run_steady_state(1000, 500)
        trace = result.trace(2)
        assert len(trace) == 500
        np.testing.assert_array_equal(trace.ranks, result.ranks[:, 2])
        summary = result.summary()
        assert summary["replicas"] == 4
        assert summary["mean_rank"] > 0
