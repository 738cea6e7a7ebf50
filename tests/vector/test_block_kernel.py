"""The block kernel against the per-step kernel, and block draws against
per-step draws.

``VectorSequentialProcess.run_steady_state`` advances whole blocks of
steps through ``_block_step`` when no candidate queue can run dry, and
falls back to the per-step ``_append``/``_pop_step`` kernel on the same
draws otherwise.  Hiding a source's block draws behind
:class:`PerStepOnly` forces the per-step kernel everywhere, so the two
runs of one seed must agree exactly.  The block draws themselves must
consume the generator exactly as the per-step calls they replace.
"""

import numpy as np
import pytest

from repro.core.policies import biased_insert_probs
from repro.vector.chooser import ArrayChoiceSource, BatchedChooser, ReferenceMirror
from repro.vector.engine import EMPTY, VectorProcessBase
from repro.vector.labelled import VectorRoundRobinProcess, VectorSequentialProcess

#: 16 labels per queue: blocks both pass and fail the exactness test in
#: one run (at 8 per queue every 64-step block fails).
N, PREFILL, STEPS, REPLICAS, SEED = 64, 1024, 3000, 8, 7


class PerStepOnly:
    """A choice source with its block draws hidden."""

    def __init__(self, source):
        self._source = source

    def insert_queues(self):
        return self._source.insert_queues()

    def removal_draws(self):
        return self._source.removal_draws()

    def removal_redraws(self, rows):
        return self._source.removal_redraws(rows)


@pytest.fixture
def spy(monkeypatch):
    """Count exact and fallback blocks, and link-window growths."""
    seen = {"exact": 0, "fallback": 0, "grow": 0}
    block_step = VectorProcessBase._block_step
    cover = VectorProcessBase._cover

    def spied_block_step(proc, *args):
        picks = block_step(proc, *args)
        seen["fallback" if picks is None else "exact"] += 1
        return picks

    def spied_cover(proc, label, count):
        window = proc._window
        cover(proc, label, count)
        seen["grow"] += proc._window > window

    monkeypatch.setattr(VectorProcessBase, "_block_step", spied_block_step)
    monkeypatch.setattr(VectorProcessBase, "_cover", spied_cover)
    return seen


def _pair(cls, bulk=None, sample_every=None, **kwargs):
    """Run one seed through the block kernel and through the per-step one.

    ``bulk`` labels are prefilled in one shot, the rest of the prefill
    by ``insert()``.
    """
    cap = PREFILL + STEPS
    probs = kwargs.get("insert_probs")
    beta = kwargs.get("beta", 1.0)
    procs = []
    for wrap in (lambda s: s, PerStepOnly):
        source = BatchedChooser(N, beta, REPLICAS, rng=SEED, insert_probs=probs)
        proc = cls(N, cap, REPLICAS, source=wrap(source), **kwargs)
        proc.prefill(PREFILL if bulk is None else bulk)
        result = proc.run_steady_state(
            PREFILL - proc.labels_inserted, STEPS, sample_every=sample_every
        )
        procs.append((proc, result))
    return procs


def _assert_same(blocked, stepped):
    (bp, br), (sp, sr) = blocked, stepped
    np.testing.assert_array_equal(br.ranks, sr.ranks)
    np.testing.assert_array_equal(br.empty_redraws, sr.empty_redraws)
    np.testing.assert_array_equal(bp.queue_sizes(), sp.queue_sizes())
    np.testing.assert_array_equal(bp.top_labels(), sp.top_labels())
    assert bp.removal_steps == sp.removal_steps
    assert bp.labels_inserted == sp.labels_inserted


class TestBlockKernelMatchesPerStep:
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_steady_state(self, beta, spy):
        blocked, stepped = _pair(VectorSequentialProcess, beta=beta)
        _assert_same(blocked, stepped)
        assert spy["exact"] and spy["fallback"], spy

    def test_biased_insertion(self, spy):
        probs = biased_insert_probs(N, 0.5)
        _assert_same(*_pair(VectorSequentialProcess, beta=1.0, insert_probs=probs))
        assert spy["exact"] and spy["fallback"], spy

    def test_sampled(self, spy):
        blocked, stepped = _pair(VectorSequentialProcess, beta=0.5, sample_every=250)
        _assert_same(blocked, stepped)
        (_, br), (_, sr) = blocked, stepped
        np.testing.assert_array_equal(br.sample_steps, sr.sample_steps)
        np.testing.assert_array_equal(br.max_top_ranks, sr.max_top_ranks)
        np.testing.assert_array_equal(br.mean_top_ranks, sr.mean_top_ranks)
        assert spy["exact"], spy

    def test_blocks_after_a_window_grow(self, spy):
        # A one-label-per-queue bulk prefill sizes the link window for
        # 2N labels; the insert()-driven fill must widen it before the
        # blocks run.
        _assert_same(*_pair(VectorSequentialProcess, bulk=N))
        assert spy["grow"] and spy["exact"], spy

    def test_round_robin(self, spy):
        blocked, stepped = _pair(VectorRoundRobinProcess, beta=0.5)
        _assert_same(blocked, stepped)
        np.testing.assert_array_equal(
            blocked[0].removal_counts(), stepped[0].removal_counts()
        )
        assert spy["exact"], spy


def test_a_queue_that_can_run_dry_fails_the_block(spy):
    # Queue 0 holds one label and is one removal candidate: as many
    # candidacies as labels, so the step must run per step and leave
    # queue 0 empty, not read a stale successor.
    source = ArrayChoiceSource(
        two=np.array([[False]]),
        i=np.array([[0]]),
        j=np.array([[1]]),
        insert_q=np.array([[0], [1], [1], [1]]),
    )
    proc = VectorSequentialProcess(2, 4, 1, source=source)
    result = proc.run_steady_state(3, 1)
    assert spy == {"exact": 0, "fallback": 1, "grow": 0}
    np.testing.assert_array_equal(result.ranks, [[1]])
    np.testing.assert_array_equal(proc.queue_sizes(), [[0, 3]])
    np.testing.assert_array_equal(proc.top_labels(), [[EMPTY, 1]])


@pytest.mark.parametrize("beta", [1.0, 0.6, 0.0])
def test_mirror_parity_shapes_reach_the_block_kernel(beta, spy):
    # The shape of test_parity_labelled's steady-state trace parity.
    n, prefill, steps, seeds = 16, 400, 403, list(range(10))
    mirror = ReferenceMirror(n, beta, seeds)
    vec = VectorSequentialProcess(n, prefill + steps, len(seeds), beta=beta, source=mirror)
    vec.run_steady_state(prefill, steps, sample_every=50)
    assert spy["exact"] > 0, spy


def _chooser(beta, chunk, biased):
    probs = biased_insert_probs(16, 0.5) if biased else None
    return BatchedChooser(16, beta, 3, rng=11, insert_probs=probs, chunk=chunk)


def _assert_rows(block, steps):
    for got, want in zip(block, steps):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("biased", [False, True])
@pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("chunk", [2048, 5])
class TestBlockDrawsConsumeLikeSteps:
    def test_steady_state_draws(self, chunk, beta, biased):
        blocked, stepped = _chooser(beta, chunk, biased), _chooser(beta, chunk, biased)
        sizes = np.random.default_rng(3)
        prefill = 2 * chunk + 3  # not a chunk multiple
        done = 0
        while done < prefill:
            b = min(int(sizes.integers(1, 70)), prefill - done)
            rows = blocked.insert_block(b)
            assert 1 <= len(rows) <= b
            for row in rows:
                np.testing.assert_array_equal(row, stepped.insert_queues())
            done += len(rows)
        for _ in range(60):
            b = int(sizes.integers(1, 70))
            ins, two, i, j = blocked.step_block(b)
            assert 1 <= len(ins) == len(two) == len(i) == len(j) <= b
            for t in range(len(ins)):
                np.testing.assert_array_equal(ins[t], stepped.insert_queues())
                _assert_rows((two[t], i[t], j[t]), stepped.removal_draws())
                if sizes.random() < 0.05:  # a fallback step's redraw
                    _assert_rows(blocked.removal_redraws(2), stepped.removal_redraws(2))
        assert blocked._rng.bit_generator.state == stepped._rng.bit_generator.state

    def test_removal_only_draws(self, chunk, beta, biased):
        # Round-robin processes draw removals only.
        blocked, stepped = _chooser(beta, chunk, biased), _chooser(beta, chunk, biased)
        sizes = np.random.default_rng(4)
        for _ in range(60):
            two, i, j = blocked.removal_block(int(sizes.integers(1, 70)))
            for t in range(len(i)):
                _assert_rows((two[t], i[t], j[t]), stepped.removal_draws())
        assert blocked._rng.bit_generator.state == stepped._rng.bit_generator.state
