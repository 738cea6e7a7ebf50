"""A uniform draw just below 1 must land in the last queue.

``np.cumsum`` of a biased insertion law can end just below 1
(``0.9999999999999984`` for ``biased_insert_probs(100, 0.5)``), while
``Generator.random()`` can return ``nextafter(1, 0)``.  A
``searchsorted`` over every cut then answers ``n``, one past the last
queue: the core processes would raise ``IndexError``, and the vector
engine's flat index ``r * n + n`` would write replica ``r + 1``'s queue
0.  Every sampler searches all cuts but the last instead.
"""

import numpy as np
import pytest

from repro.core.general import GeneralPriorityProcess
from repro.core.multiqueue import MultiQueue
from repro.core.policies import biased_insert_probs
from repro.core.process import SequentialProcess
from repro.vector.chooser import BatchedChooser, ReferenceMirror
from repro.vector.labelled import VectorSequentialProcess

N = 100
PROBS = biased_insert_probs(N, 0.5)
TOP = np.nextafter(1.0, 0.0)


class TopDraw:
    """A generator stand-in whose uniform draws are all ``TOP``."""

    def random(self, size=None):
        return TOP if size is None else np.full(size, TOP)


def test_the_case_is_real():
    assert np.cumsum(PROBS)[-1] < TOP


@pytest.mark.parametrize(
    "make",
    [
        lambda: SequentialProcess(N, 10, insert_probs=PROBS, rng=0),
        lambda: MultiQueue(N, insert_probs=PROBS, rng=0),
        lambda: GeneralPriorityProcess(list(range(10)), N, insert_probs=PROBS, rng=0),
    ],
    ids=["sequential", "multiqueue", "general"],
)
def test_core_samplers_pick_the_last_queue(make):
    proc = make()
    proc._rng = TopDraw()
    queue = proc.insert(0) if isinstance(proc, MultiQueue) else proc.insert()
    assert queue == N - 1


def test_batched_chooser_picks_the_last_queue():
    replicas = 3
    chooser = BatchedChooser(N, 1.0, replicas, rng=0, insert_probs=PROBS)
    chooser._rng = TopDraw()
    proc = VectorSequentialProcess(
        N, 10, replicas, insert_probs=PROBS, source=chooser
    )
    proc.prefill(2)
    sizes = proc.queue_sizes()
    # Every replica's labels sit in its own last queue, none in a neighbour's.
    assert (sizes[:, N - 1] == 2).all()
    assert sizes.sum() == 2 * replicas


def test_reference_mirror_picks_the_last_queue():
    mirror = ReferenceMirror(N, 1.0, [0, 1], insert_probs=PROBS)
    mirror._gens = [TopDraw(), TopDraw()]
    np.testing.assert_array_equal(mirror.insert_queues(), [N - 1, N - 1])
