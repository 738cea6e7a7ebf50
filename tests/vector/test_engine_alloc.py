"""The vector engine's bulk prefill against a plain per-replica loop.

``_alloc_from_assignment`` groups each replica's labels by queue with a
stable sort of ``uint16`` keys (``int64`` above 65536 queues) and links
every label to the next one in that grouping.  The reference below lists
each queue's labels in order with plain Python lists; walking the
successor links from every top must reproduce each list.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vector.engine import EMPTY, VectorProcessBase, queue_key_type


def _reference_queues(assign: np.ndarray, n: int):
    """``lists[r][q]``: the labels of replica ``r``'s queue ``q``, in order."""
    lists = []
    for row in assign.tolist():
        queues = [[] for _ in range(n)]
        for label, q in enumerate(row):
            queues[q].append(label)
        lists.append(queues)
    return lists


def _walk(proc, r: int, top: int, size: int):
    """``size`` labels from ``top`` on, following replica ``r``'s links."""
    labels, x = [], top
    for _ in range(size):
        labels.append(x)
        x = int(proc._next[r, x & (proc._window - 1)])
    return labels


@st.composite
def assignments(draw):
    """An ``(R, m)`` queue assignment plus the layout to pass it in.

    Labels go to a drawn subset of the queues, so most draws leave some
    queues without a label.  Above the ``uint16`` key limit the
    ``(R, n)`` state is 65537 words per replica, so those draws stay tiny.
    """
    n = draw(st.sampled_from([1, 2, 7, 300, 1 << 16, (1 << 16) + 1]))
    large = n >= 1 << 16
    replicas = draw(st.integers(1, 2 if large else 4))
    m = draw(st.integers(0, 3 if large else 400))
    used = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    assign = rng.choice(np.asarray(used, dtype=np.int64), size=(replicas, m))
    layout = draw(st.sampled_from(["int64", "step-major"]))
    return n, assign, layout


@settings(max_examples=60, deadline=None)
@given(assignments())
def test_alloc_matches_reference_loop(case):
    n, assign, layout = case
    replicas, m = assign.shape
    if layout == "step-major":
        # What prefill passes: a transposed view of (m, R) queue keys.
        given_assign = np.ascontiguousarray(assign.T, dtype=queue_key_type(n)).T
    else:
        given_assign = assign
    proc = VectorProcessBase(n, max(m, 1), replicas, source=None)
    proc._alloc_from_assignment(given_assign)
    lists = _reference_queues(assign, n)
    window = proc._window
    assert window & (window - 1) == 0 and window >= m
    sizes = np.array([[len(q) for q in queues] for queues in lists])
    np.testing.assert_array_equal(proc._size, sizes)
    for r, queues in enumerate(lists):
        for q in set(assign[r].tolist()):
            labels = queues[q]
            assert proc._tops[r, q] == labels[0]
            assert proc._last[r, q] == labels[-1]
            assert _walk(proc, r, labels[0], len(labels)) == labels
    np.testing.assert_array_equal(proc._tops == EMPTY, sizes == 0)
    assert proc._may_have_empty == bool((sizes == 0).any())
    # The flat views alias the rebuilt state arrays.
    for flat, full in (
        (proc._next_flat, proc._next),
        (proc._last_flat, proc._last),
        (proc._size_flat, proc._size),
        (proc._tops_flat, proc._tops),
    ):
        assert flat.ndim == 1 and np.shares_memory(flat, full)
