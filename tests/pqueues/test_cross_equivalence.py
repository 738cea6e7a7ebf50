"""Property test: the binary heap behaves exactly like the oracle.

The stable-FIFO contract makes the queues observationally equivalent, so
hypothesis drives random op sequences against the trivially-correct
SortedListPQ oracle and demands byte-identical behaviour from BinaryHeap.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pqueues import BinaryHeap, QueueEmptyError, SortedListPQ

# Op encoding: (True, priority, payload) = push; (False, _, _) = pop.
ops_strategy = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=0, max_value=5),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_matches_sorted_list_oracle(ops):
    candidate = BinaryHeap()
    oracle = SortedListPQ()
    for is_push, priority, payload in ops:
        if is_push:
            candidate.push(priority, (priority, payload))
            oracle.push(priority, (priority, payload))
        else:
            if len(oracle) == 0:
                with pytest.raises(QueueEmptyError):
                    candidate.pop()
                continue
            assert candidate.pop() == oracle.pop()
        assert len(candidate) == len(oracle)
        if len(oracle):
            assert candidate.peek() == oracle.peek()
    # Drain remainders in lockstep.
    while len(oracle):
        assert candidate.pop() == oracle.pop()

