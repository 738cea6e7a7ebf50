"""Tests for the RankOracle and the offline replay that must match it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rank import RankOracle, offline_ranks


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            RankOracle(0)

    def test_insert_and_rank(self):
        oracle = RankOracle(10)
        for label in (2, 5, 7):
            oracle.insert(label)
        assert oracle.rank(2) == 1
        assert oracle.rank(5) == 2
        assert oracle.rank(7) == 3

    def test_double_insert_rejected(self):
        oracle = RankOracle(4)
        oracle.insert(1)
        with pytest.raises(ValueError):
            oracle.insert(1)

    def test_insert_beyond_capacity_raises_value_error(self):
        # Regression: exceeding the label universe used to surface as an
        # opaque IndexError from the Fenwick layer; it must be a clear
        # ValueError naming the capacity.
        oracle = RankOracle(4)
        for label in range(4):
            oracle.insert(label)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            oracle.insert(4)

    def test_negative_label_rejected(self):
        oracle = RankOracle(4)
        with pytest.raises(ValueError, match="outside"):
            oracle.insert(-1)

    def test_rank_of_absent_label_raises(self):
        oracle = RankOracle(4)
        with pytest.raises(KeyError):
            oracle.rank(2)

    def test_remove_returns_rank_and_frees(self):
        oracle = RankOracle(10)
        for label in (1, 4, 8):
            oracle.insert(label)
        assert oracle.remove(4) == 2
        assert oracle.rank(8) == 2
        oracle.insert(4)  # re-insertion allowed after removal
        assert oracle.rank(4) == 2

    def test_contains(self):
        oracle = RankOracle(4)
        oracle.insert(3)
        assert 3 in oracle
        assert 1 not in oracle

    def test_rank_of_value_counts_at_most(self):
        oracle = RankOracle(10)
        for label in (2, 4, 6):
            oracle.insert(label)
        assert oracle.rank_of_value(5) == 2
        assert oracle.rank_of_value(1) == 0

    def test_kth_smallest_and_min(self):
        oracle = RankOracle(16)
        for label in (9, 3, 12):
            oracle.insert(label)
        assert oracle.min_label() == 3
        assert oracle.kth_smallest(2) == 9
        assert oracle.kth_smallest(3) == 12

    def test_min_on_empty_raises(self):
        with pytest.raises(LookupError):
            RankOracle(4).min_label()

    def test_present_count(self):
        oracle = RankOracle(8)
        oracle.insert(0)
        oracle.insert(7)
        assert oracle.present_count == 2
        oracle.remove(0)
        assert oracle.present_count == 1

    def test_repr(self):
        assert "capacity=8" in repr(RankOracle(8))


@settings(max_examples=80, deadline=None)
@given(
    labels=st.sets(st.integers(min_value=0, max_value=199), min_size=1, max_size=80),
    probe=st.integers(min_value=0, max_value=79),
)
def test_rank_matches_sorted_position(labels, probe):
    """Property: rank(x) is x's 1-based position in sorted(present)."""
    oracle = RankOracle(200)
    for lab in labels:
        oracle.insert(lab)
    ordered = sorted(labels)
    target = ordered[probe % len(ordered)]
    assert oracle.rank(target) == ordered.index(target) + 1


@settings(max_examples=50, deadline=None)
@given(
    labels=st.lists(
        st.integers(min_value=0, max_value=99), min_size=1, max_size=60, unique=True
    )
)
def test_remove_in_insertion_order_tracks_shrinking_ranks(labels):
    oracle = RankOracle(100)
    for lab in labels:
        oracle.insert(lab)
    present = sorted(labels)
    for lab in labels:
        expected = present.index(lab) + 1
        assert oracle.remove(lab) == expected
        present.remove(lab)


def oracle_ranks(kinds, keys, universe, sample_every=1):
    """A :class:`RankOracle` replay: the executable spec of ``offline_ranks``."""
    oracle = RankOracle(universe)
    ranks = []
    deletes = 0
    for kind, key in zip(kinds, keys):
        if kind > 0:
            oracle.insert(int(key))
        elif kind < 0:
            rank = oracle.remove(int(key))
            if deletes % sample_every == 0:
                ranks.append(rank)
            deletes += 1
    return np.asarray(ranks, dtype=np.int64)


def random_stream(seed, universe, length, delete_rate, noise_rate):
    """A valid insert/delete stream over ``[0, universe)``: inserts take
    keys in a random order (so 0 and ``universe - 1`` both appear once
    the stream is long enough), deletes remove a random present key, and
    no-op events (kind 0) carry key -1."""
    rng = np.random.default_rng(seed)
    fresh = list(rng.permutation(universe))
    present = []
    kinds, keys = [], []
    for _ in range(length):
        if rng.random() < noise_rate:
            kinds.append(0)
            keys.append(-1)
        elif present and (not fresh or rng.random() < delete_rate):
            kinds.append(-1)
            keys.append(present.pop(int(rng.integers(len(present)))))
        elif fresh:
            kinds.append(1)
            keys.append(fresh.pop())
            present.append(keys[-1])
    return np.asarray(kinds, dtype=np.int64), np.asarray(keys, dtype=np.int64)


class TestOfflineRanks:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        universe=st.integers(min_value=1, max_value=300),
        length=st.integers(min_value=0, max_value=700),
        delete_rate=st.floats(min_value=0.0, max_value=0.9),
        noise_rate=st.sampled_from([0.0, 0.1]),
        sample_every=st.sampled_from([1, 2, 7, 16]),
    )
    def test_matches_a_rank_oracle_replay(
        self, seed, universe, length, delete_rate, noise_rate, sample_every
    ):
        kinds, keys = random_stream(seed, universe, length, delete_rate, noise_rate)
        got = offline_ranks(kinds, keys, universe, sample_every)
        want = oracle_ranks(kinds, keys, universe, sample_every)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("sample_every", [1, 3])
    def test_many_chunks(self, sample_every):
        kinds, keys = random_stream(5, 4000, 20_000, 0.45, 0.05)
        assert set(keys[kinds > 0].tolist()) >= {0, 3999}
        got = offline_ranks(kinds, keys, 4000, sample_every)
        assert got.size == -(-np.count_nonzero(kinds < 0) // sample_every)
        assert got.tobytes() == oracle_ranks(kinds, keys, 4000, sample_every).tobytes()

    def test_empty_stream(self):
        empty = np.empty(0, dtype=np.int64)
        assert offline_ranks(empty, empty, 8).size == 0

    def test_one_event(self):
        assert offline_ranks([1], [3], 8).size == 0
        assert offline_ranks([0], [-1], 8).size == 0

    def test_keys_at_both_ends_of_the_universe(self):
        # Insert U-1, 0 and 4; delete U-1 (rank 3), then 0 (rank 1).
        kinds = [1, 1, 1, -1, -1]
        keys = [9, 0, 4, 9, 0]
        assert offline_ranks(kinds, keys, 10).tolist() == [3, 1]
        assert offline_ranks(kinds, keys, 10, sample_every=2).tolist() == [3]

    def test_bad_sample_every(self):
        with pytest.raises(ValueError, match="sample_every"):
            offline_ranks([1], [0], 4, 0)

    @pytest.mark.parametrize("key", [-1, 4])
    def test_key_outside_universe(self, key):
        with pytest.raises(ValueError, match="label universe"):
            offline_ranks([1], [key], 4)
