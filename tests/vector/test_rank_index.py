"""BatchedRankIndex vs the reference RankOracle, replica by replica."""

import numpy as np
import pytest

from repro.core.rank import RankOracle
from repro.vector.index import BLOCK, BatchedRankIndex


def _mirrored(replicas, capacity):
    index = BatchedRankIndex(replicas, capacity)
    oracles = [RankOracle(capacity) for _ in range(replicas)]
    return index, oracles


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            BatchedRankIndex(0, 10)
        with pytest.raises(ValueError):
            BatchedRankIndex(2, 0)

    def test_insert_out_of_range(self):
        index = BatchedRankIndex(2, 10)
        with pytest.raises(ValueError):
            index.insert_all(10)
        with pytest.raises(ValueError):
            index.insert_all(-1)

    def test_duplicate_insert(self):
        index = BatchedRankIndex(2, 10)
        index.insert_all(3)
        with pytest.raises(ValueError):
            index.insert_all(3)

    def test_remove_absent_label(self):
        index = BatchedRankIndex(2, 10)
        index.insert_all(3)
        with pytest.raises(KeyError):
            index.remove(np.array([3, 4]))

    def test_remove_bad_shape(self):
        index = BatchedRankIndex(2, 10)
        with pytest.raises(ValueError):
            index.remove(np.array([1, 2, 3]))

    def test_bulk_fill_requires_empty(self):
        index = BatchedRankIndex(2, 10)
        index.insert_all(0)
        with pytest.raises(ValueError):
            index.bulk_fill(5)

    def test_grid_bad_shape(self):
        index = BatchedRankIndex(2, 10)
        with pytest.raises(ValueError):
            index.count_leq_grid(np.zeros((3, 4), dtype=np.int64))


class TestAgainstOracle:
    @pytest.mark.parametrize("capacity", [50, BLOCK, 1000])
    def test_ranks_match_oracle_over_random_run_capacities(self, capacity):
        replicas = 4
        rng = np.random.default_rng(7)
        index, oracles = _mirrored(replicas, capacity)
        present = [[] for _ in range(replicas)]
        next_label = 0
        for _ in range(2 * capacity):
            if next_label < capacity and (next_label < 5 or rng.random() < 0.55):
                index.insert_all(next_label)
                for r in range(replicas):
                    oracles[r].insert(next_label)
                    present[r].append(next_label)
                next_label += 1
            elif present[0]:
                labels = np.array(
                    [present[r][rng.integers(len(present[r]))] for r in range(replicas)]
                )
                expected = np.array(
                    [oracles[r].remove(int(labels[r])) for r in range(replicas)]
                )
                np.testing.assert_array_equal(index.remove(labels), expected)
                for r in range(replicas):
                    present[r].remove(int(labels[r]))
        assert index.present_count == oracles[0].present_count

    def test_ranks_match_oracle_over_random_run(self):
        replicas, capacity = 3, 600
        rng = np.random.default_rng(3)
        index, oracles = _mirrored(replicas, capacity)
        present = [[] for _ in range(replicas)]
        next_label = 0
        for _ in range(400):
            if next_label < capacity and (next_label < 20 or rng.random() < 0.55):
                index.insert_all(next_label)
                for r in range(replicas):
                    oracles[r].insert(next_label)
                    present[r].append(next_label)
                next_label += 1
            elif present[0]:
                labels = np.array(
                    [present[r][rng.integers(len(present[r]))] for r in range(replicas)]
                )
                expected = np.array(
                    [oracles[r].remove(int(labels[r])) for r in range(replicas)]
                )
                got = index.remove(labels)
                np.testing.assert_array_equal(got, expected)
                for r in range(replicas):
                    present[r].remove(int(labels[r]))
        assert index.present_count == oracles[0].present_count

    def test_ranks_of_and_grid(self):
        replicas, capacity = 2, 300
        index, oracles = _mirrored(replicas, capacity)
        for label in range(0, capacity, 3):
            index.insert_all(label)
            for o in oracles:
                o.insert(label)
        labels = np.array([30, 153])
        np.testing.assert_array_equal(
            index.ranks_of(labels),
            [oracles[0].rank(30), oracles[1].rank(153)],
        )
        grid = np.array([[0, 5, 299], [1, 100, 298]])
        expected = np.array(
            [[oracles[r].rank_of_value(int(x)) for x in grid[r]] for r in range(replicas)]
        )
        np.testing.assert_array_equal(index.count_leq_grid(grid), expected)

    def test_bulk_fill_matches_inserts(self):
        for m in (0, 1, 63, 64, BLOCK, BLOCK + 1, 500):
            a = BatchedRankIndex(2, 512)
            a.bulk_fill(m)
            b = BatchedRankIndex(2, 512)
            for label in range(m):
                b.insert_all(label)
            assert a.present_count == b.present_count == m
            grid = np.tile(np.arange(0, 512, 17), (2, 1))
            np.testing.assert_array_equal(a.count_leq_grid(grid), b.count_leq_grid(grid))

    def test_apply_chunk_matches_stepwise(self):
        replicas, capacity = 3, 800
        rng = np.random.default_rng(11)
        stepwise = BatchedRankIndex(replicas, capacity)
        chunked = BatchedRankIndex(replicas, capacity)
        for label in range(300):
            stepwise.insert_all(label)
            chunked.insert_all(label)
        # Chunk: insert labels 300..363, remove 64 distinct per replica.
        removed = np.stack(
            [rng.choice(300, size=64, replace=False) for _ in range(replicas)], axis=1
        )
        for t in range(64):
            stepwise.insert_all(300 + t)
            stepwise.remove(removed[t])
        chunked.apply_chunk(300, 64, removed)
        assert stepwise.present_count == chunked.present_count
        grid = np.tile(np.arange(0, capacity, 13), (replicas, 1))
        np.testing.assert_array_equal(
            stepwise.count_leq_grid(grid), chunked.count_leq_grid(grid)
        )
        # A chunk of colliding removals, which one scatter per level
        # would undercount: replica 0 clears one whole bit-word (labels
        # 0..63 share a word, a block and a superblock), replica 1 takes
        # 64 labels from both words of block 1, replica 2 64 labels
        # spread over the blocks of superblock 1.
        stepwise = BatchedRankIndex(replicas, capacity)
        chunked = BatchedRankIndex(replicas, capacity)
        for label in range(600):
            stepwise.insert_all(label)
            chunked.insert_all(label)
        span = chunked._per_super * BLOCK
        removed = np.stack(
            [
                np.arange(64),
                BLOCK + np.arange(0, BLOCK, 2),
                span + rng.choice(span, size=64, replace=False),
            ],
            axis=1,
        )
        for t in range(64):
            stepwise.insert_all(600 + t)
            stepwise.remove(removed[t])
        chunked.apply_chunk(600, 64, removed)
        assert stepwise.present_count == chunked.present_count
        np.testing.assert_array_equal(
            stepwise.count_leq_grid(grid), chunked.count_leq_grid(grid)
        )
        np.testing.assert_array_equal(stepwise._bits, chunked._bits)
        np.testing.assert_array_equal(stepwise._blocks, chunked._blocks)
        np.testing.assert_array_equal(stepwise._supers, chunked._supers)

    def test_apply_chunk_insert_range_validation(self):
        index = BatchedRankIndex(2, 100)
        with pytest.raises(ValueError):
            index.apply_chunk(90, 20, None)
