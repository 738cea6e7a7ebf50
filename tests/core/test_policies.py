"""Tests for insertion distributions and removal choice policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    RemovalChooser,
    biased_insert_probs,
    effective_gamma,
    insert_cuts,
    removal_rank_probabilities,
    uniform_insert_probs,
)


class TestUniform:
    def test_sums_to_one(self):
        pi = uniform_insert_probs(7)
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi, 1 / 7)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            uniform_insert_probs(0)


class TestBiased:
    @pytest.mark.parametrize("pattern", ["two-point", "linear", "random"])
    @pytest.mark.parametrize("gamma", [0.1, 0.3, 0.5])
    def test_respects_gamma_bound(self, pattern, gamma):
        pi = biased_insert_probs(16, gamma, pattern=pattern, rng=3)
        assert pi.sum() == pytest.approx(1.0)
        assert effective_gamma(pi) <= gamma + 1e-9

    def test_gamma_zero_is_uniform(self):
        pi = biased_insert_probs(8, 0.0)
        assert np.allclose(pi, 1 / 8)

    def test_two_point_is_genuinely_biased(self):
        pi = biased_insert_probs(8, 0.4, pattern="two-point")
        assert effective_gamma(pi) == pytest.approx(0.4, rel=1e-6)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            biased_insert_probs(8, 1.0)
        with pytest.raises(ValueError):
            biased_insert_probs(8, -0.1)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            biased_insert_probs(8, 0.2, pattern="bogus")


class TestEffectiveGamma:
    def test_uniform_has_zero_bias(self):
        assert effective_gamma(uniform_insert_probs(5)) == pytest.approx(0.0)

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            effective_gamma(np.array([0.5, 0.4]))

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            effective_gamma(np.array([1.0, 0.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            effective_gamma(np.array([]))


class TestRemovalRankProbabilities:
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_sums_to_one(self, n, beta):
        p = removal_rank_probabilities(n, beta)
        assert p.sum() == pytest.approx(1.0)

    def test_beta_zero_is_uniform(self):
        p = removal_rank_probabilities(10, 0.0)
        assert np.allclose(p, 0.1)

    def test_decreasing_in_rank_for_positive_beta(self):
        p = removal_rank_probabilities(16, 0.8)
        assert np.all(np.diff(p) < 0)

    def test_matches_with_replacement_sampling(self):
        """p_i equals the min-of-two-uniform-draws distribution."""
        n = 8
        p = removal_rank_probabilities(n, 1.0)
        # P(min rank == i) for two with-replacement draws.
        expected = [((n - i + 1) ** 2 - (n - i) ** 2) / n**2 for i in range(1, n + 1)]
        assert np.allclose(p, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            removal_rank_probabilities(0, 0.5)
        with pytest.raises(ValueError):
            removal_rank_probabilities(4, 1.5)


class TestRemovalChooser:
    def test_beta_one_always_two_choices(self):
        chooser = RemovalChooser(8, 1.0, rng=1)
        for _ in range(50):
            two, i, j = chooser.draw()
            assert two and j is not None
            assert 0 <= i < 8 and 0 <= j < 8

    def test_beta_zero_never_two_choices(self):
        chooser = RemovalChooser(8, 0.0, rng=1)
        for _ in range(50):
            two, i, j = chooser.draw()
            assert not two and j is None

    def test_beta_mixing_frequency(self):
        chooser = RemovalChooser(4, 0.3, rng=7)
        draws = [chooser.draw()[0] for _ in range(4000)]
        assert 0.25 < np.mean(draws) < 0.35

    def test_deterministic_given_seed(self):
        a = [RemovalChooser(8, 0.5, rng=9).draw() for _ in range(1)]
        b = [RemovalChooser(8, 0.5, rng=9).draw() for _ in range(1)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            RemovalChooser(0, 0.5)
        with pytest.raises(ValueError):
            RemovalChooser(4, -0.1)


class TestInsertCuts:
    def test_uniform_has_no_cuts(self):
        assert insert_cuts(None) is None

    def test_degenerate_law_pins_the_queue(self):
        cuts = insert_cuts(np.array([0.0, 0.0, 1.0, 0.0]))
        assert cuts.size == 3
        draws = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert np.searchsorted(cuts, draws, side="right").tolist() == [2, 2, 2]

    def test_frequencies_follow_the_law(self):
        pi = biased_insert_probs(8, 0.5)
        u = np.random.default_rng(0).random(80_000)
        queues = np.searchsorted(insert_cuts(pi), u, side="right")
        assert queues.max() == 7
        np.testing.assert_allclose(np.bincount(queues, minlength=8) / u.size, pi, atol=0.01)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    gamma=st.floats(min_value=0.01, max_value=0.6),
)
def test_two_point_bias_always_valid(n, gamma):
    pi = biased_insert_probs(n, gamma, pattern="two-point")
    assert pi.sum() == pytest.approx(1.0)
    assert effective_gamma(pi) <= gamma + 1e-9
