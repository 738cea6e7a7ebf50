"""Insertion distributions and removal-choice policies (Section 3).

The process is parameterized by

* an insertion distribution ``pi`` over the ``n`` queues, with bounded
  bias: there is ``gamma in (0, 1)`` such that for every queue ``i``,
  ``1 - gamma <= 1 / (n * pi_i) <= 1 + gamma``;
* a two-choice probability ``beta``: each removal flips a beta-coin and
  inspects two uniformly random queues (with replacement — this matches
  the paper's ``p_i`` formula) on heads, one on tails.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rngtools import SeedLike, as_generator


def uniform_insert_probs(n: int) -> np.ndarray:
    """The unbiased insertion distribution: ``pi_i = 1/n``."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    return np.full(n, 1.0 / n)


def insert_cuts(insert_probs: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Searchable cuts of an insertion law, or ``None`` for uniform.

    Queue ``np.searchsorted(cuts, u, side="right")`` receives a label
    when the uniform draw is ``u``.  The cumulative sum's last cut is
    dropped: rounding can leave it just below 1 (``0.9999999999999984``
    for ``biased_insert_probs(100, 0.5)``), and ``Generator.random()``
    can return ``nextafter(1, 0)``, which a search over every cut would
    send to queue ``n``, one past the last.  Without it every draw at or
    above the second-to-last cut lands in the last queue.
    """
    if insert_probs is None:
        return None
    return np.cumsum(insert_probs)[:-1]


def biased_insert_probs(
    n: int,
    gamma: float,
    pattern: str = "two-point",
    rng: SeedLike = None,
) -> np.ndarray:
    """An insertion distribution with bias exactly bounded by ``gamma``.

    Patterns
    --------
    ``"two-point"``
        Half the queues are maximally *cold* (``n*pi = 1/(1+gamma)``), the
        other half compensatingly *hot*.  This is the adversarial shape
        used in the robustness benches: it maximizes the imbalance the
        bound permits.
    ``"linear"``
        ``n*pi`` ramps linearly from ``1/(1+gamma)`` up, then the vector
        is normalized (the realized bias is re-checked to stay within
        ``gamma``).
    ``"random"``
        ``n*pi`` drawn uniformly from ``[1/(1+gamma), 1/(1-gamma)]`` and
        normalized, rejection-sampled until the realized bias is within
        ``gamma``.

    Returns a probability vector summing to 1 and satisfying
    ``1 - gamma <= 1/(n*pi_i) <= 1 + gamma`` for all ``i``.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    if gamma == 0:
        return uniform_insert_probs(n)

    if pattern == "two-point":
        cold = 1.0 / (n * (1.0 + gamma))
        k = n // 2
        # The remaining n-k queues share the leftover mass equally.
        hot = (1.0 - k * cold) / (n - k)
        pi = np.empty(n)
        pi[:k] = cold
        pi[k:] = hot
    elif pattern == "linear":
        lo = 1.0 / (1.0 + gamma)
        hi = 1.0 / (1.0 - gamma)
        ramp = np.linspace(lo, hi, n)
        pi = ramp / ramp.sum()
        # Normalization can push the realized bias past gamma (the ramp
        # mean is below 1); blend toward uniform until it fits.
        uniform = np.full(n, 1.0 / n)
        for _ in range(64):
            realized = effective_gamma(pi)
            if realized <= gamma + 1e-12:
                break
            pi = uniform + (pi - uniform) * min(0.95, gamma / realized)
    elif pattern == "random":
        gen = as_generator(rng)
        lo = 1.0 / (1.0 + gamma)
        hi = 1.0 / (1.0 - gamma)
        for _ in range(1000):
            raw = gen.uniform(lo, hi, size=n)
            pi = raw / raw.sum()
            if effective_gamma(pi) <= gamma + 1e-12:
                break
        else:  # pragma: no cover - astronomically unlikely
            raise RuntimeError("failed to sample a distribution within gamma")
    else:
        raise ValueError(f"unknown bias pattern {pattern!r}")

    realized = effective_gamma(pi)
    if realized > gamma + 1e-9:
        raise AssertionError(
            f"internal error: realized bias {realized:.4f} exceeds gamma={gamma}"
        )
    return pi


def effective_gamma(pi: np.ndarray) -> float:
    """The smallest ``gamma`` for which ``pi`` satisfies the bias bound.

    Computed as ``max_i |deviation|`` where the paper's constraint is
    ``1 - gamma <= 1/(n*pi_i) <= 1 + gamma``.
    """
    pi = np.asarray(pi, dtype=float)
    n = len(pi)
    if n == 0:
        raise ValueError("empty distribution")
    if not np.isclose(pi.sum(), 1.0):
        raise ValueError(f"probabilities must sum to 1, got {pi.sum()}")
    if np.any(pi <= 0):
        raise ValueError("all probabilities must be positive")
    inv = 1.0 / (n * pi)
    return float(max(inv.max() - 1.0, 1.0 - inv.min()))


def removal_rank_probabilities(n: int, beta: float) -> np.ndarray:
    """The probability ``p_i`` that the rank-``i`` queue is removed from.

    With queues sorted by increasing top label, the paper derives (Sec. 4.2)

        p_i = (1-beta)/n + beta * [ (2/n)(1 - (i-1)/n) - 1/n^2 ]

    which corresponds to sampling two queues uniformly *with replacement*
    and taking the better one.  Exposed for tests and for the potential
    analysis; sums to 1 exactly.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= beta <= 1:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    i = np.arange(1, n + 1, dtype=float)
    two_choice = (2.0 / n) * (1.0 - (i - 1.0) / n) - 1.0 / n**2
    return (1.0 - beta) / n + beta * two_choice


class RemovalChooser:
    """Draws the queue choices for each removal of a (1+beta) process.

    Centralizing the draws keeps the *coupling* between the original and
    exponential processes exact: both are driven by the same chooser
    stream, so they see identical beta-coins and queue indices
    (Section 4's coupling argument, operationalized).
    """

    def __init__(self, n: int, beta: float, rng: SeedLike = None) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not 0 <= beta <= 1:
            raise ValueError(f"beta must be in [0, 1], got {beta}")
        self.n = n
        self.beta = beta
        self._rng = as_generator(rng)

    def draw(self):
        """Return ``(two_choice, i, j)``; ``j`` is ``None`` on a tails coin.

        The two indices are sampled independently (with replacement),
        matching the ``p_i`` formula of the paper.
        """
        rng = self._rng
        two = self.beta >= 1.0 or (self.beta > 0.0 and rng.random() < self.beta)
        i = int(rng.integers(self.n))
        if not two:
            return False, i, None
        j = int(rng.integers(self.n))
        return True, i, j
