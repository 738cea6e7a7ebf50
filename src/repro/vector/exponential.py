"""Replica-batched exponential process (Section 4 / Theorem 3).

:class:`VectorExponentialTopProcess` is the infinite-supply weight-only
process of Theorem 3 (:class:`~repro.core.exponential.ExponentialTopProcess`)
batched over replicas: an ``(R, n)`` top-weight matrix advanced one
(1+beta) removal per replica per step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policies import uniform_insert_probs
from repro.utils.rngtools import SeedLike, as_generator
from repro.vector.chooser import BatchedChooser
from repro.vector.records import VectorPotentialSeries
from repro.vector.stats import batched_potentials


class VectorExponentialTopProcess:
    """Batched infinite-supply exponential process (weights only).

    ``R`` replicas of :class:`~repro.core.exponential.ExponentialTopProcess`
    advanced in lockstep: state is just the ``(R, n)`` top-weight matrix,
    each step removes per the (1+beta) rule and advances the removed
    bin's top by a fresh ``Exp(1/pi_i)`` increment.  Bins never empty,
    so there are no redraws and the kernel is branch-free.
    """

    def __init__(
        self,
        n_queues: int,
        replicas: int,
        beta: float = 1.0,
        insert_probs: Optional[np.ndarray] = None,
        rng: SeedLike = None,
    ) -> None:
        if n_queues <= 0:
            raise ValueError(f"n_queues must be positive, got {n_queues}")
        if replicas <= 0:
            raise ValueError(f"replicas must be positive, got {replicas}")
        self.n_queues = n_queues
        self.replicas = replicas
        self.beta = beta
        if insert_probs is None:
            insert_probs = uniform_insert_probs(n_queues)
        self._probs = np.asarray(insert_probs, dtype=float)
        if len(self._probs) != n_queues:
            raise ValueError(
                f"insert_probs has length {len(self._probs)}, expected {n_queues}"
            )
        self._means = 1.0 / self._probs
        gen = as_generator(rng)
        self._rng = gen
        self._chooser = BatchedChooser(n_queues, beta, replicas, rng=gen)
        #: Flat offset of each replica's row in ``_tops``.
        self._row_base = np.arange(replicas, dtype=np.int64) * n_queues
        # First renewal of each bin, as in the reference t=0 state.
        self._tops = gen.exponential(self._means, size=(replicas, n_queues))
        self._tops_flat = self._tops.reshape(-1)
        self.steps = 0

    @property
    def top_weights(self) -> np.ndarray:
        """Current ``(R, n)`` top weights (a copy)."""
        return self._tops.copy()

    def step(self) -> np.ndarray:
        """One (1+beta) removal per replica; returns the bins removed from."""
        two, i, j = self._chooser.removal_draws()
        base, tops = self._row_base, self._tops_flat
        ti = tops[base + i]
        tj = tops[base + j]
        pick = np.where(two & (tj < ti), j, i)
        tops[base + pick] += self._rng.exponential(self._means[pick])
        self.steps += 1
        return pick

    def run(self, steps: int) -> None:
        """Advance all replicas by ``steps`` removals."""
        for _ in range(steps):
            self.step()

    def run_potentials(
        self, steps: int, alpha: float, sample_every: int = 1
    ) -> VectorPotentialSeries:
        """Advance ``steps`` removals, sampling Theorem 3 potentials."""
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        if sample_every <= 0:
            raise ValueError(f"sample_every must be positive, got {sample_every}")
        ts, phis, psis = [], [], []
        for step in range(1, steps + 1):
            self.step()
            if step % sample_every == 0:
                phi, psi = batched_potentials(self._tops, alpha)
                ts.append(self.steps)
                phis.append(phi)
                psis.append(psi)
        return VectorPotentialSeries(
            steps=np.asarray(ts, dtype=np.int64),
            phi=np.stack(phis) if phis else np.empty((0, self.replicas)),
            psi=np.stack(psis) if psis else np.empty((0, self.replicas)),
        )

    def __repr__(self) -> str:
        return (
            f"VectorExponentialTopProcess(n={self.n_queues}, beta={self.beta}, "
            f"replicas={self.replicas}, t={self.steps})"
        )
