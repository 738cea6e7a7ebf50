"""Replica-batched exponential process (Section 4 / Theorems 2 and 3).

Two batched analogues of :mod:`repro.core.exponential`:

* :class:`VectorExponentialProcess` — generates ``m`` labels per replica
  as per-bin ``Exp(1/pi_i)`` renewal streams and then drains them with
  the (1+beta) kernel over global *ranks* (the Theorem 2 device: once
  ranks are assigned, only they matter — and rank order equals value
  order, so the integer-label removal kernel of the engine applies
  unchanged).
* :class:`VectorExponentialTopProcess` — the infinite-supply weight-only
  process of Theorem 3 batched over replicas: an ``(R, n)`` top-weight
  matrix advanced one (1+beta) removal per replica per step.

Generation is exact, not approximate: each bin's renewal stream is
extended until its frontier provably exceeds the ``m``-th smallest
candidate value, so the selected prefix is the true first ``m`` arrivals
of the superposed process.  (Unused renewals beyond the threshold are
simply discarded; streams are independent, so no conditioning is
introduced.)
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.policies import uniform_insert_probs
from repro.utils.rngtools import SeedLike, as_generator
from repro.vector.chooser import BatchedChooser
from repro.vector.engine import VectorProcessBase
from repro.vector.records import VectorPotentialSeries
from repro.vector.stats import batched_potentials


def _validated_probs(n_queues: int, insert_probs) -> np.ndarray:
    if insert_probs is None:
        return uniform_insert_probs(n_queues)
    probs = np.asarray(insert_probs, dtype=float)
    if len(probs) != n_queues:
        raise ValueError(
            f"insert_probs has length {len(probs)}, expected {n_queues}"
        )
    return probs


class VectorExponentialProcess(VectorProcessBase):
    """Finite-horizon batched exponential process with rank accounting.

    ``generate(m)`` realizes the renewal streams of all replicas at once
    and lays the resulting global ranks ``0..m-1`` into the queue
    engine; :meth:`run_drain` (inherited) then pays exact rank costs.
    One generation batch per process instance.
    """

    def __init__(
        self,
        n_queues: int,
        capacity: int,
        replicas: int,
        beta: float = 1.0,
        insert_probs: Optional[np.ndarray] = None,
        rng: SeedLike = None,
        source=None,
    ) -> None:
        self._probs = _validated_probs(n_queues, insert_probs)
        self._means = 1.0 / self._probs
        gen = as_generator(rng)
        self._gen_rng = gen
        if source is None:
            source = BatchedChooser(n_queues, beta, replicas, rng=gen)
        super().__init__(n_queues, capacity, replicas, source)
        self.beta = beta
        self._generated = 0
        self._assign: Optional[np.ndarray] = None

    @property
    def generated(self) -> int:
        """Labels generated so far (per replica)."""
        return self._generated

    def generate(self, m: int) -> None:
        """Generate the first ``m`` arrivals of every replica's process."""
        if m < 0:
            raise ValueError(f"m must be non-negative, got {m}")
        if self._generated:
            raise RuntimeError(
                "the vector exponential process generates a single batch"
            )
        if m > self.capacity:
            raise RuntimeError(
                f"capacity {self.capacity} exhausted; size the process larger"
            )
        if m == 0:
            return
        rng = self._gen_rng
        replicas, n = self.replicas, self.n_queues
        # Initial stream length: enough for the busiest bin in
        # expectation plus a 6-sigma margin; extended below if short.
        max_p = float(self._probs.max())
        length = int(math.ceil(m * max_p + 6.0 * math.sqrt(m * max_p) + 16.0))
        scale = self._means[None, :, None]
        cums = rng.exponential(scale, size=(replicas, n, length)).cumsum(axis=2)
        while True:
            threshold = np.partition(cums.reshape(replicas, -1), m - 1, axis=1)[
                :, m - 1
            ]
            frontier = cums[:, :, -1]
            if not (frontier < threshold[:, None]).any():
                break
            ext_len = max(16, cums.shape[2] // 2)
            ext = rng.exponential(scale, size=(replicas, n, ext_len))
            cums = np.concatenate(
                [cums, ext.cumsum(axis=2) + frontier[:, :, None]], axis=2
            )
        order = np.argsort(cums.reshape(replicas, -1), axis=1, kind="stable")[:, :m]
        assign = (order // cums.shape[2]).astype(np.int64)
        self._assign = assign
        self._alloc_from_assignment(assign)
        self._index.bulk_fill(m)
        self._generated = m

    def bin_assignment(self) -> np.ndarray:
        """``(R, m)`` map from each global rank to its bin.

        Theorem 2 predicts the entries are i.i.d. ``pi`` draws within
        each replica.  Only meaningful before removals.
        """
        if self._assign is None:
            raise RuntimeError("nothing generated yet")
        if self._removal_steps:
            raise RuntimeError("bin_assignment called after removals")
        return self._assign.copy()

    def __repr__(self) -> str:
        return (
            f"VectorExponentialProcess(n={self.n_queues}, beta={self.beta}, "
            f"replicas={self.replicas}, present={self.present_count})"
        )


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
        self._probs = _validated_probs(n_queues, insert_probs)
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
