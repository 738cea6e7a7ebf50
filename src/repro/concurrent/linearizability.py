"""Distributional linearizability (Appendix C), operationalized.

Definition 2 of the paper: a randomized concurrent structure ``Q`` is
*distributionally linearizable* to a sequential process ``S`` if every
concurrent execution admits a linearization whose outputs are
distributed as ``S``'s outputs.  This cannot be checked exactly, but it
can be *tested*: compare the empirical rank distribution produced by a
concurrent model against the sequential (1+beta) process with the same
parameters.  The paper also argues the property fails for simple
lock-based strategies, via a stalled-lock-holder counterexample — the
scenario :func:`stalled_lock_counterexample` reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.stats import ks_2sample
from repro.concurrent.multiqueue import ConcurrentMultiQueue
from repro.concurrent.recorder import OpRecorder
from repro.core.process import SequentialProcess
from repro.core.records import RankTrace
from repro.sim.cost_model import CostModel
from repro.sim.engine import Engine
from repro.sim.workload import AlternatingWorkload
from repro.utils.rngtools import SeedLike, as_generator, spawn_seeds


@dataclass
class DistributionalComparisonReport:
    """Summary of a concurrent-vs-sequential rank distribution comparison."""

    concurrent_mean: float
    sequential_mean: float
    concurrent_p99: float
    sequential_p99: float
    #: Kolmogorov–Smirnov distance between the empirical rank CDFs.
    ks_statistic: float
    n_concurrent: int
    n_sequential: int

    def means_within(self, rel_tol: float) -> bool:
        """Whether the mean ranks agree within a relative tolerance."""
        lo = min(self.concurrent_mean, self.sequential_mean)
        hi = max(self.concurrent_mean, self.sequential_mean)
        return hi <= lo * (1.0 + rel_tol)

    def __repr__(self) -> str:
        return (
            f"DistributionalComparisonReport(conc_mean={self.concurrent_mean:.2f}, "
            f"seq_mean={self.sequential_mean:.2f}, KS={self.ks_statistic:.4f})"
        )


def compare_rank_distributions(
    concurrent: RankTrace, sequential: RankTrace
) -> DistributionalComparisonReport:
    """Build a comparison report from two rank traces."""
    if len(concurrent) == 0 or len(sequential) == 0:
        raise ValueError("both traces must be non-empty")
    return DistributionalComparisonReport(
        concurrent_mean=concurrent.mean_rank(),
        sequential_mean=sequential.mean_rank(),
        concurrent_p99=concurrent.quantile(0.99),
        sequential_p99=sequential.quantile(0.99),
        ks_statistic=ks_2sample(concurrent.ranks, sequential.ranks)[0],
        n_concurrent=len(concurrent),
        n_sequential=len(sequential),
    )


def multiqueue_vs_sequential(
    n_threads: int = 4,
    n_queues: int = 8,
    beta: float = 1.0,
    prefill: int = 20_000,
    ops_per_thread: int = 2_000,
    seed: SeedLike = None,
    cost_model: Optional[CostModel] = None,
) -> DistributionalComparisonReport:
    """Run the concurrent MultiQueue and the sequential process side by
    side with matched parameters and compare rank distributions.

    The paper conjectures the lock-based MultiQueue is *not* exactly
    distributionally linearizable, but Section 5 observes its realized
    rank quality closely tracks the sequential guarantee under benign
    schedules — which is what this comparison quantifies.
    """
    seeds = spawn_seeds(seed, 3)
    # Concurrent side.
    recorder = OpRecorder()
    engine = Engine(cost_model)
    model = ConcurrentMultiQueue(engine, n_queues, beta=beta, rng=seeds[0], recorder=recorder)
    model.prefill(seeds[1].integers(2**40, size=prefill))
    workload = AlternatingWorkload(model, n_threads, ops_per_thread, rng=seeds[2])
    workload.spawn_on(engine)
    engine.run()
    concurrent_trace = recorder.rank_trace()

    # Sequential side: identical n_queues/beta, steady-state mode.
    steps = n_threads * ops_per_thread
    proc = SequentialProcess(
        n_queues, capacity=prefill + steps, beta=beta, rng=seeds[0]
    )
    sequential_trace = proc.run_steady_state(prefill, steps)
    return compare_rank_distributions(concurrent_trace, sequential_trace)


def stalled_lock_counterexample(
    n_threads: int = 4,
    n_queues: int = 8,
    prefill: int = 20_000,
    ops_per_thread: int = 2_000,
    stall_fraction: float = 0.9,
    beta: float = 1.0,
    seed: SeedLike = None,
    cost_model: Optional[CostModel] = None,
) -> Dict[str, RankTrace]:
    """Appendix C's counterexample: a stalled thread holding two locks.

    Runs the concurrent MultiQueue twice with identical seeds: once
    normally, and once with an adversary that acquires the locks of
    queues 0 and 1 early and holds them for ``stall_fraction`` of the
    baseline run's duration.  While those queues are locked their (old,
    high-priority) top elements are unreachable, so every other removal
    pays their rank — rank error grows with the stall length, unboundedly
    in the limit.  Returns ``{"baseline": trace, "stalled": trace}``.
    """
    if not 0 < stall_fraction:
        raise ValueError(f"stall_fraction must be positive, got {stall_fraction}")

    def _run(stall_duration: Optional[float]) -> tuple:
        seeds = spawn_seeds(seed, 3)
        recorder = OpRecorder()
        engine = Engine(cost_model)
        model = ConcurrentMultiQueue(
            engine, n_queues, beta=beta, rng=seeds[0], recorder=recorder
        )
        model.prefill(seeds[1].integers(2**40, size=prefill))
        workload = AlternatingWorkload(model, n_threads, ops_per_thread, rng=seeds[2])
        workload.spawn_on(engine)
        if stall_duration is not None:
            engine.spawn(model.hold_locks_op([0, 1], stall_duration), name="adversary")
        engine.run()
        return recorder.rank_trace(), engine.now

    baseline_trace, baseline_time = _run(None)
    stalled_trace, _ = _run(baseline_time * stall_fraction)
    return {"baseline": baseline_trace, "stalled": stalled_trace}
