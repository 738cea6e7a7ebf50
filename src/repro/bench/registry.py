"""Registry of all reproduced experiments and their artifacts.

A single authoritative mapping from experiment ids (the per-experiment
index of DESIGN.md) to the paper claim, the benchmark file, and the
archived result path — so tooling (`python -m repro experiments`) and
docs can enumerate the reproduction's coverage programmatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional


@dataclass(frozen=True)
class ExperimentSpec:
    """One reproduced figure/claim."""

    experiment_id: str
    paper_ref: str
    claim: str
    bench_file: str

    @property
    def result_name(self) -> str:
        """Stem of the archived table under ``benchmarks/results/``."""
        return self.bench_file.replace("test_", "").replace(".py", "")


_SPECS: List[ExperimentSpec] = [
    ExperimentSpec(
        "fig1", "Figure 1",
        "MQ scales with threads; beta<1 beats beta=1; LJ/kLSM lag",
        "test_fig1_throughput.py",
    ),
    ExperimentSpec(
        "fig2", "Figure 2",
        "mean rank grows modestly as beta decreases (log scale)",
        "test_fig2_mean_rank.py",
    ),
    ExperimentSpec(
        "fig3", "Figure 3",
        "relaxed parallel Dijkstra: beta<1 fastest, kLSM slowest",
        "test_fig3_sssp.py",
    ),
    ExperimentSpec(
        "t1-avg", "Thm 1 / Cor 2", "E[rank] = O(n/beta^2), time-uniform",
        "test_theory_avg_rank.py",
    ),
    ExperimentSpec(
        "t1-max", "Thm 1 / Cor 1", "E[max top rank] = O((n/b) log(n/b))",
        "test_theory_max_rank.py",
    ),
    ExperimentSpec(
        "t2-equiv", "Thm 2", "exponential process has the identical rank law",
        "test_exponential_equivalence.py",
    ),
    ExperimentSpec(
        "t3-potential", "Thm 3", "E[Gamma(t)] <= C n; supermartingale drift",
        "test_potential.py",
    ),
    ExperimentSpec(
        "t6-diverge", "Thm 6", "single choice diverges as sqrt(t n log n)",
        "test_single_choice_divergence.py",
    ),
    ExperimentSpec(
        "a-reduction", "App. A", "round-robin removals == two-choice allocation",
        "test_round_robin_reduction.py",
    ),
    ExperimentSpec(
        "bias-robust", "Thm 1 (gamma>0)", "guarantees survive beta=Omega(gamma) bias",
        "test_bias_robustness.py",
    ),
    ExperimentSpec(
        "c-counterex", "App. C", "stalled lock holder => unbounded rank error",
        "test_stall_counterexample.py",
    ),
    ExperimentSpec(
        "g-graph", "Sec. 6", "expansion governs the graph choice process",
        "test_graph_choice.py",
    ),
    ExperimentSpec(
        "abl-d", "extension", "d=2 captures most of the power of choice",
        "test_ablation_dchoice.py",
    ),
    ExperimentSpec(
        "abl-sticky", "extension", "stickiness: locality vs rank quality",
        "test_ablation_stickiness.py",
    ),
    ExperimentSpec(
        "abl-c", "extension", "queues-per-thread multiplier trade-off",
        "test_ablation_queue_multiplier.py",
    ),
    ExperimentSpec(
        "abl-cost", "extension", "Fig. 1 conclusion robust to cost model",
        "test_ablation_cost_model.py",
    ),
    ExperimentSpec(
        "abl-klsm", "extension", "why the paper's kLSM uses k=256",
        "test_ablation_klsm.py",
    ),
    ExperimentSpec(
        "abl-delta", "extension", "delta-stepping vs relaxed-queue SSSP",
        "test_ablation_delta_stepping.py",
    ),
    ExperimentSpec(
        "abl-workload", "extension", "workload shape: where each bottleneck lives",
        "test_ablation_workload_shape.py",
    ),
    ExperimentSpec(
        "ext-general", "Sec. 5 discussion", "general priority insertion orders",
        "test_general_priorities.py",
    ),
    ExperimentSpec(
        "ext-preempt", "App. C generalized", "rank error under OS-style preemption",
        "test_preemption_robustness.py",
    ),
    ExperimentSpec(
        "ext-chaos", "App. C extended",
        "graceful degradation under injected faults; invariants hold",
        "test_chaos_robustness.py",
    ),
    ExperimentSpec(
        "vec-backend", "infrastructure",
        "vector backend >= 10x reference throughput, identical rank law",
        "test_vector_backend.py",
    ),
    ExperimentSpec(
        "vec-theory", "Thm 1/3/6 (replica-parallel)",
        "theory claims re-verified across wide replica sweeps",
        "test_vector_theory.py",
    ),
    ExperimentSpec(
        "orch-scaling", "infrastructure",
        "orchestrated sweeps: identical rows, resumable cache, multi-core scaling",
        "test_orchestrate_scaling.py",
    ),
    ExperimentSpec(
        "orch-queue", "infrastructure",
        "multi-host job queue: crash takeover and zombie fencing, rows identical",
        "test_orchestrate_distributed.py",
    ),
    ExperimentSpec(
        "service-scaling", "infrastructure",
        "live shm service: throughput scales with shard owners, sim rank shape holds",
        "test_service_scaling.py",
    ),
    ExperimentSpec(
        "service-recovery", "infrastructure",
        "supervised shm service: SIGKILL/zombie takeovers conserve every element, "
        "rank law holds post-recovery",
        "test_service_recovery.py",
    ),
    ExperimentSpec(
        "oracle", "Walzer-Williams 2024",
        "exact stationary rank law matches the simulator; instant closed-form "
        "predictions at n far beyond the grid",
        "test_oracle_agreement.py",
    ),
]


def all_experiments() -> List[ExperimentSpec]:
    """Every registered experiment, in DESIGN.md order."""
    return list(_SPECS)


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up one experiment by id."""
    for spec in _SPECS:
        if spec.experiment_id == experiment_id:
            return spec
    raise KeyError(f"unknown experiment id {experiment_id!r}")


def coverage_report(repo_root: Optional[Path] = None) -> List[Dict]:
    """Rows describing each experiment and whether artifacts exist."""
    root = repo_root or Path(__file__).resolve().parents[3]
    bench_dir = root / "benchmarks"
    results_dir = bench_dir / "results"
    rows = []
    for spec in _SPECS:
        rows.append(
            {
                "id": spec.experiment_id,
                "paper": spec.paper_ref,
                "claim": spec.claim,
                "bench exists": (bench_dir / spec.bench_file).exists(),
                "result archived": (results_dir / f"{spec.result_name}.txt").exists(),
            }
        )
    return rows
