"""Sweep orchestration: parallel fan-out, resumable result cache, manifests.

The execution layer between experiment functions and the sweep surfaces
(``repro.bench.harness.sweep``, the ``repro sweep`` CLI, and the
benchmark suite).  A sweep is expanded into :class:`Cell`\\ s — one
``(parameter value, seed)`` point each — and :func:`run_cells` executes
them serially (the default) or across worker processes, consulting a
content-addressed :class:`ResultCache` so interrupted runs resume from
the cells already completed.  Every run emits a :class:`RunManifest`
recording the grid, cache hits/misses, per-cell wall time, worker count,
and git SHA.

Fault tolerance lives in :mod:`repro.orchestrate.policy`: a
:class:`RetryPolicy` grants failing cells more attempts (exponential
backoff, deterministic jitter, retryable-vs-fatal classification),
``cell_timeout``/``deadline`` bound cell and sweep durations, a crashed
worker's lease is released and the worker replaced, and
``on_error="quarantine"`` records exhausted cells in the manifest's
``failures`` section instead of aborting the sweep.  A
:class:`SweepFaultPlan` injects deterministic faults (transient raise,
oversleep, worker SIGKILL) for chaos-testing the orchestration itself.

Every multi-process sweep runs on :mod:`repro.orchestrate.queue` and
:mod:`repro.orchestrate.worker`: a :class:`JobQueue` materialises the
grid as a queue directory — temporary for ``run_cells(workers=N)``,
shared by any number of ``repro worker`` processes across hosts — and
:class:`QueueWorker`\\ s claim cells through lease files carrying
fencing tokens: crashed workers' leases are taken over, and a
resurrected zombie's late write is fenced rather than applied.
Per-worker shard manifests merge into one queue-wide record via
:meth:`RunManifest.merge`.

See ``docs/usage.md`` ("Resumable parallel sweeps", "Surviving flaky
sweeps", and "Running a sweep across machines") for recipes and
EXPERIMENTS.md for cache-key hygiene when code changes.
"""

from repro.orchestrate.cache import (
    VOLATILE_KEYS,
    ResultCache,
    cache_key,
    canonical_json,
    jsonify,
    qualname_of,
    strip_volatile,
)
from repro.orchestrate.cells import Cell, expand_grid
from repro.orchestrate.manifest import RunManifest, git_sha
from repro.orchestrate.policy import (
    DISTRIBUTED_FAULT_KINDS,
    EXECUTION_FAULT_KINDS,
    FAILURE_VOLATILE_KEYS,
    CellFailure,
    CellFault,
    CellTimeout,
    InjectedFault,
    PoolRestartBudgetError,
    RetryPolicy,
    SweepDeadlineError,
    SweepFaultPlan,
)
from repro.orchestrate.queue import Claim, JobQueue, LeaseLost, QueueSpecMismatch
from repro.orchestrate.runner import CellError, CellResult, SweepRun, run_cells
from repro.orchestrate.worker import InjectedWorkerCrash, QueueWorker, WorkerReport

__all__ = [
    "Cell",
    "CellError",
    "CellFailure",
    "CellFault",
    "CellResult",
    "CellTimeout",
    "Claim",
    "DISTRIBUTED_FAULT_KINDS",
    "EXECUTION_FAULT_KINDS",
    "FAILURE_VOLATILE_KEYS",
    "InjectedFault",
    "InjectedWorkerCrash",
    "JobQueue",
    "LeaseLost",
    "PoolRestartBudgetError",
    "QueueSpecMismatch",
    "QueueWorker",
    "ResultCache",
    "RetryPolicy",
    "RunManifest",
    "SweepDeadlineError",
    "SweepFaultPlan",
    "SweepRun",
    "VOLATILE_KEYS",
    "WorkerReport",
    "cache_key",
    "strip_volatile",
    "canonical_json",
    "expand_grid",
    "git_sha",
    "jsonify",
    "qualname_of",
    "run_cells",
]
