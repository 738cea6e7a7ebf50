"""Seed sweeps and parameter sweeps for experiments.

Execution routes through :mod:`repro.orchestrate`: serial in-process by
default (what tests exercise), with ``workers=N`` fanning cells out
across processes and ``cache_dir=...`` making the sweep resumable — a
killed run recomputes only the cells that never finished.
:func:`queue_worker` is the multi-host path: the grid becomes a
lease-based job queue on a shared filesystem and each invocation drains
cells as one worker (see docs/usage.md, "Running a sweep across
machines").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.orchestrate import (
    ResultCache,
    RetryPolicy,
    RunManifest,
    expand_grid,
    run_cells,
)


@dataclass
class ExperimentResult:
    """A named batch of result rows plus free-form metadata."""

    name: str
    rows: List[Dict] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)

    def column(self, key: str) -> np.ndarray:
        """Extract one column across rows as an array.

        Raises a :class:`KeyError` naming the offending row when the
        rows are ragged, instead of an opaque bare-key error.
        """
        values = []
        for i, row in enumerate(self.rows):
            try:
                values.append(row[key])
            except KeyError:
                raise KeyError(
                    f"row {i} of ExperimentResult {self.name!r} has no column "
                    f"{key!r} (row keys: {sorted(row)})"
                ) from None
        return np.asarray(values)

    def __repr__(self) -> str:
        return f"ExperimentResult({self.name!r}, rows={len(self.rows)})"


def run_seeds(fn: Callable[[int], Any], seeds: Sequence[int]) -> List[Any]:
    """Run ``fn(seed)`` for each seed and collect the results."""
    if not seeds:
        raise ValueError("need at least one seed")
    return [fn(int(seed)) for seed in seeds]


def make_reducer(reduce: str) -> Callable[[Sequence[float]], float]:
    """Resolve a reduction name to a function over per-seed samples.

    Accepts ``"mean"``, ``"median"``, or a percentile spec ``"pNN"`` /
    ``"pNN.N"`` (e.g. ``"p95"``, ``"p99.9"``).
    """
    if reduce == "mean":
        return lambda s: float(np.mean(s))
    if reduce == "median":
        return lambda s: float(np.median(s))
    if reduce.startswith("p"):
        try:
            q = float(reduce[1:])
        except ValueError:
            raise ValueError(f"unknown reduce {reduce!r}") from None
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range in reduce {reduce!r}")
        return lambda s: float(np.percentile(s, q))
    raise ValueError(f"unknown reduce {reduce!r}")


def _is_numeric(value: Any) -> bool:
    """True for values that mean-reduce meaningfully across seeds.

    Booleans are excluded explicitly: ``isinstance(True, int)`` holds in
    Python, but averaging a flag like ``parity_ok`` into ``0.75`` is
    silent data corruption, not a statistic.
    """
    if isinstance(value, (bool, np.bool_)):
        return False
    return isinstance(value, (int, float, np.integer, np.floating))


def _is_flag(value: Any) -> bool:
    return isinstance(value, (bool, np.bool_))


def _validate_key_sets(outputs: Sequence[Dict], seeds: Sequence[int]) -> None:
    """Every seed's output dict must expose the same columns."""
    expected = set(outputs[0])
    for out, seed in zip(outputs[1:], seeds[1:]):
        got = set(out)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            detail = []
            if missing:
                detail.append(f"missing keys {missing}")
            if extra:
                detail.append(f"extra keys {extra}")
            raise ValueError(
                f"sweep outputs disagree on columns: seed {seed} "
                f"{' and '.join(detail)} relative to seed {seeds[0]} "
                f"(expected {sorted(expected)})"
            )


def reduce_outputs(
    outputs: Sequence[Dict],
    seeds: Sequence[int],
    reducer: Callable[[Sequence[float]], float],
    with_sd: bool = False,
) -> Dict:
    """Collapse per-seed output dicts into one row.

    Numeric columns reduce via ``reducer`` (plus a ``_sd`` companion
    when ``with_sd``); boolean flags reduce via ``all`` — a sweep point
    only passes if every seed passed — and the per-seed values are kept
    under ``<key>_seeds`` whenever the seeds disagree; anything else is
    taken from the first seed's run.
    """
    _validate_key_sets(outputs, seeds)
    row: Dict = {}
    for key in outputs[0]:
        samples = [out[key] for out in outputs]
        if all(_is_numeric(s) for s in samples):
            row[key] = reducer(samples)
            if with_sd:
                sd = float(np.std(samples, ddof=1)) if len(samples) > 1 else 0.0
                row[f"{key}_sd"] = sd
        elif all(_is_flag(s) for s in samples):
            row[key] = all(bool(s) for s in samples)
            if len(set(bool(s) for s in samples)) > 1:
                row[f"{key}_seeds"] = [bool(s) for s in samples]
        else:
            row[key] = samples[0]
    return row


def sweep(
    fn: Callable[..., Dict],
    param_name: str,
    values: Iterable,
    seeds: Sequence[int],
    reduce: str = "mean",
    with_sd: bool = False,
    workers: int = 0,
    cache_dir: Optional[Union[str, "ResultCache"]] = None,
    manifest_path: Optional[str] = None,
    retries: int = 0,
    cell_timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    on_error: str = "raise",
    policy: Optional["RetryPolicy"] = None,
    fault_hook: Optional[Callable] = None,
    **fixed,
) -> List[Dict]:
    """Sweep one parameter, reducing numeric outputs across seeds.

    ``fn(param_name=value, seed=seed, **fixed)`` must return a dict with
    the same keys for every seed (a mismatch raises ``ValueError`` naming
    the seed).  Returns one row per parameter value with the parameter
    included.

    ``reduce`` may be ``"mean"``, ``"median"``, or a percentile such as
    ``"p95"``.  With ``with_sd=True`` each numeric column ``key`` gains a
    companion ``key_sd`` column holding the per-seed sample standard
    deviation (ddof=1; 0.0 for a single seed), so sweep tables carry
    their own error bars.  Boolean columns are *not* averaged: a flag
    such as ``parity_ok`` reduces via ``all`` and stays a bool.

    Execution is serial and in-process by default.  ``workers=N`` fans
    the ``(value, seed)`` cells out across N processes (``fn`` must be a
    module-level function); ``cache_dir`` persists each completed cell
    so an interrupted sweep resumes where it stopped; ``manifest_path``
    archives the run manifest (grid, cache hits, per-cell wall time,
    git SHA) as JSON.

    Fault tolerance mirrors :func:`repro.orchestrate.run_cells`:
    ``retries=N`` grants each failing cell N extra attempts,
    ``cell_timeout``/``deadline`` bound cell and sweep durations, and
    ``on_error="quarantine"`` skips cells that exhaust their attempts.
    Quarantined cells leave holes: the affected parameter value reduces
    over its surviving seeds only (or drops out entirely when no seed
    survived) — inspect the manifest's ``failures`` section and report
    the holes alongside any table built from the rows.
    """
    reducer = make_reducer(reduce)
    seeds = [int(s) for s in seeds]
    run = sweep_cells(
        fn, param_name, values, seeds,
        workers=workers, cache_dir=cache_dir, manifest_path=manifest_path,
        retries=retries, cell_timeout=cell_timeout, deadline=deadline,
        on_error=on_error, policy=policy, fault_hook=fault_hook,
        **fixed,
    )
    # Group by parameter value rather than slicing len(seeds)-sized
    # chunks: quarantined cells leave holes, and results stay in grid
    # order (all seeds of one value are consecutive).
    rows: List[Dict] = []
    idx = 0
    results = run.results
    while idx < len(results):
        value = results[idx].cell.params[param_name]
        chunk = [results[idx]]
        idx += 1
        while (
            idx < len(results)
            and results[idx].cell.params[param_name] == value
        ):
            chunk.append(results[idx])
            idx += 1
        seeds_used = [r.cell.seed for r in chunk]
        row = {param_name: value}
        row.update(
            reduce_outputs([r.payload for r in chunk], seeds_used, reducer, with_sd)
        )
        rows.append(row)
    return rows


def sweep_cells(
    fn: Callable[..., Dict],
    param_name: str,
    values: Iterable,
    seeds: Sequence[int],
    workers: int = 0,
    cache_dir: Optional[Union[str, "ResultCache"]] = None,
    manifest_path: Optional[str] = None,
    config: Optional[Dict] = None,
    retries: int = 0,
    cell_timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    on_error: str = "raise",
    policy: Optional["RetryPolicy"] = None,
    fault_hook: Optional[Callable] = None,
    **fixed,
):
    """Run a sweep grid through the orchestrator without reducing.

    The unreduced sibling of :func:`sweep` — returns the
    :class:`repro.orchestrate.SweepRun` with one payload per
    ``(value, seed)`` cell plus the run manifest.  ``retries=N`` is
    shorthand for ``policy=RetryPolicy(max_attempts=N + 1)``; pass
    ``policy`` explicitly to tune backoff or failure classification.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if policy is None and retries:
        policy = RetryPolicy(max_attempts=retries + 1)
    cells = expand_grid(param_name, values, list(seeds), **fixed)
    cache = None
    if cache_dir is not None:
        cache = cache_dir if isinstance(cache_dir, ResultCache) else ResultCache(cache_dir)
    run = run_cells(
        fn, cells, workers=workers, cache=cache, config=config,
        policy=policy, cell_timeout=cell_timeout, deadline=deadline,
        on_error=on_error, fault_hook=fault_hook,
    )
    if manifest_path is not None and run.manifest is not None:
        run.manifest.write(manifest_path)
    return run


def queue_worker(
    fn: Callable[..., Dict],
    param_name: str,
    values: Iterable,
    seeds: Sequence[int],
    queue_dir: Union[str, "Path"],
    lease_ttl_s: float = 30.0,
    heartbeat_s: Optional[float] = None,
    max_attempts: int = 3,
    worker_id: Optional[str] = None,
    fault_plan: Optional[Callable] = None,
    poll_s: float = 0.5,
    allow_sigkill: bool = False,
    gc_tmp_age_s: float = 3600.0,
    config: Optional[Dict] = None,
    policy: Optional["RetryPolicy"] = None,
    merged_manifest_path: Optional[str] = None,
    **fixed,
):
    """Attach one worker to a shared-filesystem job queue and drain it.

    The multi-host sibling of :func:`sweep_cells`: the grid is
    materialised as a :class:`repro.orchestrate.JobQueue` under a shared
    ``queue_dir`` rather than a private temporary one (created by
    whichever worker arrives first; later arrivals validate the spec
    hash and join) and *this* process becomes one
    :class:`repro.orchestrate.QueueWorker`.  Start the same invocation
    on any number of hosts sharing ``queue_dir`` — cells are divided
    dynamically via lease files, a crashed worker's cells are taken
    over after ``lease_ttl_s`` without heartbeats, and every worker
    returns once all cells are committed or quarantined.

    Returns ``(report, run)``: the per-worker
    :class:`~repro.orchestrate.WorkerReport` and the queue-wide
    :class:`~repro.orchestrate.SweepRun` (grid-order results, merged
    manifest, quarantined failures) — identical rows, modulo timing
    fields, to a serial :func:`sweep_cells` of the same grid.

    ``allow_sigkill=True`` lets an injected ``"kill"`` fault deliver a
    real ``SIGKILL`` (the CLI does this — each worker is a process);
    leave it off for thread-hosted workers in tests.
    """
    from repro.orchestrate import JobQueue, QueueWorker

    cells = expand_grid(param_name, values, [int(s) for s in seeds], **fixed)
    queue = JobQueue(
        queue_dir,
        fn,
        cells,
        config=config,
        lease_ttl_s=lease_ttl_s,
        heartbeat_s=heartbeat_s,
        max_attempts=max_attempts,
        policy=policy,
    )
    worker = QueueWorker(
        queue,
        fn,
        worker_id=worker_id,
        fault_plan=fault_plan,
        poll_s=poll_s,
        allow_sigkill=allow_sigkill,
        gc_tmp_age_s=gc_tmp_age_s,
    )
    report = worker.run()
    run = queue.to_sweep_run()
    if merged_manifest_path is not None and run.manifest is not None:
        run.manifest.write(merged_manifest_path)
    return report, run
