"""The sweep executor: fan cells out to workers, persist, resume, survive.

``run_cells`` is the single entry point every sweep in the repo routes
through.  Serial in-process execution is the default (and what tests
compare against); ``workers=N`` drains the cells with N local
:class:`~repro.orchestrate.worker.QueueWorker` processes sharing a
temporary :class:`~repro.orchestrate.queue.JobQueue`, and ``cache``
opts in to the content-addressed result cache so a killed run resumes
from its completed cells.

Guarantees, in both modes:

* **Determinism** — each cell carries its own seed and the target
  function derives all randomness from it, so results do not depend on
  worker count or completion order.  Results are returned in grid
  order.
* **Canonical payloads** — every payload is passed through
  :func:`repro.orchestrate.cache.jsonify` whether or not it came from
  the cache, so cached and freshly-computed rows are byte-identical.
* **Crash safety** — completed cells are persisted (atomically) as they
  finish, not at the end of the run, so ``Ctrl-C`` or ``SIGKILL`` loses
  at most the in-flight cells.

Fault tolerance (see :mod:`repro.orchestrate.policy`):

* **Retries** — a :class:`~repro.orchestrate.policy.RetryPolicy` gives
  each cell a budget of attempts with exponential, deterministically
  jittered backoff; deterministic programming errors are classified
  fatal and fail fast.
* **Deadlines** — ``cell_timeout`` bounds one cell attempt (a worker
  holding an overdue lease is killed and replaced; serial mode checks
  cooperatively after the cell returns), ``deadline`` bounds the whole
  sweep.
* **Worker-crash recovery** — the lease a dead worker (OOM kill,
  segfault) held is released and the worker replaced, up to
  :data:`WORKER_RESTART_BUDGET` times.  The crash is charged to the
  worker, not the cell, and counted in the manifest's ``takeovers``.
* **Quarantine** — with ``on_error="quarantine"`` a cell that exhausts
  its attempts is recorded in ``SweepRun.failures`` (and the manifest's
  ``failures`` section) and skipped, so long sweeps return partial
  results with explicit holes; the default ``on_error="raise"``
  preserves fail-fast behavior.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import threading
import time
import types
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set

from repro.orchestrate.cache import ResultCache, cache_key, qualname_of
from repro.orchestrate.cells import Cell
from repro.orchestrate.manifest import RunManifest, _infer_fixed, _infer_grid, git_sha
from repro.orchestrate.policy import (
    CellFailure,
    PoolRestartBudgetError,
    RetryPolicy,
    SweepDeadlineError,
    describe_exception,
    timeout_info,
)
from repro.orchestrate.queue import Claim, JobQueue
from repro.orchestrate.worker import QueueWorker, _execute_attempt


class CellError(RuntimeError):
    """A sweep cell failed; carries which cell, how, and the original
    traceback so sweeps fail debuggably even across process boundaries.

    A worker's exception does not cross the process boundary — only the
    formatted string captured at the raise site does — so the
    traceback travels in the message, after the one-line summary.
    """

    def __init__(self, cell: Cell, failure) -> None:
        if isinstance(failure, BaseException):
            failure = CellFailure.from_infos(
                cell.params, cell.seed, None, [describe_exception(failure)]
            )
        message = (
            f"{cell.describe()} failed after {failure.attempts} attempt(s): "
            f"{failure.exc_type}: {failure.message}"
        )
        if failure.traceback:
            message += f"\n--- original traceback ---\n{failure.traceback.rstrip()}"
        super().__init__(message)
        self.cell = cell
        self.failure = failure


class _RemoteCause(RuntimeError):
    """Stand-in ``__cause__`` for an exception raised in a worker process:
    carries the worker-side traceback text where the chained-exception
    display expects a cause."""


@dataclass
class CellResult:
    """One completed cell: its payload plus execution provenance."""

    cell: Cell
    payload: Dict
    wall_s: float
    cached: bool
    key: Optional[str] = None
    #: Executions this cell took (0 for a cache hit, 1 for a clean run,
    #: more when retries were needed).
    attempts: int = 1


@dataclass
class SweepRun:
    """Results of one orchestrated sweep, in grid order, plus manifest.

    ``results`` holds only *completed* cells: with
    ``on_error="quarantine"`` the failed cells are absent from
    ``results`` and present in ``failures`` instead — partial results
    with explicit holes, never silent ones.
    """

    results: List[CellResult] = field(default_factory=list)
    manifest: Optional[RunManifest] = None
    failures: List[CellFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def payloads(self) -> List[Dict]:
        return [r.payload for r in self.results]


def _check_parallelisable(fn: Callable, what: str = "") -> None:
    qualname = getattr(fn, "__qualname__", "")
    if isinstance(fn, (types.FunctionType, types.LambdaType)) and (
        "<locals>" in qualname or "<lambda>" in qualname
    ):
        raise ValueError(
            f"cannot run {what}{qualname_of(fn)!r} with workers > 1: lambdas and "
            "locally-defined functions do not pickle to worker processes; "
            "move the function to module level"
        )


@dataclass
class _CellState:
    """Parent-side attempt bookkeeping for one pending cell."""

    attempts: int = 0  # completed (failed or successful) executions
    infos: List[Dict] = field(default_factory=list)  # one per failed attempt


class _Sweep:
    """Shared state and failure handling for one ``run_cells`` invocation."""

    def __init__(
        self,
        fn: Callable[..., Dict],
        cells: Sequence[Cell],
        keys: Sequence[str],
        cache: Optional[ResultCache],
        corrupt: Set[int],
        policy: RetryPolicy,
        cell_timeout: Optional[float],
        deadline: Optional[float],
        on_error: str,
        fault_hook: Optional[Callable],
    ) -> None:
        self.fn = fn
        self.cells = list(cells)
        self.keys = list(keys)
        self.cache = cache
        self.corrupt = corrupt
        self.policy = policy
        self.cell_timeout = cell_timeout
        self.deadline = deadline
        self.on_error = on_error
        self.fault_hook = fault_hook
        self.t0 = time.monotonic()
        self.states: Dict[int, _CellState] = {}
        self.results: List[Optional[CellResult]] = [None] * len(self.cells)
        self.failures: Dict[int, CellFailure] = {}
        self.retries = 0
        self.takeovers = 0
        self.cache_repairs = 0

    def state(self, i: int) -> _CellState:
        return self.states.setdefault(i, _CellState())

    def deadline_expired(self) -> bool:
        return (
            self.deadline is not None
            and time.monotonic() - self.t0 > self.deadline
        )

    def clamp_to_deadline(self, delay: float) -> float:
        """Cap a sleep at the time remaining before the sweep deadline.

        A retry backoff must never park the sweep *past* its deadline:
        sleeping the full backoff and only then noticing the expiry
        would retry cells the deadline had already condemned (and hold
        the caller hostage for up to ``backoff_cap_s``).
        """
        if self.deadline is None:
            return delay
        return min(delay, max(0.0, self.deadline - (time.monotonic() - self.t0)))

    def finish(self, i: int, payload: Dict, wall: float) -> None:
        if self.cache is not None:
            self.cache.put(
                self.keys[i],
                payload,
                meta={
                    "params": dict(self.cells[i].params),
                    "seed": self.cells[i].seed,
                    "fn": qualname_of(self.fn),
                },
            )
            if i in self.corrupt:
                # Self-healed: the corrupt entry was just overwritten by a
                # fresh, complete one.
                self.corrupt.discard(i)
                self.cache_repairs += 1
        self.results[i] = CellResult(
            self.cells[i],
            payload,
            wall,
            cached=False,
            key=self.keys[i],
            attempts=self.state(i).attempts,
        )

    def record_failure(self, i: int, info: Dict) -> _CellState:
        state = self.state(i)
        state.attempts += 1
        state.infos.append(info)
        return state

    def should_retry(self, i: int) -> bool:
        state = self.state(i)
        return state.attempts < self.policy.max_attempts and self.policy.is_retryable(
            state.infos[-1]["mro"]
        )

    def give_up(self, i: int) -> None:
        """Exhausted or fatal: quarantine the cell, or raise chained."""
        state = self.state(i)
        failure = CellFailure.from_infos(
            self.cells[i].params, self.cells[i].seed, self.keys[i], state.infos
        )
        if self.on_error == "quarantine":
            self.failures[i] = failure
            return
        last = state.infos[-1]
        cause = last.get("exception")
        if cause is None and last.get("traceback"):
            cause = _RemoteCause(
                f"{failure.exc_type}: {failure.message}\n{failure.traceback.rstrip()}"
            )
        raise CellError(self.cells[i], failure) from cause

    def expire_sweep(self, unfinished: Sequence[int]) -> None:
        """The whole-sweep deadline passed with ``unfinished`` cells left."""
        if self.on_error == "quarantine":
            for i in sorted(unfinished):
                state = self.state(i)
                self.failures[i] = CellFailure(
                    params=dict(self.cells[i].params),
                    seed=self.cells[i].seed,
                    key=self.keys[i],
                    exc_type="SweepDeadlineExceeded",
                    message=f"sweep deadline {self.deadline:g}s expired before this cell finished",
                    attempts=state.attempts,
                    wall_s_per_attempt=[round(x.get("wall", 0.0), 6) for x in state.infos],
                )
            return
        raise SweepDeadlineError(
            f"sweep deadline {self.deadline:g}s expired with "
            f"{len(unfinished)} cell(s) unfinished"
        )


def _run_serial(sweep: _Sweep, pending: Sequence[int]) -> None:
    for n, i in enumerate(pending):
        while True:
            if sweep.deadline_expired():
                sweep.expire_sweep(list(pending[n:]))
                return
            outcome = _execute_attempt(
                sweep.fn,
                sweep.cells[i],
                sweep.state(i).attempts + 1,
                sweep.fault_hook,
                keep_exception=True,
            )
            if outcome[0] == "ok":
                _, payload, wall = outcome
                if sweep.cell_timeout is not None and wall > sweep.cell_timeout:
                    # Cooperative soft timeout: serial execution cannot
                    # interrupt a running cell, so the overrun is detected
                    # after the fact and the attempt is charged as failed —
                    # the same accounting parallel mode applies.
                    sweep.record_failure(i, timeout_info(sweep.cell_timeout, wall))
                else:
                    sweep.state(i).attempts += 1
                    sweep.finish(i, payload, wall)
                    break
            else:
                sweep.record_failure(i, outcome[1])
            if sweep.should_retry(i):
                sweep.retries += 1
                delay = sweep.clamp_to_deadline(
                    sweep.policy.backoff_for(sweep.keys[i], sweep.state(i).attempts)
                )
                if delay > 0:
                    time.sleep(delay)
                continue
            sweep.give_up(i)
            break


#: Workers a ``workers > 1`` sweep replaces after they die (SIGKILL, OOM,
#: segfault) before it stops with :class:`PoolRestartBudgetError`.
WORKER_RESTART_BUDGET = 3
#: How often an idle local worker looks for a claimable cell, and the
#: longest the supervisor sleeps between harvests and lease checks.
_POLL_S = 0.05


def _queue_worker_main(root, fn, cells, config, policy, worker_id, fault_hook) -> None:
    """One local sweep worker.  It rebuilds the queue from plain
    arguments, so it runs under any multiprocessing start method."""
    parent = multiprocessing.parent_process()
    # A sweep killed outright must not leave workers computing cells
    # that nobody will collect.
    threading.Thread(target=lambda: (parent.join(), os._exit(1)), daemon=True).start()
    queue = JobQueue(root, fn, cells, config, max_attempts=policy.max_attempts, policy=policy)
    QueueWorker(
        queue, fn, worker_id=worker_id, fault_plan=fault_hook,
        poll_s=_POLL_S, allow_sigkill=True,
    ).run()


def _load_failures(sweep: _Sweep, queue: JobQueue, i: int) -> int:
    """Cell ``i``'s attempt history, taken from the queue's failure records."""
    state = sweep.state(i)
    state.infos = queue.failure_records(sweep.keys[i])
    state.attempts = len(state.infos)
    return state.attempts


def _harvest(sweep: _Sweep, queue: JobQueue, unsettled: List[int]) -> List[int]:
    """Pass the cells the workers settled to the sweep; return the rest.

    Every failure of a committed cell was retried, and all but the last
    of a quarantined one's: that is ``retries``.
    """
    left = []
    for i in unsettled:
        marker = queue.read_done(sweep.keys[i])
        if marker is not None:
            sweep.retries += _load_failures(sweep, queue, i)
            sweep.state(i).attempts += 1
            sweep.finish(i, queue.cache.get(sweep.keys[i]), float(marker["wall_s"]))
        elif queue.is_quarantined(sweep.keys[i]):
            sweep.retries += _load_failures(sweep, queue, i) - 1
            sweep.give_up(i)
        else:
            left.append(i)
    return left


def _release_leases(queue: JobQueue, keys: Sequence[str], worker_id: str) -> int:
    """Release the leases a dead worker still holds, charging no attempt."""
    held = 0
    for lease in map(queue.read_lease, keys):
        if lease and lease.get("state") == "held" and lease.get("worker") == worker_id:
            queue.release(Claim(lease["key"], lease["nonce"], int(lease["token"])))
            held += 1
    return held


def _stop(procs: Dict[str, multiprocessing.Process]) -> None:
    for proc in procs.values():
        proc.kill()
        proc.join()
    procs.clear()


def _run_queue(sweep: _Sweep, pending: Sequence[int], workers: int, config) -> None:
    """Drain ``pending`` with local :class:`QueueWorker` processes sharing
    a :class:`JobQueue` in a temporary directory.

    Wakes when a worker exits, at least every ``_POLL_S``, to harvest
    settled cells, release the leases of dead workers (``takeovers``),
    kill a worker whose lease outlived ``cell_timeout`` (a failed
    attempt) and start replacements.
    """
    cells = [sweep.cells[i] for i in pending]
    root = tempfile.mkdtemp(prefix="repro-sweep-")
    procs: Dict[str, multiprocessing.Process] = {}
    try:
        queue = JobQueue(
            root, sweep.fn, cells, config,
            max_attempts=sweep.policy.max_attempts, policy=sweep.policy,
        )
        unsettled = list(pending)
        started = restarts = 0
        while True:
            unsettled = _harvest(sweep, queue, unsettled)
            if not unsettled:
                return
            if sweep.deadline_expired():
                _stop(procs)
                unsettled = _harvest(sweep, queue, unsettled)
                sweep.retries += sum(_load_failures(sweep, queue, i) for i in unsettled)
                if unsettled:
                    sweep.expire_sweep(unsettled)
                return
            keys = [sweep.keys[i] for i in unsettled]
            for worker_id, proc in list(procs.items()):
                if proc.exitcode is None:
                    continue
                del procs[worker_id]
                held = _release_leases(queue, keys, worker_id)
                sweep.takeovers += held
                restarts += bool(held or proc.exitcode)
                if restarts > WORKER_RESTART_BUDGET:
                    raise PoolRestartBudgetError(
                        f"{restarts} sweep worker(s) died (budget: "
                        f"{WORKER_RESTART_BUDGET} replacements) with "
                        f"{len(unsettled)} cell(s) unfinished"
                    )
            for key in keys if sweep.cell_timeout is not None else ():
                lease = queue.read_lease(key)
                owner = lease.get("worker") if lease else None
                if owner not in procs or lease.get("state") != "held":
                    continue
                held_s = time.time() - float(lease["acquired_at"])
                if held_s <= sweep.cell_timeout:
                    continue
                _stop({owner: procs.pop(owner)})
                if not queue.is_done(key):
                    claim = Claim(key, lease["nonce"], int(lease["token"]))
                    queue.record_failure(claim, timeout_info(sweep.cell_timeout, held_s), owner)
                    queue.maybe_quarantine(key)
                _release_leases(queue, keys, owner)
            while len(procs) < min(workers, len(unsettled)):
                worker_id = f"sweep-worker-{started}"
                started += 1
                args = (root, sweep.fn, cells, config, sweep.policy, worker_id, sweep.fault_hook)
                procs[worker_id] = multiprocessing.Process(target=_queue_worker_main, args=args)
                procs[worker_id].start()
            wait([p.sentinel for p in procs.values()], sweep.clamp_to_deadline(_POLL_S))
    finally:
        _stop(procs)
        shutil.rmtree(root, ignore_errors=True)


def run_cells(
    fn: Callable[..., Dict],
    cells: Sequence[Cell],
    workers: int = 0,
    cache: Optional[ResultCache] = None,
    config: Optional[Mapping] = None,
    manifest_meta: Optional[Mapping] = None,
    policy: Optional[RetryPolicy] = None,
    cell_timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    on_error: str = "raise",
    fault_hook: Optional[Callable[[Cell, int], None]] = None,
) -> SweepRun:
    """Execute ``fn`` over ``cells``, with optional fan-out and caching.

    ``workers <= 1`` runs serially in-process (the default); larger
    values fan the uncached cells out across that many worker processes.
    With a ``cache``, completed cells are looked up before execution and
    persisted the moment they finish.  ``config`` is folded into every
    cache key (code-version tags live here); ``manifest_meta`` is
    recorded verbatim in the manifest's ``extra`` field.

    Fault tolerance: ``policy`` grants each cell multiple attempts with
    deterministic backoff, ``cell_timeout``/``deadline`` bound cell and
    sweep durations, ``on_error="quarantine"`` records exhausted cells
    in the manifest instead of raising, and ``fault_hook(cell,
    attempt)`` — called in the worker immediately before each attempt —
    injects deterministic faults for testing (see
    :class:`repro.orchestrate.policy.SweepFaultPlan`).
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
    if cell_timeout is not None and cell_timeout <= 0:
        raise ValueError(f"cell_timeout must be positive, got {cell_timeout}")
    if deadline is not None and deadline < 0:
        raise ValueError(f"deadline must be non-negative, got {deadline}")
    policy = policy or RetryPolicy()
    cells = list(cells)
    started = RunManifest.now()
    t0 = time.perf_counter()

    # Keys are computed unconditionally: they seed the deterministic
    # retry jitter and identify cells in the failures section even for
    # cache-less runs.
    keys: List[str] = [cache_key(fn, c.params, c.seed, config) for c in cells]

    pending: List[int] = []
    corrupt: Set[int] = set()
    cached_results: List[Optional[CellResult]] = [None] * len(cells)
    for i, cell in enumerate(cells):
        hit, status = cache.probe(keys[i]) if cache is not None else (None, "miss")
        if hit is not None:
            cached_results[i] = CellResult(
                cell, hit, 0.0, cached=True, key=keys[i], attempts=0
            )
        else:
            if status == "corrupt":
                corrupt.add(i)
            pending.append(i)

    sweep = _Sweep(
        fn, cells, keys, cache, corrupt, policy,
        cell_timeout, deadline, on_error, fault_hook,
    )
    n_corrupt = len(corrupt)
    for i, r in enumerate(cached_results):
        if r is not None:
            sweep.results[i] = r

    if workers > 1 and pending:
        _check_parallelisable(fn)
        if fault_hook is not None:
            _check_parallelisable(fault_hook, what="fault_hook ")
        _run_queue(sweep, pending, workers, config)
    elif pending:
        _run_serial(sweep, pending)

    done_results: List[CellResult] = [r for r in sweep.results if r is not None]
    failures: List[CellFailure] = [sweep.failures[i] for i in sorted(sweep.failures)]
    hits = sum(1 for r in done_results if r.cached)
    manifest = RunManifest(
        fn=qualname_of(fn),
        grid=_infer_grid(cells),
        seeds=sorted({c.seed for c in cells}),
        fixed=_infer_fixed(cells),
        workers=workers,
        cache_dir=str(cache.root) if cache is not None else None,
        n_cells=len(cells),
        cache_hits=hits,
        cache_misses=len(done_results) - hits,
        elapsed_s=time.perf_counter() - t0,
        cells=[
            {
                "params": dict(r.cell.params),
                "seed": r.cell.seed,
                "key": r.key,
                "cached": r.cached,
                "wall_s": round(r.wall_s, 6),
                "attempts": r.attempts,
            }
            for r in done_results
        ],
        git_sha=git_sha(),
        started_at=started,
        extra=dict(manifest_meta or {}),
        retries=sweep.retries,
        takeovers=sweep.takeovers,
        cache_corrupt=n_corrupt,
        cache_repairs=sweep.cache_repairs,
        failures=[f.to_dict() for f in failures],
    )
    return SweepRun(results=done_results, manifest=manifest, failures=failures)

