"""Fault-tolerance policy for sweep orchestration.

Long sweeps fail in boring, recoverable ways — a transient allocator
hiccup in one cell, an OOM-killed worker, a cell that wedges on a
pathological parameter point — and in one unrecoverable way: a bug that
fails deterministically every time.  This module separates the two.

* :class:`RetryPolicy` — how many attempts each cell gets, how long to
  back off between them (exponential, with *deterministic* jitter seeded
  from the cell key so reruns are byte-identical), and which exception
  types are worth retrying at all.
* :class:`CellFailure` — the quarantine record for a cell that exhausted
  its attempts: exception type, message, traceback, per-attempt wall
  times.  Everything except the volatile fields
  (:data:`FAILURE_VOLATILE_KEYS`) is deterministic across serial,
  parallel, and resumed runs.
* :class:`SweepFaultPlan` / :class:`CellFault` — a deterministic fault
  injector for the *execution layer itself*, in the spirit of
  :mod:`repro.sim.faults`: a plan declares which cells misbehave on
  which attempts (raise a transient error, oversleep a timeout, or
  SIGKILL the worker mid-cell), so retries, worker replacement, and
  quarantine are testable without flakiness.

Faults address cells by ``(params subset, seed, attempt)`` — never by
wall clock or execution order — so the same plan produces the same
injected schedule whether the sweep runs serially, across N workers, or
resumed from a half-filled cache.
"""

from __future__ import annotations

import json
import os
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "CellTimeout",
    "DISTRIBUTED_FAULT_KINDS",
    "EXECUTION_FAULT_KINDS",
    "InjectedFault",
    "SweepDeadlineError",
    "PoolRestartBudgetError",
    "RetryPolicy",
    "CellFailure",
    "FAILURE_VOLATILE_KEYS",
    "CellFault",
    "SweepFaultPlan",
    "describe_exception",
]


class CellTimeout(Exception):
    """A cell attempt exceeded its soft per-cell timeout.

    Never raised inside the cell — the runner synthesizes it (with
    workers it kills the worker whose lease outlived the timeout; serial
    mode checks the wall time after the cell returns).  Retryable under
    the default policy: timeouts are how transient stalls present.
    """


class InjectedFault(RuntimeError):
    """Raised by a :class:`CellFault` of kind ``"raise"`` (and by kind
    ``"kill"`` when there is no worker process to kill)."""


class SweepDeadlineError(RuntimeError):
    """The whole-sweep deadline expired with cells still unfinished."""


class PoolRestartBudgetError(RuntimeError):
    """Sweep workers died more often than the runner's replacement
    budget (:data:`repro.orchestrate.runner.WORKER_RESTART_BUDGET`) allows.

    Raised in both error modes: workers that cannot stay up are an
    infrastructure failure, not a property of any one cell, so
    quarantining individual cells would misattribute it.
    """


def describe_exception(exc: BaseException) -> Dict:
    """Picklable failure info for one failed attempt.

    Captured at the raise site (inside the worker), because the
    exception object itself may not survive pickling — and even when it
    does, its traceback never does.  ``mro`` carries the class names the
    retry policy classifies against.
    """
    return {
        "exc_type": type(exc).__name__,
        "mro": [c.__name__ for c in type(exc).__mro__ if c is not object],
        "message": str(exc),
        "traceback": traceback.format_exc(),
        "wall": 0.0,
    }


def timeout_info(timeout_s: float, wall: float) -> Dict:
    """Failure info for a synthesized :class:`CellTimeout` (no raise site)."""
    return {
        "exc_type": CellTimeout.__name__,
        "mro": [c.__name__ for c in CellTimeout.__mro__ if c is not object],
        "message": f"cell exceeded cell_timeout={timeout_s:g}s",
        "traceback": "",
        "wall": wall,
    }


def _names_of(types_or_names: Sequence[Union[str, type]]) -> Tuple[str, ...]:
    return tuple(
        t if isinstance(t, str) else t.__name__ for t in types_or_names
    )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-cell retry budget, backoff schedule, and failure classification.

    ``fatal_on`` wins over ``retry_on``; both match against *any* class
    name in the exception's MRO, so ``retry_on=("OSError",)`` catches
    ``ConnectionError`` too.  The defaults retry everything except the
    deterministic programming errors — a ``TypeError`` will fail
    identically on every attempt, so retrying it only burns budget.

    Backoff for attempt ``k`` (1-based count of failures so far) is
    ``min(cap, base * factor**(k-1))`` scaled by a jitter factor drawn
    from an RNG seeded by ``(cell key, k)`` — deterministic per cell,
    decorrelated across cells, so a thundering herd of retries spreads
    out the same way on every rerun.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 30.0
    jitter: float = 0.5
    retry_on: Tuple[str, ...] = ("Exception",)
    fatal_on: Tuple[str, ...] = (
        "TypeError",
        "ValueError",
        "AssertionError",
        "NotImplementedError",
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_s < 0 or self.backoff_factor < 1 or self.backoff_cap_s < 0:
            raise ValueError("backoff parameters must be non-negative (factor >= 1)")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        object.__setattr__(self, "retry_on", _names_of(self.retry_on))
        object.__setattr__(self, "fatal_on", _names_of(self.fatal_on))

    def is_retryable(self, mro_names: Sequence[str]) -> bool:
        """Classify a failed attempt by its exception's MRO class names."""
        names = set(mro_names)
        if names & set(self.fatal_on):
            return False
        return bool(names & set(self.retry_on))

    def backoff_for(self, key: str, attempt: int) -> float:
        """Deterministic delay before retrying ``key`` after failure #``attempt``."""
        if self.backoff_s <= 0:
            return 0.0
        base = min(
            self.backoff_cap_s,
            self.backoff_s * self.backoff_factor ** (attempt - 1),
        )
        if not self.jitter:
            return base
        rng = random.Random(f"{key}:{attempt}")
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: Failure-record fields that legitimately differ between otherwise
#: identical runs: tracebacks embed worker-vs-parent frames and file
#: paths, wall times are measurement.  Strip these (via
#: :func:`repro.orchestrate.strip_volatile`) before comparing the
#: ``failures`` sections of two manifests.
FAILURE_VOLATILE_KEYS = frozenset({"traceback", "wall_s_per_attempt"})


@dataclass
class CellFailure:
    """One quarantined cell: what failed, how often, and how.

    ``attempts`` counts *completed* failing attempts — a worker crash is
    not charged, and a cell a sweep deadline cut off before it ever ran
    records 0.
    """

    params: Dict
    seed: int
    key: Optional[str]
    exc_type: str
    message: str
    attempts: int
    wall_s_per_attempt: List[float] = field(default_factory=list)
    traceback: str = ""

    @classmethod
    def from_infos(
        cls, params: Mapping, seed: int, key: Optional[str], infos: Sequence[Dict]
    ) -> "CellFailure":
        last = infos[-1]
        return cls(
            params=dict(params),
            seed=int(seed),
            key=key,
            exc_type=last["exc_type"],
            message=last["message"],
            attempts=len(infos),
            wall_s_per_attempt=[round(i.get("wall", 0.0), 6) for i in infos],
            traceback=last.get("traceback", ""),
        )

    def to_dict(self) -> Dict:
        return {
            "params": dict(self.params),
            "seed": self.seed,
            "key": self.key,
            "exc_type": self.exc_type,
            "message": self.message,
            "attempts": self.attempts,
            "wall_s_per_attempt": list(self.wall_s_per_attempt),
            "traceback": self.traceback,
        }

    def summary(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return (
            f"Cell({inner}, seed={self.seed}): {self.exc_type}: {self.message} "
            f"({self.attempts} attempt(s))"
        )


#: Fault kinds the execution hook interprets (serial runner and queue
#: workers alike).
EXECUTION_FAULT_KINDS = ("raise", "sleep", "kill")

#: Fault kinds only the queue worker interprets — they manipulate the
#: lease protocol, which a serial sweep does not use.  The
#: execution hook skips them, so one plan drives both paths.
DISTRIBUTED_FAULT_KINDS = ("zombie", "pause_heartbeat")


@dataclass(frozen=True)
class CellFault:
    """One injected fault: which cells it hits, on which attempts, and how.

    ``kind`` is one of:

    * ``"raise"`` — raise :class:`InjectedFault` (a retryable transient);
    * ``"sleep"`` — stall for ``sleep_s`` before running the cell, to
      trip a per-cell timeout;
    * ``"kill"`` — ``SIGKILL`` the worker process right after it claims
      the cell, so it dies holding the lease (the worker-crash
      scenario: a ``workers > 1`` sweep releases the lease and replaces
      the worker; on a shared queue the lease goes stale and is taken
      over).  With no worker to kill (serial mode), it degrades to a
      retryable :class:`InjectedFault` so serial and parallel runs of
      one plan survive the same schedule.
    * ``"zombie"`` — queue workers only: after computing the cell,
      stall ``sleep_s`` past lease expiry before committing, so the
      commit replays a write whose fencing token has been superseded;
    * ``"pause_heartbeat"`` — queue workers only: suppress lease
      heartbeats for ``sleep_s`` so the lease goes stale mid-compute.

    A fault fires when the cell's seed matches (``seed=None`` matches
    any), every ``params`` item matches the cell's params, and the
    1-based attempt number is in ``attempts``.  With workers the attempt
    number is the cell's fencing token, which every claim bumps — also
    the re-claim after a crash — so an ``attempts=(1,)`` kill fires
    once.  ``once_marker`` names a file created atomically on first
    firing; while it exists the fault is spent, in every process of the
    sweep, whatever attempts it lists.
    """

    kind: str
    seed: Optional[int] = None
    params: Optional[Mapping] = None
    attempts: Tuple[int, ...] = (1,)
    message: str = "injected transient fault"
    sleep_s: float = 0.0
    once_marker: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EXECUTION_FAULT_KINDS + DISTRIBUTED_FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}: expected one of "
                f"{EXECUTION_FAULT_KINDS + DISTRIBUTED_FAULT_KINDS}"
            )
        object.__setattr__(self, "attempts", tuple(int(a) for a in self.attempts))
        if self.params is not None:
            object.__setattr__(self, "params", dict(self.params))

    def matches(self, cell, attempt: int) -> bool:
        if attempt not in self.attempts:
            return False
        if self.seed is not None and cell.seed != self.seed:
            return False
        if self.params:
            for k, v in self.params.items():
                if cell.params.get(k) != v:
                    return False
        return True

    def claim_once(self) -> bool:
        """Atomically claim a one-shot fault; False if already spent."""
        if self.once_marker is None:
            return True
        try:
            fd = os.open(self.once_marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True

    def fire(self, cell, attempt: int) -> None:
        if self.kind in DISTRIBUTED_FAULT_KINDS:
            # Interpreted by the queue worker at the lease layer, not by
            # the execution hook — a no-op here keeps one plan usable on
            # both the in-process and the distributed path.
            return
        if not self.claim_once():
            return
        if self.kind == "sleep":
            time.sleep(self.sleep_s)
        elif self.kind == "raise":
            raise InjectedFault(self.message)
        elif self.kind == "kill":
            # A queue worker dies at claim time, before this hook runs.
            raise InjectedFault(f"simulated worker SIGKILL (serial mode): {self.message}")

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind, "attempts": list(self.attempts)}
        if self.seed is not None:
            out["seed"] = self.seed
        if self.params:
            out["params"] = dict(self.params)
        if self.message != "injected transient fault":
            out["message"] = self.message
        if self.sleep_s:
            out["sleep_s"] = self.sleep_s
        if self.once_marker is not None:
            out["once_marker"] = self.once_marker
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "CellFault":
        known = {"kind", "seed", "params", "attempts", "message", "sleep_s", "once_marker"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CellFault field(s): {sorted(unknown)}")
        kwargs = dict(data)
        if "attempts" in kwargs:
            kwargs["attempts"] = tuple(kwargs["attempts"])
        return cls(**kwargs)


@dataclass(frozen=True)
class SweepFaultPlan:
    """A picklable ``fault_hook(cell, attempt)``: ordered injected faults.

    Passed to :func:`repro.orchestrate.run_cells` as ``fault_hook``; the
    runner calls it inside the worker (or inline, serially) immediately
    before each cell attempt.  At most the first matching fault fires
    per attempt, so plans compose predictably.
    """

    faults: Tuple[CellFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __call__(self, cell, attempt: int) -> None:
        for fault in self.faults:
            if fault.kind in DISTRIBUTED_FAULT_KINDS:
                continue
            if fault.matches(cell, attempt):
                fault.fire(cell, attempt)
                return

    def first_matching(
        self, cell, attempt: int, kinds: Sequence[str]
    ) -> Optional[CellFault]:
        """The first fault of one of ``kinds`` matching ``(cell, attempt)``.

        The distributed queue worker uses this to interpret lease-layer
        faults (``kill`` at claim time, ``zombie``/``pause_heartbeat``)
        itself; the returned fault's ``claim_once()``/``sleep_s`` drive
        the injection at the right protocol point.
        """
        for fault in self.faults:
            if fault.kind in kinds and fault.matches(cell, attempt):
                return fault
        return None

    def to_dict(self) -> Dict:
        return {"faults": [f.to_dict() for f in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepFaultPlan":
        return cls(faults=tuple(CellFault.from_dict(f) for f in data.get("faults", ())))

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepFaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text()))
