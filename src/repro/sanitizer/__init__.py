"""Concurrency sanitizer for the simulated MultiQueue stack.

Two halves (see ``docs/simulator.md``, "The concurrency sanitizer"):

* **Dynamic** — attach :class:`Sanitizer` to an engine and the run's
  event stream is replayed through a FastTrack-style happens-before
  detector (:mod:`.hb`) and an Eraser-style lockset analyzer
  (:mod:`.lockset`); :meth:`Sanitizer.report` classifies every finding
  against the models' lock-ownership annotations (:mod:`.annotations`).
  ``repro sanitize`` and the ``sanitized`` pytest fixture wrap this.
* **Static** — ``repro check`` (rules SAN101–106 in
  :mod:`repro.staticcheck`) checks the syscall discipline and lock order
  from the AST alone, using the same annotations as ground truth.

Note: :mod:`.scenarios` is intentionally not imported here — the
concurrent models import :mod:`.annotations` at class-definition time,
and scenarios imports the models.
"""

from repro.sanitizer.annotations import (
    CellPolicy,
    ResolvedCell,
    SharedStateSpec,
    atomic_cell,
    guarded_by,
    resolve_policies,
    shared_state,
)
from repro.sanitizer.detector import (
    DisciplineViolation,
    LocksetFinding,
    RaceFinding,
    Sanitizer,
    SanitizerReport,
)
from repro.sanitizer.events import Event, EventLog
from repro.sanitizer.hb import HBDetector, HBRace, VectorClock
from repro.sanitizer.lockset import LocksetAnalyzer, LocksetWarning

__all__ = [
    "CellPolicy",
    "DisciplineViolation",
    "Event",
    "EventLog",
    "HBDetector",
    "HBRace",
    "LocksetAnalyzer",
    "LocksetFinding",
    "LocksetWarning",
    "RaceFinding",
    "ResolvedCell",
    "Sanitizer",
    "SanitizerReport",
    "SharedStateSpec",
    "VectorClock",
    "atomic_cell",
    "guarded_by",
    "resolve_policies",
    "shared_state",
]
