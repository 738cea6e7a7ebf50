"""Timestamped operation recording and offline rank computation.

The paper measures rank quality by timestamping returned elements and
counting inversions in post-processing, conceding the timestamps might
perturb the schedule.  The simulator does strictly better: models call
the recorder exactly at their linearization points (under the lock / at
the winning CAS), so the recorded history *is* the linearization, with
no probe effect.

Offline, :meth:`OpRecorder.rank_trace` replays the history over the
elements sorted by priority, producing the exact rank paid by every
removal — the same cost notion as the sequential process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

import numpy as np

from repro.core.rank import offline_ranks
from repro.core.records import RankTrace


class HistoryError(ValueError):
    """Raised when a recorded history is structurally inconsistent."""


@dataclass(frozen=True)
class OpEvent:
    """One linearized operation: ``kind`` is ``'ins'`` or ``'del'``."""

    time: float
    kind: str
    eid: int


class OpRecorder:
    """Collects linearized insert/remove events from concurrent models.

    Element ids are allocated by :meth:`new_element`, which also fixes
    the element's priority.  Total order among equal priorities is by
    element id, so ranks are always well defined.
    """

    def __init__(self) -> None:
        self._priorities: List[Any] = []
        self._events: List[OpEvent] = []

    # -- recording --------------------------------------------------------

    def new_element(self, priority: Any) -> int:
        """Register an element; returns its id."""
        eid = len(self._priorities)
        self._priorities.append(priority)
        return eid

    def record_insert(self, time: float, eid: int) -> None:
        """Record that ``eid`` became visible at simulated ``time``."""
        self._events.append(OpEvent(time, "ins", eid))

    def record_remove(self, time: float, eid: int) -> None:
        """Record that ``eid`` was removed at simulated ``time``."""
        self._events.append(OpEvent(time, "del", eid))

    # -- inspection ---------------------------------------------------------

    @property
    def n_elements(self) -> int:
        """Number of element ids allocated."""
        return len(self._priorities)

    @property
    def events(self) -> List[OpEvent]:
        """The recorded history, in linearization order."""
        return list(self._events)

    def counts(self) -> Tuple[int, int]:
        """``(inserts, removes)`` recorded so far."""
        ins = sum(1 for e in self._events if e.kind == "ins")
        return ins, len(self._events) - ins

    def validate(self) -> None:
        """Check structural well-formedness of the recorded history.

        A valid history inserts every element at most once, removes only
        previously inserted (and not yet removed) elements, references
        only allocated element ids, and carries non-decreasing
        linearization times.  Models are expected to produce valid
        histories under any schedule; tests call this after stress runs.

        Raises
        ------
        HistoryError
            Describing the first inconsistency found.
        """
        state = bytearray(len(self._priorities))  # 0 absent, 1 present, 2 gone
        last_time = float("-inf")
        for k, event in enumerate(self._events):
            if not 0 <= event.eid < len(self._priorities):
                raise HistoryError(f"event {k}: unknown element id {event.eid}")
            if event.time < last_time:
                raise HistoryError(
                    f"event {k}: time {event.time} precedes {last_time}"
                )
            last_time = event.time
            if event.kind == "ins":
                if state[event.eid] != 0:
                    raise HistoryError(f"event {k}: element {event.eid} re-inserted")
                state[event.eid] = 1
            elif event.kind == "del":
                if state[event.eid] != 1:
                    raise HistoryError(
                        f"event {k}: element {event.eid} removed while "
                        f"{'absent' if state[event.eid] == 0 else 'already removed'}"
                    )
                state[event.eid] = 2
            else:
                raise HistoryError(f"event {k}: unknown kind {event.kind!r}")

    # -- offline analysis ------------------------------------------------------

    def rank_trace(self) -> RankTrace:
        """Exact rank paid by each removal, replaying the history.

        Elements are globally ordered by ``(priority, eid)``; each
        ``del`` event pays the count of present elements at or before
        its position (:func:`~repro.core.rank.offline_ranks`).  Events
        are processed in recorded order, which is the models'
        linearization order (time ties are already resolved by the
        engine's deterministic scheduling).
        """
        order = sorted(range(len(self._priorities)), key=lambda e: (self._priorities[e], e))
        position = np.empty(len(order), dtype=np.int64)
        position[order] = np.arange(len(order))
        n = len(self._events)
        kinds = np.fromiter((1 if e.kind == "ins" else -1 for e in self._events), np.int64, n)
        eids = np.fromiter((e.eid for e in self._events), np.int64, n)
        ranks = offline_ranks(kinds, position[eids], max(len(order), 1))
        return RankTrace(ranks.tolist())

    def inversion_count(self) -> int:
        """Number of removal *inversions*: ordered pairs of removals
        where a higher-priority (smaller) element came out after a
        lower-priority one that was already present when it was removed.

        Equivalent to ``sum(rank_i - 1)`` over the rank trace — each
        removal of rank ``r`` jumps over ``r - 1`` better candidates.
        """
        trace = self.rank_trace()
        if len(trace) == 0:
            return 0
        return int((trace.ranks - 1).sum())

    def __repr__(self) -> str:
        ins, rem = self.counts()
        return f"OpRecorder(elements={self.n_elements}, inserts={ins}, removes={rem})"
