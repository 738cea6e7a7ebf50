"""Lock-ownership annotations: the sanitizer's ground truth.

Concurrent models declare which of their attributes are shared state and
what protects each one, via the :func:`shared_state` class decorator:

    @shared_state(
        cells={"_tops": guarded_by("_locks", atomic_reads=True,
                                   lease_guarded=True)},
        lock_order="ascending-index",
    )
    class ConcurrentMultiQueue: ...

The declaration serves both halves of the sanitizer.  The **static**
checker (``repro check``, :mod:`repro.staticcheck.discipline`) reads it
from the AST, so it checks the discipline without importing or
instantiating anything.  The
**dynamic** detector (:mod:`repro.sanitizer.detector`) resolves it
against live instances with :func:`resolve_policies`, mapping each
``SimCell`` identity to its policy and owning ``SimLock`` — list-valued
attributes are zipped index-wise (``_tops[i]`` is guarded by
``_locks[i]``), the idiom all per-queue structures use.

Policies
--------
* :func:`guarded_by` — writes require holding the named lock attribute.
  ``atomic_reads`` blesses lock-free reads (the MultiQueue's unsynchronized
  top peeks — benign by design, the algorithm re-validates under the
  lock).  ``lease_guarded`` additionally requires writes to use
  ``GuardedWrite`` so they re-validate holdership under lock leases.
* :func:`atomic_cell` — the cell is a synchronization object itself
  (CAS-based versions/regions); all access patterns are legal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.primitives import SimCell, SimLock


@dataclass(frozen=True)
class CellPolicy:
    """How one shared-cell attribute may be accessed."""

    #: Attribute name of the owning lock (or lock list, zipped
    #: index-wise); ``None`` for atomic cells.
    guard: Optional[str] = None
    #: The cell is itself a synchronization object (CAS target): any
    #: access pattern is legal, races on it are by design.
    atomic: bool = False
    #: Lock-free reads are blessed (writes still need the guard).
    atomic_reads: bool = False
    #: Writes must use ``GuardedWrite`` (revalidates holdership), so the
    #: cell stays consistent under lease revocation.
    lease_guarded: bool = False


def guarded_by(
    guard: str, atomic_reads: bool = False, lease_guarded: bool = False
) -> CellPolicy:
    """Writes to the cell require holding ``guard`` (an attribute name)."""
    return CellPolicy(
        guard=guard, atomic_reads=atomic_reads, lease_guarded=lease_guarded
    )


def atomic_cell() -> CellPolicy:
    """The cell is a CAS-based synchronization object; races are by design."""
    return CellPolicy(atomic=True)


@dataclass(frozen=True)
class SharedStateSpec:
    """A class's full shared-state declaration (``cls.__shared_state__``)."""

    cells: Tuple[Tuple[str, CellPolicy], ...]
    #: Human-readable name of the lock-order contract blocking acquirers
    #: follow (documented in docs/simulator.md, "Lock-order contract").
    lock_order: Optional[str] = None

    def policy(self, attr: str) -> Optional[CellPolicy]:
        """Policy declared for attribute ``attr`` (``None`` if absent)."""
        for name, pol in self.cells:
            if name == attr:
                return pol
        return None


def shared_state(cells: Dict[str, CellPolicy], lock_order: Optional[str] = None):
    """Class decorator declaring shared cells and their owning locks."""

    spec = SharedStateSpec(cells=tuple(cells.items()), lock_order=lock_order)

    def decorate(cls):
        cls.__shared_state__ = spec
        return cls

    return decorate


@dataclass(frozen=True)
class ResolvedCell:
    """One live ``SimCell`` bound to its policy and owning lock."""

    cell: SimCell
    policy: CellPolicy
    #: The owning ``SimLock`` instance (``None`` for atomic cells).
    guard: Optional[SimLock]
    #: Report label, e.g. ``ConcurrentMultiQueue._tops[3]``.
    label: str


def resolve_policies(*models: Any) -> Dict[int, ResolvedCell]:
    """Map ``id(cell) -> ResolvedCell`` for every declared cell of every
    model instance (models without ``__shared_state__`` are skipped).

    List-valued cell attributes are zipped index-wise with list-valued
    guard attributes; a scalar guard protects every cell in the list.
    """
    resolved: Dict[int, ResolvedCell] = {}
    for model in models:
        spec = getattr(type(model), "__shared_state__", None)
        if spec is None:
            continue
        cls_name = type(model).__name__
        for attr, policy in spec.cells:
            value = getattr(model, attr)
            guard_value = getattr(model, policy.guard) if policy.guard else None
            cells: List[Tuple[SimCell, Optional[SimLock], str]] = []
            if isinstance(value, SimCell):
                guard = guard_value if isinstance(guard_value, SimLock) else None
                cells.append((value, guard, f"{cls_name}.{attr}"))
            elif isinstance(value, (list, tuple)):
                for index, cell in enumerate(value):
                    if not isinstance(cell, SimCell):
                        continue
                    if isinstance(guard_value, (list, tuple)):
                        guard = guard_value[index]
                    else:
                        guard = guard_value
                    if not isinstance(guard, SimLock):
                        guard = None
                    cells.append((cell, guard, f"{cls_name}.{attr}[{index}]"))
            else:
                raise TypeError(
                    f"{cls_name}.{attr} declared shared but is neither a "
                    f"SimCell nor a list of them: {value!r}"
                )
            for cell, guard, label in cells:
                resolved[id(cell)] = ResolvedCell(cell, policy, guard, label)
    return resolved
