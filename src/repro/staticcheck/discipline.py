"""Per-function syscall-discipline pass: rules SAN101–SAN104.

Each class's :func:`~repro.sanitizer.annotations.shared_state`
declaration, read straight from the AST, is the ground truth for the
discipline the dynamic sanitizer checks at runtime:

========  =============================================================
SAN101    a ``Write``/``GuardedWrite`` reaches a guarded cell on a path
          where no lock of the owning guard is held (or the
          ``GuardedWrite`` names the wrong guard)
SAN102    a plain ``Write`` to a *lease-guarded* cell — must be
          ``GuardedWrite`` so the publish revalidates holdership
SAN103    a blocking ``Acquire`` whose acquisition order is not provably
          the canonical ascending-index order (see the "Lock-order
          contract" section of docs/simulator.md): an ``Acquire`` of
          ``self._arr[i]`` inside a loop needs ``sorted(...)`` evidence
          on the iterable; several blocking acquisitions of distinct
          indices need ``min``/``max`` (or ``sorted``) ordering
          evidence.  ``TryAcquire`` is exempt — try-with-restart never
          deadlocks.
SAN104    raw attribute mutation of declared shared state
          (``cell.value = ...``) outside a syscall
========  =============================================================

The path analysis is a conservative abstract interpretation of each
function body: the held-lock set is tracked through straight-line code,
``if`` branch forks (merged by intersection; terminated branches —
``return``/``continue``/``break``/``raise`` — drop out), ``while``
loops (the post-loop state is the meet of the ``break`` states),
``try`` statements (each handler starts from the state at ``try``
entry, ``else`` from the body's exit), ``with`` bodies, and the
try-lock idiom (``ok = yield TryAcquire(L)`` followed by ``if
ok:``/``if not ok:``).  Lock identity is syntactic: writes to a guarded
cell accept *any* held lock of the owning guard array, because index
aliasing (``_tops[chosen]`` under ``_locks[first]``/``_locks[second]``)
is beyond static reach — the exact per-index pairing is the dynamic
detector's job.  Across call boundaries the lock-order pass
(:mod:`~repro.staticcheck.lockorder`) takes over.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import FunctionInfo, ModuleInfo, Project
from repro.staticcheck.report import Finding

#: The simulator syscalls both lock passes interpret, keyed by
#: constructor name (the terminal of the call's canonical name).
SYSCALL_KINDS = {
    "Acquire": "acquire",
    "TryAcquire": "try_acquire",
    "Release": "release",
    "Write": "write",
    "GuardedWrite": "guarded_write",
}


def syscall_kind(module: ModuleInfo, call: ast.Call) -> Optional[str]:
    """The :data:`SYSCALL_KINDS` kind of ``call``, or ``None``."""
    name = module.canon(call.func)
    return SYSCALL_KINDS.get(name.rsplit(".", 1)[-1]) if name else None


#: A held lock, syntactically: (attribute name, index expression source
#: or None for scalar locks), e.g. ("_locks", "q") or ("_shared_lock", None).
LockToken = Tuple[str, Optional[str]]


@dataclass(frozen=True)
class StaticPolicy:
    guard: Optional[str]
    atomic: bool
    lease_guarded: bool


# -- annotation extraction (AST only, no imports) ---------------------------


def _extract_spec(cls: ast.ClassDef) -> Optional[Dict[str, StaticPolicy]]:
    """Parse a ``@shared_state(cells={...})`` decorator, if present."""
    for deco in cls.decorator_list:
        if not (isinstance(deco, ast.Call) and _callee_name(deco) == "shared_state"):
            continue
        cells_node = None
        for kw in deco.keywords:
            if kw.arg == "cells":
                cells_node = kw.value
        if cells_node is None and deco.args:
            cells_node = deco.args[0]
        if not isinstance(cells_node, ast.Dict):
            return {}
        spec: Dict[str, StaticPolicy] = {}
        for key, value in zip(cells_node.keys, cells_node.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                continue
            policy = _parse_policy(value)
            if policy is not None:
                spec[key.value] = policy
        return spec
    return None


def _parse_policy(node: ast.expr) -> Optional[StaticPolicy]:
    if not isinstance(node, ast.Call):
        return None
    name = _callee_name(node)
    if name == "atomic_cell":
        return StaticPolicy(guard=None, atomic=True, lease_guarded=False)
    if name == "guarded_by":
        guard = None
        if node.args and isinstance(node.args[0], ast.Constant):
            guard = node.args[0].value
        lease = False
        for kw in node.keywords:
            if kw.arg == "guard" and isinstance(kw.value, ast.Constant):
                guard = kw.value.value
            if kw.arg == "lease_guarded" and isinstance(kw.value, ast.Constant):
                lease = bool(kw.value.value)
        return StaticPolicy(guard=guard, atomic=False, lease_guarded=lease)
    return None


def _callee_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# -- syntactic helpers ------------------------------------------------------


def _self_attr(node: ast.expr) -> Optional[LockToken]:
    """Decompose ``self.attr`` / ``self.attr[idx]`` into (attr, idx-src)."""
    if isinstance(node, ast.Subscript):
        inner = _self_attr(node.value)
        if inner is not None and inner[1] is None:
            return (inner[0], ast.unparse(node.slice))
        return None
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return (node.attr, None)
    return None


def _contains_call(node: ast.AST, names: Set[str]) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and _callee_name(sub) in names:
            return True
    return False


#: Sentinel: the scanned path terminated (return/raise/continue/break).
_TERMINATED = None


def _meet(states: Sequence[Optional[Set[LockToken]]]) -> Optional[Set[LockToken]]:
    """Intersect the non-terminated states; all terminated → terminated."""
    live = [state for state in states if state is not _TERMINATED]
    if not live:
        return _TERMINATED
    result = set(live[0])
    for state in live[1:]:
        result &= state
    return result


class _FunctionScan:
    """Abstract interpretation of one function body (see module docstring)."""

    def __init__(
        self,
        fn: FunctionInfo,
        policies: Dict[str, StaticPolicy],
        findings: List[Finding],
    ) -> None:
        self.fn = fn
        self.func = fn.node
        self.policies = policies
        self.findings = findings
        #: Name -> pending TryAcquire lock token (the try-lock idiom).
        self.try_vars: Dict[str, LockToken] = {}
        #: Stack of break-state collectors for enclosing loops.
        self.break_states: List[List[Set[LockToken]]] = []
        #: Distinct index expressions blocking-acquired per lock array.
        self.blocking_indices: Dict[str, Set[str]] = {}
        self.has_order_evidence = any(
            _contains_call(stmt, {"sorted"})
            or (_contains_call(stmt, {"min"}) and _contains_call(stmt, {"max"}))
            for stmt in self.func.body
        )

    def report(self, rule: str, line: int, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                file=self.fn.module.rel,
                line=line,
                symbol=self.fn.qualname,
                message=message,
            )
        )

    def run(self) -> None:
        self.scan_block(self.func.body, set())
        for array, indices in self.blocking_indices.items():
            if len(indices) > 1 and not self.has_order_evidence:
                self.report(
                    "SAN103",
                    self.func.lineno,
                    f"{self.func.name} blocking-acquires self.{array} at "
                    f"indices {sorted(indices)} with no sorted()/min-max "
                    f"ordering evidence",
                )

    # -- block/statement dispatch ------------------------------------------

    def scan_block(
        self, stmts: Sequence[ast.stmt], held: Optional[Set[LockToken]]
    ) -> Optional[Set[LockToken]]:
        for stmt in stmts:
            if held is _TERMINATED:
                return _TERMINATED
            held = self.scan_stmt(stmt, held)
        return held

    def scan_stmt(
        self, stmt: ast.stmt, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        if isinstance(stmt, (ast.Return, ast.Raise, ast.Continue)):
            return _TERMINATED
        if isinstance(stmt, ast.Break):
            if self.break_states:
                self.break_states[-1].append(set(held))
            return _TERMINATED
        if isinstance(stmt, ast.If):
            return self.scan_if(stmt, held)
        if isinstance(stmt, ast.While):
            return self.scan_while(stmt, held)
        if isinstance(stmt, ast.For):
            return self.scan_for(stmt, held)
        if isinstance(stmt, ast.Try):
            return self.scan_try(stmt, held)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                held = self.scan_yields(stmt, item.context_expr, held)
                if held is _TERMINATED:
                    return _TERMINATED
            return self.scan_block(stmt.body, held)
        if isinstance(stmt, (ast.Assign, ast.AugAssign)):
            self.check_raw_mutation(stmt)
        return self.scan_yields(stmt, stmt, held)

    def scan_yields(
        self, stmt: ast.stmt, root: ast.AST, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        for node in ast.walk(root):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                held = self.scan_yield(stmt, node, held)
                if held is _TERMINATED:
                    return _TERMINATED
        return held

    def scan_if(
        self, stmt: ast.If, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        true_state, false_state = set(held), set(held)
        test = stmt.test
        if isinstance(test, ast.Name) and test.id in self.try_vars:
            true_state.add(self.try_vars[test.id])
        elif (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id in self.try_vars
        ):
            false_state.add(self.try_vars[test.operand.id])
        after_true = self.scan_block(stmt.body, true_state)
        after_false = (
            self.scan_block(stmt.orelse, false_state) if stmt.orelse else false_state
        )
        return _meet([after_true, after_false])

    def scan_while(
        self, stmt: ast.While, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        self.break_states.append([])
        self.scan_block(stmt.body, set(held))
        exits: List[Optional[Set[LockToken]]] = list(self.break_states.pop())
        infinite = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        if not infinite:
            exits.append(set(held))
        # while True with no break: nothing follows.
        return _meet(exits)

    def scan_for(
        self, stmt: ast.For, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        loop_var = stmt.target.id if isinstance(stmt.target, ast.Name) else None
        self.break_states.append([])
        outer = self._for_context
        self._for_context = (loop_var, stmt.iter)
        body_exit = self.scan_block(stmt.body, set(held))
        self._for_context = outer
        self.break_states.pop()
        # Assume the loop body ran (locks acquired per-iteration are held
        # after an acquire-all loop, the hold_locks_op idiom); a body
        # that terminates every path contributes nothing new.
        return body_exit if body_exit is not _TERMINATED else set(held)

    _for_context: Optional[Tuple[Optional[str], ast.expr]] = None

    def scan_try(
        self, stmt: ast.Try, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        entry = set(held)
        after = self.scan_block(stmt.body, held)
        if after is not _TERMINATED:
            after = self.scan_block(stmt.orelse, after)
        exits = [after] + [
            self.scan_block(handler.body, set(entry)) for handler in stmt.handlers
        ]
        merged = _meet(exits)
        if merged is _TERMINATED:
            # Every path leaves the statement, but the finally still runs.
            self.scan_block(stmt.finalbody, entry)
            return _TERMINATED
        return self.scan_block(stmt.finalbody, merged)

    # -- syscall effects ---------------------------------------------------

    def scan_yield(
        self, stmt: ast.stmt, yield_node: ast.AST, held: Set[LockToken]
    ) -> Optional[Set[LockToken]]:
        if isinstance(yield_node, ast.YieldFrom):
            return held  # delegation: callee checked on its own
        call = yield_node.value
        if not isinstance(call, ast.Call):
            return held
        kind = syscall_kind(self.fn.module, call)
        if kind == "try_acquire":
            token = _self_attr(call.args[0]) if call.args else None
            if token is not None and isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.try_vars[target.id] = token
        elif kind == "acquire":
            self.on_acquire(call, held)
        elif kind == "release":
            token = _self_attr(call.args[0]) if call.args else None
            if token is not None:
                held.discard(token)
        elif kind in ("write", "guarded_write"):
            self.on_write(call, held, guarded=kind == "guarded_write")
        return held

    def on_acquire(self, call: ast.Call, held: Set[LockToken]) -> None:
        token = _self_attr(call.args[0]) if call.args else None
        if token is None:
            return
        array, index = token
        if index is not None:
            ctx = self._for_context
            in_loop_over_index = (
                ctx is not None and ctx[0] is not None and ctx[0] in index
            )
            if in_loop_over_index:
                if not self.iterable_is_sorted(ctx[1]):
                    self.report(
                        "SAN103",
                        call.lineno,
                        f"Acquire of self.{array}[{index}] iterates an "
                        f"order the checker cannot prove ascending "
                        f"(no sorted() evidence on the loop iterable)",
                    )
            else:
                self.blocking_indices.setdefault(array, set()).add(index)
        held.add(token)

    def iterable_is_sorted(self, iterable: ast.expr) -> bool:
        """``sorted(...)`` inline, or a local assigned from ``sorted(...)``."""
        if _contains_call(iterable, {"sorted"}):
            return True
        if isinstance(iterable, ast.Name):
            for node in ast.walk(self.func):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == iterable.id
                            and _contains_call(node.value, {"sorted"})
                        ):
                            return True
        return False

    def on_write(self, call: ast.Call, held: Set[LockToken], guarded: bool) -> None:
        if not call.args:
            return
        cell = _self_attr(call.args[0])
        if cell is None:
            return
        attr, _index = cell
        policy = self.policies.get(attr)
        if policy is None or policy.atomic or policy.guard is None:
            return
        if not guarded and policy.lease_guarded:
            self.report(
                "SAN102",
                call.lineno,
                f"plain Write to lease-guarded self.{attr} "
                f"(use GuardedWrite(..., self.{policy.guard}[...]))",
            )
            return
        if guarded and len(call.args) >= 3:
            lock = _self_attr(call.args[2])
            if lock is not None and lock[0] != policy.guard:
                self.report(
                    "SAN101",
                    call.lineno,
                    f"GuardedWrite to self.{attr} names self.{lock[0]} "
                    f"but the declared guard is self.{policy.guard}",
                )
                return
        if not any(token[0] == policy.guard for token in held):
            self.report(
                "SAN101",
                call.lineno,
                f"write to self.{attr} on a path where no self.{policy.guard} "
                f"lock is held",
            )

    # -- raw mutation ------------------------------------------------------

    def check_raw_mutation(self, stmt: ast.stmt) -> None:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if not (isinstance(target, ast.Attribute) and target.attr == "value"):
                continue
            base = _self_attr(target.value)
            if base is not None and base[0] in self.policies:
                self.report(
                    "SAN104",
                    stmt.lineno,
                    f"raw mutation of self.{base[0]}.value outside a syscall",
                )


def run_discipline_pass(project: Project) -> Tuple[List[Finding], List[str]]:
    """Run SAN101–SAN104 over every function in the project.

    Returns ``(findings, annotated)``: ``annotated`` lists the classes
    whose ``@shared_state`` declaration the pass enforced.
    """
    specs: Dict[str, Dict[str, StaticPolicy]] = {}
    for qual, cls in sorted(project.classes.items()):
        spec = _extract_spec(cls.node)
        if spec is not None:
            specs[qual] = spec
    findings: List[Finding] = []
    for fn in project.functions.values():
        policies: Dict[str, StaticPolicy] = {}
        if fn.class_name is not None:
            policies = specs.get(fn.module.classes[fn.class_name].qualname, {})
        _FunctionScan(fn, policies, findings).run()
    return findings, sorted(specs)
