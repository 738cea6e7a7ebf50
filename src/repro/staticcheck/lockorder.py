"""Interprocedural lock-order pass: rules SAN105 and SAN106.

The per-function SAN103 rule (:mod:`~repro.staticcheck.discipline`)
proves ascending-index acquisition *within* one function body; the
deadlock-freedom contract of the blocking-acquire paths
(``hold_locks_op`` and whatever the buffered/NUMA variants add) is a
**whole-program** property.  The moment an acquisition hides behind a
helper call, SAN103 goes blind.  This pass doesn't:

* Every function gets an ordered event stream — ``Acquire`` /
  ``TryAcquire`` / ``Release`` syscalls (matched by terminal name
  against the discipline pass's ``SYSCALL_KINDS`` table, in or out of
  ``yield``) plus resolved helper calls — and a **may-analysis
  linear scan** tracks the set of lock tokens possibly held at each
  point.  A token is the ``(class, attribute)`` identity of the lock
  expression: ``self._locks[q]`` and ``self._locks[j]`` are one token
  (one lock *array*), because a static pass cannot separate indices and
  must treat the array as a unit.
* **SAN105** fires when a helper called while a token is held can
  *blocking*-acquire that same token somewhere in its call subtree:
  ascending-index order is unprovable across a call boundary, so the
  array-unit re-acquisition that SAN103 would police locally becomes a
  finding at the call site, with the witness chain down to the
  acquisition.
* **SAN106** builds the static lock-acquisition graph — edge ``A → B``
  whenever ``B`` may be blocking-acquired (locally or transitively)
  while ``A`` is held — and reports every cycle of length ≥ 2 with a
  witness call path per edge.  ``TryAcquire`` holds are edge *sources*
  but never edge *targets*: a try-acquirer can make someone wait, but
  never waits itself, so it cannot close a wait cycle.

Self-edges (re-acquiring the token you hold) are SAN103/SAN105
territory and are excluded from the cycle graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.staticcheck.callgraph import FunctionInfo, Project
from repro.staticcheck.discipline import syscall_kind
from repro.staticcheck.report import Finding


@dataclass(frozen=True)
class LockSite:
    """One blocking acquisition, attributed to its owning function."""

    token: str
    function: str
    file: str
    line: int


def _lock_token(expr: ast.expr, fn: FunctionInfo) -> Optional[str]:
    """Collapse a lock expression to its array/attribute identity.

    ``self._locks[q]`` → ``Cls._locks``; ``self._shared_lock`` →
    ``Cls._shared_lock``; a bare local name → ``<function>.<name>``.
    Indices are deliberately dropped: the pass reasons about lock
    *arrays*, not elements.
    """
    node = expr
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        base = node.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            owner = fn.class_name or fn.name
            return f"{fn.module.name}.{owner}.{node.attr}"
        canonical = fn.module.canon(node)
        return canonical or node.attr
    if isinstance(node, ast.Name):
        return f"{fn.qualname}.<local {node.id}>"
    return None


def _events(fn: FunctionInfo) -> List[Tuple[int, int, str, object]]:
    """Ordered event stream: ``(line, col, kind, payload)``.

    kinds: ``acquire`` / ``try_acquire`` / ``release`` with a token
    payload, ``call`` with a callee-qualname payload.  Sorting by
    position approximates textual order, which is all a may-analysis
    needs.
    """
    events: List[Tuple[int, int, str, object]] = []
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        kind = syscall_kind(fn.module, node)
        if kind not in ("acquire", "try_acquire", "release") or not node.args:
            continue
        token = _lock_token(node.args[0], fn)
        if token is None:
            continue
        events.append((node.lineno, node.col_offset, kind, token))
    for callee, line in fn.calls:
        events.append((line, 10_000, "call", callee))
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def _transitive_blocking(project: Project) -> Dict[str, FrozenSet[LockSite]]:
    """Fixpoint: every blocking acquisition reachable from each function."""
    direct: Dict[str, Set[LockSite]] = {}
    for qual, fn in project.functions.items():
        sites: Set[LockSite] = set()
        for line, _col, kind, payload in _events(fn):
            if kind == "acquire":
                sites.add(LockSite(str(payload), qual, fn.module.rel, line))
        direct[qual] = sites
    summaries: Dict[str, FrozenSet[LockSite]] = {
        q: frozenset(s) for q, s in direct.items()
    }
    changed = True
    while changed:
        changed = False
        for qual, fn in project.functions.items():
            merged = set(summaries[qual])
            for callee, _line in fn.calls:
                merged |= summaries.get(callee, frozenset())
            frozen = frozenset(merged)
            if frozen != summaries[qual]:
                summaries[qual] = frozen
                changed = True
    return summaries


@dataclass(frozen=True)
class _Edge:
    src: str
    dst: str
    file: str
    line: int
    function: str
    path: Tuple[str, ...]  # witness call chain to the dst acquisition


def run_lockorder_pass(project: Project) -> List[Finding]:
    """Run SAN105 + SAN106 over every function in the project."""
    transitive = _transitive_blocking(project)
    findings: List[Finding] = []
    edges: Dict[Tuple[str, str], _Edge] = {}

    def add_edge(edge: _Edge) -> None:
        if edge.src == edge.dst:
            return  # self-edges are SAN103/SAN105 territory
        edges.setdefault((edge.src, edge.dst), edge)

    for qual, fn in sorted(project.functions.items()):
        held: Set[str] = set()
        for line, _col, kind, payload in _events(fn):
            if kind in ("acquire", "try_acquire"):
                token = str(payload)
                if kind == "acquire":
                    for src in sorted(held):
                        add_edge(_Edge(src, token, fn.module.rel, line, qual, (qual,)))
                held.add(token)
            elif kind == "release":
                held.discard(str(payload))
            elif kind == "call" and held:
                callee = str(payload)
                callee_sites = transitive.get(callee, frozenset())
                for site in sorted(callee_sites, key=lambda s: (s.file, s.line)):
                    chain = tuple([qual] + project.call_path(callee, site.function))
                    if site.token in held:
                        findings.append(
                            Finding(
                                rule="SAN105",
                                file=fn.module.rel,
                                line=line,
                                symbol=qual,
                                message=(
                                    f"helper call may blocking-acquire {site.token!r} "
                                    f"(at {site.file}:{site.line}) while this function "
                                    f"already holds it; ascending-index order cannot "
                                    f"be proven across the call boundary"
                                ),
                                path=chain,
                            )
                        )
                    for src in sorted(held):
                        add_edge(
                            _Edge(src, site.token, site.file, site.line, qual, chain)
                        )

    findings.extend(_cycle_findings(edges))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings


def _cycle_findings(edges: Dict[Tuple[str, str], _Edge]) -> List[Finding]:
    """Every elementary cycle (length ≥ 2) in the acquisition graph,
    deduplicated by node set, reported with per-edge witness paths."""
    graph: Dict[str, List[str]] = {}
    for src, dst in edges:
        graph.setdefault(src, []).append(dst)
    for dsts in graph.values():
        dsts.sort()

    findings: List[Finding] = []
    seen_cycles: Set[FrozenSet[str]] = set()

    def dfs(start: str, current: str, path: List[str]) -> None:
        for nxt in graph.get(current, ()):
            if nxt == start and len(path) >= 2:
                key = frozenset(path)
                if key in seen_cycles:
                    continue
                seen_cycles.add(key)
                findings.append(_describe_cycle(path, edges))
            elif nxt not in path and nxt > start:
                # Only visit nodes ordered after the start: each cycle is
                # then enumerated exactly once, rooted at its least node.
                dfs(start, nxt, path + [nxt])

    for node in sorted(graph):
        dfs(node, node, [node])
    return findings


def _describe_cycle(path: List[str], edges: Dict[Tuple[str, str], _Edge]) -> Finding:
    cycle = path + [path[0]]
    hops = [edges[(cycle[i], cycle[i + 1])] for i in range(len(cycle) - 1)]
    first = hops[0]
    lines = [
        f"{hop.src} -> {hop.dst} ({hop.file}:{hop.line}, "
        f"via {' -> '.join(hop.path)})"
        for hop in hops
    ]
    return Finding(
        rule="SAN106",
        file=first.file,
        line=first.line,
        symbol=first.function,
        message=(
            "cycle in the static lock-acquisition graph: "
            + "; ".join(lines)
        ),
        path=first.path,
    )
