"""Findings, suppressions, baselines: the accounting half of ``repro check``.

Every pass reports through one contract, with a baseline file for
whole-tree adoption:

* **Inline suppressions** — ``# staticcheck: allow(DET102) reason`` on
  the witness line or the line above silences exactly that rule at that
  site.  A suppression with **no reason is void**: the finding stands,
  annotated, because a silent waiver documents nothing.
* **Baseline file** — a JSON list of ``{rule, file, symbol, reason}``
  records (``repro check --baseline FILE``).  Findings matching a
  baseline entry are *baselined*: counted and listed, never silent, and
  they do not fail the run.  A baseline entry that matches **no**
  current finding is *stale* — baseline drift — and fails the run, so
  the file can only ever shrink ratchet-style as findings are fixed.
* Exit is nonzero whenever un-suppressed findings or stale baseline
  entries remain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Rule registry: every finding carries one of these codes.
RULES = {
    "DET101": "unseeded entropy reachable from a deterministic root",
    "DET102": "wall-clock value reachable from a cell / flowing into a "
              "payload key outside the declared volatile set",
    "DET103": "process-environment read reachable from a deterministic root",
    "DET104": "builtin hash() (salted per process) reachable from a root",
    "DET105": "unordered set iteration feeding a deterministic root",
    "DET106": "module-level mutable state written from worker-executed code",
    "SAN101": "write to guarded cell without holding the owning lock",
    "SAN102": "plain Write to a lease-guarded cell (use GuardedWrite)",
    "SAN103": "blocking lock acquisition order not provably canonical",
    "SAN104": "raw mutation of shared-cell state outside a syscall",
    "SAN105": "lock array re-acquired through a helper call: ascending-index "
              "order is unprovable across the call boundary",
    "SAN106": "cycle in the static lock-acquisition graph",
}


@dataclass(frozen=True)
class Finding:
    """One rule violation, pointing at the concrete offending site."""

    rule: str
    file: str
    line: int
    symbol: str  # function/method qualname the site lives in
    message: str
    path: Tuple[str, ...] = ()  # witness call chain, root first

    def describe(self) -> str:
        text = f"{self.file}:{self.line}: {self.rule} [{self.symbol}] {self.message}"
        if len(self.path) > 1:
            text += f"\n      via {' -> '.join(self.path)}"
        return text

    def to_dict(self) -> Dict:
        record = {
            "rule": self.rule,
            "file": self.file,
            "line": self.line,
            "symbol": self.symbol,
            "message": self.message,
        }
        if self.path:
            record["path"] = list(self.path)
        return record


@dataclass(frozen=True)
class SuppressedFinding:
    finding: Finding
    reason: str
    source: str  # "inline" or "baseline"

    def describe(self) -> str:
        return (
            f"{self.finding.file}:{self.finding.line}: {self.finding.rule} "
            f"suppressed ({self.source}) — {self.reason}"
        )

    def to_dict(self) -> Dict:
        record = self.finding.to_dict()
        record["reason"] = self.reason
        record["source"] = self.source
        return record


@dataclass
class CheckReport:
    """Everything one ``repro check`` run decided."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[SuppressedFinding] = field(default_factory=list)
    stale_baseline: List[Dict] = field(default_factory=list)
    #: Inline allow() comments that matched a finding but carried no
    #: reason: the finding stays in ``findings``; these are listed so the
    #: author knows *why* the waiver did not take.
    void_suppressions: List[Finding] = field(default_factory=list)
    modules_checked: int = 0
    functions_checked: int = 0
    roots: List[str] = field(default_factory=list)
    #: Classes whose ``@shared_state`` declaration SAN101–104 enforced.
    annotated_classes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.stale_baseline

    def describe(self) -> str:
        lines = [
            f"check: {self.modules_checked} module(s), "
            f"{self.functions_checked} function(s), {len(self.roots)} root(s), "
            f"{len(self.annotated_classes)} annotated class(es), "
            f"{len(self.findings)} finding(s), "
            f"{len(self.suppressed)} suppression(s)"
            + (f", {len(self.stale_baseline)} stale baseline entr(y/ies)"
               if self.stale_baseline else "")
        ]
        lines += ["  " + f.describe() for f in self.findings]
        for finding in self.void_suppressions:
            lines.append(
                f"  note: allow({finding.rule}) at {finding.file}:{finding.line} "
                f"is void — a suppression must carry a reason"
            )
        lines += ["  " + s.describe() for s in self.suppressed]
        for entry in self.stale_baseline:
            lines.append(
                f"  STALE baseline entry (fixed? delete it): "
                f"{entry.get('rule')} {entry.get('file')} [{entry.get('symbol')}]"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        return {
            "ok": self.ok,
            "modules_checked": self.modules_checked,
            "functions_checked": self.functions_checked,
            "roots": list(self.roots),
            "annotated_classes": list(self.annotated_classes),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [s.to_dict() for s in self.suppressed],
            "stale_baseline": list(self.stale_baseline),
            "rules": dict(RULES),
        }


# -- baselines ---------------------------------------------------------------


def load_baseline(path: Union[str, Path]) -> List[Dict]:
    """Read a baseline file; returns its suppression records.

    Every record must carry a non-empty ``reason`` — the loader rejects
    reasonless entries outright rather than letting them silently waive
    findings.
    """
    data = json.loads(Path(path).read_text())
    records = data.get("suppressions", []) if isinstance(data, dict) else data
    for record in records:
        missing = {"rule", "file", "symbol"} - set(record)
        if missing:
            raise ValueError(f"baseline entry {record!r} missing {sorted(missing)}")
        if not str(record.get("reason", "")).strip():
            raise ValueError(
                f"baseline entry for {record['rule']} at {record['file']} "
                f"[{record['symbol']}] has no reason; suppressions are never silent"
            )
    return records


def write_baseline(path: Union[str, Path], findings: Sequence[Finding], reason: str) -> None:
    """Write the current findings as a baseline (one record per finding)."""
    records = [
        {
            "rule": f.rule,
            "file": f.file,
            "symbol": f.symbol,
            "reason": reason,
        }
        for f in findings
    ]
    # One record per (rule, file, symbol): several sites in one function
    # collapse to a single entry, matched set-wise.
    unique: List[Dict] = []
    for record in records:
        if record not in unique:
            unique.append(record)
    Path(path).write_text(
        json.dumps({"version": 1, "suppressions": unique}, indent=2) + "\n"
    )


def _matches(record: Dict, finding: Finding) -> bool:
    return (
        record["rule"] == finding.rule
        and finding.file.replace("\\", "/").endswith(str(record["file"]).replace("\\", "/"))
        and record["symbol"] == finding.symbol
    )


def apply_baseline(
    report: CheckReport, records: Sequence[Dict]
) -> CheckReport:
    """Move baselined findings to ``suppressed``; record stale entries."""
    used = [False] * len(records)
    remaining: List[Finding] = []
    for finding in report.findings:
        hit = None
        for i, record in enumerate(records):
            if _matches(record, finding):
                hit = i
                break
        if hit is None:
            remaining.append(finding)
        else:
            used[hit] = True
            report.suppressed.append(
                SuppressedFinding(finding, str(records[hit]["reason"]), "baseline")
            )
    report.findings = remaining
    report.stale_baseline.extend(
        dict(record) for record, u in zip(records, used) if not u
    )
    return report


def apply_inline_suppressions(
    findings: Sequence[Finding],
    suppressions_by_file: Dict[str, Dict[int, Tuple[str, str]]],
) -> Tuple[List[Finding], List[SuppressedFinding], List[Finding]]:
    """Split findings by the ``# staticcheck: allow(...)`` comments.

    Returns ``(remaining, suppressed, void)`` where ``void`` lists
    findings whose matching allow() carried no reason (kept in
    ``remaining`` too — a reasonless waiver does not waive).
    """
    remaining: List[Finding] = []
    suppressed: List[SuppressedFinding] = []
    void: List[Finding] = []
    for finding in findings:
        table = suppressions_by_file.get(finding.file, {})
        entry = None
        for candidate in (finding.line, finding.line - 1):
            hit = table.get(candidate)
            if hit is not None and hit[0] == finding.rule:
                entry = hit
                break
        if entry is None:
            remaining.append(finding)
        elif not entry[1].strip():
            void.append(finding)
            remaining.append(finding)
        else:
            suppressed.append(SuppressedFinding(finding, entry[1], "inline"))
    return remaining, suppressed, void
