"""``run_check``: load, analyze, suppress, report — the `repro check` core.

Ties the pieces together: parse the tree into a :class:`Project`
(:mod:`~repro.staticcheck.callgraph`), run the determinism pass
(:mod:`~repro.staticcheck.determinism`), the syscall-discipline pass
(:mod:`~repro.staticcheck.discipline`) and the lock-order pass
(:mod:`~repro.staticcheck.lockorder`), then apply inline
``# staticcheck: allow(RULE) reason`` comments and the optional baseline
file (:mod:`~repro.staticcheck.report`).  The analyzed code is never
imported, so the checker works on trees that would crash on import and
can never be fooled by import-time monkey-patching.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.staticcheck.callgraph import Project
from repro.staticcheck.determinism import (
    DEFAULT_WALL_CLOCK_BOUNDARY,
    run_determinism_pass,
)
from repro.staticcheck.discipline import run_discipline_pass
from repro.staticcheck.lockorder import run_lockorder_pass
from repro.staticcheck.report import (
    CheckReport,
    Finding,
    apply_baseline,
    apply_inline_suppressions,
    load_baseline,
)


def default_root() -> Path:
    """The ``src/repro`` tree this installation runs from."""
    return Path(__file__).resolve().parent.parent


def load_project(paths: Optional[Sequence[Union[str, Path]]] = None) -> Project:
    """Parse the tree(s) to analyze.

    With no ``paths``, the installed ``repro`` package source is scanned
    with proper dotted module names.  Explicit paths (fixture
    directories in tests, ad-hoc trees from the CLI) are scanned with
    bare-stem module names and report paths relative to each root.
    """
    if not paths:
        root = default_root()
        return Project.load(root, package="repro", rel_base=root.parent.parent)
    project = Project()
    for raw in paths:
        root = Path(raw).resolve()
        if root.is_file():
            sub = Project.load(root.parent, rel_base=root.parent)
            # Single-file scan: keep only that module.
            keep = {
                name: mod
                for name, mod in sub.modules.items()
                if mod.path == root
            }
            sub.modules = keep
            _merge(project, sub, only_modules=set(keep))
        else:
            _merge(project, Project.load(root, rel_base=root))
    # Cross-root resolution is rebuilt after the merge.
    for fn in project.functions.values():
        fn.calls = []
    project._resolve_calls()
    project._propagate()
    return project


def _merge(project: Project, sub: Project, only_modules: Optional[set] = None) -> None:
    for name, mod in sub.modules.items():
        if only_modules is not None and name not in only_modules:
            continue
        project.modules[name] = mod
    for qual, fn in sub.functions.items():
        if only_modules is not None and fn.module.name not in only_modules:
            continue
        project.functions[qual] = fn
    for qual, cls in sub.classes.items():
        if only_modules is not None and cls.module.name not in only_modules:
            continue
        project.classes[qual] = cls


def _suppression_tables(project: Project) -> Dict[str, Dict[int, Tuple[str, str]]]:
    return {mod.rel: mod.suppressions for mod in project.modules.values()}


def run_check(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    baseline: Optional[Union[str, Path]] = None,
    entropy_boundary: Sequence[str] = ("repro.cli",),
    wall_clock_boundary: Sequence[str] = DEFAULT_WALL_CLOCK_BOUNDARY,
) -> CheckReport:
    """Run every pass and return the consolidated report.

    ``baseline`` points at a suppression file (see
    :func:`repro.staticcheck.report.load_baseline`); entries that match
    no current finding are reported as stale and fail the run.
    """
    project = load_project(paths)
    det_findings, roots = run_determinism_pass(
        project,
        entropy_boundary=entropy_boundary,
        wall_clock_boundary=wall_clock_boundary,
    )
    san_findings, annotated = run_discipline_pass(project)
    lock_findings = run_lockorder_pass(project)
    findings: List[Finding] = det_findings + san_findings + lock_findings

    remaining, suppressed, void = apply_inline_suppressions(
        findings, _suppression_tables(project)
    )
    report = CheckReport(
        findings=remaining,
        suppressed=suppressed,
        void_suppressions=void,
        modules_checked=len(project.modules),
        functions_checked=len(project.functions),
        roots=roots,
        annotated_classes=annotated,
    )
    if baseline is not None:
        report = apply_baseline(report, load_baseline(baseline))
    report.findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return report
