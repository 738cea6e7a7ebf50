"""Tests for the syscall-discipline rules SAN101–104 of ``repro check``."""

import json
import textwrap
from pathlib import Path

from repro.staticcheck import RULES, load_project, run_check
from repro.staticcheck.driver import default_root

HEADER = """\
from repro.sanitizer.annotations import atomic_cell, guarded_by, shared_state
from repro.sim.syscalls import Acquire, GuardedWrite, Read, Release, TryAcquire, Write
"""


def _check_source(tmp_path, body, baseline=None):
    path = tmp_path / "probe.py"
    path.write_text(HEADER + textwrap.dedent(body))
    return run_check([path], baseline=baseline)


def _rules(report):
    return [f.rule for f in report.findings]


class TestRepoIsClean:
    def test_concurrent_package_lints_clean(self):
        report = run_check()
        assert report.ok, report.describe()
        assert len(report.annotated_classes) >= 4  # all four annotated structures

    def test_suppressions_are_counted_not_silent(self):
        """Exactly the two prefill sites are suppressed, both SAN104,
        both with a reason."""
        report = run_check([default_root() / "concurrent"])
        assert len(report.suppressed) == 2
        assert all(s.finding.rule == "SAN104" for s in report.suppressed)
        assert all(s.reason for s in report.suppressed)
        text = report.describe()
        assert "2 suppression(s)" in text

    def test_default_paths_cover_the_concurrent_package(self):
        names = {Path(m.rel).name for m in load_project().modules.values()}
        assert {"multiqueue.py", "spraylist.py", "klsm.py", "linden_jonsson.py"} <= names


class TestRulesFire:
    def test_san101_unguarded_write(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    yield Write(self._cells[0], 1)
            """,
        )
        assert _rules(report) == ["SAN101"]

    def test_san101_wrong_guard_named(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    yield Acquire(self._other[0])
                    yield GuardedWrite(self._cells[0], 1, self._other[0])
                    yield Release(self._other[0])
            """,
        )
        assert _rules(report) == ["SAN101"]

    def test_san102_plain_write_to_lease_guarded_cell(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks", lease_guarded=True)})
            class P:
                def f(self):
                    yield Acquire(self._locks[0])
                    yield Write(self._tops[0], 1)
                    yield Release(self._locks[0])
            """,
        )
        assert _rules(report) == ["SAN102"]

    def test_san103_unordered_blocking_acquires(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, i, j):
                    yield Acquire(self._locks[i])
                    yield Acquire(self._locks[j])
            """,
        )
        assert _rules(report) == ["SAN103"]

    def test_san103_loop_without_sorted_evidence(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, queues):
                    for q in queues:
                        yield Acquire(self._locks[q])
            """,
        )
        assert _rules(report) == ["SAN103"]

    def test_san104_raw_mutation(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    self._tops[0].value = 1
            """,
        )
        assert _rules(report) == ["SAN104"]
        assert "SAN104" in RULES


class TestDisciplineAccepted:
    def test_try_lock_idiom_is_clean(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks", lease_guarded=True)})
            class P:
                def f(self, q):
                    while True:
                        ok = yield TryAcquire(self._locks[q])
                        if ok:
                            break
                    yield GuardedWrite(self._tops[q], 1, self._locks[q])
                    yield Release(self._locks[q])
            """,
        )
        assert report.ok, report.describe()

    def test_sorted_loop_acquire_is_clean(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, queues):
                    indices = sorted(set(queues))
                    for q in indices:
                        yield Acquire(self._locks[q])
                    for q in reversed(indices):
                        yield Release(self._locks[q])
            """,
        )
        assert report.ok, report.describe()

    def test_min_max_ordering_evidence_is_accepted(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            class P:
                def f(self, i, j):
                    first, second = min(i, j), max(i, j)
                    yield Acquire(self._locks[first])
                    yield Acquire(self._locks[second])
                    yield Release(self._locks[second])
                    yield Release(self._locks[first])
            """,
        )
        assert report.ok, report.describe()

    def test_atomic_cells_are_exempt(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_regions": atomic_cell()})
            class P:
                def f(self):
                    yield Write(self._regions[0], 1)
            """,
        )
        assert report.ok, report.describe()


class TestSuppression:
    def test_suppression_on_the_line_above(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    # staticcheck: allow(SAN104) probe fixture
                    self._tops[0].value = 1
            """,
        )
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].finding.rule == "SAN104"
        assert report.suppressed[0].reason == "probe fixture"

    def test_suppression_for_the_wrong_rule_does_not_apply(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    # staticcheck: allow(SAN101) wrong rule
                    self._tops[0].value = 1
            """,
        )
        assert _rules(report) == ["SAN104"]
        assert report.suppressed == []

    def test_reasonless_suppression_is_void(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_tops": guarded_by("_locks")})
            class P:
                def f(self):
                    # staticcheck: allow(SAN104)
                    self._tops[0].value = 1
            """,
        )
        assert _rules(report) == ["SAN104"]
        assert [f.rule for f in report.void_suppressions] == ["SAN104"]
        assert report.suppressed == []
        assert "allow(SAN104) at probe.py:8 is void" in report.describe()


class TestTryAndWithBodies:
    """Writes inside ``except``/``else`` handlers and ``with`` bodies are
    on the checked path like any other statement."""

    def test_san101_in_except_handler(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    try:
                        pass
                    except ValueError:
                        yield Write(self._cells[0], 1)
            """,
        )
        assert _rules(report) == ["SAN101"]

    def test_san101_in_try_else(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    try:
                        pass
                    except ValueError:
                        return
                    else:
                        yield Write(self._cells[0], 1)
            """,
        )
        assert _rules(report) == ["SAN101"]

    def test_handler_starts_from_the_state_at_try_entry(self, tmp_path):
        """The body's acquisition may not have happened when a handler
        runs; a write there is unguarded even if the body held the lock."""
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    try:
                        yield Acquire(self._locks[0])
                        yield Write(self._cells[0], 1)
                    except ValueError:
                        yield Write(self._cells[0], 2)
                    yield Release(self._locks[0])
            """,
        )
        assert [(f.rule, f.line) for f in report.findings] == [("SAN101", 11)]

    def test_san101_in_finally_after_return(self, tmp_path):
        """The finally runs even when every path through the body returns."""
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self):
                    try:
                        return
                    finally:
                        yield Write(self._cells[0], 1)
            """,
        )
        assert _rules(report) == ["SAN101"]

    def test_san104_in_with_body(self, tmp_path):
        report = _check_source(
            tmp_path,
            """
            @shared_state(cells={"_cells": guarded_by("_locks")})
            class P:
                def f(self, cm):
                    with cm:
                        self._cells[0].value = 3
            """,
        )
        assert _rules(report) == ["SAN104"]


class TestReportPathsAndBaseline:
    UNGUARDED = """
        @shared_state(cells={"_cells": guarded_by("_locks")})
        class P:
            def f(self):
                yield Write(self._cells[0], 1)
        """

    def test_findings_carry_scan_relative_paths(self, tmp_path):
        report = _check_source(tmp_path, self.UNGUARDED)
        assert [(f.rule, f.file, f.symbol) for f in report.findings] == [
            ("SAN101", "probe.py", "probe.P.f")
        ]

    def test_real_tree_suppressions_carry_repo_relative_paths(self):
        sites = {
            (s.finding.rule, s.finding.file)
            for s in run_check([default_root() / "concurrent"]).suppressed
        }
        assert sites == {("SAN104", "klsm.py"), ("SAN104", "multiqueue.py")}
        sites = {(s.finding.rule, s.finding.file) for s in run_check().suppressed}
        assert {
            ("SAN104", "src/repro/concurrent/klsm.py"),
            ("SAN104", "src/repro/concurrent/multiqueue.py"),
        } <= sites

    def test_baseline_ratchet_covers_san_findings(self, tmp_path):
        """A baseline entry for the SAN101 finding suppresses it; an entry
        for a SAN102 finding that does not exist is stale and fails."""
        baseline = tmp_path / "baseline.json"
        entries = [
            {"rule": rule, "file": "probe.py", "symbol": "probe.P.f",
             "reason": "probe debt, tracked"}
            for rule in ("SAN101", "SAN102")
        ]
        baseline.write_text(json.dumps({"version": 1, "suppressions": entries}))
        report = _check_source(tmp_path, self.UNGUARDED, baseline=baseline)
        assert report.findings == []
        assert [(s.finding.rule, s.source) for s in report.suppressed] == [
            ("SAN101", "baseline")
        ]
        assert [e["rule"] for e in report.stale_baseline] == ["SAN102"]
        assert not report.ok
