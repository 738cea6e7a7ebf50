"""The checker against the real tree, and the `repro check` command
surface."""

import json

import pytest

from repro.cli import main
from repro.staticcheck import run_check

from .test_fixtures import FIXTURES


class TestRealTree:
    def test_tree_is_clean(self):
        """ISSUE 7 acceptance: the shipped tree checks clean, and every
        suppression carries a written reason."""
        report = run_check()
        assert report.ok, report.describe()
        assert report.void_suppressions == []
        for sup in report.suppressed:
            assert sup.reason.strip(), sup.describe()

    def test_tree_roots_include_the_sweep_cells(self):
        roots = run_check().roots
        assert "repro.vector.sweep.sweep_cell_backend" in roots
        assert "repro.vector.sweep.sweep_cell_compare" in roots

    def test_tree_roots_include_the_service_entry_points(self):
        roots = run_check().roots
        assert "repro.service.server.run_service" in roots
        assert "repro.service.validate.compare_service_and_sim" in roots

    def test_wall_clock_boundary_masks_the_service_modules(self):
        """The live service's wall-clock reads are its product (latency,
        heartbeats), exempted by the declared boundary.  Dropping the
        declaration must unmask them — proving the boundary, not a hole
        in DET102, is what keeps the tree clean."""
        unmasked = run_check(wall_clock_boundary=())
        service_hits = [
            f
            for f in unmasked.findings
            if f.rule == "DET102" and "repro/service/" in f.file
        ]
        assert service_hits, "boundary removal should unmask service wall-clock reads"
        # Only DET102 reachability findings appear; no other rule regresses.
        assert all(f.rule == "DET102" for f in unmasked.findings)


class TestCheckCli:
    def test_check_clean_fixture_exits_zero(self, capsys):
        assert main(["check", str(FIXTURES / "clean")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_check_flagging_fixture_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(FIXTURES / "locks")])
        assert exc.value.code == 1
        assert "SAN106" in capsys.readouterr().out

    def test_check_json_output(self, capsys):
        with pytest.raises(SystemExit):
            main(["check", "--json", str(FIXTURES / "locks")])
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {f["rule"] for f in payload["findings"]} == {"SAN105", "SAN106"}

    def test_write_baseline_then_check_against_it(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "check",
                    str(FIXTURES / "locks"),
                    "--write-baseline",
                    str(baseline),
                    "--reason",
                    "fixture debt, tracked",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (
            main(["check", str(FIXTURES / "locks"), "--baseline", str(baseline)]) == 0
        )
        out = capsys.readouterr().out
        assert "suppressed (baseline) — fixture debt, tracked" in out


class TestLintJson:
    def test_lint_json_structure(self, capsys):
        assert main(["check", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert isinstance(payload["findings"], list)
        # The tree carries reasoned SAN suppressions; they must be listed.
        assert all(s["reason"] for s in payload["suppressed"])
        assert {"SAN101", "SAN102", "SAN103", "SAN104"} <= set(payload["rules"])
        assert len(payload["annotated_classes"]) >= 4
