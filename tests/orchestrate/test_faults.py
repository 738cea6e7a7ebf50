"""Fault-tolerant execution: retries, deadlines, crash recovery, quarantine.

Every scenario injects its faults through a deterministic
:class:`SweepFaultPlan` — faults address cells by ``(params, seed,
attempt)``, never by timing — so the assertions on rows *and* on the
manifest's fault counters hold exactly, run after run, in both serial
and parallel modes.
"""

import time

import pytest

from repro.orchestrate import (
    FAILURE_VOLATILE_KEYS,
    CellError,
    CellFault,
    PoolRestartBudgetError,
    ResultCache,
    RetryPolicy,
    SweepDeadlineError,
    SweepFaultPlan,
    canonical_json,
    expand_grid,
    run_cells,
    strip_volatile,
)

from tests.orchestrate.cellfns import affine_cell, failing_cell, fatal_cell

GRID = expand_grid("x", [1, 2, 3], [0, 1])


def failures_fingerprint(run):
    """The deterministic projection of a run's failures section."""
    return canonical_json(
        strip_volatile([f.to_dict() for f in run.failures], FAILURE_VOLATILE_KEYS)
    )


class TestSerialRetries:
    def test_transient_fault_retried_to_success(self):
        plan = SweepFaultPlan((CellFault("raise", seed=0, params={"x": 2}),))
        run = run_cells(
            affine_cell, GRID, policy=RetryPolicy(max_attempts=3), fault_hook=plan
        )
        baseline = run_cells(affine_cell, GRID)
        assert run.payloads() == baseline.payloads()
        assert run.ok
        assert run.manifest.retries == 1
        assert run.manifest.failures == []
        by_cell = {(r.cell.params["x"], r.cell.seed): r.attempts for r in run.results}
        assert by_cell[(2, 0)] == 2
        assert all(a == 1 for key, a in by_cell.items() if key != (2, 0))

    def test_fatal_exception_fails_on_first_attempt(self):
        with pytest.raises(CellError, match="bad parameter") as excinfo:
            run_cells(fatal_cell, GRID, policy=RetryPolicy(max_attempts=5))
        assert excinfo.value.failure.attempts == 1  # ValueError: no retries burned

    def test_retries_exhausted_raises_with_attempt_count(self):
        plan = SweepFaultPlan((CellFault("raise", seed=0, params={"x": 1}, attempts=(1, 2)),))
        with pytest.raises(CellError, match="after 2 attempt"):
            run_cells(affine_cell, GRID, policy=RetryPolicy(max_attempts=2), fault_hook=plan)

    def test_backoff_is_applied_between_attempts(self):
        plan = SweepFaultPlan((CellFault("raise", seed=0, params={"x": 1}),))
        policy = RetryPolicy(max_attempts=2, backoff_s=0.2, jitter=0.0)
        t0 = time.perf_counter()
        run = run_cells(affine_cell, GRID, policy=policy, fault_hook=plan)
        assert time.perf_counter() - t0 >= 0.2
        assert run.ok


class TestCellErrorChaining:
    def test_serial_message_carries_original_traceback(self):
        with pytest.raises(CellError) as excinfo:
            run_cells(failing_cell, expand_grid("x", [1, 2, 3], [0]))
        message = str(excinfo.value)
        assert "Cell(x=2, seed=0) failed after 1 attempt(s): RuntimeError: boom at x=2" in message
        # The failing source line survives into the message.
        assert 'raise RuntimeError("boom at x=2")' in message
        assert "failing_cell" in message
        # And the original exception is chained as the cause.
        assert isinstance(excinfo.value.__cause__, RuntimeError)

    def test_worker_message_carries_original_traceback(self):
        # The exception's traceback does not survive pickling from the
        # worker — only the string captured at the raise site does.
        with pytest.raises(CellError) as excinfo:
            run_cells(failing_cell, expand_grid("x", [1, 2, 3], [0]), workers=2)
        message = str(excinfo.value)
        assert 'raise RuntimeError("boom at x=2")' in message
        assert "failing_cell" in message
        assert excinfo.value.__cause__ is not None


class TestQuarantine:
    PLAN = SweepFaultPlan((CellFault("raise", seed=1, params={"x": 2}, attempts=(1, 2, 3)),))

    def test_partial_results_with_explicit_holes(self):
        run = run_cells(
            affine_cell, GRID,
            policy=RetryPolicy(max_attempts=3), fault_hook=self.PLAN,
            on_error="quarantine",
        )
        assert len(run.results) == 5 and len(run.failures) == 1
        assert not run.ok
        failure = run.failures[0]
        assert (failure.params, failure.seed) == ({"x": 2}, 1)
        assert failure.exc_type == "InjectedFault"
        assert failure.attempts == 3
        assert len(failure.wall_s_per_attempt) == 3
        # Completed rows are untouched and stay in grid order.
        survivors = [(r.cell.params["x"], r.cell.seed) for r in run.results]
        assert survivors == [(1, 0), (1, 1), (2, 0), (3, 0), (3, 1)]
        # The manifest records the same failures, with retries counted.
        assert len(run.manifest.failures) == 1
        assert run.manifest.failures[0]["exc_type"] == "InjectedFault"
        assert run.manifest.retries == 2

    def test_quarantined_cells_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run = run_cells(
            affine_cell, GRID, cache=cache,
            policy=RetryPolicy(max_attempts=2), fault_hook=self.PLAN,
            on_error="quarantine",
        )
        assert len(run.results) == 5
        assert len(cache) == 5  # no poisoned entries on disk

    def test_on_error_validated(self):
        with pytest.raises(ValueError, match="on_error"):
            run_cells(affine_cell, GRID, on_error="ignore")


class TestRetryDeterminism:
    """Same seed + same fault schedule => byte-identical failures and
    identical surviving rows across serial, 4-worker, and resumed runs."""

    PLAN = SweepFaultPlan((
        CellFault("raise", seed=0, params={"x": 1}, attempts=(1, 2)),
        CellFault("raise", seed=1, params={"x": 3}, attempts=(1, 2)),
    ))
    POLICY = RetryPolicy(max_attempts=2)

    def _run(self, **kwargs):
        return run_cells(
            affine_cell, GRID, policy=self.POLICY, fault_hook=self.PLAN,
            on_error="quarantine", **kwargs,
        )

    def test_identical_across_modes_and_resume(self, tmp_path):
        serial = self._run()
        parallel = self._run(workers=4)
        cache = ResultCache(tmp_path)
        cold = self._run(cache=cache)
        resumed = self._run(cache=cache)  # survivors cached, failures re-tried

        fingerprint = failures_fingerprint(serial)
        assert len(serial.failures) == 2
        for other in (parallel, cold, resumed):
            assert failures_fingerprint(other) == fingerprint
            assert other.payloads() == serial.payloads()
        assert resumed.manifest.cache_hits == 4
        assert resumed.manifest.retries == 2  # quarantined cells retried again


class TestTimeouts:
    def test_parallel_hung_cell_abandoned_and_retried(self):
        plan = SweepFaultPlan((CellFault("sleep", seed=0, params={"x": 2}, sleep_s=10.0),))
        t0 = time.perf_counter()
        run = run_cells(
            affine_cell, GRID, workers=2,
            policy=RetryPolicy(max_attempts=2), cell_timeout=0.4, fault_hook=plan,
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, "hung worker was not abandoned"
        assert run.payloads() == run_cells(affine_cell, GRID).payloads()
        assert run.manifest.retries == 1

    def test_serial_soft_timeout_checked_cooperatively(self):
        plan = SweepFaultPlan((CellFault("sleep", seed=1, params={"x": 1}, sleep_s=0.3),))
        run = run_cells(
            affine_cell, GRID,
            policy=RetryPolicy(max_attempts=2), cell_timeout=0.1, fault_hook=plan,
        )
        assert run.payloads() == run_cells(affine_cell, GRID).payloads()
        assert run.manifest.retries == 1

    def test_timeout_quarantines_when_exhausted(self):
        plan = SweepFaultPlan((
            CellFault("sleep", seed=0, params={"x": 3}, sleep_s=0.3, attempts=(1, 2)),
        ))
        run = run_cells(
            affine_cell, GRID,
            policy=RetryPolicy(max_attempts=2), cell_timeout=0.1, fault_hook=plan,
            on_error="quarantine",
        )
        assert len(run.failures) == 1
        assert run.failures[0].exc_type == "CellTimeout"
        assert "cell_timeout=0.1s" in run.failures[0].message

    def test_cell_timeout_validated(self):
        with pytest.raises(ValueError, match="cell_timeout"):
            run_cells(affine_cell, GRID, cell_timeout=0.0)


class TestSweepDeadline:
    def test_serial_deadline_quarantines_unfinished(self):
        run = run_cells(affine_cell, GRID, deadline=0.0, on_error="quarantine")
        assert run.results == [] and len(run.failures) == 6
        assert all(f.exc_type == "SweepDeadlineExceeded" for f in run.failures)
        assert all(f.attempts == 0 for f in run.failures)

    def test_parallel_deadline_quarantines_unfinished(self):
        run = run_cells(affine_cell, GRID, workers=2, deadline=0.0, on_error="quarantine")
        assert len(run.failures) == 6

    def test_deadline_raises_by_default(self):
        with pytest.raises(SweepDeadlineError, match="6 cell"):
            run_cells(affine_cell, GRID, deadline=0.0)

    def test_cached_cells_survive_an_expired_deadline(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells(affine_cell, GRID[:2], cache=cache)
        run = run_cells(affine_cell, GRID, cache=cache, deadline=0.0, on_error="quarantine")
        assert len(run.results) == 2 and len(run.failures) == 4
        assert all(r.cached for r in run.results)


class TestWorkerCrashRecovery:
    def test_sigkilled_worker_pool_is_rebuilt(self, tmp_path):
        plan = SweepFaultPlan((
            CellFault("kill", seed=0, params={"x": 2},
                      once_marker=str(tmp_path / "kill.marker")),
        ))
        run = run_cells(
            affine_cell, GRID, workers=2,
            policy=RetryPolicy(max_attempts=2), fault_hook=plan,
        )
        assert run.payloads() == run_cells(affine_cell, GRID).payloads()
        assert run.manifest.takeovers == 1
        assert run.manifest.failures == []
        # The crash is charged to the pool, not the cells: no cell burned
        # a retry on it.
        assert run.manifest.retries == 0

    def test_restart_budget_exhausted_raises(self, tmp_path):
        # No once-marker: the victim kills its worker on every attempt.
        plan = SweepFaultPlan((
            CellFault("kill", seed=0, params={"x": 1}, attempts=(1, 2, 3, 4)),
        ))
        with pytest.raises(PoolRestartBudgetError, match="budget: 3 replacements"):
            run_cells(
                affine_cell, GRID, workers=2,
                policy=RetryPolicy(max_attempts=4), fault_hook=plan,
            )

    def test_serial_mode_survives_the_same_plan(self, tmp_path):
        # A kill fault must not take down a serial (in-process) sweep.
        plan = SweepFaultPlan((
            CellFault("kill", seed=0, params={"x": 2},
                      once_marker=str(tmp_path / "kill.marker")),
        ))
        run = run_cells(
            affine_cell, GRID, policy=RetryPolicy(max_attempts=2), fault_hook=plan
        )
        assert run.payloads() == run_cells(affine_cell, GRID).payloads()
        assert run.manifest.retries == 1  # simulated as a retryable fault


class TestLambdaHooksRejected:
    def test_lambda_fault_hook_rejected_for_workers(self):
        with pytest.raises(ValueError, match="fault_hook"):
            run_cells(affine_cell, GRID, workers=2, fault_hook=lambda cell, attempt: None)


# The ISSUE acceptance scenario: a 16-cell, 2-worker sweep with one
# worker SIGKILLed mid-run and a transient exception on two cells must
# complete with all 16 rows identical (after strip_volatile — here the
# cell fn emits no volatile keys, so payload equality is the same check)
# to a fault-free serial run, with the manifest counters matching the
# injected schedule exactly, across 10 base seeds.
@pytest.mark.parametrize("base_seed", range(10))
def test_acceptance_chaos_sweep_matches_fault_free_serial(base_seed, tmp_path):
    seeds = [base_seed * 100 + k for k in range(4)]
    cells = expand_grid("x", [1, 2, 3, 4], seeds)
    assert len(cells) == 16
    plan = SweepFaultPlan((
        CellFault("kill", seed=seeds[1], params={"x": 2},
                  once_marker=str(tmp_path / "kill.marker")),
        CellFault("raise", seed=seeds[0], params={"x": 3}),
        CellFault("raise", seed=seeds[2], params={"x": 4}),
    ))
    baseline = run_cells(affine_cell, cells)
    chaotic = run_cells(
        affine_cell, cells, workers=2,
        policy=RetryPolicy(max_attempts=3), fault_hook=plan,
    )
    assert [strip_volatile(p) for p in chaotic.payloads()] == [
        strip_volatile(p) for p in baseline.payloads()
    ]
    assert len(chaotic.results) == 16
    assert chaotic.manifest.failures == []
    assert chaotic.manifest.retries == 2  # exactly the two transient faults
    assert chaotic.manifest.takeovers == 1  # exactly the one SIGKILL
