"""The cell runner: grids, determinism across workers, cache behavior."""

import multiprocessing
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrate import (
    Cell,
    CellError,
    CellFault,
    PoolRestartBudgetError,
    ResultCache,
    RetryPolicy,
    SweepDeadlineError,
    SweepFaultPlan,
    expand_grid,
    run_cells,
)

from tests.orchestrate.cellfns import (
    affine_cell,
    failing_cell,
    list_tempdir_cell,
    rng_cell,
)


class TestExpandGrid:
    def test_row_major_order(self):
        cells = expand_grid("x", [1, 2], [10, 11], k=5)
        assert [(c.params["x"], c.seed) for c in cells] == [
            (1, 10), (1, 11), (2, 10), (2, 11)
        ]
        assert all(c.params["k"] == 5 for c in cells)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="parameter value"):
            expand_grid("x", [], [0])
        with pytest.raises(ValueError, match="seed"):
            expand_grid("x", [1], [])


class TestSerialRunner:
    def test_runs_in_grid_order(self):
        run = run_cells(affine_cell, expand_grid("x", [1, 2], [0, 1]))
        assert [r.payload["y"] for r in run.results] == [100, 101, 200, 201]
        assert not any(r.cached for r in run.results)

    def test_lambdas_allowed_serially(self):
        run = run_cells(lambda x, seed: {"v": x + seed}, [Cell({"x": 1}, 7)])
        assert run.payloads() == [{"v": 8}]

    def test_lambdas_rejected_for_workers(self):
        with pytest.raises(ValueError, match="module level"):
            run_cells(lambda x, seed: {"v": 1}, [Cell({"x": 1}, 0)], workers=2)

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_cells(affine_cell, [Cell({"x": 1}, 0)], workers=-1)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(CellError, match="expected a dict"):
            run_cells(lambda x, seed: 42, [Cell({"x": 1}, 0)])

    def test_cell_error_names_the_cell(self):
        with pytest.raises(CellError, match=r"x=2.*boom"):
            run_cells(failing_cell, expand_grid("x", [1, 2, 3], [0]))


class TestParallelRunner:
    def test_matches_serial(self):
        cells = expand_grid("x", [1, 2, 3], [0, 1])
        serial = run_cells(affine_cell, cells)
        parallel = run_cells(affine_cell, cells, workers=4)
        assert parallel.payloads() == serial.payloads()

    def test_worker_exception_propagates_as_cell_error(self):
        with pytest.raises(CellError, match="x=2"):
            run_cells(failing_cell, expand_grid("x", [1, 2], [0]), workers=2)


class TestNothingLeftBehind:
    """However a ``workers > 1`` sweep ends, no worker process and no
    queue directory outlive it."""

    CELLS = expand_grid("x", [1, 2, 3], [0])

    def test_success(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        run = run_cells(list_tempdir_cell, self.CELLS, workers=2)
        # The queue lived under tempfile.tempdir while the cells ran ...
        assert all(len(p["tempdir"]) == 1 for p in run.payloads())
        assert run.payloads()[0]["tempdir"][0].startswith("repro-sweep-")
        # ... and is gone now, with its workers.
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "error, kwargs",
        [
            (CellError, {}),
            (SweepDeadlineError, {
                "deadline": 0.3,
                "fault_hook": SweepFaultPlan(
                    (CellFault("sleep", params={"x": 2}, sleep_s=30.0),)
                ),
            }),
            (PoolRestartBudgetError, {
                "policy": RetryPolicy(max_attempts=5),
                "fault_hook": SweepFaultPlan(
                    (CellFault("kill", params={"x": 2}, attempts=(1, 2, 3, 4, 5)),)
                ),
            }),
        ],
        ids=["cell_error", "deadline", "restart_budget"],
    )
    def test_error(self, error, kwargs, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        fn = failing_cell if error is CellError else affine_cell
        with pytest.raises(error):
            run_cells(fn, self.CELLS, workers=2, **kwargs)
        assert multiprocessing.active_children() == []
        assert list(tmp_path.iterdir()) == []


class TestCaching:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = expand_grid("x", [1, 2], [0, 1])
        cold = run_cells(affine_cell, cells, cache=cache)
        assert cold.manifest.cache_hits == 0
        assert cold.manifest.cache_misses == 4
        warm = run_cells(affine_cell, cells, cache=cache)
        assert warm.manifest.cache_hits == 4
        assert warm.manifest.cache_misses == 0
        assert warm.payloads() == cold.payloads()
        assert all(r.cached for r in warm.results)

    def test_grid_extension_recomputes_only_new_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cells(affine_cell, expand_grid("x", [1, 2], [0]), cache=cache)
        extended = run_cells(affine_cell, expand_grid("x", [1, 2, 3], [0]), cache=cache)
        assert extended.manifest.cache_hits == 2
        assert extended.manifest.cache_misses == 1
        assert [r.payload["y"] for r in extended.results] == [100, 200, 300]

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = expand_grid("x", [1], [0])
        run_cells(affine_cell, cells, cache=cache, config={"code": "v1"})
        rerun = run_cells(affine_cell, cells, cache=cache, config={"code": "v2"})
        assert rerun.manifest.cache_hits == 0


# The acceptance property: orchestrated (workers=4, cache cold and warm)
# and serial sweeps produce identical rows for identical seeds — floats
# included, because payloads are canonical JSON in every mode.
@settings(max_examples=8, deadline=None)
@given(
    values=st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True),
    seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
)
def test_property_parallel_and_cached_match_serial(values, seeds):
    cells = expand_grid("x", values, seeds)
    serial = run_cells(rng_cell, cells).payloads()
    with tempfile.TemporaryDirectory() as d:
        cache = ResultCache(d)
        cold = run_cells(rng_cell, cells, workers=4, cache=cache)
        warm = run_cells(rng_cell, cells, workers=4, cache=cache)
    assert cold.payloads() == serial
    assert warm.payloads() == serial
    assert warm.manifest.cache_hits == len(cells)
