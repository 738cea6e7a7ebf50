"""Module-level sweep functions for orchestrator tests.

Worker processes import sweep functions by reference, so everything the
parallel tests run must live at module level — lambdas and closures are
serial-only by design (see ``repro.orchestrate.runner``).
"""

from __future__ import annotations

import numpy as np


def affine_cell(x, seed):
    """Deterministic, instant: row is a pure function of (x, seed)."""
    return {"x": x, "seed_used": seed, "y": 100 * x + seed}


def rng_cell(x, seed):
    """Draws through NumPy from the cell seed: float round-trip check."""
    rng = np.random.default_rng(seed)
    draws = rng.normal(loc=float(x), size=8)
    return {
        "mean": float(draws.mean()),
        "mx": float(draws.max()),
        "positive": bool(draws.mean() > 0),
    }


def flaky_keys_cell(x, seed):
    """Misbehaving fn: seed 3 grows an extra column."""
    row = {"value": x + seed}
    if seed == 3:
        row["surprise"] = 1
    return row


def failing_cell(x, seed):
    if x == 2:
        raise RuntimeError("boom at x=2")
    return {"value": x}


def fatal_cell(x, seed):
    """Deterministic programming error: fatal under the default policy."""
    raise ValueError(f"bad parameter x={x}")


def fail_first_attempt_of_seed_0(cell, attempt):
    """A plain-function ``fault_hook``: seed 0's first attempt raises."""
    if cell.seed == 0 and attempt == 1:
        raise RuntimeError(f"hook fault at x={cell.params['x']}")


def list_tempdir_cell(x, seed):
    """Reports what the temporary directory holds while the cell runs."""
    import os
    import tempfile

    return {"x": x, "tempdir": sorted(os.listdir(tempfile.gettempdir()))}


def hammer_cache(root, key, worker_id, iterations):
    """Concurrent-writer workload: repeatedly persist the same cell key.

    Run from several processes at once against a shared cache root to
    exercise the atomic temp-file + rename path — any interleaving must
    leave a complete, parseable entry on disk.
    """
    from repro.orchestrate import ResultCache

    cache = ResultCache(root)
    for i in range(iterations):
        cache.put(key, {"worker": worker_id, "i": i, "blob": "x" * 4096})
    return worker_id
