"""Shared low-level utilities: Fenwick trees, RNG stream management."""

from repro.utils.rngtools import RngStreams, as_generator, spawn_seeds

__all__ = ["RngStreams", "as_generator", "spawn_seeds"]
