"""Replica-batched NumPy kernels for the paper's random processes.

The vector subsystem runs ``R`` independent copies of a process in
lockstep over rectangular arrays — same semantics as :mod:`repro.core`,
one replica per row — so seed sweeps cost one simulation instead of
``R``.  See DESIGN.md ("The vector subsystem") for what is exact versus
merely equal in distribution.
"""

from repro.vector.ballsbins import batched_two_choice_loads, coupled_virtual_loads_vector
from repro.vector.chooser import ArrayChoiceSource, BatchedChooser, ReferenceMirror
from repro.vector.engine import EMPTY, VectorProcessBase
from repro.vector.exponential import VectorExponentialTopProcess
from repro.vector.index import BatchedRankIndex
from repro.vector.labelled import (
    VectorDChoiceProcess,
    VectorRoundRobinProcess,
    VectorSequentialProcess,
    VectorSingleChoiceProcess,
)
from repro.vector.records import VectorPotentialSeries, VectorRunResult
from repro.vector.stats import (
    batched_gamma,
    batched_potentials,
    normalized_deviation,
    spread,
    tail_bin_counts,
)
from repro.vector.sweep import (
    BackendRun,
    compare_backends,
    run_reference_backend,
    run_vector_backend,
    sweep_cell_backend,
    sweep_cell_compare,
)

__all__ = [
    "EMPTY",
    "ArrayChoiceSource",
    "BackendRun",
    "BatchedChooser",
    "BatchedRankIndex",
    "ReferenceMirror",
    "VectorDChoiceProcess",
    "VectorExponentialTopProcess",
    "VectorPotentialSeries",
    "VectorProcessBase",
    "VectorRoundRobinProcess",
    "VectorRunResult",
    "VectorSequentialProcess",
    "VectorSingleChoiceProcess",
    "batched_gamma",
    "batched_potentials",
    "batched_two_choice_loads",
    "compare_backends",
    "coupled_virtual_loads_vector",
    "normalized_deviation",
    "run_reference_backend",
    "run_vector_backend",
    "spread",
    "sweep_cell_backend",
    "sweep_cell_compare",
    "tail_bin_counts",
]
