"""repro — reproduction of *The Power of Choice in Priority Scheduling*.

(Alistarh, Kopinsky, Li, Nadiradze; PODC 2017, arXiv:1706.04178.)

The package is organized around the paper's layers:

``repro.core``
    The (1+beta) MultiQueue data structure and the exact sequential
    process it linearizes to, with rank-cost accounting; the exponential
    process, the Theorem 2 coupling, the Theorem 3 potential functions,
    the single-choice divergent baseline, and the round-robin reduction.
``repro.pqueues``
    The sequential binary heap each MultiQueue queue is built from,
    and the sorted-list reference it is tested against.
``repro.ballsbins``
    Classical balls-into-bins processes (one/two/d-choice, (1+beta),
    weighted, graphical) connected to the analysis.
``repro.sim`` and ``repro.concurrent``
    A deterministic discrete-event concurrency simulator and models of
    the paper's contenders (MultiQueue, Lindén–Jonsson, k-LSM,
    SprayList) with linearization-point rank recording.
``repro.graphs``
    Graph generators, sequential and simulated-parallel Dijkstra, and
    the Section 6 graph choice process.
``repro.analysis`` / ``repro.bench``
    Statistics, theory-bound checks, and the experiment harness.

Quickstart
----------
>>> from repro import MultiQueue
>>> mq = MultiQueue(n_queues=8, beta=0.5, rng=42)
>>> for x in [5, 1, 9, 3]:
...     _ = mq.insert(x)
>>> entry = mq.delete_min()   # small-rank element, probably the min
"""

from repro.core import (
    ExponentialProcess,
    MultiQueue,
    RankTrace,
    SequentialProcess,
    SingleChoiceProcess,
)
__version__ = "1.0.0"

__all__ = [
    "MultiQueue",
    "SequentialProcess",
    "SingleChoiceProcess",
    "ExponentialProcess",
    "RankTrace",
    "__version__",
]
