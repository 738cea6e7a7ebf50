"""Open-loop traffic generation for the live service.

The schedule — every op's *intended* start time plus every insert's
label — is a pure function of a :class:`ScheduleSpec`.  Each loadgen
worker rebuilds the full schedule from the spec and takes its stripe of
insert/delete pairs (:meth:`ArrivalSchedule.stripe`), so the offered
traffic is byte-identical no matter how many processes generate it, and
a run is replayable from its parameters alone.

Arrival processes are generated by intensity-integral inversion: draw
unit-rate exponential masses, cumulative-sum them, and map through the
inverse of the cumulative intensity ``Lambda(t)``.  This produces exact
non-homogeneous Poisson arrivals for the bursty ON/OFF and diurnal
modes with the same code path as plain Poisson.

Latency is recorded *coordinated-omission safe*: the timestamp a worker
stamps into each request is the schedule's intended start, not the
actual send time, so a stalled shard owner is charged for the requests
that queued behind it rather than quietly excused.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.service.shm import (
    OP_DELETE,
    OP_INSERT,
    ServiceSegment,
    ShardHeader,
    SlotRing,
    slot_checksums,
)
from repro.utils.rngtools import as_generator, spawn_seeds

_NS = 1_000_000_000

#: Arrival modes a spec may name.
MODES = ("poisson", "onoff", "diurnal", "trace")


@dataclass(frozen=True)
class ScheduleSpec:
    """Everything that determines a run's offered traffic.

    ``rate <= 0`` means closed-throttle open loop: all intended times are
    zero, i.e. every worker offers its stripe as fast as it can (the
    throughput-measurement mode).  ``burst_factor`` is the peak-to-trough
    intensity ratio for the bursty modes.
    """

    mode: str = "poisson"
    ops: int = 10_000
    prefill: int = 1_024
    rate: float = 0.0  # aggregate ops/s across all workers
    seed: int = 0
    on_s: float = 0.5
    off_s: float = 0.5
    burst_factor: float = 8.0
    period_s: float = 4.0
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown arrival mode {self.mode!r}: expected one of {MODES}")
        if self.ops <= 0:
            raise ValueError(f"ops must be positive, got {self.ops}")
        if self.prefill < 0:
            raise ValueError(f"prefill must be non-negative, got {self.prefill}")
        if self.mode == "trace" and not self.trace_path:
            raise ValueError("trace mode requires trace_path")
        if self.mode in ("onoff", "diurnal") and self.rate <= 0:
            raise ValueError(f"{self.mode} mode requires a positive rate")
        # burst_factor only shapes the bursty modes; poisson/trace specs
        # never read it and must not be rejected over a field they ignore.
        if self.mode in ("onoff", "diurnal") and self.burst_factor <= 1.0:
            raise ValueError(f"burst_factor must exceed 1, got {self.burst_factor}")

    def build(self) -> "ArrivalSchedule":
        return ArrivalSchedule.build(self)


@dataclass
class ArrivalSchedule:
    """The materialized schedule: intended times plus insert labels.

    Ops alternate globally — even op index inserts, odd deletes — so the
    queue population hovers at ``prefill`` like the simulator's
    steady-state runs.  Labels are a seeded permutation of the compact
    universe ``[0, prefill + n_inserts)``: compact so the rank replay's
    Fenwick oracle can index them, a permutation so priorities arrive in
    random order.
    """

    spec: ScheduleSpec
    times_ns: np.ndarray = field(repr=False)  # (ops,) int64, offsets from start
    prefill_labels: np.ndarray = field(repr=False)  # (prefill,) int64
    insert_labels: np.ndarray = field(repr=False)  # (n_inserts,) int64

    @property
    def ops(self) -> int:
        return len(self.times_ns)

    @property
    def n_inserts(self) -> int:
        return len(self.insert_labels)

    @property
    def label_universe(self) -> int:
        """Exclusive upper bound on every label this schedule can emit."""
        return self.spec.prefill + self.n_inserts

    @property
    def span_s(self) -> float:
        """Intended duration of the offered traffic."""
        return float(self.times_ns[-1]) / _NS if self.ops else 0.0

    @classmethod
    def build(cls, spec: ScheduleSpec) -> "ArrivalSchedule":
        rng = as_generator(spec.seed)
        # Label permutation first, so arrival-time generation consumes a
        # disjoint tail of the stream regardless of mode.
        n_inserts = (spec.ops + 1) // 2
        perm = rng.permutation(spec.prefill + n_inserts).astype(np.int64)
        times_s = _arrival_times(spec, rng)
        times_ns = np.round(times_s * _NS).astype(np.int64)
        return cls(
            spec=spec,
            times_ns=times_ns,
            prefill_labels=perm[: spec.prefill],
            insert_labels=perm[spec.prefill :],
        )

    def stripe(self, worker_id: int, n_workers: int) -> np.ndarray:
        """Global op indices owned by ``worker_id`` of ``n_workers``, ascending.

        Workers own insert/delete pairs ``(2p, 2p + 1)`` with
        ``p % n_workers == worker_id``, so each stripe alternates like the
        whole schedule.  Striping single ops would leave half of an even
        worker count inserting only, and the heap random-walking with the race.
        """
        if not 0 <= worker_id < n_workers:
            raise ValueError(f"worker {worker_id} outside [0, {n_workers})")
        g = np.arange(self.ops)
        return g[(g // 2) % n_workers == worker_id]

    def op(self, g: int) -> Tuple[int, int, int]:
        """``(opcode, label, intended_start_offset_ns)`` of global op ``g``."""
        if g % 2 == 0:
            return OP_INSERT, int(self.insert_labels[g // 2]), int(self.times_ns[g])
        return OP_DELETE, -1, int(self.times_ns[g])

    def ops_columns(self, gs: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`op` over the global indices ``gs``, as three int64 arrays
        (opcodes, labels, intended-start offsets)."""
        inserts = gs % 2 == 0
        return (
            np.where(inserts, OP_INSERT, OP_DELETE),
            np.where(inserts, self.insert_labels[gs // 2], -1),
            self.times_ns[gs],
        )


def block_checksums(ops, labels, first_clock: int, t0_ns) -> List[int]:
    """:func:`~repro.service.shm.slot_checksum` of every request of a block.

    Request ``i`` is ``(ops[i], labels[i], first_clock + i, t0_ns[i])``
    with ``t1_ns = 0``, as the loadgen pushes it, so one
    :func:`~repro.service.shm.slot_checksums` fold over the block
    replaces a scalar fold per push.
    """
    fields = np.zeros((5, len(ops)), dtype=np.int64)  # one contiguous row per field
    fields[0] = ops
    fields[1] = labels
    fields[2] = np.arange(first_clock, first_clock + len(ops))
    fields[3] = t0_ns
    return slot_checksums(fields.view(np.uint64).T).tolist()


def _arrival_times(spec: ScheduleSpec, rng: np.random.Generator) -> np.ndarray:
    """Intended arrival offsets in seconds, per the spec's mode."""
    if spec.mode == "trace":
        return _trace_times(spec)
    if spec.rate <= 0:  # closed throttle: offer as fast as possible
        return np.zeros(spec.ops)
    if spec.mode == "poisson":
        return np.cumsum(rng.exponential(1.0 / spec.rate, size=spec.ops))
    # Non-homogeneous modes: unit-rate masses mapped through Lambda^{-1}.
    masses = np.cumsum(rng.exponential(1.0, size=spec.ops))
    t_bp, lam_bp = _intensity_integral(spec, masses[-1])
    return np.interp(masses, lam_bp, t_bp)


def _trace_times(spec: ScheduleSpec) -> np.ndarray:
    """Offsets from a trace file (one arrival offset in seconds per line).

    A trace shorter than ``ops`` is tiled forward in time, each copy
    shifted by the trace span plus its mean gap, so the burst *shape*
    repeats rather than truncating the run.
    """
    raw = []
    with open(spec.trace_path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                raw.append(float(line))
    if not raw:
        raise ValueError(f"trace file {spec.trace_path!r} has no arrival times")
    base = np.sort(np.asarray(raw, dtype=float))
    if len(base) >= spec.ops:
        return base[: spec.ops] - base[0]
    span = (base[-1] - base[0]) + max((base[-1] - base[0]) / len(base), 1e-9)
    reps = -(-spec.ops // len(base))
    tiled = np.concatenate([base - base[0] + k * span for k in range(reps)])
    return tiled[: spec.ops]


def _intensity_integral(spec: ScheduleSpec, mass_needed: float) -> Tuple[np.ndarray, np.ndarray]:
    """Breakpoints ``(t, Lambda(t))`` covering at least ``mass_needed``.

    ``Lambda`` is strictly increasing in both modes (the OFF intensity is
    ``rate / burst_factor``, not zero), so ``np.interp`` over the
    breakpoints inverts it exactly (ON/OFF is piecewise linear) or to
    grid resolution (diurnal).
    """
    if spec.mode == "onoff":
        hi = spec.rate * spec.burst_factor
        lo = spec.rate / spec.burst_factor
        per_period = hi * spec.on_s + lo * spec.off_s
        periods = int(np.ceil(mass_needed / per_period)) + 1
        t_bp = [0.0]
        lam_bp = [0.0]
        for _ in range(periods):
            t_bp.append(t_bp[-1] + spec.on_s)
            lam_bp.append(lam_bp[-1] + hi * spec.on_s)
            t_bp.append(t_bp[-1] + spec.off_s)
            lam_bp.append(lam_bp[-1] + lo * spec.off_s)
        return np.asarray(t_bp), np.asarray(lam_bp)
    # diurnal: lambda(t) = rate * (1 + a sin(2 pi t / period)), with the
    # amplitude set so peak/trough equals burst_factor.
    a = (spec.burst_factor - 1.0) / (spec.burst_factor + 1.0)
    horizon = spec.period_s
    while spec.rate * horizon * 0.999 < mass_needed:  # mean intensity is `rate`
        horizon *= 2.0
    grid = np.linspace(0.0, horizon, max(1024, int(64 * horizon / spec.period_s)))
    omega = 2.0 * np.pi / spec.period_s
    lam = spec.rate * (grid + (a / omega) * (1.0 - np.cos(omega * grid)))
    return grid, lam


# -- the worker process -------------------------------------------------------


class ShardDied(RuntimeError):
    """Raised when every routable shard is full-and-silent past the deadline."""


#: Exit code of a loadgen worker that found every shard dead — paired
#: with a one-line JSON error record on stderr instead of a traceback.
EXIT_ALL_SHARDS_DEAD = 4

#: Ops between heartbeat sweeps over all routable shards.  A dead owner
#: whose ring still has headroom would otherwise swallow requests
#: silently — backpressure alone only exposes death once the ring fills.
PROBE_EVERY = 128

#: Stripe ops converted to Python ints at a time: the per-op loop then
#: indexes no numpy scalars, and no whole-schedule list is ever built.
STRIPE_BLOCK = 4096


def _looks_dead(header: ShardHeader, dead_after_ns: int, boot_ns: int) -> bool:
    """Stale heartbeat — or none at all past the startup grace window.

    ``heartbeat == 0`` means the owner never published; it used to count
    as alive forever, hanging clients on an owner that died before its
    first publish.  Grace is measured from this client's own boot
    (``boot_ns``): owners publish at startup, so a client that has
    waited a full ``dead_after_ns`` without seeing any publish applies
    the same staleness verdict.
    """
    heartbeat = header.read()[3]
    reference = heartbeat if heartbeat else boot_ns
    return time.monotonic_ns() - reference > dead_after_ns


def _probe_dead(headers, router, dead_after_ns: int, boot_ns: int) -> None:
    # Revive first: a supervisor may have respawned a shard this router
    # wrote off, and re-admitting it before the death sweep keeps a
    # transient "everything stale" blip from looking terminal.
    now = time.monotonic_ns()
    for shard in router.dead_shards():
        heartbeat = headers[shard].read()[3]
        if heartbeat and now - heartbeat <= dead_after_ns:
            router.mark_alive(shard)
    for shard in router.alive_shards():
        if _looks_dead(headers[shard], dead_after_ns, boot_ns):
            router.mark_dead(shard)


class _Unsealed:
    """A request lane whose ``try_push`` takes no checksum.

    ``SlotRing.try_push`` may be replaced by a wrapper with the plain
    field signature (an instrumenting tracer, say); the loadgen then
    pushes through this, dropping its folded checksum so that the ring
    folds its own.
    """

    def __init__(self, ring: SlotRing) -> None:
        self._push = ring.try_push

    def try_push(self, op, label, clock, t0_ns, t1_ns, checksum=None) -> bool:
        return self._push(op, label, clock, t0_ns, t1_ns)


def _push_with_failover(
    headers,
    router,
    op: int,
    label: int,
    clock: int,
    t0_ns: int,
    rings,
    pick_shard,
    dead_after_ns: int,
    deadline_s: float,
    boot_ns: int,
    checksum: Optional[int] = None,
    shard: Optional[int] = None,
) -> int:
    """Push one request, rerouting around shards that stop draining.

    A full ring is normal backpressure; a full ring *and* a stale owner
    heartbeat means the owner is gone — mark the shard dead so the
    router stops offering it, and retry elsewhere.  The deadline clock
    starts only once a first push has failed.  ``checksum`` is the
    request's slot checksum if already folded; ``shard`` is the shard a
    first push already found full, if one did.  Returns the shard the
    request landed on.
    """
    if shard is None:
        shard = pick_shard()
        if rings[shard].try_push(op, label, clock, t0_ns, 0, checksum):
            return shard
    deadline = time.monotonic() + deadline_s
    while True:
        if _looks_dead(headers[shard], dead_after_ns, boot_ns):
            router.mark_dead(shard)
        elif time.monotonic() > deadline:
            raise ShardDied(
                f"no shard accepted op {op} within {deadline_s:.0f}s "
                f"(alive: {router.alive_shards()})"
            )
        else:
            time.sleep(0.0002)
        shard = pick_shard()
        if rings[shard].try_push(op, label, clock, t0_ns, 0, checksum):
            return shard


def run_loadgen(
    segment_name: str,
    worker_id: int,
    n_workers: int,
    spec: ScheduleSpec,
    start_ns: int,
    beta: float,
    gamma: float = 0.0,
    policy: str = "mq",
    routing_seed: int = 0,
    dead_after_s: float = 2.0,
    deadline_s: float = 30.0,
) -> int:
    """Worker entry point: replay this worker's stripe of the schedule.

    Runs as a child process target.  Routing randomness comes from the
    worker's own spawned stream (reproducible, independent across
    workers); the *schedule* is rebuilt from ``spec`` so it is identical
    in every worker regardless of ``n_workers``.  Returns the number of
    ops offered.
    """
    from repro.service.server import Router  # deferred: server imports us

    segment = ServiceSegment.attach(segment_name)
    try:
        schedule = spec.build()
        stripe = schedule.stripe(worker_id, n_workers)
        router = Router(
            segment,
            beta=beta,
            gamma=gamma,
            policy=policy,
            rng=spawn_seeds(routing_seed, n_workers)[worker_id],
            dead_after_s=dead_after_s,
        )
        headers = [segment.header(s) for s in range(segment.shards)]
        rings = [segment.request_ring(s, worker_id) for s in range(segment.shards)]
        if "checksum" not in inspect.signature(SlotRing.try_push).parameters:
            rings = [_Unsealed(ring) for ring in rings]
        picks = {OP_INSERT: router.insert_shard, OP_DELETE: router.delete_shard}
        dead_after_ns = int(dead_after_s * _NS)
        boot_ns = time.monotonic_ns()
        now_ns = 0  # latest clock reading; intended times at or before it are due
        clock = 0
        for b in range(0, len(stripe), STRIPE_BLOCK):
            ops, labels, offsets = schedule.ops_columns(stripe[b : b + STRIPE_BLOCK])
            intended = offsets + start_ns
            checksums = block_checksums(ops, labels, clock + 1, intended)
            for op, label, intended_ns, checksum in zip(
                ops.tolist(), labels.tolist(), intended.tolist(), checksums
            ):
                clock += 1
                if clock % PROBE_EVERY == 0:
                    _probe_dead(headers, router, dead_after_ns, boot_ns)
                if intended_ns > now_ns:
                    now_ns = time.monotonic_ns()
                    if intended_ns > now_ns:
                        time.sleep((intended_ns - now_ns) / _NS)
                pick = picks[op]
                shard = pick()
                if not rings[shard].try_push(op, label, clock, intended_ns, 0, checksum):
                    _push_with_failover(
                        headers, router, op, label, clock, intended_ns, rings, pick,
                        dead_after_ns, deadline_s, boot_ns, checksum, shard,
                    )
        # No STOPs from here: once every loadgen has exited, the parent
        # STOPs each lane of every live owner (server._stop_owners).
        return len(stripe)
    finally:
        segment.close()


def loadgen_main(kwargs: dict) -> None:
    """``multiprocessing.Process`` target wrapper.

    An all-shards-dead verdict exits with :data:`EXIT_ALL_SHARDS_DEAD`
    and one machine-readable JSON record on stderr (shard heartbeat ages
    included) instead of an unhandled traceback.
    """
    from repro.service.server import AllShardsDeadError

    try:
        run_loadgen(**kwargs)
    except AllShardsDeadError as exc:
        record = {
            "error": "all_shards_dead",
            "worker_id": kwargs.get("worker_id"),
            "heartbeat_ages_s": {str(s): age for s, age in sorted(exc.ages.items())},
            "message": str(exc),
        }
        print(json.dumps(record), file=sys.stderr, flush=True)
        sys.exit(EXIT_ALL_SHARDS_DEAD)
