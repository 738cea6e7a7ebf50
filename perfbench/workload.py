"""Run one benchmark workload in this process and write its result file.

``perfbench/run.py`` starts this module in a process group of its own
and owns cleanup; run it through ``run.py``, not directly.  The program
is driven only through its public entry points:
``repro.service.server.run_service`` for the two service workloads and
``repro.bench.harness.sweep_cells`` with
``repro.vector.sweep.sweep_cell_backend`` for the sweep.  The seed given
here only generates the ``ScheduleSpec`` seeds and sweep seeds the
program receives.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from perfbench import gates, spans

WORKLOADS = ("serve-open", "serve-saturate", "sweep-vector")

# -- workload shapes ----------------------------------------------------------
#
# Sized for a 2-core host: one loadgen process, two shard owners, and at
# most two sweep workers.

SHARDS = 2
LOADGENS = 1
BETA = 1.0
PREFILL = 1024

#: Open-loop rungs (name, offered ops/s), each run for RUNG_SHARE of the
#: budget.  low/mid/high sit below the knee on a 2-core host; the probe
#: sits at or above it and is expected to miss the SLO.  The latencies
#: are printed, not gated: on a shared host the tail moves with the
#: neighbours (see NOTES.md).
LADDER = (("low", 5_000), ("mid", 20_000), ("high", 30_000), ("probe", 40_000))
RUNG_SHARE = 0.2

#: Ops per saturated run_service call (closed throttle, rate=0).
SATURATE_OPS = {False: 100_000, True: 10_000}
SATURATE_MIN_REPS = 3

SWEEP_BETAS = (0.5, 1.0)
SWEEP_SEEDS = 2
SWEEP_WORKERS = 2
SWEEP_SHAPE = {
    False: dict(n=256, prefill=16384, steps=20000, replicas=64),
    True: dict(n=256, prefill=2048, steps=2000, replicas=8),
}
SWEEP_MIN_REPS = 2

#: End-to-end metrics (every workload reports each) and their units.
#: Rank quality, report time and the latency ladder are printed too but
#: kept out of this set; NOTES.md gives their measured spreads.
END_TO_END = {
    "setup_s": "s",
    "ops_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run and their units.  A layer a
#: workload does not exercise reports 0.
PER_LAYER = {
    "loadgen.route_ns": "ns",
    "loadgen.push_ns": "ns",
    "loadgen.push_retries": "ratio",
    "loadgen.lateness_p99_ms": "ms",
    "owner.peek_ns": "ns",
    "owner.journal_append_ns": "ns",
    "owner.snapshot_ns": "ns",
    "owner.snapshots": "1/kop",
    "owner.publish_ns": "ns",
    "owner.publishes_per_op": "1/op",
    "owner.emit_ns": "ns",
    "owner.emit_retries": "ratio",
    "owner.empty_polls": "1/op",
    "collector.pop_ns": "ns",
    "collector.empty_polls": "ratio",
    "metrics.merge_s": "s",
    "metrics.replay_s": "s",
    "metrics.audit_s": "s",
    "setup.segment_create_s": "s",
    "setup.owner_spawn_s": "s",
    "setup.prefill_s": "s",
    "chooser.draw_ns": "ns",
    "chooser.redraws": "1/step",
    "index.flush_ns": "ns",
    "engine.self_ns": "ns",
    "orchestrate.overhead_s": "s",
    "orchestrate.pool_start_s": "s",
    "trace.overhead_pct": "%",
}

DOCTORS = ("drop-event", "flip-ok")


def derive_seed(seed: int, *key: int) -> int:
    """A 32-bit seed for one part of the run, fixed by ``seed`` and ``key``."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den else 0.0


class Budget:
    """Wall-clock budget for the measured part of a run."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def another(self, done: int, minimum: int) -> bool:
        """Whether one more repeat, as long as the average so far, still fits."""
        if done < minimum:
            return True
        return self.elapsed() * (done + 1) / done <= self.seconds


# -- service workloads --------------------------------------------------------


class ServiceHooks:
    """Capture what ``run_service`` summarizes and audits; log every segment it creates.

    The events are the benchmark's own source for its measurement window,
    latencies and completion count; the STOPs each owner journaled go
    into failure reports.  The segment log lets ``run.py`` check that no
    shared-memory segment outlives the run.
    """

    def __init__(self, patches: spans.Patches, segment_log: Path) -> None:
        from repro.service import metrics
        from repro.service.server import recover_shard_state
        from repro.service.shm import ServiceSegment

        self._events = None
        self.stopped = None
        summarize = metrics.summarize
        audit = metrics.conservation_audit
        create = ServiceSegment.create.__func__

        def capture(events_by_shard, schedule, *args, **kwargs):
            self._events = events_by_shard
            return summarize(events_by_shard, schedule, *args, **kwargs)

        def audit_noting_stops(segment, events_by_shard):
            # Which lanes' STOPs each owner journaled: the first thing to
            # look at when an owner never finished.
            self.stopped = [recover_shard_state(segment, s).stopped for s in range(segment.shards)]
            return audit(segment, events_by_shard)

        def create_logged(cls, *args, **kwargs):
            segment = create(cls, *args, **kwargs)
            with open(segment_log, "a") as fh:
                fh.write(segment.name + "\n")
            return segment

        patches.set(metrics, "summarize", capture)
        patches.set(metrics, "conservation_audit", audit_noting_stops)
        patches.set(ServiceSegment, "create", classmethod(create_logged))

    def take_events(self) -> np.ndarray:
        """All captured events as one ``(N, 5)`` array: ev, label, clock, t0, t1."""
        events, self._events = self._events, None
        blocks = [np.asarray(e, dtype=np.int64).reshape(-1, 5) for e in events or []]
        return np.concatenate(blocks) if blocks else np.empty((0, 5), dtype=np.int64)


def serve_rep(hooks: ServiceHooks, spec, routing_seed: int, doctor: Optional[str]) -> dict:
    """One ``run_service`` call, measured from its own events."""
    from repro.service.server import run_service
    from repro.service.shm import EV_INSERT

    schedule = spec.build()
    t_call = time.monotonic_ns()
    result = run_service(
        SHARDS, LOADGENS, spec, beta=BETA, seed=routing_seed, rank_sample_every=1
    )
    t_return = time.monotonic_ns()
    events = hooks.take_events()
    if doctor == "drop-event":
        events = events[:-1]  # an offered op: each shard's prefill comes first
        result["ops_processed"] -= 1
    elif doctor == "flip-ok":
        result["conservation"]["ok"] = False

    offered = events[events[:, 3] > 0]  # prefill carries t0 == 0
    failures = gates.check_service(result, spec.prefill, schedule.n_inserts, int(offered.shape[0]))
    if failures:
        failures.append(f"STOP journaled per shard and lane: {hooks.stopped}")
    rep = {
        "spec": dataclasses.asdict(spec),
        "offered": spec.ops,
        "completed": int(offered.shape[0]),
        "rank_mean": (result.get("rank") or {}).get("mean_rank"),
        "failures": [f"rate={spec.rate:g} ops={spec.ops} seed={spec.seed}: {f}" for f in failures],
        "delete_lat_ms": np.empty(0),
    }
    if offered.shape[0] == 0:
        return rep
    # The loadgen stamps each op with start_ns + its schedule offset, so
    # the earliest stamp less the first offset recovers start_ns.
    start_ns = int(offered[:, 3].min()) - int(schedule.times_ns[0])
    end_ns = int(offered[:, 4].max())
    deletes = offered[offered[:, 0] != EV_INSERT]
    lat_ms = (deletes[:, 4] - deletes[:, 3]) / 1e6
    window_s = (end_ns - start_ns) / 1e9
    rep.update(
        setup_s=(start_ns - t_call) / 1e9,
        window_s=window_s,
        ops_s=_ratio(offered.shape[0], window_s),
        report_s=(t_return - end_ns) / 1e9,
        delete_lat_ms=lat_ms,
        delete_p50_ms=gates.percentile(lat_ms, 0.50),
        delete_p99_ms=gates.percentile(lat_ms, 0.99),
        backlog_ok=gates.backlog_ok(deletes[:, 3], lat_ms),
    )
    return rep


def service_layers(traced: List[dict]) -> Dict[str, float]:
    """Per-layer service metrics from the ledgers of every traced rep."""
    totals = {role: spans.Ledger() for role in ("parent", "owner", "loadgen")}
    for rep in traced:
        for snap in rep["ledgers"]:
            totals[snap["role"]].merge(snap)
    parent, owner, loadgen = totals["parent"], totals["owner"], totals["loadgen"]
    owner_ops = owner.calls("journal.append")
    pushes = loadgen.calls("ring.push")
    pushed = pushes - loadgen.counts.get("ring.push_full", 0)

    def per_call(ledger: spans.Ledger, name: str) -> float:
        return _ratio(ledger.ns(name), ledger.calls(name))

    def per_rep_s(name: str) -> float:
        return _median([rep["parent"]["spans"].get(name, [0, 0])[1] / 1e9 for rep in traced])

    lateness = []
    for rep in traced:
        for snap in rep["ledgers"]:
            if snap["role"] == "loadgen" and "loadgen.lateness_ns" in snap["p99"]:
                lateness.append(snap["p99"]["loadgen.lateness_ns"][1] / 1e6)
    create_s = per_rep_s("segment.create")
    spawn_s = per_rep_s("cluster.start")
    return {
        "loadgen.route_ns": per_call(loadgen, "router.route"),
        "loadgen.push_ns": _ratio(loadgen.ns("ring.push"), pushed),
        "loadgen.push_retries": _ratio(loadgen.counts.get("ring.push_full", 0), pushes),
        "loadgen.lateness_p99_ms": _median(lateness),
        "owner.peek_ns": per_call(owner, "ring.peek"),
        "owner.journal_append_ns": per_call(owner, "journal.append"),
        "owner.snapshot_ns": per_call(owner, "snapshot.write"),
        "owner.snapshots": 1000.0 * _ratio(owner.calls("snapshot.write"), owner_ops),
        "owner.publish_ns": per_call(owner, "header.publish"),
        "owner.publishes_per_op": _ratio(owner.calls("header.publish"), owner_ops),
        "owner.emit_ns": per_call(owner, "ring.push"),
        "owner.emit_retries": _ratio(owner.counts.get("ring.push_full", 0), owner.calls("ring.push")),
        "owner.empty_polls": _ratio(owner.counts.get("ring.peek_empty", 0), owner_ops),
        "collector.pop_ns": per_call(parent, "ring.pop"),
        "collector.empty_polls": _ratio(parent.counts.get("ring.pop_empty", 0), parent.calls("ring.pop")),
        "metrics.merge_s": per_rep_s("metrics.merge"),
        "metrics.replay_s": per_rep_s("metrics.replay"),
        "metrics.audit_s": per_rep_s("metrics.audit"),
        "setup.segment_create_s": create_s,
        "setup.owner_spawn_s": spawn_s,
        # The rest of set-up: collector start, the control-lane prefill,
        # and run_service's fixed start offset before the first op is due.
        "setup.prefill_s": _median([rep["setup_s"] for rep in traced]) - create_s - spawn_s,
    }


class ServiceRunner:
    """Runs service reps, untraced or traced, and keeps what they measured."""

    def __init__(self, args, out_dir: Path) -> None:
        self.args = args
        self.dump_dir = out_dir / "ledgers"
        self.dump_dir.mkdir(parents=True, exist_ok=True)
        self.patches = spans.Patches()
        self.hooks = ServiceHooks(self.patches, out_dir / "segments.log")
        self.ledger = spans.Ledger()
        self.doctor = args.doctor

    def close(self) -> None:
        self.patches.restore()

    def rep(self, spec, routing_seed: int, traced: bool) -> dict:
        trace_patches = spans.Patches()
        if traced:
            self.ledger.reset("parent")
            spans.install_service(trace_patches, self.ledger, self.dump_dir)
        try:
            rep = serve_rep(self.hooks, spec, routing_seed, self.doctor)
        finally:
            trace_patches.restore()
        self.doctor = None  # one doctored rep is enough to fail the run
        if traced:
            rep["parent"] = self.ledger.snapshot()
            rep["ledgers"] = [rep["parent"]] + spans.collect_dumps(self.dump_dir)
        return rep


def serve_open(args, runner: ServiceRunner, traced: bool, seconds: float) -> dict:
    from repro.service.loadgen import ScheduleSpec

    reps = {}
    for k, (name, rate) in enumerate(LADDER):
        spec = ScheduleSpec(
            mode="poisson", ops=max(1, int(rate * seconds * RUNG_SHARE)), prefill=PREFILL,
            rate=float(rate), seed=derive_seed(args.seed, 1, k, int(traced)),
        )
        reps[name] = runner.rep(spec, derive_seed(args.seed, 2, k, int(traced)), traced)
    best = gates.slo_rung([
        gates.Rung(name, rate, reps[name].get("ops_s", 0.0), reps[name].get("delete_p99_ms"),
                   reps[name].get("backlog_ok", False))
        for name, rate in LADDER
    ])
    metrics = {
        "setup_s": _median(r.get("setup_s") for r in reps.values()),
        # The rate the service sustained at the high rung: the offered
        # rate while it keeps up, less as soon as a backlog stretches the
        # window.
        "ops_s": reps["high"].get("ops_s", 0.0),
    }
    human = [("setup_s", metrics["setup_s"], "s", f"median of {len(reps)} rungs")]
    for stat in ("p50", "p99"):
        for name, rate in LADDER:
            lat = reps[name]["delete_lat_ms"]
            human.append((f"delete_{stat}_ms.{name}", reps[name].get(f"delete_{stat}_ms"),
                          "ms", f"{lat.size} deletes at {rate}/s offered"))
    human += [
        ("slo_rate_ops_s", best.achieved_ops_s if best else None, "1/s",
         f"rung {best.name if best else 'none'}: p99 <= {gates.SLO_P99_MS} ms, no growing backlog"),
        ("high_ops_s", metrics["ops_s"], "1/s", f"completed at {dict(LADDER)['high']}/s offered"),
        ("rank_mean", reps["mid"].get("rank_mean"), "rank", "mid rung, every delete scored"),
        ("report_s", _median(r.get("report_s") for r in reps.values()), "s", "median of rungs"),
    ]
    return {
        "reps": list(reps.values()),
        "human": human,
        "metrics": metrics,
        # Time per op where the owners are busy but not queueing.
        "cost": reps["mid"].get("delete_p50_ms") or 0.0,
    }


def serve_saturate(args, runner: ServiceRunner, traced: bool, seconds: float) -> dict:
    from repro.service.loadgen import ScheduleSpec

    budget = Budget(seconds)
    reps = []
    while budget.another(len(reps), SATURATE_MIN_REPS):
        k = len(reps)
        spec = ScheduleSpec(
            mode="poisson", ops=SATURATE_OPS[args.smoke], prefill=PREFILL, rate=0.0,
            seed=derive_seed(args.seed, 3, k, int(traced)),
        )
        reps.append(runner.rep(spec, derive_seed(args.seed, 4, k, int(traced)), traced))
    metrics = {
        "setup_s": _median(r.get("setup_s") for r in reps),
        "ops_s": _median(r.get("ops_s") for r in reps),
    }
    lat = np.concatenate([r["delete_lat_ms"] for r in reps])
    human = [
        ("setup_s", metrics["setup_s"], "s", f"median of {len(reps)} reps"),
        ("completed_ops_s", metrics["ops_s"], "1/s", "offered ops completed / own window, prefill excluded"),
        ("rank_mean", _median(r.get("rank_mean") for r in reps), "rank",
         "median of reps, every delete scored"),
        ("report_s", _median(r.get("report_s") for r in reps), "s",
         "traffic end to summary returned, median of reps"),
        ("delete_p50_ms", gates.percentile(lat, 0.5), "ms", "closed throttle: queueing, not service time"),
        ("delete_p99_ms", gates.percentile(lat, 0.99), "ms", f"{lat.size} deletes"),
    ]
    return {
        "reps": reps,
        "human": human,
        "metrics": metrics,
        "cost": _ratio(1.0, metrics["ops_s"]) * 1e9,
    }


# -- sweep workload -----------------------------------------------------------


def timed_cell(**kwargs) -> dict:
    """A sweep cell: ``sweep_cell_backend`` plus when and where it ran."""
    from repro.vector.sweep import sweep_cell_backend

    t0 = time.monotonic_ns()
    row = sweep_cell_backend(**kwargs)
    row.update(
        _bench_t0_ns=t0, _bench_t1_ns=time.monotonic_ns(),
        _bench_pid=os.getpid(), _bench_seed=kwargs["seed"],
    )
    return row


_CELL_LEDGER: Optional[spans.Ledger] = None  # per pool-worker process


def traced_cell(**kwargs) -> dict:
    """:func:`timed_cell` with the vector layers traced; the ledger rides in the row."""
    global _CELL_LEDGER
    if _CELL_LEDGER is None:
        _CELL_LEDGER = spans.Ledger()
        spans.install_vector(spans.Patches(), _CELL_LEDGER)  # for the worker's lifetime
    _CELL_LEDGER.reset("cell")
    row = timed_cell(**kwargs)
    row["_bench_trace"] = _CELL_LEDGER.snapshot()
    return row


def sweep_once(args, seeds: List[int], traced: bool) -> dict:
    from repro.bench.harness import sweep_cells

    shape = SWEEP_SHAPE[args.smoke]
    t_call = time.monotonic_ns()
    run = sweep_cells(
        traced_cell if traced else timed_cell, "beta", list(SWEEP_BETAS), seeds,
        workers=SWEEP_WORKERS, on_error="quarantine", backend="vector", oracle=True,
        **shape,
    )
    t_return = time.monotonic_ns()
    rows = run.payloads()
    rep = {
        "rows": rows, "failed": len(run.failures),
        "attempted": len(SWEEP_BETAS) * len(seeds),
    }
    if not rows:
        return rep
    wall_s = (t_return - t_call) / 1e9
    busy_ns: Dict[int, int] = {}
    for row in rows:
        pid = row["_bench_pid"]
        busy_ns[pid] = busy_ns.get(pid, 0) + row["_bench_t1_ns"] - row["_bench_t0_ns"]
    replica_steps = sum(row["steps"] * row["replicas"] for row in rows)
    rep.update(
        setup_s=(min(r["_bench_t0_ns"] for r in rows) - t_call) / 1e9,
        report_s=(t_return - max(r["_bench_t1_ns"] for r in rows)) / 1e9,
        wall_s=wall_s,
        replica_steps_per_s=replica_steps / wall_s,
        rank_mean=float(np.mean([row["mean_rank"] for row in rows])),
        overhead_s=wall_s - max(busy_ns.values()) / 1e9,
    )
    return rep


def vector_layers(traced: List[dict]) -> Dict[str, float]:
    ledger = spans.Ledger()
    steps = 0
    for rep in traced:
        for row in rep["rows"]:
            ledger.merge(row["_bench_trace"])
            steps += row["steps"]
    chooser, index = ledger.ns("chooser.draw"), ledger.ns("index.flush")
    return {
        "chooser.draw_ns": _ratio(chooser, steps),
        "chooser.redraws": _ratio(ledger.counts.get("chooser.redraw_rows", 0), steps),
        "index.flush_ns": _ratio(index, steps),
        "engine.self_ns": _ratio(ledger.ns("engine.run") - chooser - index, steps),
        "orchestrate.overhead_s": _median(rep.get("overhead_s") for rep in traced),
        "orchestrate.pool_start_s": _median(rep.get("setup_s") for rep in traced),
    }


def sweep_vector(args, traced: bool, seconds: float) -> dict:
    seeds = [derive_seed(args.seed, 5, k) for k in range(SWEEP_SEEDS)]
    budget = Budget(seconds)
    reps = []
    while budget.another(len(reps), SWEEP_MIN_REPS):
        reps.append(sweep_once(args, seeds, traced))
    # Each replica step is one insert and one delete-min.
    metrics = {
        "setup_s": _median(r.get("setup_s") for r in reps),
        "ops_s": 2.0 * _median(r.get("replica_steps_per_s") for r in reps),
    }
    human = [
        ("setup_s", metrics["setup_s"], "s", f"pool start, median of {len(reps)} sweeps"),
        ("replica_steps_per_s", metrics["ops_s"] / 2.0, "1/s", "sum of steps x replicas / sweep wall"),
        ("rank_mean", _median(r.get("rank_mean") for r in reps), "rank", "mean over cells"),
        ("report_s", _median(r.get("report_s") for r in reps), "s",
         "last cell done to sweep_cells returned"),
    ]
    shape = SWEEP_SHAPE[args.smoke]
    failures = gates.check_sweep(
        [r["rows"] for r in reps], len(SWEEP_BETAS) * SWEEP_SEEDS,
        (shape["n"], shape["prefill"], shape["steps"], shape["replicas"]),
        failed_cells=sum(r["failed"] for r in reps),
    )
    return {
        "reps": reps,
        "human": human,
        "metrics": metrics,
        "failures": failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "cost": _ratio(1.0, metrics["ops_s"]) * 1e9,
        "params": dict(shape, betas=list(SWEEP_BETAS), seeds=seeds, workers=SWEEP_WORKERS),
    }


# -- one run ------------------------------------------------------------------


def measure(args, out_dir: Path, traced: bool, seconds: float) -> dict:
    if args.workload == "sweep-vector":
        return sweep_vector(args, traced, seconds)
    runner = ServiceRunner(args, out_dir)
    try:
        fn = serve_open if args.workload == "serve-open" else serve_saturate
        out = fn(args, runner, traced, seconds)
    finally:
        runner.close()
    reps = out["reps"]
    out["failures"] = [f for rep in reps for f in rep["failures"]]
    out["attempted"] = sum(rep["offered"] for rep in reps)
    out["failed"] = sum(
        gates.failed_ops(rep["offered"], min(rep["completed"], rep["offered"])) for rep in reps
    )
    out["params"] = dict(
        shards=SHARDS, loadgens=LOADGENS, beta=BETA, prefill=PREFILL,
        ladder=dict(LADDER) if args.workload == "serve-open" else None,
        saturate_ops=SATURATE_OPS[args.smoke] if args.workload == "serve-saturate" else None,
        specs=[rep.get("spec") for rep in reps],
    )
    return out


def run(args) -> dict:
    out_dir = Path(args.out)
    if not args.trace:
        plain = measure(args, out_dir, traced=False, seconds=args.seconds)
        metrics = {name: plain["metrics"][name] for name in END_TO_END if name in plain["metrics"]}
        passes = [plain]
    else:
        # Half the budget untraced, half traced: the difference is the
        # tracing overhead this run reports.
        plain = measure(args, out_dir, traced=False, seconds=args.seconds / 2)
        traced = measure(args, out_dir, traced=True, seconds=args.seconds / 2)
        metrics = {name: 0.0 for name in PER_LAYER}
        if args.workload == "sweep-vector":
            metrics.update(vector_layers(traced["reps"]))
        else:
            metrics.update(service_layers(traced["reps"]))
        metrics["trace.overhead_pct"] = 100.0 * (_ratio(traced["cost"], plain["cost"]) - 1.0)
        passes = [plain, traced]
    return {
        "failures": [f for p in passes for f in p["failures"]],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
        "human": [list(line) for line in plain["human"]],
        "params": plain["params"],
        "numpy": np.__version__,
    }


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--doctor", choices=DOCTORS)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.doctor and args.workload == "sweep-vector":
        parser.error("--doctor corrupts service results; it does not apply to sweep-vector")
    # run.py stops the whole group with SIGTERM; exiting through
    # SystemExit lets run_service's own cleanup run first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    result = run(args)
    path = Path(args.out) / "result.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(result, default=_jsonable))
    os.replace(tmp, path)
    return 0
