"""Command-line interface: run the paper's experiments from a terminal.

Usage (after ``pip install -e .``)::

    python -m repro throughput --threads 1 2 4 8 --ops 150
    python -m repro rank --betas 1.0 0.5 0.25
    python -m repro sssp --threads 1 4 8 --graph-size 2000
    python -m repro process --n 16 --beta 0.5 --steps 20000
    python -m repro divergence --n 16 --steps 40000
    python -m repro potential --n 16 --beta 1.0 --steps 20000
    python -m repro graph-choice --n 36
    python -m repro sweep --backend both --replicas 64 --steps 20000
    python -m repro worker --queue-dir /shared/q --betas 1.0 0.5 --seeds 4
    python -m repro serve --shards 4 --workers 4 --ops 50000 --rate 20000

Every subcommand prints a paper-style table and, where a curve is the
point, an ASCII chart.  All experiments accept ``--seed`` for exact
reproducibility.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.ascii_plot import line_chart
from repro.bench.tables import format_table
from repro.core.process import SequentialProcess
from repro.core.single_choice import SingleChoiceProcess


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=1, help="root RNG seed (default 1)")


def _add_sweep_grid_args(p: argparse.ArgumentParser) -> None:
    """The sweep-grid arguments shared by ``sweep`` and ``worker``.

    Both subcommands must expand *identical* grids from identical
    arguments — cache keys and queue cell keys are derived from them, so
    a ``worker`` invocation with the same flags as a ``sweep`` addresses
    the same cells.
    """
    p.add_argument(
        "--backend",
        choices=["reference", "vector", "both"],
        default="vector",
        help="'both' times the backends head to head and KS-tests parity",
    )
    p.add_argument("--n", type=int, default=256, help="number of queues")
    p.add_argument("--betas", type=float, nargs="+", default=[1.0])
    p.add_argument("--gamma", type=float, default=0.0, help="insertion bias bound")
    p.add_argument("--replicas", type=int, default=64)
    p.add_argument("--prefill", type=int, default=16384)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument(
        "--ref-replicas",
        type=int,
        default=None,
        help="reference-side replicas when timing 'both' (default min(replicas, 8))",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="score rows against the exact stationary rank law "
        "(oracle_mean/oracle_ks/oracle_mean_err columns)",
    )
    p.add_argument("--json", type=str, default=None, help="write rows as JSON here")
    p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="run root seeds seed..seed+N-1 as independent sweep cells (default 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Experiments from 'The Power of Choice in Priority Scheduling'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("throughput", help="Figure 1: simulated throughput vs threads")
    p.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--ops", type=int, default=150, help="insert+delete pairs per thread")
    p.add_argument("--prefill", type=int, default=4000)
    p.add_argument(
        "--contenders",
        nargs="+",
        default=["mq1.0", "mq0.5", "lj", "klsm"],
        help="any of: mq<beta>, lj, klsm, spray",
    )
    _add_seed(p)

    p = sub.add_parser("rank", help="Figure 2: mean rank vs beta (concurrent model)")
    p.add_argument("--betas", type=float, nargs="+", default=[1.0, 0.75, 0.5, 0.25])
    p.add_argument("--queues", type=int, default=8)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--prefill", type=int, default=20000)
    p.add_argument("--ops", type=int, default=1000)
    _add_seed(p)

    p = sub.add_parser("sssp", help="Figure 3: simulated parallel Dijkstra")
    p.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--graph-size", type=int, default=2000)
    p.add_argument("--betas", type=float, nargs="+", default=[1.0, 0.5])
    _add_seed(p)

    p = sub.add_parser("process", help="sequential (1+beta) process statistics")
    p.add_argument("--n", type=int, default=16, help="number of queues")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0, help="insertion bias bound")
    p.add_argument("--prefill", type=int, default=20000)
    p.add_argument("--steps", type=int, default=20000)
    _add_seed(p)

    p = sub.add_parser("divergence", help="Theorem 6: single vs two choice over time")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--prefill", type=int, default=40000)
    p.add_argument("--steps", type=int, default=40000)
    _add_seed(p)

    p = sub.add_parser("potential", help="Theorem 3: Gamma potential over time")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--alpha", type=float, default=None)
    _add_seed(p)

    p = sub.add_parser("graph-choice", help="Section 6: the process on graphs")
    p.add_argument("--n", type=int, default=36)
    p.add_argument("--prefill", type=int, default=10000)
    p.add_argument("--steps", type=int, default=10000)
    _add_seed(p)

    p = sub.add_parser(
        "sweep",
        help="replica sweep of the (1+beta) process: reference vs vector backend",
    )
    _add_sweep_grid_args(p)
    p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan (beta x seed) cells out across N worker processes (default serial)",
    )
    p.add_argument(
        "--cache-dir",
        type=str,
        default=None,
        help="resumable result cache: completed cells persist here and are "
        "reused on re-run (crash/Ctrl-C safe)",
    )
    p.add_argument(
        "--manifest",
        type=str,
        default=None,
        help="write the run manifest (grid, cache hits, per-cell wall time, "
        "git SHA) as JSON here; defaults to <json>.manifest.json when --json is set",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=0,
        help="give each failing cell up to N extra attempts (exponential "
        "backoff with deterministic jitter; TypeError/ValueError are fatal "
        "and never retried)",
    )
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell timeout in seconds: an over-budget cell counts as a "
        "failed attempt (with --workers > 1 the worker running it is killed "
        "and replaced; serial mode checks after the cell returns)",
    )
    p.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="whole-sweep deadline in seconds; cells still unfinished when "
        "it expires fail with SweepDeadlineExceeded",
    )
    p.add_argument(
        "--on-error",
        choices=["raise", "quarantine"],
        default="raise",
        help="'quarantine' records cells that exhaust their attempts in the "
        "manifest's failures section and keeps sweeping; 'raise' aborts on "
        "the first exhausted cell.  Exit codes: 0 = every cell completed "
        "(and, with --backend both, parity held); 1 = quarantined cells "
        "(the summary line reports quarantined=N) or a parity failure",
    )
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="JSON fault-injection plan chaos-testing the sweep itself "
        "(see repro.orchestrate.policy.SweepFaultPlan; used by CI)",
    )
    _add_seed(p)

    p = sub.add_parser(
        "worker",
        help="drain one worker's share of a multi-host sweep from a shared "
        "queue directory (start the same command on every machine)",
    )
    _add_sweep_grid_args(p)
    p.add_argument(
        "--queue-dir",
        type=str,
        required=True,
        help="queue directory on a filesystem every worker can reach (NFS "
        "or local); created by the first worker, validated by the rest",
    )
    p.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds without heartbeats before a cell's lease counts as "
        "stale and another worker may take it over (default 30; keep well "
        "above --heartbeat plus worst-case clock skew on the shared fs)",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        help="lease renewal interval in seconds (default lease-ttl/3)",
    )
    p.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="idle poll interval while waiting on other workers' leases",
    )
    p.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="queue-wide attempt budget per cell: a cell that fails this "
        "many attempts (across distinct workers when several run) is "
        "quarantined for everyone",
    )
    p.add_argument(
        "--worker-id",
        type=str,
        default=None,
        help="stable worker name for leases and the shard manifest "
        "(default host-pid-suffix)",
    )
    p.add_argument(
        "--fault-plan",
        type=str,
        default=None,
        help="JSON fault-injection plan; kinds kill/zombie/pause_heartbeat "
        "exercise the lease protocol itself (used by CI)",
    )
    p.add_argument(
        "--manifest",
        type=str,
        default=None,
        help="also write the queue-wide *merged* manifest here once the "
        "queue is drained (per-worker shard manifests always land in "
        "<queue-dir>/manifests/)",
    )
    p.add_argument(
        "--gc-tmp-age",
        type=float,
        default=3600.0,
        help="on startup, reap cache temp files older than this many "
        "seconds (orphans of SIGKILLed workers; default 3600)",
    )
    _add_seed(p)

    p = sub.add_parser(
        "serve",
        help="live sharded MultiQueue over shared memory: real processes, real cores",
    )
    p.add_argument("--shards", type=int, default=4, help="shard-owner processes")
    p.add_argument("--workers", type=int, default=4, help="loadgen processes")
    p.add_argument("--ops", type=int, default=20000, help="offered operations")
    p.add_argument("--prefill", type=int, default=2048)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=0.0, help="insertion bias bound")
    p.add_argument("--policy", choices=["mq", "single", "rr"], default="mq")
    p.add_argument(
        "--mode", choices=["poisson", "onoff", "diurnal", "trace"], default="poisson"
    )
    p.add_argument(
        "--rate",
        type=float,
        default=0.0,
        help="aggregate offered ops/s (0 = closed throttle, as fast as possible)",
    )
    p.add_argument("--on-s", type=float, default=0.5, help="onoff: burst length")
    p.add_argument("--off-s", type=float, default=0.5, help="onoff: quiet length")
    p.add_argument("--burst-factor", type=float, default=8.0)
    p.add_argument("--period-s", type=float, default=4.0, help="diurnal period")
    p.add_argument(
        "--trace", type=str, default=None, help="arrival trace file (seconds per line)"
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="cross-validate the rank-vs-beta shape against the simulator "
        "(exit 1 on shape disagreement)",
    )
    p.add_argument(
        "--betas",
        type=float,
        nargs="+",
        default=[0.0, 0.5, 1.0],
        help="beta grid for --validate",
    )
    p.add_argument(
        "--supervise",
        action="store_true",
        help="respawn crashed shard owners from their durable "
        "snapshot+journal state (epoch-fenced takeovers)",
    )
    p.add_argument(
        "--chaos",
        action="store_true",
        help="standing chaos harness: seeded kill/stall/zombie schedule "
        "against the live cluster, with the journal-based conservation "
        "audit (implies --supervise; exit 1 on any violation)",
    )
    p.add_argument("--kills", type=int, default=3, help="chaos: SIGKILLs to inject")
    p.add_argument(
        "--stalls", type=int, default=0,
        help="chaos: transient SIGSTOP/SIGCONT stalls to inject",
    )
    p.add_argument(
        "--zombies", type=int, default=1,
        help="chaos: owners left SIGSTOPped until the supervisor fences "
        "them awake",
    )
    p.add_argument(
        "--chaos-seed", type=int, default=None,
        help="fault-schedule seed (default: --seed)",
    )
    p.add_argument(
        "--chaos-start-s", type=float, default=0.25,
        help="chaos: first-fault offset after traffic starts",
    )
    p.add_argument(
        "--chaos-window-s", type=float, default=1.2,
        help="chaos: faults are spread over this many seconds",
    )
    p.add_argument(
        "--dead-after-s", type=float, default=None,
        help="heartbeat staleness treated as owner death "
        "(default 2.0, or 0.35 under --chaos)",
    )
    p.add_argument(
        "--chaos-manifest", type=str, default=None,
        help="write the executed fault schedule (the chaos manifest) "
        "to this JSON file",
    )
    p.add_argument("--json", type=str, default=None, help="write raw result JSON here")
    _add_seed(p)

    p = sub.add_parser(
        "chaos",
        help="chaos engine: run the MultiQueue under injected faults and audit invariants",
    )
    p.add_argument("--queues", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument(
        "--steps", type=int, default=4000, help="total operations across all threads"
    )
    p.add_argument("--prefill", type=int, default=4000)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--delete-locking", choices=["better", "both"], default="better")
    p.add_argument("--crash", type=int, default=1, help="workers to crash-stop")
    p.add_argument(
        "--crash-release-locks",
        action="store_true",
        help="crashed workers release their locks (graceful crash)",
    )
    p.add_argument("--stalls", type=int, default=1, help="targeted lock-holder stalls")
    p.add_argument("--stall-cycles", type=float, default=200_000.0)
    p.add_argument("--preempt-prob", type=float, default=0.002)
    p.add_argument("--preempt-cycles", type=float, default=50_000.0)
    p.add_argument("--spike-prob", type=float, default=0.001)
    p.add_argument("--spike-cycles", type=float, default=5_000.0)
    p.add_argument(
        "--lease", type=float, default=0.0, help="lock lease in cycles (0 = off)"
    )
    p.add_argument(
        "--watchdog",
        type=float,
        default=5e6,
        help="livelock watchdog budget in cycles (0 = off)",
    )
    p.add_argument("--fault-seed", type=int, default=0)
    _add_seed(p)

    p = sub.add_parser(
        "sanitize",
        help="run a workload/chaos scenario under happens-before race detection",
    )
    p.add_argument(
        "--scenario",
        choices=["workload", "chaos"],
        default="workload",
        help="plain workload, or faulted run with lock leases/revocation",
    )
    p.add_argument(
        "--variant",
        choices=["lock-better", "lock-both", "broken-nolock"],
        default="lock-better",
        help="locking discipline (broken-nolock is the known-racy mutant)",
    )
    p.add_argument("--seeds", type=int, default=1, help="run seeds 1..N (default 1)")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--ops", type=int, default=100, help="insert+delete pairs per thread")
    p.add_argument("--queues", type=int, default=4)
    p.add_argument("--prefill", type=int, default=500)
    p.add_argument(
        "--lease", type=float, default=0.0, help="lock lease in cycles (0 = scenario default)"
    )
    _add_seed(p)

    p = sub.add_parser(
        "check",
        help="whole-program static checker: determinism (DET101-106), "
        "syscall discipline and lock order (SAN101-106)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files/dirs to analyze (default: the installed repro tree)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--baseline",
        default=None,
        help="baseline suppression file; stale entries fail the run",
    )
    p.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="write current findings to FILE as a baseline and exit 0",
    )
    p.add_argument(
        "--reason",
        default="baselined pre-existing finding; fix before extending this code",
        help="reason recorded on entries written by --write-baseline",
    )

    sub.add_parser("experiments", help="list all reproduced experiments")

    p = sub.add_parser(
        "report", help="print all archived benchmark tables (benchmarks/results/)"
    )
    p.add_argument("--ids", nargs="*", default=None, help="limit to experiment ids")

    return parser


# -- subcommand implementations ---------------------------------------------


def _contender_factory(spec: str, threads: int):
    from repro.concurrent import ConcurrentMultiQueue, KLSMPQ, LindenJonssonPQ, SprayListPQ

    if spec.startswith("mq"):
        beta = float(spec[2:]) if len(spec) > 2 else 1.0

        def make(engine, rng):
            return ConcurrentMultiQueue(engine, n_queues=2 * threads, beta=beta, rng=rng)

        return make
    if spec == "lj":
        return lambda engine, rng: LindenJonssonPQ(engine, rng=rng)
    if spec == "klsm":
        return lambda engine, rng: KLSMPQ(engine, relaxation=256, rng=rng)
    if spec == "spray":
        return lambda engine, rng: SprayListPQ(engine, n_threads=threads, rng=rng)
    raise SystemExit(f"unknown contender {spec!r} (use mq<beta>, lj, klsm, spray)")


def cmd_throughput(args) -> None:
    from repro.sim.workload import run_throughput_experiment

    rows = []
    for threads in args.threads:
        row = {"threads": threads}
        for spec in args.contenders:
            res = run_throughput_experiment(
                _contender_factory(spec, threads),
                threads,
                args.ops,
                prefill=args.prefill,
                seed=args.seed,
            )
            row[spec] = res.throughput
        rows.append(row)
    print(format_table(rows, title="throughput (ops/Mcycle) vs threads", floatfmt=".0f"))
    series = {spec: [r[spec] for r in rows] for spec in args.contenders}
    print()
    print(line_chart(args.threads, series, title="throughput curves"))


def cmd_rank(args) -> None:
    from repro.concurrent import ConcurrentMultiQueue, OpRecorder
    from repro.sim.engine import Engine
    from repro.sim.workload import AlternatingWorkload

    rows = []
    for beta in args.betas:
        rec = OpRecorder()
        eng = Engine()
        model = ConcurrentMultiQueue(
            eng, args.queues, beta=beta, rng=args.seed, recorder=rec
        )
        model.prefill(np.random.default_rng(args.seed).integers(2**40, size=args.prefill))
        AlternatingWorkload(model, args.threads, args.ops, rng=args.seed + 1).spawn_on(eng)
        eng.run()
        trace = rec.rank_trace()
        rows.append(
            {
                "beta": beta,
                "mean rank": trace.mean_rank(),
                "p99 rank": trace.quantile(0.99),
                "max rank": trace.max_rank(),
            }
        )
    print(
        format_table(
            rows,
            title=f"mean rank vs beta ({args.queues} queues, {args.threads} threads)",
        )
    )
    print()
    print(
        line_chart(
            args.betas,
            {"mean rank": [r["mean rank"] for r in rows]},
            title="rank vs beta (log y)",
            logy=True,
        )
    )


def cmd_sssp(args) -> None:
    from repro.concurrent import ConcurrentMultiQueue
    from repro.graphs import dijkstra, parallel_dijkstra, road_network

    graph = road_network(args.graph_size, rng=args.seed)
    reference = dijkstra(graph, 0)
    rows = []
    for threads in args.threads:
        row = {"threads": threads}
        for beta in args.betas:

            def make(engine, rng, threads=threads, beta=beta):
                return ConcurrentMultiQueue(
                    engine, n_queues=2 * threads, beta=beta, rng=rng
                )

            res = parallel_dijkstra(graph, 0, make, n_threads=threads, seed=args.seed)
            if not np.array_equal(res.dist, reference.dist):
                raise SystemExit("internal error: distances diverged")
            row[f"beta={beta} Mcyc"] = res.sim_time / 1e6
        rows.append(row)
    print(
        format_table(
            rows,
            title=(
                f"parallel SSSP on synthetic road network "
                f"({graph.n_vertices} vertices); lower is better"
            ),
        )
    )


def cmd_process(args) -> None:
    from repro.core.policies import biased_insert_probs

    pi = biased_insert_probs(args.n, args.gamma) if args.gamma else None
    proc = SequentialProcess(
        args.n, args.prefill + args.steps, beta=args.beta, insert_probs=pi, rng=args.seed
    )
    run = proc.run_steady_state_sampled(args.prefill, args.steps, sample_every=max(args.steps // 20, 1))
    summary = run.trace.summary()
    summary.update(
        {
            "n": args.n,
            "beta": args.beta,
            "gamma": args.gamma,
            "E[max top rank]": float(run.max_top_ranks.mean()),
            "bound n/beta^2": args.n / args.beta**2,
        }
    )
    print(format_table([summary], title="sequential (1+beta) process"))
    means = run.trace.windowed_means(max(args.steps // 40, 1))
    print()
    from repro.analysis.ascii_plot import sparkline

    print(f"rank cost over time (should be flat): {sparkline(means, width=60)}")


def cmd_divergence(args) -> None:
    capacity = args.prefill + args.steps
    sample = max(args.steps // 10, 1)
    single = SingleChoiceProcess(args.n, capacity, rng=args.seed)
    run_s = single.run_steady_state_sampled(args.prefill, args.steps, sample_every=sample)
    double = SequentialProcess(args.n, capacity, beta=1.0, rng=args.seed)
    run_d = double.run_steady_state_sampled(args.prefill, args.steps, sample_every=sample)
    rows = [
        {
            "t": int(t),
            "single-choice max rank": int(s),
            "two-choice max rank": int(d),
        }
        for t, s, d in zip(run_s.sample_steps, run_s.max_top_ranks, run_d.max_top_ranks)
    ]
    print(format_table(rows, title="Theorem 6: divergence of the single-choice process"))
    print()
    print(
        line_chart(
            [r["t"] for r in rows],
            {
                "single": [r["single-choice max rank"] for r in rows],
                "two-choice": [r["two-choice max rank"] for r in rows],
            },
            title="max top rank over time",
        )
    )


def cmd_potential(args) -> None:
    from repro.core.exponential import ExponentialTopProcess
    from repro.core.potential import PotentialTracker, recommended_alpha

    proc = ExponentialTopProcess(args.n, beta=args.beta, rng=args.seed)
    alpha = args.alpha if args.alpha is not None else recommended_alpha(args.beta)
    tracker = PotentialTracker(proc, alpha=alpha)
    series = tracker.run(args.steps, sample_every=max(args.steps // 50, 1))
    g = series.gamma_over_n(args.n)
    print(
        format_table(
            [
                {
                    "n": args.n,
                    "beta": args.beta,
                    "alpha": alpha,
                    "mean Gamma/n": float(g.mean()),
                    "max Gamma/n": float(g.max()),
                }
            ],
            title="Theorem 3: Gamma potential (floor 2.0 by AM-GM)",
            floatfmt=".4f",
        )
    )
    from repro.analysis.ascii_plot import sparkline

    print(f"\nGamma(t)/n over time: {sparkline(g, width=60)}")


def cmd_graph_choice(args) -> None:
    from repro.graphs.choice_process import GraphChoiceProcess
    from repro.graphs.generators import complete_graph, cycle_graph, random_regular_graph

    rows = []
    for name, graph in [
        ("cycle", cycle_graph(args.n)),
        ("random 4-regular", random_regular_graph(args.n, 4, rng=args.seed)),
        ("complete", complete_graph(args.n)),
    ]:
        proc = GraphChoiceProcess(graph, args.prefill + args.steps, rng=args.seed)
        trace = proc.run_steady_state(args.prefill, args.steps)
        rows.append(
            {"graph": name, "mean rank": trace.mean_rank(), "max rank": trace.max_rank()}
        )
    print(format_table(rows, title=f"Section 6 graph choice process, n={args.n}"))


def _resolve_sweep_fn(args):
    """Map shared grid args to ``(cell function, fixed kwargs, seeds)``.

    Used by both ``sweep`` and ``worker`` so the two subcommands address
    byte-identical cells (cache keys and queue cell keys are derived
    from exactly these values).
    """
    from repro.vector.sweep import sweep_cell_backend, sweep_cell_compare

    seeds = list(range(args.seed, args.seed + max(args.seeds, 1)))
    common = dict(
        n=args.n,
        prefill=args.prefill,
        steps=args.steps,
        replicas=args.replicas,
        gamma=args.gamma,
        oracle=args.oracle,
    )
    if args.backend == "both":
        fn = sweep_cell_compare
        common["ref_replicas"] = args.ref_replicas
    else:
        fn = sweep_cell_backend
        common["backend"] = args.backend
    return fn, common, seeds


def _load_fault_plan(args):
    if not args.fault_plan:
        return None
    from repro.orchestrate import SweepFaultPlan

    return SweepFaultPlan.load(args.fault_plan)


def _print_sweep_results(args, run) -> None:
    """Shared result rendering for ``sweep`` and ``worker``: the table,
    parity warnings, optional JSON rows, and the quarantine error line
    (which exits 1 — quarantined cells are holes, never silent)."""
    import json

    rows = []
    payload = []
    for cell_result in run.results:
        result = cell_result.payload
        payload.append(result)
        if args.backend == "both":
            for side in ("reference", "vector"):
                rows.append(dict(result[side]))
            rows[-1]["speedup"] = round(result["speedup"], 2)
            rows[-1]["ks_p"] = round(result["ks_p_value"], 4)
            if args.oracle:
                for key in ("oracle_mean", "oracle_ks", "oracle_mean_err"):
                    rows[-1][key] = result[key]
            if not result["parity_ok"]:
                print(
                    f"WARNING: rank-law KS test failed at beta={result['beta']} "
                    f"(p={result['ks_p_value']:.2e})",
                    file=sys.stderr,
                )
        else:
            rows.append(dict(result))
    title = (
        f"replica sweep: n={args.n}, replicas={args.replicas}, "
        f"prefill={args.prefill}, steps={args.steps}"
    )
    if rows:
        columns = list(rows[0].keys())
        for extra in ("speedup", "ks_p", "oracle_mean", "oracle_ks", "oracle_mean_err"):
            if any(extra in r for r in rows) and extra not in columns:
                columns.append(extra)
        print(format_table(rows, columns=columns, title=title))
    else:
        print(f"{title}: no completed cells")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"\nwrote {args.json}")
    if run.failures:
        # Partial results were archived above, but the exit code and the
        # summary make the holes impossible to miss in scripts and CI.
        print(
            f"ERROR: quarantined={len(run.failures)} cell(s) failed, "
            f"first: {run.failures[0].summary()}",
            file=sys.stderr,
        )
        raise SystemExit(1)
    if args.backend == "both":
        failed = [r for r in payload if not r["parity_ok"]]
        if failed:
            raise SystemExit(1)


def cmd_sweep(args) -> None:
    from repro.bench.harness import sweep_cells

    fn, common, seeds = _resolve_sweep_fn(args)
    manifest_path = args.manifest
    if manifest_path is None and args.json:
        manifest_path = f"{args.json}.manifest.json"
    fault_hook = _load_fault_plan(args)
    run = sweep_cells(
        fn,
        "beta",
        args.betas,
        seeds,
        workers=args.workers,
        cache_dir=args.cache_dir,
        manifest_path=manifest_path,
        retries=args.retries,
        cell_timeout=args.cell_timeout,
        deadline=args.deadline,
        on_error=args.on_error,
        fault_hook=fault_hook,
        **common,
    )
    if args.workers or args.cache_dir or manifest_path or not run.ok:
        print(f"{run.manifest.describe()}\n")
    if manifest_path:
        print(f"manifest: {manifest_path}")
    _print_sweep_results(args, run)


def cmd_worker(args) -> None:
    from repro.bench.harness import queue_worker

    fn, common, seeds = _resolve_sweep_fn(args)
    report, run = queue_worker(
        fn,
        "beta",
        args.betas,
        seeds,
        queue_dir=args.queue_dir,
        lease_ttl_s=args.lease_ttl,
        heartbeat_s=args.heartbeat,
        max_attempts=args.max_attempts,
        worker_id=args.worker_id,
        fault_plan=_load_fault_plan(args),
        poll_s=args.poll,
        # Each CLI worker is its own process: an injected "kill" fault
        # delivers a real SIGKILL, leaving the lease to go stale.
        allow_sigkill=True,
        gc_tmp_age_s=args.gc_tmp_age,
        merged_manifest_path=args.manifest,
        **common,
    )
    print(
        f"worker {report.worker_id}: claimed {report.cells_claimed}, "
        f"committed {report.cells_committed} "
        f"({report.cache_hits} from cache), "
        f"{report.takeovers} takeover(s), "
        f"{report.zombie_writes_fenced} fenced write(s), "
        f"{report.failures_recorded} failure(s) recorded "
        f"in {report.elapsed_s:.2f}s"
    )
    if run.manifest is not None:
        print(f"{run.manifest.describe()}\n")
    if args.manifest:
        print(f"merged manifest: {args.manifest}")
    _print_sweep_results(args, run)


def cmd_chaos(args) -> None:
    from repro.concurrent import ConcurrentMultiQueue, InvariantAuditor, OpRecorder
    from repro.sim.engine import DeadlockError, Engine, LivelockError
    from repro.sim.faults import (
        CrashStop,
        DelaySpike,
        FaultInjector,
        FaultPlan,
        LockHolderPreempt,
        LockHolderStall,
    )
    from repro.sim.workload import AlternatingWorkload

    ops_per_thread = max(args.steps // (2 * args.threads), 1)
    # Rough per-op cycle figure (Figure 1's single-thread throughput) to
    # place time-triggered faults inside the run without a pilot run.
    horizon = 600.0 * args.steps / args.threads
    faults = []
    for k in range(args.crash):
        faults.append(
            CrashStop(
                at=(k + 1) / (args.crash + 1) * 0.5 * horizon,
                thread=f"worker-{k}",
                release_locks=args.crash_release_locks,
            )
        )
    min_locks = 2 if args.delete_locking == "both" else 1
    for k in range(args.stalls):
        faults.append(
            LockHolderStall(
                at=(k + 1) / (args.stalls + 1) * 0.6 * horizon,
                duration=args.stall_cycles,
                min_locks=min_locks,
            )
        )
    if args.preempt_prob > 0:
        faults.append(LockHolderPreempt(prob=args.preempt_prob, cycles=args.preempt_cycles))
    if args.spike_prob > 0:
        faults.append(DelaySpike(prob=args.spike_prob, cycles=args.spike_cycles))

    recorder = OpRecorder()
    engine = Engine(progress_budget=args.watchdog or None)
    model = ConcurrentMultiQueue(
        engine,
        args.queues,
        beta=args.beta,
        rng=args.seed,
        recorder=recorder,
        delete_locking=args.delete_locking,
        lock_lease=args.lease or None,
    )
    model.prefill(np.random.default_rng(args.seed).integers(2**40, size=args.prefill))
    AlternatingWorkload(model, args.threads, ops_per_thread, rng=args.seed + 1).spawn_on(
        engine
    )
    injector = FaultInjector(FaultPlan(faults, rng=args.fault_seed)).attach(engine)

    print(
        f"chaos: {args.threads} threads x {2 * ops_per_thread} ops, "
        f"{args.queues} queues, locking={args.delete_locking}, "
        f"lease={args.lease or 'off'}, watchdog={args.watchdog or 'off'}"
    )
    print(
        f"plan:  {args.crash} crash(es), {args.stalls} stall(s) of "
        f"{args.stall_cycles:.0f} cycles, preempt p={args.preempt_prob}, "
        f"spike p={args.spike_prob} (fault seed {args.fault_seed})"
    )
    try:
        engine.run()
    except (DeadlockError, LivelockError) as err:
        print(f"\nABORT ({type(err).__name__}): {err}")
        raise SystemExit(1)

    report = InvariantAuditor(model, recorder=recorder, engine=engine).audit()
    completed = sum(
        s.result for s in engine.stats.values() if isinstance(s.result, int)
    )
    trace = recorder.rank_trace()
    row = {
        "completed ops": completed,
        "Mcycles": engine.now / 1e6,
        "mean rank": trace.mean_rank() if len(trace) else float("nan"),
        "max rank": trace.max_rank() if len(trace) else float("nan"),
        "lock fail ratio": model.lock_failure_ratio(),
        "injected stalls": sum(injector.injected_stalls.values())
        + len(injector.fired_stalls),
        "crashes": len(injector.crashed_tids),
    }
    row.update(report.summary())
    print()
    print(format_table([row], title="chaos run under fault injection"))
    for note in report.notes:
        print(f"note: {note}")
    if not report.ok:
        for violation in report.violations:
            print(f"VIOLATION: {violation}")
        raise SystemExit(1)
    print("\ninvariants: all checks passed")


def cmd_sanitize(args) -> None:
    from repro.sanitizer.scenarios import run_sanitized

    seeds = range(args.seed, args.seed + max(args.seeds, 1))
    failures = 0
    rows = []
    for seed in seeds:
        report = run_sanitized(
            scenario=args.scenario,
            variant=args.variant,
            seed=seed,
            n_threads=args.threads,
            ops_per_thread=args.ops,
            n_queues=args.queues,
            prefill=args.prefill,
            lease=args.lease or None,
        )
        row = {"seed": seed, "verdict": "ok" if report.ok else "RACY"}
        row.update(report.summary())
        rows.append(row)
        if not report.ok:
            failures += 1
            print(report.describe())
            print()
    print(
        format_table(
            rows,
            title=(
                f"sanitize: {args.scenario}/{args.variant}, "
                f"{args.threads} threads x {2 * args.ops} ops"
            ),
            floatfmt=".0f",
        )
    )
    if failures:
        print(f"\n{failures}/{len(rows)} seed(s) racy")
        raise SystemExit(1)
    print(f"\nall {len(rows)} seed(s) race-free (given the annotations)")


def cmd_check(args) -> None:
    import json

    from repro.staticcheck import run_check, write_baseline

    if args.write_baseline:
        report = run_check(args.paths or None)
        write_baseline(args.write_baseline, report.findings, args.reason)
        print(
            f"wrote {len(report.findings)} finding(s) to {args.write_baseline}; "
            f"review the recorded reasons before committing"
        )
        return
    report = run_check(args.paths or None, baseline=args.baseline)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.describe())
    if not report.ok:
        raise SystemExit(1)


def cmd_serve(args) -> None:
    import json

    from repro.service.loadgen import EXIT_ALL_SHARDS_DEAD, ScheduleSpec
    from repro.service.server import AllShardsDeadError, run_service
    from repro.service.supervisor import ChaosSpec
    from repro.service.validate import compare_service_and_sim

    def write_json(record: dict) -> None:
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(record, fh, indent=2)

    spec = ScheduleSpec(
        mode=args.mode,
        ops=args.ops,
        prefill=args.prefill,
        rate=args.rate,
        seed=args.seed,
        on_s=args.on_s,
        off_s=args.off_s,
        burst_factor=args.burst_factor,
        period_s=args.period_s,
        trace_path=args.trace,
    )
    if args.validate:
        result = compare_service_and_sim(
            args.shards,
            args.workers,
            betas=tuple(args.betas),
            ops=args.ops,
            prefill=args.prefill,
            seed=args.seed,
            gamma=args.gamma,
            rate=args.rate or 2000.0,
        )
        rows = [
            {
                "beta": row["beta"],
                "service mean": row["service"]["mean_rank"],
                "sim mean": row["sim"]["mean_rank"],
                "oracle mean": row["oracle_mean"],
                "service p99": row["service"]["p99_rank"],
                "sim p99": row["sim"]["p99_rank"],
                "ks stat": row["ks_stat"],
                "oracle ks": row["oracle_ks"],
            }
            for row in result["rows"]
        ]
        print(
            format_table(
                rows,
                title=f"service vs sim rank shape ({args.shards} shards, "
                f"{args.workers} loadgen workers)",
            )
        )
        print(
            f"\nworst-beta agreement: {result['worst_beta_agreement']}, "
            f"spearman rho: {result['spearman_rho']:.2f}"
        )
        write_json(result)
        if not result["ordering_agreement"]:
            print("SHAPE DISAGREEMENT: service does not reproduce the sim's rank law")
            raise SystemExit(1)
        print("shape agreement: ok")
        return

    chaos_spec = None
    if args.chaos:
        chaos_spec = ChaosSpec(
            kills=args.kills,
            stalls=args.stalls,
            zombies=args.zombies,
            seed=args.seed if args.chaos_seed is None else args.chaos_seed,
            start_s=args.chaos_start_s,
            window_s=args.chaos_window_s,
        )
    dead_after_s = args.dead_after_s
    if dead_after_s is None:
        dead_after_s = 0.35 if args.chaos else 2.0
    try:
        result = run_service(
            args.shards,
            args.workers,
            spec,
            beta=args.beta,
            gamma=args.gamma,
            policy=args.policy,
            seed=args.seed,
            supervise=args.supervise or args.chaos,
            chaos_spec=chaos_spec,
            dead_after_s=dead_after_s,
        )
    except AllShardsDeadError as err:
        record = {
            "error": "all_shards_dead",
            "heartbeat_ages_s": {str(s): age for s, age in err.ages.items()},
            "message": str(err),
        }
        print(json.dumps(record), file=sys.stderr)
        write_json(record)
        raise SystemExit(EXIT_ALL_SHARDS_DEAD)
    result.pop("rank_values", None)
    write_json(result)
    headline = {
        "ops/s": result["throughput_ops_s"],
        "wall s": result["wall_s"],
        "insert p99 ms": result["insert_p99_ms"],
        "delete p99 ms": result["delete_p99_ms"],
        "empties": result["empties"],
        "mean rank": result["rank"]["mean_rank"] if result["rank"] else float("nan"),
        "torn": result["audit"]["torn"],
    }
    print(
        format_table(
            [headline],
            title=f"service run: {args.shards} shards, {args.workers} workers, "
            f"beta={args.beta}, policy={args.policy}, mode={args.mode}",
            floatfmt=".2f",
        )
    )
    shard_rows = [
        {
            "shard": row["shard"],
            "inserts": row["inserts"],
            "deletes": row["deletes"],
            "empties": row["empties"],
            "ops/s": result["per_shard_ops_s"][row["shard"]],
        }
        for row in result["per_shard"]
    ]
    print()
    print(format_table(shard_rows, title="per-shard load", floatfmt=".0f"))
    violations = []
    supervision = result.get("supervision")
    if supervision is not None:
        incident_rows = [
            {
                "shard": inc["shard"],
                "kind": inc["kind"],
                "recovery s": inc["recovery_s"] if inc["recovery_s"] else float("nan"),
                "replayed": inc["replayed"] if inc["replayed"] is not None else 0,
                "heap": inc["recovered_heap"]
                if inc["recovered_heap"] is not None
                else 0,
                "ok": "yes" if inc["takeover_ok"] else "no",
            }
            for inc in supervision["incidents"]
        ]
        print()
        if incident_rows:
            print(
                format_table(
                    incident_rows,
                    title=f"recovery incidents ({supervision['takeovers']} takeovers)",
                    floatfmt=".3f",
                )
            )
        else:
            print("supervision: no incidents")
        conservation = result["conservation"]
        print(
            f"conservation: {'ok' if conservation['ok'] else 'VIOLATED'} "
            f"(events_match={conservation['events_match']}, "
            f"epoch_regressions={conservation['epoch_regressions']}, "
            f"residual_total={conservation['residual_total']})"
        )
        post = result.get("post_recovery")
        if post is not None and post.get("oracle_ks") is not None:
            print(
                f"post-recovery: n={post['n_ranks']}, "
                f"oracle ks={post['oracle_ks']:.3f}, "
                f"oracle mean err={post['oracle_mean_err']:.3f}"
            )
        if args.chaos:
            if not conservation["ok"]:
                violations.append("conservation violated")
            if conservation["epoch_regressions"]:
                violations.append(
                    f"{conservation['epoch_regressions']} unfenced zombie commits"
                )
            if result["audit"]["torn"]:
                violations.append(f"{result['audit']['torn']} torn slots")
            if result["audit"]["pending"]:
                violations.append(
                    f"{result['audit']['pending']} pending journal entries"
                )
            if supervision["takeovers"] < 1:
                violations.append("no takeovers observed")
    if args.chaos_manifest and result.get("chaos") is not None:
        with open(args.chaos_manifest, "w") as fh:
            json.dump(result["chaos"], fh, indent=2)
        print(f"chaos manifest written to {args.chaos_manifest}")
    if EXIT_ALL_SHARDS_DEAD in result["loadgen_exitcodes"]:
        print("a load generator found every shard dead", file=sys.stderr)
        raise SystemExit(EXIT_ALL_SHARDS_DEAD)
    if violations:
        print("chaos violations: " + "; ".join(violations), file=sys.stderr)
        raise SystemExit(1)


def cmd_experiments(args) -> None:
    from repro.bench.registry import coverage_report

    rows = coverage_report()
    print(format_table(rows, title="Reproduced experiments (see DESIGN.md)"))


def cmd_report(args) -> None:
    import pathlib

    from repro.bench.registry import all_experiments, get_experiment

    specs = (
        [get_experiment(i) for i in args.ids] if args.ids else all_experiments()
    )
    results_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
    missing = []
    for spec in specs:
        path = results_dir / f"{spec.result_name}.txt"
        print(f"===== {spec.experiment_id} ({spec.paper_ref}) =====")
        if path.exists():
            print(path.read_text().rstrip())
        else:
            print("(no archived result; run pytest benchmarks/ --benchmark-only)")
            missing.append(spec.experiment_id)
        print()
    if missing:
        print(f"missing results for: {', '.join(missing)}")


_COMMANDS = {
    "throughput": cmd_throughput,
    "rank": cmd_rank,
    "sssp": cmd_sssp,
    "process": cmd_process,
    "divergence": cmd_divergence,
    "potential": cmd_potential,
    "graph-choice": cmd_graph_choice,
    "sweep": cmd_sweep,
    "worker": cmd_worker,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "sanitize": cmd_sanitize,
    "check": cmd_check,
    "experiments": cmd_experiments,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _COMMANDS[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
