"""Benchmark entry point: run one workload in a process group of its own.

From the root of a checkout::

    python3 perfbench/run.py --workload serve-open --seed 1 --seconds 25 --trace 0

Workloads: ``serve-open``, ``serve-saturate``, ``sweep-vector`` (see
``perfbench/NOTES.md``).  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` spends half the budget untraced and half traced and
reports the per-layer metrics plus the tracing overhead.

The workload runs in a child process that leads a new process group.
Whatever happens here (success, failure, timeout, SIGTERM or SIGINT),
that group is stopped and reaped, every shared-memory segment the run
created is removed, and the run is failed if either had to be cleaned up
after a normal exit.  Human-readable lines come first on stdout; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Exit status: 0 when every correctness gate passed, 1
when a gate failed (the JSON line is still printed), anything else when
the run could not produce a result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workload import DOCTORS, END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

OUT_ROOT = ROOT / ".perfbench-out"
SHM_DIR = Path("/dev/shm")

#: Wall-clock cap on the child, set-up and reporting included.
DEADLINE_S = 150.0
#: How long processes get to exit by themselves before SIGKILL.
GRACE_S = 3.0

_PR_SET_CHILD_SUBREAPER = 36


class Interrupted(Exception):
    def __init__(self, signum: int) -> None:
        super().__init__(f"signal {signum}")
        self.signum = signum


def _raise_interrupted(signum, frame):
    raise Interrupted(signum)


def become_subreaper() -> None:
    """Adopt orphaned descendants so that they can be reaped here.

    A killed workload process orphans its shard owners; as a subreaper
    this process becomes their parent instead of init, and can wait for
    them.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap() -> None:
    """Collect the exit status of every child that has already ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def group_members(pgid: int) -> list:
    """Live (non-zombie) processes in process group ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # "pid (comm) state ppid pgrp ...": comm may hold spaces or ')'.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def _wait_group(pgid: int, timeout_s: float) -> list:
    deadline = time.monotonic() + timeout_s
    while True:
        reap()
        members = group_members(pgid)
        if not members or time.monotonic() > deadline:
            return members
        time.sleep(0.02)


def stop_group(pgid: int, gentle: bool) -> list:
    """Stop every process in the group; returns those that had to be killed.

    ``gentle`` first lets the group end by itself (the normal path),
    otherwise it starts with SIGTERM (interrupt and timeout paths).
    Either way, what is left after the grace period gets SIGKILL, and
    this returns only once the group is empty and reaped.
    """
    if not gentle:
        _signal_group(pgid, signal.SIGTERM)
    stragglers = _wait_group(pgid, GRACE_S)
    if stragglers:
        _signal_group(pgid, signal.SIGKILL)
        left = _wait_group(pgid, 10.0)
        if left:
            raise RuntimeError(f"processes {left} survived SIGKILL")
    return stragglers


def remove_segments(log: Path) -> list:
    """Unlink every logged segment still present; returns their names."""
    if not log.exists():
        return []
    left = []
    for name in log.read_text().split():
        path = SHM_DIR / name
        if path.exists():
            left.append(name)
            path.unlink()
    return left


def peak_rss_mb() -> float:
    """Largest peak RSS of any reaped descendant, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def provenance(args, argv, child: dict) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "argv": argv,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": child.get("params"),
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(args, argv, child: dict, hygiene: list) -> int:
    failures = child["failures"] + hygiene
    units = PER_LAYER if args.trace else END_TO_END
    metrics = dict(child["metrics"])
    human = list(child["human"])
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
        human.append(["peak_rss_mb", metrics["peak_rss_mb"], "MB", "largest process"])
    human.append(
        ["ops_failed_frac", child["failed"] / child["attempted"] if child["attempted"] else None,
         "ratio", f"{child['failed']} of {child['attempted']}"]
    )
    for name, value, unit, note in human:
        print(f"{args.workload:<15} {name:<24} {_fmt(value):>12} {unit:<6} {note}")
    if args.trace:
        for name in PER_LAYER:
            print(f"{args.workload:<15} {name:<24} {_fmt(metrics[name]):>12} {PER_LAYER[name]}")
    print("gates: " + ("ok" if not failures else "FAILED"))
    for failure in failures:
        print(f"  {failure}")
    record = {
        "correct": not failures,
        "attempted": int(child["attempted"]),
        "failed": int(child["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    full = dict(record, failures=failures, human=human, provenance=provenance(args, argv, child))
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n"
    )
    print("provenance: " + json.dumps(full["provenance"], sort_keys=True))
    print(json.dumps(record))
    return 0 if record["correct"] else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sweep and saturate shapes, for tests")
    parser.add_argument(
        "--doctor", choices=DOCTORS,
        help="corrupt the first service result before the gates, to prove they fail",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    OUT_ROOT.mkdir(exist_ok=True)
    run_dir = OUT_ROOT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    segment_log = run_dir / "segments.log"
    cmd = [
        sys.executable, "-c",
        "import sys; from perfbench.workload import main; sys.exit(main())",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(run_dir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.doctor:
        cmd += ["--doctor", args.doctor]
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONDONTWRITEBYTECODE="1",
    )

    become_subreaper()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _raise_interrupted)
    child = None
    status = None
    hygiene = []
    try:
        child = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr.fileno(), start_new_session=True
        )
        try:
            status = child.wait(timeout=DEADLINE_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload exceeded {DEADLINE_S:.0f}s", file=sys.stderr)
            stop_group(child.pid, gentle=False)
        else:
            killed = stop_group(child.pid, gentle=True)
            if killed:
                hygiene.append(f"processes outlived the workload and were killed: {killed}")
    except Interrupted as exc:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        if child is not None:
            stop_group(child.pid, gentle=False)
        remove_segments(segment_log)
        shutil.rmtree(run_dir, ignore_errors=True)
        print(f"interrupted by signal {exc.signum}; workload stopped and cleaned up", file=sys.stderr)
        return 128 + exc.signum
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        if child is not None and child.poll() is None:
            stop_group(child.pid, gentle=False)
        left = remove_segments(segment_log)
        if left:
            hygiene.append(f"shared-memory segments outlived the workload: {left}")

    result_path = run_dir / "result.json"
    if status != 0 or not result_path.exists():
        print(f"error: workload exited with status {status} and no result", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 3
    child_result = json.loads(result_path.read_text())
    shutil.rmtree(run_dir, ignore_errors=True)
    return report(args, argv, child_result, hygiene)


if __name__ == "__main__":
    sys.exit(main())
