"""The benchmark command end to end: smoke runs, failing gates and cleanup.

Each test runs ``perfbench/run.py`` as a subprocess, the way it is run
for real, with tiny shapes (``--smoke``) and short budgets.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench.run import group_members
from perfbench.workload import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
SHM = Path("/dev/shm")


def _run(*args, cwd=ROOT, timeout=120):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _segments():
    return {p.name for p in SHM.iterdir()} if SHM.is_dir() else set()


def _git_status():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout


@pytest.mark.parametrize(
    "workload, trace, seconds",
    [
        ("serve-open", 0, "4"),
        ("serve-saturate", 0, "2"),
        ("serve-saturate", 1, "3"),
        ("sweep-vector", 0, "1"),
        ("sweep-vector", 1, "1"),
    ],
)
def test_smoke_run_reports_every_metric_and_leaves_nothing_behind(workload, trace, seconds):
    before_status, before_segments = _git_status(), _segments()
    proc = _run("--workload", workload, "--seed", "3", "--seconds", seconds,
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _segments() <= before_segments
    assert _git_status() == before_status


@pytest.mark.parametrize("doctor", ["drop-event", "flip-ok"])
def test_doctored_result_fails_the_gates_and_the_exit_status(doctor):
    proc = _run("--workload", "serve-saturate", "--seed", "3", "--seconds", "1",
                "--smoke", "--doctor", doctor)
    assert proc.returncode == 1, proc.stderr[-3000:]
    assert _result(proc)["correct"] is False
    assert "gates: FAILED" in proc.stdout


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "serve-open", "--seed", "1", "--seconds", "2", "--trace", "0",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _children(pid):
    path = Path(f"/proc/{pid}/task/{pid}/children")
    return [int(p) for p in path.read_text().split()] if path.exists() else []


def _start_mid_saturate():
    """Start a long serve-saturate run and wait until traffic is flowing."""
    before = _segments()
    driver = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "serve-saturate",
         "--seed", "5", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    deadline = time.monotonic() + 30
    workload = None
    while time.monotonic() < deadline:
        kids = _children(driver.pid)
        if kids and _segments() - before:
            workload = kids[0]
            break
        time.sleep(0.05)
    assert workload is not None, "the workload never created its segment"
    time.sleep(1.0)  # mid-traffic: owners and the loadgen are running
    assert len(group_members(workload)) >= 4
    return driver, workload, before


def _assert_clean(workload, before):
    assert group_members(workload) == []
    assert _segments() <= before


def test_sigterm_mid_run_leaves_no_process_or_segment():
    driver, workload, before = _start_mid_saturate()
    driver.send_signal(signal.SIGTERM)
    out, _ = driver.communicate(timeout=60)
    assert driver.returncode == 128 + signal.SIGTERM
    assert out.strip() == ""
    _assert_clean(workload, before)


def test_killed_workload_process_orphans_are_reaped():
    driver, workload, before = _start_mid_saturate()
    os.kill(workload, signal.SIGKILL)
    out, _ = driver.communicate(timeout=60)
    assert driver.returncode not in (0, 1)
    assert out.strip() == ""
    _assert_clean(workload, before)
