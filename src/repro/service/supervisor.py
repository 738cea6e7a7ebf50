"""Self-healing for the live service: detection, fencing, respawn, chaos.

The :class:`Supervisor` watches every shard header's heartbeat from the
parent process and turns "an owner stopped publishing" into a completed
*takeover*: fence the old generation by bumping the header epoch, make
sure the predecessor can no longer write (SIGKILL for a kill-mode stall,
or — in zombie/fence mode — SIGCONT it into the fence and wait for it to
die of :class:`~repro.service.shm.FencedOwnerError`), then respawn the
owner, which rebuilds its exact heap from the durable snapshot+journal
(:func:`repro.service.server.recover_shard_state`).  The collector
reads events straight from the journal, so a takeover loses or repeats
none of them.

**Why fence mode serializes zombie exit before successor boot.**  Python
cannot CAS shared memory, so a zombie frozen *between* its claim check
and a payload/commit store could, if woken concurrently with a live
successor, scribble over a slot the successor now owns.  The supervisor
therefore never lets the two overlap: the zombie is woken into an
already-bumped epoch while the shard has no other owner, its first fence
check kills it (any op it managed to commit pre-fence is an ordinary
predecessor op the successor replays from the journal), and only after
it is reaped does the successor start.  This is the lease/STONITH
discipline from the multi-host orchestrator, applied in-process.

The :class:`ChaosInjector` drives a deterministic seeded schedule of
SIGKILLs, SIGSTOP stalls, and SIGSTOP zombies against the live cluster.
Both run inside :func:`repro.service.server.run_service`:
``supervise=True`` starts the supervisor and ``chaos_spec=`` the
injector (``repro serve --chaos`` passes both).  A supervised chaos
run's result carries the conservation audit proving no op was lost or
double-served across the crash cycles; an unsupervised one (kills and
stalls only) is the degraded-mode drill.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.service.server import ServiceCluster, recover_shard_state
from repro.service.shm import ServiceSegment
from repro.utils.rngtools import as_generator

_NS = 1_000_000_000

#: Wall-clock-derived fields of incident records and chaos manifests
#: (DET102): measurement, not result — exempt from determinism
#: comparison.
SUPERVISOR_VOLATILE_KEYS = frozenset(
    {
        "detected_ns",
        "recovered_ns",
        "recovery_s",
        "heartbeat_age_s",
        "zombie_pid",
        "pid",
        "fired_at_s",
        "replayed",
        "recovered_heap",
    }
)

STALL_ACTIONS = ("kill", "fence")


@dataclass
class RecoveryIncident:
    """One completed (or abandoned) takeover of a shard."""

    shard: int
    kind: str  # "dead" (process gone) or "stalled" (alive, heartbeat stale)
    action: str  # "respawn", "kill-respawn", or "fence-respawn"
    detected_ns: int
    recovered_ns: Optional[int]
    old_epoch: int
    fence_epoch: int
    heartbeat_age_s: Optional[float]  # None: the owner never published one
    zombie_pid: Optional[int] = None
    zombie_exitcode: Optional[int] = None
    takeover_ok: bool = True
    replayed: Optional[int] = None  # journal entries the successor replays
    recovered_heap: Optional[int] = None  # heap size handed to the successor

    def as_dict(self) -> dict:
        out = asdict(self)
        out["recovery_s"] = (
            (self.recovered_ns - self.detected_ns) / _NS
            if self.recovered_ns is not None
            else None
        )
        return out


class Supervisor(threading.Thread):
    """Detect stale shard heartbeats and run fenced takeovers.

    ``dead_after_s`` is the heartbeat staleness that counts as death;
    an owner that has *never* published is given ``startup_grace_s``
    from supervisor start before the same verdict applies (closing the
    heartbeat==0-is-alive-forever hole from the client side too).
    ``stall_action`` picks what happens to an owner that is alive but
    silent: ``"kill"`` (SIGKILL, then fence+respawn — the default
    STONITH) or ``"fence"`` (bump the epoch, SIGCONT the zombie into it,
    wait for it to die fenced, then respawn — the zombie-semantics path
    the chaos harness exercises).
    """

    def __init__(
        self,
        segment: ServiceSegment,
        cluster: ServiceCluster,
        dead_after_s: float = 0.5,
        poll_s: float = 0.02,
        startup_grace_s: Optional[float] = None,
        stall_action: str = "kill",
        respawn_limit: int = 16,
        zombie_exit_timeout_s: float = 10.0,
        respawn_grace_s: float = 10.0,
    ) -> None:
        if stall_action not in STALL_ACTIONS:
            raise ValueError(
                f"unknown stall_action {stall_action!r}: expected one of {STALL_ACTIONS}"
            )
        super().__init__(name="service-supervisor", daemon=True)
        self._segment = segment
        self._cluster = cluster
        self.dead_after_s = float(dead_after_s)
        self.poll_s = float(poll_s)
        self.startup_grace_s = (
            max(1.0, 4.0 * dead_after_s) if startup_grace_s is None else startup_grace_s
        )
        self.stall_action = stall_action
        self.respawn_limit = respawn_limit
        self.zombie_exit_timeout_s = zombie_exit_timeout_s
        self.respawn_grace_s = respawn_grace_s
        self.incidents: List[RecoveryIncident] = []
        self.takeovers = 0
        self._respawns = [0] * segment.shards
        self._abandoned: Set[int] = set()
        # shard -> (incident awaiting its successor's first heartbeat,
        #           monotonic_ns of the respawn).  Resolved by the monitor
        #           loop so takeovers on different shards never serialize.
        self._pending: Dict[int, Tuple[RecoveryIncident, int]] = {}
        self._stop_evt = threading.Event()
        self._active = True
        self._boot_ns: Optional[int] = None

    @property
    def active(self) -> bool:
        """True while takeovers may still happen (collector stays patient)."""
        return self._active

    def stop(self) -> None:
        self._active = False
        self._stop_evt.set()

    # -- detection --------------------------------------------------------

    def _heartbeat_age_s(self, shard: int, now_ns: int) -> Optional[float]:
        heartbeat_ns = self._segment.header(shard).read()[3]
        if heartbeat_ns == 0:
            return None
        return (now_ns - heartbeat_ns) / _NS

    def _looks_dead(self, shard: int, now_ns: int) -> bool:
        age = self._heartbeat_age_s(shard, now_ns)
        if age is None:
            assert self._boot_ns is not None
            return (now_ns - self._boot_ns) / _NS > self.startup_grace_s
        return age > self.dead_after_s

    def _shard_completed(self, shard: int) -> bool:
        """A cleanly-exited owner (every lane STOPped) must not be respawned."""
        snap = self._segment.snapshot(shard).read()
        lanes = self._segment.lanes
        return snap.stopped_mask == (1 << lanes) - 1

    def run(self) -> None:
        self._boot_ns = time.monotonic_ns()
        while not self._stop_evt.wait(self.poll_s):
            now_ns = time.monotonic_ns()
            self._settle_pending(now_ns)
            for shard in range(self._segment.shards):
                if shard in self._abandoned or shard in self._pending:
                    continue
                if not self._looks_dead(shard, now_ns):
                    continue
                if self._shard_completed(shard):
                    continue
                self._recover(shard, self._heartbeat_age_s(shard, now_ns), now_ns)
                if self._stop_evt.is_set():
                    break

    # -- recovery ---------------------------------------------------------

    @staticmethod
    def _proc_stopped(pid: int) -> bool:
        """True when ``pid`` is SIGSTOPped (Linux state ``T``); False on
        any doubt — this is an accelerator for re-detection, never the
        sole evidence."""
        try:
            with open(f"/proc/{pid}/stat", "rb") as f:
                stat = f.read()
            # Field 3, after the parenthesized comm (which may hold spaces).
            return stat.rpartition(b")")[2].split()[0] == b"T"
        except (OSError, IndexError):
            return False

    def _settle_pending(self, now_ns: int) -> None:
        """Resolve in-flight takeovers: a successor's first heartbeat marks
        the incident recovered; a successor that dies first (chaos can kill
        it before it ever publishes), is SIGSTOPped pre-heartbeat (a
        never-published successor has no liveness to wait out — only its
        process state can exonerate it), or never publishes within
        ``respawn_grace_s`` goes back under ordinary dead-detection (and a
        fresh incident retries it, up to ``respawn_limit``)."""
        for shard, (incident, respawn_ns) in list(self._pending.items()):
            heartbeat_ns = self._segment.header(shard).read()[3]
            proc = self._cluster.processes[shard]
            if heartbeat_ns > incident.detected_ns:
                incident.recovered_ns = now_ns
                incident.takeover_ok = True
                self.takeovers += 1
                del self._pending[shard]
            elif not proc.is_alive():
                del self._pending[shard]
            elif self._proc_stopped(proc.pid):
                del self._pending[shard]
            elif (now_ns - respawn_ns) / _NS > self.respawn_grace_s:
                del self._pending[shard]

    def _recover(
        self, shard: int, heartbeat_age_s: Optional[float], detected_ns: int
    ) -> None:
        header = self._segment.header(shard)
        old_epoch = header.epoch()
        proc = self._cluster.processes[shard]
        stalled = proc.is_alive()
        kind = "stalled" if stalled else "dead"
        zombie_pid: Optional[int] = None
        zombie_exitcode: Optional[int] = None
        if stalled and self.stall_action == "kill":
            action = "kill-respawn"
            self._cluster.kill(shard)  # STONITH first, fence second
            fence_epoch = header.bump_epoch()
        elif stalled:
            # Fence mode: wake the zombie *into* the fence while the shard
            # has no other owner, and only respawn once it is reaped —
            # see the module docstring for why this must serialize.
            action = "fence-respawn"
            zombie_pid = proc.pid
            fence_epoch = header.bump_epoch()
            try:
                os.kill(proc.pid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            proc.join(timeout=self.zombie_exit_timeout_s)
            if proc.is_alive():  # never noticed the fence: fall back to STONITH
                proc.kill()
                proc.join()
            zombie_exitcode = proc.exitcode
        else:
            action = "respawn"
            proc.join()  # reap the corpse before a same-name successor starts
            fence_epoch = header.bump_epoch()

        # What will the successor rebuild?  recover_shard_state is a pure
        # function of the (now quiescent) shm, so the supervisor can read
        # the same answer out-of-process and put it on the incident record.
        replayed: Optional[int] = None
        recovered_heap: Optional[int] = None
        try:
            state = recover_shard_state(self._segment, shard)
            replayed = state.replayed
            recovered_heap = len(state.heap)
        except Exception:
            pass  # recovery itself will surface a real protocol breach

        self._respawns[shard] += 1
        incident = RecoveryIncident(
            shard=shard,
            kind=kind,
            action=action,
            detected_ns=detected_ns,
            recovered_ns=None,
            old_epoch=old_epoch,
            fence_epoch=fence_epoch,
            heartbeat_age_s=heartbeat_age_s,
            zombie_pid=zombie_pid,
            zombie_exitcode=zombie_exitcode,
            takeover_ok=False,
            replayed=replayed,
            recovered_heap=recovered_heap,
        )
        self.incidents.append(incident)
        if self._respawns[shard] > self.respawn_limit:
            self._abandoned.add(shard)
        else:
            self._cluster.respawn(shard)
            # Settled asynchronously by :meth:`_settle_pending` so a slow
            # boot on one shard never delays detection on another.
            self._pending[shard] = (incident, time.monotonic_ns())

    # -- shutdown coordination -------------------------------------------

    def await_healthy(self, timeout_s: float = 30.0) -> bool:
        """Block until every non-abandoned shard heartbeats fresh.

        Also waits out ``_pending``: the monitor thread must get a tick
        to credit an in-flight takeover before the caller stops us, or
        the final recovery of a run goes uncounted.
        """
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            now_ns = time.monotonic_ns()
            healthy = not self._pending and all(
                shard in self._abandoned or not self._looks_dead(shard, now_ns)
                for shard in range(self._segment.shards)
            )
            if healthy:
                return True
            time.sleep(self.poll_s)
        return False


# -- chaos ---------------------------------------------------------------


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic seeded schedule of faults against a live cluster.

    ``kills`` SIGKILL the current owner generation of a random shard;
    ``stalls`` SIGSTOP it and SIGCONT it ``stall_s`` later (the injector
    resumes it — death is only observed if the stall outlives the
    supervisor's ``dead_after_s``); ``zombies`` SIGSTOP it and *leave it
    stopped* — the supervisor's fence-mode takeover wakes it into the
    bumped epoch and it must die of :class:`FencedOwnerError`.  Fault
    times are spread over ``[start_s, start_s + window_s)`` after
    traffic starts; everything is a pure function of ``seed``.
    """

    kills: int = 3
    stalls: int = 0
    zombies: int = 1
    seed: int = 0
    start_s: float = 0.25
    window_s: float = 1.2
    stall_s: float = 0.9

    def build(self, shards: int) -> List[dict]:
        """The concrete fault list for a ``shards``-wide cluster."""
        if min(self.kills, self.stalls, self.zombies) < 0:
            raise ValueError("fault counts must be non-negative")
        rng = as_generator(self.seed)
        kinds = ["kill"] * self.kills + ["stall"] * self.stalls + (
            ["zombie"] * self.zombies
        )
        n = len(kinds)
        kinds = [kinds[i] for i in rng.permutation(n)]
        times = sorted(
            float(self.start_s + self.window_s * t) for t in rng.random(n)
        )
        ops = [
            {
                "id": i,
                "kind": kind,
                "shard": int(rng.integers(shards)),
                "at_s": at_s,
            }
            for i, (kind, at_s) in enumerate(zip(kinds, times))
        ]
        for op in list(ops):
            if op["kind"] == "stall":
                ops.append(
                    {
                        "id": op["id"],
                        "kind": "cont",
                        "shard": op["shard"],
                        "at_s": op["at_s"] + self.stall_s,
                    }
                )
        return sorted(ops, key=lambda op: (op["at_s"], op["id"]))


class ChaosInjector(threading.Thread):
    """Execute a :class:`ChaosSpec` against the cluster, on schedule.

    Fault times are relative to ``start_ns`` (the loadgens' traffic
    epoch) so the schedule is deterministic relative to offered load.
    Every fired fault is recorded in :meth:`manifest` along with the pid
    it hit — the artifact the CI chaos job uploads.
    """

    def __init__(
        self,
        cluster: ServiceCluster,
        segment: ServiceSegment,
        spec: "ChaosSpec",
        start_ns: int,
    ) -> None:
        super().__init__(name="chaos-injector", daemon=True)
        self.spec = spec
        self._cluster = cluster
        self._segment = segment
        self._ops = spec.build(segment.shards)
        self._start_ns = start_ns
        self._stopped: Dict[int, object] = {}
        self._abort = threading.Event()
        self.executed: List[dict] = []

    def abort(self) -> None:
        self._abort.set()

    def run(self) -> None:
        for op in self._ops:
            target_ns = self._start_ns + int(op["at_s"] * _NS)
            while not self._abort.is_set():
                remaining = (target_ns - time.monotonic_ns()) / _NS
                if remaining <= 0:
                    break
                self._abort.wait(min(remaining, 0.05))
            if self._abort.is_set():
                return
            self._fire(op)

    def _live_owner(self, shard: int, timeout_s: float = 5.0, booted: bool = False):
        """The shard's current owner, waiting out an in-flight takeover.

        Two faults drawn close together can target the same shard; firing
        the second at the first one's corpse wastes it.  Waiting for the
        supervisor's respawn keeps every scheduled fault effective (and
        the delay is recorded in the manifest via ``fired_at_s``).

        ``booted`` additionally waits for a heartbeat published *during
        this wait*.  SIGSTOP-based faults need it: stopping a spawned
        successor before it runs ``bump_epoch`` freezes it pre-fence, so
        on SIGCONT it would bump *past* the supervisor's fence epoch and
        resume as the legitimate owner instead of dying fenced.  A fresh
        heartbeat proves the generation is past boot (epoch bumped,
        serving), because only a live serving owner publishes.
        """
        deadline = time.monotonic() + timeout_s
        since_ns = time.monotonic_ns()
        while not self._abort.is_set() and time.monotonic() < deadline:
            proc = self._cluster.processes[shard]
            if proc.is_alive():
                if not booted:
                    return proc
                heartbeat_ns = self._segment.header(shard).read()[3]
                if heartbeat_ns > since_ns:
                    return proc
            time.sleep(0.02)
        return self._cluster.processes[shard]

    def _fire(self, op: dict) -> None:
        shard = op["shard"]
        record = dict(op)
        if op["kind"] == "kill":
            proc = self._live_owner(shard)
            record["pid"] = proc.pid
            proc.kill()
        elif op["kind"] in ("stall", "zombie"):
            proc = self._live_owner(shard, booted=True)
            record["pid"] = proc.pid
            try:
                os.kill(proc.pid, signal.SIGSTOP)
                self._stopped[op["id"]] = proc
            except ProcessLookupError:
                record["kind"] = f"{op['kind']}-missed"  # owner already gone
        elif op["kind"] == "cont":
            proc = self._stopped.pop(op["id"], None)
            record["pid"] = getattr(proc, "pid", None)
            if proc is not None and proc.is_alive():
                try:
                    os.kill(proc.pid, signal.SIGCONT)
                except ProcessLookupError:
                    pass
        record["fired_at_s"] = (time.monotonic_ns() - self._start_ns) / _NS
        self.executed.append(record)

    def manifest(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "planned": [dict(op) for op in self._ops],
            "events": [dict(ev) for ev in self.executed],
        }
