"""Shared-filesystem job queue: leases, fencing tokens, crash takeover.

The multi-host half of the orchestrator.  A sweep grid is materialised
as a *queue directory* on a filesystem every worker can reach (NFS, a
shared scratch volume, or plain ``/tmp`` for same-host workers); any
number of ``repro worker`` processes attach to it and divide the cells
without a coordinator.  The only primitives required of the filesystem
are atomic ``O_CREAT|O_EXCL`` creation and atomic ``os.replace`` within
a directory — the same two the :class:`~repro.orchestrate.cache.ResultCache`
already relies on.

Layout of a queue directory::

    spec.json            what is being swept (guards against workers
                         attaching with mismatched grids)
    leases/<key>.json    one lease per cell: owner, nonce, fencing token
    leases/<key>.<t>.claim  token t > 1 is taken (created O_EXCL)
    done/<key>.json      commit marker: which token completed the cell
    failed/<key>/        one record per failed attempt, named by
                         (worker, token) so attempts never collide
    fenced/              audit records of discarded zombie writes
    quarantine/<key>.json  queue-wide poison-cell records
    manifests/<worker>.json  per-worker shard manifests
    results/             the shared content-addressed ResultCache

The protocol, cell by cell:

1. **Claim.**  A worker creates ``leases/<key>.json`` with
   ``O_CREAT|O_EXCL`` (fencing token 1).  If the lease exists, the cell
   is claimable only when its owner *released* it (a failed attempt;
   after the :class:`RetryPolicy` backoff) or let it go **stale** — no
   heartbeat within ``lease_ttl_s``.  Either way the one claimant that
   creates the ``<key>.<token + 1>.claim`` marker (``O_EXCL``; a stale
   marker whose claimant died is skipped) atomically replaces the lease
   with its own record carrying ``token + 1``; a stale-lease claim is a
   **takeover**.
2. **Heartbeat.**  The owner rewrites its lease every ``heartbeat_s``
   (default ``lease_ttl_s / 3``); staleness is judged from the lease
   file's mtime, i.e. by the shared filesystem's clock.
3. **Commit.**  The owner re-reads the lease (foreign nonce ⇒ its
   token was superseded ⇒ the write is **fenced**: recorded under
   ``fenced/`` and discarded), persists the payload to the shared
   cache, then creates the ``done/`` marker with ``O_CREAT|O_EXCL``.
   The marker is the linearisation point: exactly one token ever wins
   it, so a resurrected zombie worker's late commit is detected and
   counted rather than silently clobbering the takeover's result.
4. **Failure.**  A failed attempt is recorded under ``failed/<key>/``
   and the lease released (token preserved, so a later claim still
   bumps it).  A cell whose failure records reach ``max_attempts`` —
   with the distinct workers that failed it recorded — or whose last
   failure is classified fatal by the :class:`RetryPolicy` is
   quarantined queue-wide via an ``O_EXCL`` quarantine record.

What fencing guarantees: at most one commit per cell, takeovers ordered
by token, late writes detected.  What it does not: it cannot stop a
zombie from *computing* (only from committing), and staleness judged
via file mtimes inherits the shared filesystem's clock quality — set
``lease_ttl_s`` comfortably above both the heartbeat interval and any
expected clock skew (see docs/usage.md).
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.orchestrate.cache import (
    ResultCache,
    cache_key,
    canonical_json,
    jsonify,
    qualname_of,
)
from repro.orchestrate.cells import Cell
from repro.orchestrate.manifest import RunManifest
from repro.orchestrate.policy import CellFailure, RetryPolicy

__all__ = [
    "Claim",
    "JobQueue",
    "LeaseLost",
    "QueueSpecMismatch",
    "sanitize_worker_id",
]


class QueueSpecMismatch(RuntimeError):
    """A worker attached to a queue directory with a different sweep spec.

    Every worker recomputes the spec hash from its own arguments; a
    mismatch means two invocations disagree on the grid, the function,
    or the config — continuing would interleave cells of two different
    experiments in one results directory.
    """


class LeaseLost(RuntimeError):
    """A heartbeat found the lease owned by someone else (we were taken
    over after going stale).  The in-flight computation may finish, but
    its commit will be fenced."""


def sanitize_worker_id(worker_id: str) -> str:
    """Make a worker id safe to embed in file names."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in worker_id) or "worker"


@dataclass(frozen=True)
class Claim:
    """Proof of one successful lease acquisition.

    ``token`` is the cell's fencing token — a monotonic per-cell attempt
    counter bumped by every (re)claim, never reset — and ``nonce``
    uniquely identifies this acquisition so the owner can recognise its
    own lease after arbitrary interleavings.
    """

    key: str
    nonce: str
    token: int
    takeover: bool = False


def _write_json_atomic(path: Path, data: Mapping, nonce: str) -> None:
    """Atomically replace ``path`` with ``data`` (unique temp + rename)."""
    tmp = path.with_name(f"{path.name}.{nonce}.tmp")
    tmp.write_text(json.dumps(jsonify(data)) + "\n")
    os.replace(tmp, path)


def _read_json(path: Path) -> Optional[Dict]:
    """``path`` parsed as a JSON object, or ``None`` on absence/corruption."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


class JobQueue:
    """One sweep grid shared by many workers through a queue directory.

    Constructing a queue creates (or validates) the on-disk spec and the
    directory skeleton; it holds no locks and may be constructed by any
    number of processes concurrently.  All mutating operations take a
    cell *key* (the cell's cache key) and, where ownership matters, a
    :class:`Claim`.
    """

    def __init__(
        self,
        root: Union[str, Path],
        fn,
        cells: Sequence[Cell],
        config: Optional[Mapping] = None,
        lease_ttl_s: float = 30.0,
        heartbeat_s: Optional[float] = None,
        max_attempts: int = 3,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        if lease_ttl_s <= 0:
            raise ValueError(f"lease_ttl_s must be positive, got {lease_ttl_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.root = Path(root)
        self.fn_name = qualname_of(fn)
        self.cells = list(cells)
        self.config = dict(config or {})
        self.lease_ttl_s = float(lease_ttl_s)
        self.heartbeat_s = (
            float(heartbeat_s) if heartbeat_s is not None else self.lease_ttl_s / 3.0
        )
        if not 0 < self.heartbeat_s < self.lease_ttl_s:
            raise ValueError(
                f"heartbeat_s must be in (0, lease_ttl_s): "
                f"{self.heartbeat_s} vs ttl {self.lease_ttl_s}"
            )
        self.max_attempts = int(max_attempts)
        self.policy = policy or RetryPolicy(max_attempts=self.max_attempts)
        self.keys: List[str] = [
            cache_key(self.fn_name, c.params, c.seed, self.config) for c in self.cells
        ]
        self.by_key: Dict[str, Cell] = dict(zip(self.keys, self.cells))
        for sub in ("leases", "done", "failed", "fenced", "quarantine", "manifests"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.root / "results")
        self._nonce_counter = itertools.count()
        self._host = socket.gethostname().split(".")[0] or "host"
        self._ensure_spec()

    # -- spec ---------------------------------------------------------------

    def spec_hash(self) -> str:
        """Hash of everything workers must agree on to share this queue."""
        import hashlib

        blob = canonical_json(
            {
                "fn": self.fn_name,
                "config": self.config,
                "cells": [{"params": dict(c.params), "seed": c.seed} for c in self.cells],
            }
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _ensure_spec(self) -> None:
        path = self.root / "spec.json"
        spec = {
            "fn": self.fn_name,
            "config": self.config,
            "n_cells": len(self.cells),
            "cells": [{"params": dict(c.params), "seed": c.seed} for c in self.cells],
            "lease_ttl_s": self.lease_ttl_s,
            "heartbeat_s": self.heartbeat_s,
            "max_attempts": self.max_attempts,
            "spec_hash": self.spec_hash(),
            "created_at": RunManifest.now(),
        }
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            existing = _read_json(path)
            if existing is None:
                raise QueueSpecMismatch(f"unreadable queue spec at {path}")
            if existing.get("spec_hash") != spec["spec_hash"]:
                raise QueueSpecMismatch(
                    f"queue at {self.root} was created for a different sweep: "
                    f"spec hash {existing.get('spec_hash')!r} on disk vs "
                    f"{spec['spec_hash']!r} from this invocation "
                    f"({existing.get('fn')!r}, {existing.get('n_cells')} cell(s) "
                    f"vs {self.fn_name!r}, {len(self.cells)} cell(s))"
                )
            return
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(jsonify(spec), fh, indent=2)

    # -- paths --------------------------------------------------------------

    def lease_path(self, key: str) -> Path:
        return self.root / "leases" / f"{key}.json"

    def done_path(self, key: str) -> Path:
        return self.root / "done" / f"{key}.json"

    def failed_dir(self, key: str) -> Path:
        return self.root / "failed" / key

    def quarantine_path(self, key: str) -> Path:
        return self.root / "quarantine" / f"{key}.json"

    # -- cell state ---------------------------------------------------------

    def is_done(self, key: str) -> bool:
        return self.done_path(key).is_file()

    def is_quarantined(self, key: str) -> bool:
        return self.quarantine_path(key).is_file()

    def is_settled(self, key: str) -> bool:
        return self.is_done(key) or self.is_quarantined(key)

    def drained(self) -> bool:
        """True when every cell is either committed or quarantined."""
        return all(self.is_settled(key) for key in self.keys)

    def counts(self) -> Dict[str, int]:
        done = sum(1 for k in self.keys if self.is_done(k))
        quarantined = sum(1 for k in self.keys if self.is_quarantined(k))
        leased = sum(
            1
            for k in self.keys
            if not self.is_settled(k)
            and (lease := self.read_lease(k)) is not None
            and lease.get("state") == "held"
            and not self.lease_stale(k)
        )
        return {
            "cells": len(self.keys),
            "done": done,
            "quarantined": quarantined,
            "leased": leased,
            "open": len(self.keys) - done - quarantined,
        }

    # -- leases -------------------------------------------------------------

    def read_lease(self, key: str) -> Optional[Dict]:
        return _read_json(self.lease_path(key))

    def lease_stale(self, key: str) -> bool:
        """No heartbeat within ``lease_ttl_s`` (by the lease file's mtime)."""
        try:
            mtime = self.lease_path(key).stat().st_mtime
        except OSError:
            return False
        return time.time() - mtime > self.lease_ttl_s

    def _fresh_nonce(self, worker_id: str) -> str:
        return f"{self._host}:{os.getpid()}:{worker_id}:{next(self._nonce_counter)}"

    def try_claim(self, key: str, worker_id: str) -> Optional[Claim]:
        """Attempt to lease ``key``; ``None`` if it is not claimable.

        Returns a :class:`Claim` carrying the cell's new fencing token.
        ``takeover=True`` marks a claim that displaced a stale-but-held
        lease (its owner crashed or stopped heartbeating) as opposed to
        a cleanly released one.
        """
        if self.is_settled(key):
            return None
        path = self.lease_path(key)
        nonce = self._fresh_nonce(worker_id)
        now = time.time()
        record = {
            "key": key,
            "host": self._host,
            "pid": os.getpid(),
            "worker": worker_id,
            "nonce": nonce,
            "token": 1,
            "state": "held",
            "acquired_at": now,
            "renewed_at": now,
        }
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass
        else:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
            return Claim(key=key, nonce=nonce, token=1)

        prev = self.read_lease(key)
        if prev is None:
            # Torn or unreadable lease: claimable only once its mtime is
            # stale, and with an unknown token assume the worst observed
            # shape (token 0 -> our claim is token 1, still monotonic
            # because a torn lease never committed).
            if not self.lease_stale(key):
                return None
            prev = {"token": 0, "state": "held"}
        held = prev.get("state") == "held"
        stale = held and self.lease_stale(key)
        if held and not stale:
            return None
        token = int(prev.get("token", 0))
        if not held and now < prev.get("released_at", 0) + self.policy.backoff_for(key, token):
            return None  # the failed attempt's retry backoff has not elapsed
        # One winner per token, however the lease writes interleave; a
        # marker whose claimant died is skipped once as old as a stale lease.
        while True:
            token += 1
            marker = path.with_name(f"{key}.{token}.claim")
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
                break
            except FileExistsError:
                if now - marker.stat().st_mtime <= self.lease_ttl_s:
                    return None
        record["token"] = token
        if stale:
            record["took_over_from"] = {
                "worker": prev.get("worker"),
                "host": prev.get("host"),
                "pid": prev.get("pid"),
                "token": prev.get("token"),
            }
        _write_json_atomic(path, record, nonce.replace(":", "_"))
        current = self.read_lease(key)
        if current is None or current.get("nonce") != nonce:
            return None  # lost the claim race to another worker
        claim = Claim(key=key, nonce=nonce, token=token, takeover=stale)
        if self.is_settled(key):
            # The check above ran before a winner's done marker landed,
            # and its release let us in: the cell needs no claim.
            self.release(claim)
            return None
        return claim

    def renew(self, claim: Claim) -> None:
        """Heartbeat: refresh the lease's mtime, verifying ownership."""
        path = self.lease_path(claim.key)
        current = _read_json(path)
        if current is None or current.get("nonce") != claim.nonce:
            raise LeaseLost(
                f"lease for cell {claim.key[:12]} (token {claim.token}) is now "
                f"owned by {current.get('worker') if current else 'nobody'}"
            )
        current["renewed_at"] = time.time()
        _write_json_atomic(path, current, claim.nonce.replace(":", "_"))

    def release(self, claim: Claim) -> None:
        """Give the lease up (after a failed attempt), keeping the token."""
        path = self.lease_path(claim.key)
        current = _read_json(path)
        if current is None or current.get("nonce") != claim.nonce:
            return  # superseded: nothing of ours left to release
        current["state"] = "released"
        current["released_at"] = time.time()
        _write_json_atomic(path, current, claim.nonce.replace(":", "_"))

    # -- commits and fencing ------------------------------------------------

    def commit(
        self,
        claim: Claim,
        cell: Cell,
        payload: Mapping,
        wall_s: float = 0.0,
        cached: bool = False,
    ) -> str:
        """Publish a computed cell; returns ``"committed"`` or ``"fenced"``.

        The ``done`` marker's ``O_CREAT|O_EXCL`` creation is the
        linearisation point — exactly one token ever wins it.  The lease
        re-read in front of it is the fast path that usually catches a
        superseded token before touching the shared cache at all.
        """
        lease = self.read_lease(claim.key)
        if lease is None or lease.get("nonce") != claim.nonce:
            self._record_fenced(claim, stage="lease")
            return "fenced"
        self.cache.put(
            claim.key,
            payload,
            meta={
                "params": dict(cell.params),
                "seed": cell.seed,
                "fn": self.fn_name,
                "token": claim.token,
            },
        )
        marker = {
            "key": claim.key,
            "token": claim.token,
            "worker": lease.get("worker"),
            "host": lease.get("host"),
            "pid": lease.get("pid"),
            "wall_s": round(wall_s, 6),
            "cached": cached,
            "takeover": claim.takeover,
            "committed_at": RunManifest.now(),
        }
        try:
            fd = os.open(self.done_path(claim.key), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            self._record_fenced(claim, stage="marker")
            return "fenced"
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(jsonify(marker), fh)
        self.release(claim)
        return "committed"

    def _record_fenced(self, claim: Claim, stage: str) -> None:
        """Audit record of a discarded late write (for manifests/tests)."""
        record = {
            "key": claim.key,
            "token": claim.token,
            "nonce": claim.nonce,
            "stage": stage,
            "fenced_at": RunManifest.now(),
        }
        path = self.root / "fenced" / f"{claim.key}.{claim.token}.json"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)

    def read_done(self, key: str) -> Optional[Dict]:
        return _read_json(self.done_path(key))

    def fenced_records(self, key: Optional[str] = None) -> List[Dict]:
        pattern = f"{key}.*.json" if key else "*.json"
        records = []
        for path in sorted((self.root / "fenced").glob(pattern)):
            data = _read_json(path)
            if data is not None:
                records.append(data)
        return records

    # -- failures and queue-level quarantine --------------------------------

    def record_failure(self, claim: Claim, info: Mapping, worker_id: str) -> None:
        """Persist one failed attempt under ``failed/<key>/``.

        File names carry ``(worker, token)``: tokens are per-cell unique
        across the whole queue, so records from any number of workers
        never collide, and sorting by token reconstructs attempt order.
        """
        directory = self.failed_dir(claim.key)
        directory.mkdir(parents=True, exist_ok=True)
        record = dict(info)
        record.pop("exception", None)  # live objects never go to disk
        record.update(
            {
                "worker": worker_id,
                "host": self._host,
                "pid": os.getpid(),
                "token": claim.token,
            }
        )
        path = directory / f"{sanitize_worker_id(worker_id)}.{claim.token:06d}.json"
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return  # replayed failure from a superseded token: keep the first
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(jsonify(record), fh)

    def failure_records(self, key: str) -> List[Dict]:
        """All failed attempts for ``key``, in token (attempt) order."""
        records = []
        for path in self.failed_dir(key).glob("*.json"):
            data = _read_json(path)
            if data is not None:
                records.append(data)
        return sorted(records, key=lambda r: r.get("token", 0))

    def maybe_quarantine(self, key: str) -> Optional[CellFailure]:
        """Quarantine ``key`` queue-wide if its failure budget is spent.

        Triggers when the cell's failure records reach ``max_attempts``
        (with multiple workers each attempt lands on a distinct worker —
        a worker defers cells it already failed — so a poison cell burns
        through ``max_attempts`` *distinct* workers before the verdict)
        or immediately when the latest failure is classified fatal by
        the retry policy.  Returns the failure record if *this* call won
        the ``O_EXCL`` race to write it, else ``None``.
        """
        if self.is_quarantined(key):
            return None
        infos = self.failure_records(key)
        if not infos:
            return None
        fatal = not self.policy.is_retryable(infos[-1].get("mro", ()))
        if not fatal and len(infos) < self.max_attempts:
            return None
        cell = self.by_key[key]
        failure = CellFailure.from_infos(cell.params, cell.seed, key, infos)
        record = failure.to_dict()
        record["workers"] = sorted({str(r.get("worker")) for r in infos})
        record["fatal"] = fatal
        try:
            fd = os.open(self.quarantine_path(key), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return None  # another worker reached the same verdict first
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(jsonify(record), fh)
        return failure

    def quarantine_records(self) -> List[Dict]:
        """Quarantined cells in grid order (one dict per cell)."""
        records = []
        for key in self.keys:
            data = _read_json(self.quarantine_path(key))
            if data is not None:
                records.append(data)
        return records

    # -- results ------------------------------------------------------------

    def collect(self) -> Tuple[List[Dict], List[CellFailure]]:
        """Completed payloads in grid order, plus quarantined failures.

        Only cells with both a ``done`` marker *and* a cache entry count
        as completed.  :meth:`commit` writes the cache entry *before*
        the marker, so a marker implies a cache entry; a crash between
        the two leaves no marker, and the next claimant recomputes (or
        finds the orphaned cache entry and commits it as a hit).
        """
        rows: List[Dict] = []
        failures: List[CellFailure] = []
        for key in self.keys:
            if self.is_done(key):
                payload = self.cache.get(key)
                if payload is not None:
                    rows.append(payload)
                continue
            record = _read_json(self.quarantine_path(key))
            if record is not None:
                failures.append(
                    CellFailure(
                        params=dict(record.get("params", {})),
                        seed=int(record.get("seed", 0)),
                        key=record.get("key"),
                        exc_type=record.get("exc_type", "?"),
                        message=record.get("message", ""),
                        attempts=int(record.get("attempts", 0)),
                        wall_s_per_attempt=list(record.get("wall_s_per_attempt", [])),
                        traceback=record.get("traceback", ""),
                    )
                )
        return rows, failures

    def to_sweep_run(self):
        """The queue's settled state as a :class:`~repro.orchestrate.runner.SweepRun`.

        Meaningful once :meth:`drained` — committed cells become
        :class:`CellResult`\\ s in grid order (``attempts`` = the winning
        fencing token, ``wall_s`` from the done marker), quarantined
        cells become ``failures``, and the manifest is the merged shard
        manifest when any worker has archived one.  This is what lets
        the CLI print the same table for a distributed sweep as for a
        serial one.
        """
        from repro.orchestrate.runner import CellResult, SweepRun

        results = []
        for key in self.keys:
            marker = self.read_done(key)
            if marker is None:
                continue
            payload = self.cache.get(key)
            if payload is None:
                continue
            results.append(
                CellResult(
                    cell=self.by_key[key],
                    payload=payload,
                    wall_s=float(marker.get("wall_s", 0.0)),
                    cached=bool(marker.get("cached", False)),
                    key=key,
                    attempts=int(marker.get("token", 1)),
                )
            )
        _, failures = self.collect()
        return SweepRun(
            results=results, manifest=self.merged_manifest(), failures=failures
        )

    # -- shard manifests ----------------------------------------------------

    def shard_manifest_path(self, worker_id: str) -> Path:
        return self.root / "manifests" / f"{sanitize_worker_id(worker_id)}.json"

    def load_shard_manifests(self) -> List[RunManifest]:
        shards = []
        for path in sorted((self.root / "manifests").glob("*.json")):
            try:
                shards.append(RunManifest.read(path))
            except (OSError, ValueError, TypeError):
                continue  # a torn shard (worker died mid-write) is skipped
        return shards

    def merged_manifest(self) -> RunManifest:
        """All shard manifests merged, cells restored to grid order.

        Shard manifests alone under-report after a crash: a worker
        archives its shard only when its run loop finishes, so cells it
        committed *before* dying are in ``done/`` but in no shard.  The
        done markers are ground truth — rows for marker-only cells are
        reconstructed from them (each marker records worker, wall time,
        cached flag, and the winning token) and the recovery is surfaced
        in ``extra["rows_recovered_from_markers"]``.
        """
        shards = self.load_shard_manifests()
        if shards:
            merged = RunManifest.merge(shards, cell_order=self.keys)
        else:
            merged = RunManifest(fn=self.fn_name, n_cells=len(self.keys))
        have = {row.get("key") for row in merged.cells}
        recovered = []
        for key in self.keys:
            if key in have:
                continue
            marker = self.read_done(key)
            if marker is None:
                continue
            cell = self.by_key[key]
            recovered.append(
                {
                    "params": dict(cell.params),
                    "seed": cell.seed,
                    "key": key,
                    "cached": bool(marker.get("cached", False)),
                    "wall_s": float(marker.get("wall_s", 0.0)),
                    "attempts": int(marker.get("token", 1)),
                }
            )
        if recovered:
            rank = {key: i for i, key in enumerate(self.keys)}
            merged.cells = sorted(
                merged.cells + recovered,
                key=lambda r: rank.get(r.get("key"), len(rank)),
            )
            hits = sum(1 for r in recovered if r["cached"])
            merged.cache_hits += hits
            merged.cache_misses += len(recovered) - hits
            merged.extra["rows_recovered_from_markers"] = len(recovered)
        return merged

    def __repr__(self) -> str:
        c = self.counts()
        return (
            f"JobQueue({str(self.root)!r}, cells={c['cells']}, done={c['done']}, "
            f"quarantined={c['quarantined']}, leased={c['leased']})"
        )
