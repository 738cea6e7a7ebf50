"""The lease protocol: claims, takeover, fencing, queue-wide quarantine.

These tests drive :class:`JobQueue` directly — no workers — so every
interleaving is explicit: claim races, stale leases, superseded tokens,
and the commit-time fence are each exercised at the protocol level.
Worker-level integration (heartbeats, chaos plans) lives in
``test_worker.py``.
"""

import json
import os
import time

import pytest

from repro.orchestrate import queue as queue_module
from repro.orchestrate import (
    JobQueue,
    QueueSpecMismatch,
    LeaseLost,
    RetryPolicy,
    expand_grid,
)
from repro.orchestrate.policy import describe_exception

from tests.orchestrate.cellfns import affine_cell

GRID = expand_grid("x", [1, 2, 3], [0, 1])


def make_queue(root, **kwargs):
    kwargs.setdefault("lease_ttl_s", 5.0)
    return JobQueue(root / "q", affine_cell, GRID, **kwargs)


def age_lease(queue, key, by_s):
    """Backdate a lease file's mtime to simulate missed heartbeats."""
    path = queue.lease_path(key)
    old = time.time() - by_s
    os.utime(path, (old, old))


class TestSpec:
    def test_first_worker_creates_spec(self, tmp_path):
        queue = make_queue(tmp_path)
        assert (queue.root / "spec.json").is_file()
        assert len(queue.keys) == 6
        assert all(len(k) == 64 for k in queue.keys)

    def test_same_sweep_reattaches(self, tmp_path):
        first = make_queue(tmp_path)
        second = make_queue(tmp_path)
        assert first.keys == second.keys

    def test_different_grid_rejected(self, tmp_path):
        make_queue(tmp_path)
        other = expand_grid("x", [1, 2, 3, 4], [0, 1])
        with pytest.raises(QueueSpecMismatch, match="different sweep"):
            JobQueue(tmp_path / "q", affine_cell, other, lease_ttl_s=5.0)

    def test_different_config_rejected(self, tmp_path):
        make_queue(tmp_path)
        with pytest.raises(QueueSpecMismatch):
            JobQueue(
                tmp_path / "q", affine_cell, GRID,
                config={"code_version": 2}, lease_ttl_s=5.0,
            )

    def test_validates_parameters(self, tmp_path):
        with pytest.raises(ValueError, match="lease_ttl_s"):
            JobQueue(tmp_path / "q", affine_cell, GRID, lease_ttl_s=0)
        with pytest.raises(ValueError, match="heartbeat_s"):
            JobQueue(
                tmp_path / "q2", affine_cell, GRID,
                lease_ttl_s=1.0, heartbeat_s=2.0,
            )
        with pytest.raises(ValueError, match="max_attempts"):
            JobQueue(tmp_path / "q3", affine_cell, GRID, max_attempts=0)


class TestClaims:
    def test_fresh_claim_gets_token_one(self, tmp_path):
        queue = make_queue(tmp_path)
        claim = queue.try_claim(queue.keys[0], "w0")
        assert claim is not None
        assert claim.token == 1 and not claim.takeover

    def test_held_fresh_lease_is_not_claimable(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        assert queue.try_claim(key, "w0") is not None
        assert queue.try_claim(key, "w1") is None

    def test_released_lease_reclaims_with_bumped_token(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        first = queue.try_claim(key, "w0")
        queue.release(first)
        second = queue.try_claim(key, "w1")
        assert second is not None
        assert second.token == 2
        assert not second.takeover  # a clean release is not a crash takeover

    def test_released_lease_waits_out_the_retry_backoff(self, tmp_path):
        policy = RetryPolicy(max_attempts=3, backoff_s=60.0, jitter=0.0)
        queue = make_queue(tmp_path, policy=policy)
        key = queue.keys[0]
        queue.release(queue.try_claim(key, "w0"))
        assert queue.try_claim(key, "w1") is None  # 60 s backoff after token 1
        lease = queue.read_lease(key)
        lease["released_at"] -= 61.0
        queue.lease_path(key).write_text(json.dumps(lease))
        claim = queue.try_claim(key, "w1")
        assert claim is not None and claim.token == 2

    def test_racing_reclaims_get_one_winner(self, tmp_path, monkeypatch):
        # B reads the released lease; A then claims it completely (write
        # and re-read) before B writes.  Both re-reads see their own
        # nonce, so only the per-token marker keeps token 2 unique.
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        queue.release(queue.try_claim(key, "w0"))
        claims = {}
        write = queue_module._write_json_atomic

        def late_write(path, data, nonce):
            if "a" not in claims:
                claims["a"] = queue.try_claim(key, "wa")
            write(path, data, nonce)

        monkeypatch.setattr(queue_module, "_write_json_atomic", late_write)
        claims["b"] = queue.try_claim(key, "wb")
        assert [c.token for c in claims.values() if c is not None] == [2]

    def test_marker_of_a_claimant_that_died_is_skipped_once_stale(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        queue.release(queue.try_claim(key, "w0"))
        marker = queue.lease_path(key).with_name(f"{key}.2.claim")
        marker.touch()  # token 2 taken, its lease never written
        assert queue.try_claim(key, "w1") is None
        old = time.time() - queue.lease_ttl_s - 1
        os.utime(marker, (old, old))
        assert queue.try_claim(key, "w1").token == 3

    def test_stale_held_lease_is_taken_over(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        first = queue.try_claim(key, "w0")
        age_lease(queue, key, by_s=queue.lease_ttl_s + 1)
        second = queue.try_claim(key, "w1")
        assert second is not None
        assert second.token == first.token + 1
        assert second.takeover
        lease = queue.read_lease(key)
        assert lease["took_over_from"]["worker"] == "w0"

    def test_done_cell_is_not_claimable(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        claim = queue.try_claim(key, "w0")
        assert queue.commit(claim, queue.by_key[key], {"v": 1}) == "committed"
        assert queue.try_claim(key, "w1") is None

    def test_claim_racing_a_commit_is_given_back(self, tmp_path, monkeypatch):
        # w1's settled check runs just before w0's done marker lands, and
        # w0's release then opens the lease to w1.  A claim that came out
        # of that would self-heal from the cache and be fenced at the
        # marker: a fenced write with no zombie behind it.
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        claim = queue.try_claim(key, "w0")
        assert queue.commit(claim, queue.by_key[key], {"v": 1}) == "committed"
        settled = queue.is_settled
        stale_views = [False]
        monkeypatch.setattr(
            queue, "is_settled", lambda k: stale_views.pop() if stale_views else settled(k)
        )
        assert queue.try_claim(key, "w1") is None
        assert queue.read_lease(key)["state"] == "released"
        assert queue.read_done(key)["token"] == claim.token
        assert queue.fenced_records(key) == []

    def test_tokens_stay_monotonic_across_many_turnovers(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        for expected_token in range(1, 6):
            claim = queue.try_claim(key, f"w{expected_token}")
            assert claim.token == expected_token
            queue.release(claim)


class TestHeartbeatAndRenewal:
    def test_renew_refreshes_staleness(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        claim = queue.try_claim(key, "w0")
        age_lease(queue, key, by_s=queue.lease_ttl_s + 1)
        assert queue.lease_stale(key)
        queue.renew(claim)
        assert not queue.lease_stale(key)

    def test_renew_after_takeover_raises_lease_lost(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        original = queue.try_claim(key, "w0")
        age_lease(queue, key, by_s=queue.lease_ttl_s + 1)
        assert queue.try_claim(key, "w1") is not None
        with pytest.raises(LeaseLost):
            queue.renew(original)

    def test_release_by_superseded_claim_is_a_noop(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        original = queue.try_claim(key, "w0")
        age_lease(queue, key, by_s=queue.lease_ttl_s + 1)
        takeover = queue.try_claim(key, "w1")
        queue.release(original)  # must not clobber the takeover's lease
        lease = queue.read_lease(key)
        assert lease["nonce"] == takeover.nonce
        assert lease["state"] == "held"


class TestCommitFencing:
    def test_superseded_token_is_fenced_at_lease_check(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        zombie = queue.try_claim(key, "w0")
        age_lease(queue, key, by_s=queue.lease_ttl_s + 1)
        rescuer = queue.try_claim(key, "w1")
        # The zombie wakes up and tries to publish its stale computation.
        assert queue.commit(zombie, queue.by_key[key], {"v": "stale"}) == "fenced"
        assert not queue.is_done(key)
        # The takeover's commit is the one that lands.
        assert queue.commit(rescuer, queue.by_key[key], {"v": "fresh"}) == "committed"
        assert queue.cache.get(key) == {"v": "fresh"}
        assert queue.read_done(key)["token"] == rescuer.token

    def test_done_marker_is_the_linearisation_point(self, tmp_path):
        # Even if the zombie slips past the lease check (its lease file
        # still matches because nobody re-claimed yet), a marker that
        # already exists fences it.
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        first = queue.try_claim(key, "w0")
        queue.release(first)
        second = queue.try_claim(key, "w1")
        assert queue.commit(second, queue.by_key[key], {"v": "win"}) == "committed"
        # first's lease record is gone (owned by w1's released record) so
        # the lease check fences; exercise the marker path directly too.
        assert queue.commit(first, queue.by_key[key], {"v": "late"}) == "fenced"
        assert queue.cache.get(key) == {"v": "win"}

    def test_fenced_writes_leave_audit_records(self, tmp_path):
        queue = make_queue(tmp_path)
        key = queue.keys[0]
        zombie = queue.try_claim(key, "w0")
        age_lease(queue, key, by_s=queue.lease_ttl_s + 1)
        queue.try_claim(key, "w1")
        queue.commit(zombie, queue.by_key[key], {"v": 0})
        records = queue.fenced_records(key)
        assert len(records) == 1
        assert records[0]["token"] == zombie.token
        assert records[0]["stage"] == "lease"


class TestFailuresAndQuarantine:
    def failure_info(self, message="transient"):
        try:
            raise RuntimeError(message)
        except RuntimeError as err:
            return describe_exception(err)

    def test_failures_accumulate_until_max_attempts(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=3)
        key = queue.keys[0]
        for worker in ("w0", "w1"):
            claim = queue.try_claim(key, worker)
            queue.record_failure(claim, self.failure_info(), worker)
            assert queue.maybe_quarantine(key) is None
            queue.release(claim)
        claim = queue.try_claim(key, "w2")
        queue.record_failure(claim, self.failure_info(), "w2")
        failure = queue.maybe_quarantine(key)
        assert failure is not None
        assert failure.attempts == 3
        assert queue.is_quarantined(key)
        record = queue.quarantine_records()[0]
        assert record["workers"] == ["w0", "w1", "w2"]
        assert record["fatal"] is False

    def test_fatal_failure_quarantines_immediately(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=5)
        key = queue.keys[0]
        claim = queue.try_claim(key, "w0")
        try:
            raise ValueError("deterministic bug")
        except ValueError as err:
            queue.record_failure(claim, describe_exception(err), "w0")
        failure = queue.maybe_quarantine(key)
        assert failure is not None and failure.attempts == 1
        assert queue.quarantine_records()[0]["fatal"] is True

    def test_quarantine_race_has_one_winner(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1)
        key = queue.keys[0]
        claim = queue.try_claim(key, "w0")
        queue.record_failure(claim, self.failure_info(), "w0")
        assert queue.maybe_quarantine(key) is not None
        assert queue.maybe_quarantine(key) is None  # second verdict defers

    def test_custom_policy_classifies_fatality(self, tmp_path):
        policy = RetryPolicy(max_attempts=3, fatal_on=("RuntimeError",))
        queue = make_queue(tmp_path, max_attempts=3, policy=policy)
        key = queue.keys[0]
        claim = queue.try_claim(key, "w0")
        queue.record_failure(claim, self.failure_info(), "w0")
        assert queue.maybe_quarantine(key) is not None  # fatal on attempt 1


class TestStateAndCollect:
    def test_counts_and_drained(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.counts() == {
            "cells": 6, "done": 0, "quarantined": 0, "leased": 0, "open": 6,
        }
        assert not queue.drained()
        for key in queue.keys:
            claim = queue.try_claim(key, "w0")
            cell = queue.by_key[key]
            queue.commit(claim, cell, affine_cell(**cell.kwargs()))
        assert queue.drained()
        assert queue.counts()["done"] == 6

    def test_collect_returns_rows_in_grid_order(self, tmp_path):
        queue = make_queue(tmp_path)
        # Commit in scrambled order; collect must restore grid order.
        for key in reversed(queue.keys):
            claim = queue.try_claim(key, "w0")
            cell = queue.by_key[key]
            queue.commit(claim, cell, affine_cell(**cell.kwargs()))
        rows, failures = queue.collect()
        assert failures == []
        assert rows == [affine_cell(**c.kwargs()) for c in GRID]

    def test_to_sweep_run_mirrors_serial_run(self, tmp_path):
        from repro.orchestrate import run_cells, strip_volatile

        queue = make_queue(tmp_path)
        for key in queue.keys:
            claim = queue.try_claim(key, "w0")
            cell = queue.by_key[key]
            queue.commit(claim, cell, affine_cell(**cell.kwargs()), wall_s=0.5)
        run = queue.to_sweep_run()
        serial = run_cells(affine_cell, GRID)
        assert strip_volatile(run.payloads()) == strip_volatile(serial.payloads())
        assert [r.attempts for r in run.results] == [1] * 6
