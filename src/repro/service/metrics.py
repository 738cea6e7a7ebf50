"""Metrics over collected service events.

Latency honors coordinated omission: each event carries the *intended*
start time stamped by the open-loop schedule, so a stalled owner is
charged for everything that queued behind it.  Rank quality replays the
event stream offline (:func:`repro.core.rank.offline_ranks`): events are
merged across shards by their Lamport clocks (ties broken by shard id, a
fixed linearization), and every sampled delete is scored by the global rank
of the removed label among all labels present at that point — the same
1-based rank-cost convention as the simulator.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.stats import rank_summary
from repro.core.rank import RankOracle, offline_ranks
from repro.service.loadgen import ArrivalSchedule
from repro.service.shm import EV_DELETE, EV_EMPTY, EV_INSERT, ServiceSegment

_NS_PER_MS = 1_000_000.0

#: Wall-clock-derived fields of a service summary.  Declared for
#: ``repro check`` (DET102): anything ending up under these keys is
#: measurement, not result, and is exempt from determinism comparison.
SERVICE_VOLATILE_KEYS = frozenset(
    {
        "wall_s",
        "throughput_ops_s",
        "per_shard_ops_s",
        "speedup",
        "insert_mean_ms",
        "insert_p50_ms",
        "insert_p99_ms",
        "insert_p999_ms",
        "delete_mean_ms",
        "delete_p50_ms",
        "delete_p99_ms",
        "delete_p999_ms",
        "after_ns",
    }
)

Event = Tuple[int, int, int, int, int]  # (ev, label, clock, t0_ns, t1_ns)
#: One shard's events: an ``(N, 5)`` int64 array of :data:`Event` rows, as
#: the collector keeps them, or any sequence of such tuples.
Events = Sequence[Event]


def latency_stats(latencies_ns: np.ndarray, prefix: str) -> dict:
    """Tail statistics of one op kind, in milliseconds."""
    if latencies_ns.size == 0:
        return {
            f"{prefix}_mean_ms": None,
            f"{prefix}_p50_ms": None,
            f"{prefix}_p99_ms": None,
            f"{prefix}_p999_ms": None,
        }
    ms = latencies_ns / _NS_PER_MS
    return {
        f"{prefix}_mean_ms": float(ms.mean()),
        f"{prefix}_p50_ms": float(np.quantile(ms, 0.50)),
        f"{prefix}_p99_ms": float(np.quantile(ms, 0.99)),
        f"{prefix}_p999_ms": float(np.quantile(ms, 0.999)),
    }


def merge_events(events_by_shard: Sequence[Events]) -> np.ndarray:
    """All shards' events as one ``(N, 6)`` array in linearized order.

    Columns: shard, ev, label, clock, t0_ns, t1_ns.  Order is
    ``(clock, shard)`` — Lamport clocks give a causally consistent
    order, and within a shard the owner's clock is strictly increasing,
    so a label's insert always precedes its delete.  A stable sort of
    the clocks in shard-major order breaks ties by shard.  The output
    is allocated once and each shard's block is scattered straight to
    its sorted rows, so no unsorted copy of the whole stream is built.
    """
    blocks = [
        np.asarray(events, dtype=np.int64).reshape(len(events), 5)
        for events in events_by_shard
    ]
    if not blocks:
        return np.empty((0, 6), dtype=np.int64)
    order = np.argsort(np.concatenate([block[:, 2] for block in blocks]), kind="stable")
    row_of = np.empty_like(order)  # sorted row of each shard-major row
    row_of[order] = np.arange(len(order))
    del order
    merged = np.empty((len(row_of), 6), dtype=np.int64)
    start = 0
    for shard, block in enumerate(blocks):
        rows = row_of[start : start + len(block)]
        merged[rows, 0] = shard
        merged[rows, 1:] = block
        start += len(block)
    return merged


def replay_ranks(
    merged: np.ndarray,
    label_universe: int,
    sample_every: int = 16,
) -> np.ndarray:
    """Global rank paid by every ``sample_every``-th delete.

    The oracle tracks the set of present labels across *all* shards; a
    delete's cost is the 1-based rank of the removed label in that
    global set — rank 1 is the true minimum, exactly the simulator's
    accounting.  All events are replayed (the oracle must see every
    insert); only sampled deletes are scored, keeping the replay cheap
    at millions of ops.  The counting is
    :func:`repro.core.rank.offline_ranks` over the merged stream's event
    and label columns.
    """
    ev = merged[:, 1]
    kinds = (ev == EV_INSERT).astype(np.int64) - (ev == EV_DELETE)
    return offline_ranks(kinds, merged[:, 2], label_universe, sample_every)


def replay_ranks_reference(
    merged: np.ndarray,
    label_universe: int,
    sample_every: int = 16,
) -> np.ndarray:
    """Event-at-a-time Fenwick replay: the executable spec of
    :func:`replay_ranks`.

    Kept as the correctness reference — the vectorized replay must match
    it byte-for-byte (asserted in the metrics tests).  Orders of
    magnitude slower on big streams; never called on the hot path.
    """
    if sample_every <= 0:
        raise ValueError(f"sample_every must be positive, got {sample_every}")
    oracle = RankOracle(label_universe)
    ranks: List[int] = []
    deletes_seen = 0
    for row in merged:
        ev, label = int(row[1]), int(row[2])
        if ev == EV_INSERT:
            oracle.insert(label)
        elif ev == EV_DELETE:
            rank = oracle.remove(label)
            if deletes_seen % sample_every == 0:
                ranks.append(rank)
            deletes_seen += 1
    return np.asarray(ranks, dtype=np.int64)


def _offered_stats(merged: np.ndarray, n_shards: int) -> Tuple[dict, dict]:
    """Throughput and latency of the offered ops of a merged stream.

    Prefill requests carry ``t0 == 0``: not offered traffic, no latency.
    Only the columns read are copied, never whole offered rows, and
    they are freed before the caller replays ranks.
    """
    offered = merged[:, 4] > 0
    t0 = merged[offered, 4]
    lat = merged[offered, 5]
    # Throughput counts offered ops over their own span: earliest intended
    # start to latest completion (no prefill, start offset or teardown).
    span_s = float(lat.max() - t0.min()) / 1e9 if t0.size else 0.0
    lat -= t0
    is_insert = merged[offered, 1] == EV_INSERT
    rates = {
        "throughput_ops_s": t0.size / span_s if span_s > 0 else 0.0,
        "per_shard_ops_s": [
            int(count) / span_s if span_s > 0 else 0.0
            for count in np.bincount(merged[offered, 0], minlength=n_shards)
        ],
    }
    latencies = latency_stats(lat[is_insert], "insert")
    latencies.update(latency_stats(lat[~is_insert], "delete"))
    return rates, latencies


def summarize(
    events_by_shard: Sequence[Events],
    schedule: ArrivalSchedule,
    wall_s: float,
    rank_sample_every: int = 16,
) -> dict:
    """The full metrics block of one service run."""
    merged = merge_events(events_by_shard)
    n_shards = len(events_by_shard)
    kind_counts = {
        kind: np.bincount(merged[merged[:, 1] == kind, 0], minlength=n_shards)
        for kind in (EV_INSERT, EV_DELETE, EV_EMPTY)
    }
    per_shard = [
        {
            "shard": shard,
            "inserts": int(kind_counts[EV_INSERT][shard]),
            "deletes": int(kind_counts[EV_DELETE][shard]),
            "empties": int(kind_counts[EV_EMPTY][shard]),
        }
        for shard in range(n_shards)
    ]
    inserts = sum(row["inserts"] for row in per_shard)
    deletes = sum(row["deletes"] for row in per_shard)
    empties = sum(row["empties"] for row in per_shard)
    total_ops = inserts + deletes + empties

    # Heap drift after each event: inserts minus deletes (empty ones
    # included) committed so far, net of prefill.  Loadgens offer
    # alternating insert/delete pairs, so it stays within the requests in
    # flight plus one unpaired insert per loadgen.  One expression, so no
    # per-event array outlives it into the rank replay.
    prefill = len(schedule.prefill_labels)
    drift_peak = np.cumsum(
        np.where(merged[:, 1] == EV_INSERT, np.int8(1), np.int8(-1)), dtype=np.int64
    ).max(initial=prefill) - prefill
    summary = {
        "ops_offered": schedule.ops,
        "ops_processed": total_ops - prefill,
        "inserts": inserts,
        "deletes": deletes,
        "empties": empties,
        "heap_drift_peak": int(drift_peak),
        "span_s": schedule.span_s,
        "wall_s": wall_s,
    }
    rates, latencies = _offered_stats(merged, n_shards)
    summary.update(rates)
    summary["per_shard"] = per_shard
    summary.update(latencies)
    sampled = replay_ranks(merged, schedule.label_universe, rank_sample_every)
    summary["rank_sample_every"] = rank_sample_every
    summary["rank"] = rank_summary(sampled) if sampled.size else None
    # Raw samples ride along for distribution-level comparison (validate's
    # KS test against the simulator); droppable before archival.
    summary["rank_values"] = sampled.tolist()
    return summary


def conservation_audit(
    segment: ServiceSegment,
    events_by_shard: Sequence[Events],
) -> dict:
    """Prove from the journal that no op was lost or double-served.

    For every shard, replays the durable state (snapshot + surviving
    journal suffix) exactly as a recovering owner would and checks three
    independent invariants:

    - **conservation**: journal-cumulative ``inserts == deletes +
      residual heap size`` — nothing the journal committed evaporated;
    - **no double-serve**: within each lane, the request positions the
      journal consumed are strictly monotone and never dip below the
      snapshot's watermark — no request was applied twice across any
      number of crash/recover cycles;
    - **events match**: the collector saw exactly one event per
      journal-cumulative op of each kind, with no duplicated Lamport
      clocks — nothing was emitted twice (or never) across takeovers.

    ``epoch_regressions`` counts journal entries whose epoch regresses
    below an already-seen one: committed zombie writes that escaped the
    fence.  Zero is the fencing contract.
    """
    from repro.service.server import replay_journal

    shard_rows = []
    for s in range(segment.shards):
        snap = segment.snapshot(s).read()
        journal = segment.journal(s)
        journal.recover()
        entries = journal.scan()
        state = replay_journal(snap, entries)
        collected = np.asarray(events_by_shard[s], dtype=np.int64).reshape(-1, 5)
        seen = {
            kind: int(np.count_nonzero(collected[:, 0] == kind))
            for kind in (EV_INSERT, EV_DELETE, EV_EMPTY)
        }
        clocks = collected[:, 2]
        events_match = (
            seen[EV_INSERT] == state.cum_inserts
            and seen[EV_DELETE] == state.cum_deletes
            and seen[EV_EMPTY] == state.cum_empties
            and np.unique(clocks).size == clocks.size
        )
        conserved = state.cum_inserts == state.cum_deletes + len(state.heap)
        shard_rows.append(
            {
                "shard": s,
                "cum_inserts": state.cum_inserts,
                "cum_deletes": state.cum_deletes,
                "cum_empties": state.cum_empties,
                "residual": len(state.heap),
                "journal_entries": len(entries),
                "replayed": state.replayed,
                "epoch_regressions": state.fenced_entries,
                "conserved": conserved,
                "monotone": state.monotone,
                "collected": seen,
                "events_match": events_match,
            }
        )
    return {
        "ok": all(row["conserved"] and row["monotone"] for row in shard_rows),
        "events_match": all(row["events_match"] for row in shard_rows),
        "epoch_regressions": sum(row["epoch_regressions"] for row in shard_rows),
        "residual_total": sum(row["residual"] for row in shard_rows),
        "shards": shard_rows,
    }
