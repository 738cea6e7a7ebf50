"""Shared-memory ring shards: the wire format of the live service.

One ``multiprocessing.shared_memory`` segment holds everything the
service's processes exchange: per-shard request lanes, per-shard commit
journals, and per-shard headers publishing the queue top for two-choice
routing.  Three protocols live here, all designed so that a SIGKILLed
process can never corrupt what a survivor reads:

**Slot protocol (claim/commit).**  Every ring slot carries an absolute
sequence number.  A slot at ring position ``p`` reads ``seq == p`` while
free (the producer's *claim* is the observation that its own position is
free — single producer per ring, so the claim cannot race), the producer
writes the payload plus a checksum, and only then *commits* by storing
``seq = p + 1``.  The consumer accepts a slot only when ``seq == c + 1``
and recycles it with ``seq = c + capacity``.  A writer killed anywhere
before the commit store leaves ``seq`` unpublished, so the half-written
payload is invisible — there is no torn state a reader can observe, and
:meth:`SlotRing.audit` proves it after the fact by checksumming every
committed slot.

**Lane composition.**  Python cannot issue atomic read-modify-writes on
shared memory, so instead of an MPMC ring guarded by a lock (a kill
while holding it would wedge every peer), each (producer, shard) pair
gets its own single-producer/single-consumer lane and the shard owner
drains its lanes round-robin.  The lane mesh *is* the MPMC channel,
built from parts that need no atomics at all.  (CPython executes the
payload stores before the commit store in bytecode order, and x86/ARM64
TSO/release semantics keep that order visible across processes.)

**Header seqlock + fencing epoch.**  Each shard header publishes
``(top, size, heartbeat)`` under a seqlock (odd = write in progress) so
routers can read two shard tops without locks, and carries a fencing
``epoch`` bumped by every new owner generation — journal entries
stamped with a stale epoch are from a zombie predecessor and are fenced.

**Run decoding.**  Consumers read a ring a *run* at a time
(:meth:`SlotRing.read_run`, :meth:`JournalRing.read_run`): seq words
first, then the committed prefix's payloads in one copy, checksummed by
one vectorized fold.  The shard owner journals a drained chunk with one
:meth:`JournalRing.append_chunk` (one fold, one strided payload store)
that still commits entry by entry, in one loop of word stores.

**Durable shard state (journal + snapshot).**  Each shard owns a commit
*journal* — a ring of applied operations under the same claim/commit
protocol, each entry stamped with the owner's fencing epoch, the
request's ``(lane, position)`` identity and its commit time — plus a
double-buffered heap *snapshot* committed by a single atomic
buffer-index flip.  The journal is the shard's only per-op log: the
collector in the parent tails it from a per-shard *cursor* word that
only the collector writes, and the owner truncates no further than
``min(snapshot fold point, cursor)``, so every committed op is read
exactly once.  Replaying the active snapshot plus every journal entry
past its fold point rebuilds the owner's private heap after a SIGKILL
at any instruction; the ``(lane, position)`` identity dedups requests
the dead owner applied but never recycled (exactly-once application).
Entries whose epoch regresses below an already-seen epoch are zombie
writes and are fenced out of both the replay and the collected events.
"""

from __future__ import annotations

import struct
import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Slot layout: absolute sequence number, opcode, label, Lamport clock,
#: intended-start and completion timestamps (monotonic ns), checksum.
SLOT = struct.Struct("<QQqQqqQ")
_SLOT_PAYLOAD = struct.Struct("<QqQqqQ")  # SLOT after its seq word
_SLOT_SIZE = SLOT.size
_SLOT_WORDS = _SLOT_SIZE // 8
_SEQ = struct.Struct("<Q")


def _store(buf, offset: int, data: bytes) -> None:
    """Store packed ``data`` in one copy.

    ``struct.pack_into`` zero-fills its target before writing the
    fields, so a reader in another process racing it can see the field
    read 0.  A slice assignment copies whole words and never exposes
    that zero, which a word other processes read without a lock needs.
    It is only for words with a single writer, though: ``memcpy`` may
    store a word twice (see :func:`_word_view`).
    """
    buf[offset : offset + len(data)] = data


def _word_view(buf) -> memoryview:
    """``buf`` as native u64 words: ``view[offset >> 3] = value`` is one
    aligned 8-byte machine store.

    Slot seqs and every header word (epoch, seqlock, published fields)
    are stored this way, never by slice.  glibc's
    ``memcpy`` copies 8 bytes as two overlapping 8-byte stores, and a
    slot ``seq`` has two writers taking turns: the producer commits it,
    the consumer recycles it.  A consumer preempted between its two
    recycle stores can land the second after the producer has already
    claimed the slot and committed, reverting the commit — the request
    is lost and the lane wedges.  Every offset in the layout is 8-byte
    aligned, and the layout is little-endian, so the host must be too.
    """
    if sys.byteorder != "little":
        raise RuntimeError("the segment layout needs a little-endian host")
    return memoryview(buf).cast("Q")


#: Request opcodes (client -> shard owner).
OP_INSERT = 1
OP_DELETE = 2
OP_STOP = 3

#: Event opcodes: what an applied request did, as journaled by the owner
#: and reported by the collector.
EV_INSERT = 11
EV_DELETE = 12
EV_EMPTY = 13  # delete arrived while the shard heap was empty

#: Journal-only opcodes: J_BYE marks a clean owner exit (label carries the
#: residual heap size); J_STOP journals a lane's STOP so a successor does
#: not wait on a lane that already said goodbye.
J_BYE = 14
J_STOP = 15

#: Published "top" for an empty shard: worse than every real label.
TOP_EMPTY = 1 << 62

_MASK64 = (1 << 64) - 1

#: Shard header layout: fencing epoch, seqlock, top, size, heartbeat ns.
HEADER = struct.Struct("<QQqqq")

#: Journal slot layout: absolute sequence, opcode, label, Lamport clock,
#: intended-start ns, source lane, request-ring position the op came from,
#: commit ns (taken just before the append), owner epoch, checksum.
JSLOT = struct.Struct("<QQqQqQQqQQ")

#: Snapshot buffer header: format version, owner epoch, Lamport clock,
#: heap count, journal fold position, cumulative inserts/deletes/empties,
#: per-lane stopped bitmask, checksum.
_SNAP_HEADER = struct.Struct("<QQQQQQQQQQ")
_SNAP_CONTROL = struct.Struct("<QQ")  # active buffer index + pad
SNAP_VERSION = 2

#: Segment header: magic, layout version, shards, lanes, request/journal/
#: state capacities.
_SEG_HEADER = struct.Struct("<QIIIIII")
_SEG_VERSION = 3
_MAGIC = 0x4D51534852564D51  # "MQSHRVMQ"


def slot_checksum(op: int, label: int, clock: int, t0_ns: int, t1_ns: int) -> int:
    """FNV-style fold of a slot payload (``hash()`` is salted; this is not).

    Straight-line, and reduced mod 2**64 once at the end: the low 64 bits
    of an XOR or a product depend only on the low 64 bits of the
    operands, so this equals the per-step-masked fold
    ``h = ((h ^ (v & mask)) * prime) & mask`` over the fields in order.
    Only ``label`` is masked on the way: it is the field that is
    negative in practice (deletes carry -1), and CPython multiplies a
    non-negative fold faster.
    """
    h = (0x9E3779B97F4A7C15 ^ op) * 0x100000001B3
    h = (h ^ (label & 0xFFFFFFFFFFFFFFFF)) * 0x100000001B3
    h = (h ^ clock) * 0x100000001B3
    h = (h ^ t0_ns) * 0x100000001B3
    return ((h ^ t1_ns) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF or 1


def journal_checksum(
    op: int, label: int, clock: int, t0_ns: int,
    lane: int, reqpos: int, t1_ns: int, epoch: int,
) -> int:
    """FNV-style fold of a journal entry payload, straight-line like
    :func:`slot_checksum`."""
    h = (0x9E3779B97F4A7C15 ^ op) * 0x100000001B3
    h = (h ^ (label & 0xFFFFFFFFFFFFFFFF)) * 0x100000001B3
    h = (h ^ clock) * 0x100000001B3
    h = (h ^ t0_ns) * 0x100000001B3
    h = (h ^ lane) * 0x100000001B3
    h = (h ^ reqpos) * 0x100000001B3
    h = (h ^ t1_ns) * 0x100000001B3
    return ((h ^ epoch) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF or 1


def journal_checksums(fields: np.ndarray) -> np.ndarray:
    """:func:`journal_checksum` of every row of a ``(k, 8)`` uint64 array.

    Columns are the payload fields in ``JSLOT`` order (op, label, clock,
    t0_ns, lane, reqpos, t1_ns, epoch), signed fields as their
    two's-complement words.  uint64 arithmetic wraps mod 2**64, so one
    XOR-multiply per column over all rows is the scalar fold.  A column
    is contiguous when ``fields`` is the transpose of a C-ordered array
    with one row per field, as the shard owner and the loadgen build it.
    """
    prime = np.uint64(0x100000001B3)
    h = fields[:, 0] ^ np.uint64(0x9E3779B97F4A7C15)
    h *= prime
    for column in fields.T[1:]:
        h ^= column
        h *= prime
    return np.maximum(h, 1, out=h)  # a zero fold reads 1, as ``or 1`` does


def slot_checksums(fields: np.ndarray) -> np.ndarray:
    """:func:`slot_checksum` of every row of a ``(k, 5)`` uint64 array.

    Columns are the ``SLOT`` payload fields before the checksum (op,
    label, clock, t0_ns, t1_ns).  Both folds are the same per-column
    XOR-multiply, so this is :func:`journal_checksums` over five columns.
    """
    return journal_checksums(fields)


_SNAP_SALT = 0xA5A5A5A55A5A5A5A
_SNAP_PRIME = 0x100000001B3


def snapshot_checksum(scalars: Sequence[int], watermarks, labels) -> int:
    """Checksum of one snapshot buffer's full content.

    ``scalars`` are the header fields before the checksum itself;
    ``watermarks``/``labels`` are uint64/int64 numpy arrays.  The label
    fold is an order-insensitive XOR reduce so it vectorises.
    """
    h = 0x9E3779B97F4A7C15
    for v in scalars:
        h = ((h ^ (v & _MASK64)) * _SNAP_PRIME) & _MASK64
    for v in watermarks.tolist():
        h = ((h ^ (v & _MASK64)) * _SNAP_PRIME) & _MASK64
    if labels.size:
        mixed = (labels.astype(np.uint64) ^ np.uint64(_SNAP_SALT)) * np.uint64(
            _SNAP_PRIME
        )
        h = ((h ^ int(np.bitwise_xor.reduce(mixed))) * _SNAP_PRIME) & _MASK64
    return h or 1


class TornSlotError(RuntimeError):
    """A committed slot failed its checksum — the protocol was violated.

    ``pos`` is the absolute ring position at fault, when there is one.
    """

    def __init__(self, message: str, pos: Optional[int] = None) -> None:
        super().__init__(message)
        self.pos = pos


class FencedOwnerError(RuntimeError):
    """An owner observed a newer epoch in its header: it is a zombie.

    Raised between a journal entry's payload write and its commit store,
    so a fenced owner can never publish another committed entry — its
    half-written slot stays invisible (``seq`` unchanged).
    """


@dataclass
class RingAudit:
    """Post-mortem census of one ring's slots."""

    capacity: int
    committed: int  # published but not yet consumed
    free: int
    torn: int  # invalid sequence residue or checksum mismatch

    @property
    def ok(self) -> bool:
        return self.torn == 0


_SEQ_PROBE = 256  # slots in read_run's first seq window


def _copy_words(buf, offset: int, count: int, step: int = 1) -> np.ndarray:
    """Every ``step``-th of ``count`` native u64 words at ``offset``, copied.

    Each word is one aligned 8-byte load.  The temporary view over
    ``buf`` dies here, so no array outlives the call holding the
    segment's buffer exported (``SharedMemory.close`` would refuse).
    """
    view = np.frombuffer(buf, dtype=np.uint64, count=count, offset=offset)
    return view[::step].copy()


def _store_payloads(buf, offset: int, payloads: np.ndarray) -> None:
    """Store ``payloads[i]`` in words ``1..`` of consecutive slots at ``offset``.

    One strided store over ``len(payloads)`` slots of ``width + 1``
    words each that never touches a slot's seq word (word 0).  The
    temporary view dies here, as in :func:`_copy_words`.
    """
    count, width = payloads.shape
    view = np.frombuffer(buf, dtype=np.uint64, count=count * (width + 1), offset=offset)
    view.reshape(count, width + 1)[:, 1:] = payloads


def _census(seqs: np.ndarray, capacity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Masks of the slots whose seq reads free (``seq ≡ index``) and
    committed (``seq ≡ index + 1``, mod ``capacity``); free wins a tie."""
    index = np.arange(capacity, dtype=np.uint64)
    phase = seqs % np.uint64(capacity)
    free = phase == index
    committed = ~free & (phase == (index + np.uint64(1)) % np.uint64(capacity))
    return free, committed


def _recover_positions(
    buf, offset: int, slot_size: int, capacity: int, max_scans: int = 64
) -> Tuple[int, int]:
    """Derive ``(head, tail)`` from slot sequence residues, safely even
    while the ring's producer is live.

    Free slots carry their future producer position, committed slots
    carry ``position + 1``.  In any *consistent* snapshot the free
    region starts at the producer head, so every free future-position
    strictly exceeds every committed position.  A scan that observes a
    free slot at or below a committed position raced a concurrent
    commit (the producer committed the earlier slot after we read it
    but before we read the later one); accepting such a scan would set
    the consumer tail past a committed slot and silently drop that
    request — so rescan.  Committed slots cannot revert while we (the
    recovering side) are not consuming, so one rescan normally settles.
    Each scan reads every seq word in one strided copy.
    """
    width = slot_size // 8
    for _ in range(max_scans):
        seqs = _copy_words(buf, offset, (capacity - 1) * width + 1, width)
        free, committed = _census(seqs, capacity)
        free_seqs = seqs[free]
        committed_seqs = seqs[committed]  # positions + 1
        if (
            free_seqs.size
            and committed_seqs.size
            and int(free_seqs.min()) <= int(committed_seqs.max()) - 1
        ):
            time.sleep(0.0005)  # let the in-flight commit land
            continue  # torn scan: a producer committed mid-scan
        if free_seqs.size:
            head = int(free_seqs.min())
        elif committed_seqs.size:
            head = int(committed_seqs.min()) - 1 + capacity
        else:
            head = 0
        tail = int(committed_seqs.min()) - 1 if committed_seqs.size else head
        return head, tail
    raise TornSlotError(
        f"ring recover(): no consistent scan in {max_scans} attempts"
    )


class _Ring:
    """Positions, run decoding, recovery and audit of one SPSC slot ring.

    Producer and consumer positions are plain Python attributes — each
    side is a single process, and a restarted process recovers them from
    the slot sequence numbers alone (:meth:`recover`).  A slot is
    ``_LAYOUT``: its seq word first, its checksum word last, and
    ``_checksums`` folds the payload words in between.
    """

    _LAYOUT: struct.Struct
    _WHAT: str  # how a TornSlotError names this ring's positions
    _checksums: Callable[[np.ndarray], np.ndarray]

    def __init__(self, buf, slots: int, capacity: int, words) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._buf = buf
        self._words = words  # _word_view(buf), or a test's stand-in
        self._slots = slots  # byte offset of physical slot 0
        self.capacity = capacity
        self._head = 0  # next producer position
        self._tail = 0  # next consumer (or lowest retained) position

    def _slot_offset(self, position: int) -> int:
        return self._slots + (position % self.capacity) * self._LAYOUT.size

    @property
    def head(self) -> int:
        """Next producer position (absolute)."""
        return self._head

    @property
    def tail(self) -> int:
        """Next consumer position (absolute)."""
        return self._tail

    def read_run(self, pos: int, limit: int) -> np.ndarray:
        """Up to ``limit`` committed slots from absolute ``pos`` on.

        Returns a ``(k, words)`` uint64 array of slot words in layout
        column order (``run[:, 0] - 1`` are the positions; view it as
        int64 for the signed fields).  The run stops at the first
        uncommitted slot and at the ring end; the next call continues
        from physical slot 0.  The seq words are read first: the one at
        ``pos`` with a single load (so an idle ring costs no NumPy call),
        then in windows of 256, 512, 1024, ... slots until one holds an
        uncommitted slot.  Only the committed prefix's payloads are then
        copied, in one slice copy, so every copied payload was complete
        before its seq was seen committed, and an uncommitted slot's
        partial payload is never checksummed.  One vectorized fold checks
        every checksum; a bad one raises :class:`TornSlotError` naming its
        absolute position.  Non-destructive: consumers advance or truncate
        separately.
        """
        width = self._LAYOUT.size // 8
        n = min(limit, self.capacity - pos % self.capacity)
        off = self._slot_offset(pos)
        if n <= 0 or _SEQ.unpack_from(self._buf, off)[0] != pos + 1:
            return np.empty((0, width), dtype=np.uint64)  # one load when idle
        # Probe the seqs in doubling windows, so a tailing reader touches
        # 256 slots or about twice the committed prefix, not the whole ring.
        k, window = 0, _SEQ_PROBE
        while k < n:
            m = min(window, n - k)
            seqs = _copy_words(self._buf, off + k * self._LAYOUT.size, (m - 1) * width + 1, width)
            committed = seqs == np.arange(pos + k + 1, pos + k + m + 1, dtype=np.uint64)
            if not committed.all():
                k += int(committed.argmin())
                break
            k += m
            window *= 2
        run = _copy_words(self._buf, off, k * width).reshape(k, width)
        bad = self._checksums(run[:, 1:-1]) != run[:, -1]
        if bad.any():
            torn = pos + int(bad.argmax())
            raise TornSlotError(
                f"{self._WHAT} position {torn} committed with a bad checksum", torn
            )
        return run

    def recover(self) -> None:
        """Rederive producer/consumer positions from the slot sequences.

        Used by a process attaching to a ring mid-life (e.g. a restarted
        owner, or the post-kill auditor): free slots carry their future
        producer position, committed slots carry ``position + 1``.  Safe
        to run while the ring's producer is live (a respawned owner
        recovers its request lanes under active loadgen traffic).
        """
        self._head, self._tail = _recover_positions(
            self._buf, self._slots, self._LAYOUT.size, self.capacity
        )

    def audit(self) -> RingAudit:
        """Census every slot; a nonzero ``torn`` count is a protocol breach.

        A slot is torn if its seq residue is neither free nor committed,
        or if it is committed with a bad checksum.
        """
        cap = self.capacity
        width = self._LAYOUT.size // 8
        seqs = _copy_words(self._buf, self._slots, (cap - 1) * width + 1, width)
        free, committed_mask = _census(seqs, cap)
        torn = cap - int(free.sum()) - int(committed_mask.sum())
        # Each slot holds a distinct residue, so consecutive positions in
        # sorted order are exactly what one read_run covers.
        positions = [seq - 1 for seq in sorted(seqs[committed_mask].tolist())]
        committed = k = 0
        while k < len(positions):
            try:
                intact = len(self.read_run(positions[k], len(positions) - k))
                bad = intact == 0  # the seq moved since the census
            except TornSlotError as exc:
                intact, bad = exc.pos - positions[k], True
            committed += intact
            torn += bad
            k += intact + bad
        return RingAudit(capacity=cap, committed=committed, free=int(free.sum()), torn=torn)


class SlotRing(_Ring):
    """A request lane: a fixed-capacity SPSC ring of ``SLOT`` slots."""

    _LAYOUT = SLOT
    _WHAT = "request slot"
    _checksums = staticmethod(slot_checksums)

    @staticmethod
    def region_size(capacity: int) -> int:
        """Bytes one ring of ``capacity`` slots occupies."""
        return capacity * SLOT.size

    def initialize(self) -> None:
        """Format every slot as free (slot ``i`` gets ``seq = i``)."""
        for i in range(self.capacity):
            SLOT.pack_into(self._buf, self._slot_offset(i), i, 0, 0, 0, 0, 0, 0)

    # -- producer side ---------------------------------------------------

    def try_push(
        self, op: int, label: int, clock: int = 0, t0_ns: int = 0, t1_ns: int = 0,
        checksum: Optional[int] = None,
    ) -> bool:
        """Claim the head slot, write the payload, commit.  False = full.

        ``checksum`` is the payload's :func:`slot_checksum` when the
        caller already folded it (the loadgen folds a block at once with
        :func:`slot_checksums`); ``None`` folds it here.
        """
        p = self._head
        off = self._slots + p % self.capacity * _SLOT_SIZE  # _slot_offset, one call fewer
        (seq,) = _SEQ.unpack_from(self._buf, off)
        if seq != p:
            return False  # ring full (or we lost our position: recover())
        if checksum is None:
            checksum = slot_checksum(op, label, clock, t0_ns, t1_ns)
        # Claimed: payload first, checksum included, never touching seq ...
        _SLOT_PAYLOAD.pack_into(self._buf, off + 8, op, label, clock, t0_ns, t1_ns, checksum)
        # ... and only then the one-word commit store that publishes it.
        self._words[off >> 3] = p + 1
        self._head = p + 1
        return True

    # -- consumer side ---------------------------------------------------

    def try_pop(self) -> Optional[Tuple[int, int, int, int, int]]:
        """Consume the tail slot; ``None`` when nothing is committed.

        Returns ``(op, label, clock, t0_ns, t1_ns)``.  Raises
        :class:`TornSlotError` if a committed slot fails its checksum —
        by construction of the commit ordering this cannot happen from a
        crash, only from a protocol bug, so it is loud.
        """
        out = self.try_peek()
        if out is not None:
            self.advance()
        return out

    def try_peek(self) -> Optional[Tuple[int, int, int, int, int]]:
        """Read the tail slot without recycling it; ``None`` = nothing committed.

        Lets a consumer apply+journal an op durably *before* recycling the
        slot — the recovery dedup key is the slot's absolute position, which
        must stay stable until the journal entry is committed.
        """
        c = self._tail
        off = self._slot_offset(c)
        seq, op, label, clock, t0_ns, t1_ns, checksum = SLOT.unpack_from(self._buf, off)
        if seq != c + 1:
            return None
        if checksum != slot_checksum(op, label, clock, t0_ns, t1_ns):
            raise TornSlotError(
                f"slot at position {c} committed with a bad checksum (op={op})", c
            )
        return op, label, clock, t0_ns, t1_ns

    def advance(self) -> None:
        """Recycle the tail slot previously observed via :meth:`try_peek`
        or :meth:`read_run`: one word store of its seq."""
        c = self._tail
        cap = self.capacity
        self._words[(self._slots >> 3) + c % cap * _SLOT_WORDS] = c + cap
        self._tail = c + 1


class JournalEntry(NamedTuple):
    """One committed journal record, tagged with its absolute position."""

    pos: int
    op: int
    label: int
    clock: int
    t0_ns: int
    lane: int
    reqpos: int
    t1_ns: int
    epoch: int


_CURSOR = struct.Struct("<Q")
_JWORDS = JSLOT.size // 8  # u64 words per journal slot
_SIGNED_JCOLS = (2, 4, 7)  # label, t0_ns, t1_ns: the signed JSLOT words


def _entries(run: np.ndarray) -> List[JournalEntry]:
    """A :meth:`JournalRing.read_run` result as :class:`JournalEntry` rows."""
    signed = run.view(np.int64)
    columns = [
        (signed if j in _SIGNED_JCOLS else run)[:, j].tolist() for j in range(1, 9)
    ]
    return [
        JournalEntry(seq - 1, *fields)
        for seq, *fields in zip(run[:, 0].tolist(), *columns)
    ]


class JournalRing(_Ring):
    """The per-shard commit journal: an SPSC ring the owner appends to.

    Same claim/commit discipline as :class:`SlotRing`, but consumption is
    split in two.  The collector *reads* entries in order without
    recycling them and publishes how far it got in the journal's
    *cursor* word (which only it writes); the owner *truncates* in bulk,
    never past ``min(snapshot fold point, cursor)``, so no entry is
    recycled before it is both folded and collected.  A successor
    *scans* the live suffix non-destructively during recovery.  The
    commit store doubles as the linearization point of the whole shard —
    an op happened iff its journal entry is committed — and the optional
    ``fence`` hook lets a zombie owner detect its own staleness after the
    payload write but before the slot becomes visible.
    """

    _LAYOUT = JSLOT
    _WHAT = "journal"
    _checksums = staticmethod(journal_checksums)

    def __init__(self, buf, offset: int, capacity: int, words) -> None:
        super().__init__(buf, offset + _CURSOR.size, capacity, words)
        self._offset = offset  # the cursor word; slots follow it

    @staticmethod
    def region_size(capacity: int) -> int:
        return _CURSOR.size + capacity * JSLOT.size

    def initialize(self) -> None:
        _CURSOR.pack_into(self._buf, self._offset, 0)
        for i in range(self.capacity):
            JSLOT.pack_into(self._buf, self._slot_offset(i), i, 0, 0, 0, 0, 0, 0, 0, 0, 0)

    # -- producer side ---------------------------------------------------

    def _write_run(self, rows: np.ndarray) -> bool:
        """Fold and store ``len(rows)`` entries from the head, committing none.

        ``rows`` is a ``(k, 9)`` uint64 array of the slot words after the
        seq, with ``0 < k <= capacity``: the eight payload fields in
        ``JSLOT`` order (signed fields as two's-complement words), then a
        checksum column that this fills in.  Built as the transpose of a
        ``(9, k)`` array, every column the fold reads is contiguous.
        Every claimed slot must read free (``seq == position``), or
        nothing is written and this returns False.  One vectorized fold
        computes the checksums and one strided store per ring lap writes
        the payloads, never touching a seq word.
        """
        k = len(rows)
        cap = self.capacity
        if not 0 < k <= cap:
            raise ValueError(f"append of {k} entries into a {cap}-slot journal")
        p = self._head
        first = min(k, cap - p % cap)  # entries before the ring end
        pieces = [(p, rows[:first])]
        if first < k:
            pieces.append((p + first, rows[first:]))
        for pos, piece in pieces:
            seqs = _copy_words(
                self._buf, self._slot_offset(pos), (len(piece) - 1) * _JWORDS + 1, _JWORDS
            )
            if seqs.tolist() != list(range(pos, pos + len(piece))):
                return False
        rows[:, 8] = journal_checksums(rows[:, :8])
        for pos, piece in pieces:
            _store_payloads(self._buf, self._slot_offset(pos), piece)
        return True

    def append_run(self, rows: np.ndarray, fence=None) -> bool:
        """Append ``len(rows)`` entries from the head.  False = full.

        ``rows`` is as in :meth:`_write_run`, which writes the payloads.
        Then, entry by entry: ``fence`` (if given) is called before the
        commit store, and if it returns true the append raises
        :class:`FencedOwnerError` with that entry and every later one
        still free; the commit is one word store of the seq.
        """
        if not self._write_run(rows):
            return False
        words, base, cap = self._words, self._slots >> 3, self.capacity
        p = self._head
        for pos in range(p, p + len(rows)):
            if fence is not None and fence():
                raise FencedOwnerError(
                    f"owner epoch {int(rows[pos - p, 7])} fenced before "
                    f"committing journal pos {pos}"
                )
            words[base + pos % cap * _JWORDS] = pos + 1
            self._head = pos + 1
        return True

    def append_chunk(
        self, rows: np.ndarray, lane: SlotRing, header: "ShardHeader",
        posts: Sequence[Optional[Tuple[int, int]]], heartbeat_ns: int,
    ) -> bool:
        """Append a shard owner's drained chunk and commit it in one loop.

        Entry ``i`` of ``rows`` (as in :meth:`_write_run`) journals the
        request ``i`` slots past ``lane``'s tail, and ``posts[i]`` is
        the shard's post-op ``(top, size)``, or None when the op changed
        neither.  Each entry commits with inline word stores, in this
        order: one load of ``header``'s epoch word, which must still be
        the entries' epoch, else :class:`FencedOwnerError` is raised with
        this entry and every later one free and their requests pending;
        the commit store of the entry's seq; the recycle store of the
        request slot (as :meth:`SlotRing.advance`); and for a post, the
        stores of :meth:`ShardHeader.publish` with ``heartbeat_ns``.
        False = full, with nothing written.
        """
        if not self._write_run(rows):
            return False
        words = self._words
        epoch = int(rows[0, 7])
        fence = header._offset >> 3
        seqlock = fence + 1
        jbase, jcap = self._slots >> 3, self.capacity
        rbase, rcap = lane._slots >> 3, lane.capacity
        p, r = self._head, lane._tail
        heartbeat = heartbeat_ns & _MASK64
        for i, post in enumerate(posts):
            if words[fence] != epoch:
                self._head, lane._tail = p + i, r + i
                raise FencedOwnerError(
                    f"owner epoch {epoch} fenced before committing journal pos {p + i}"
                )
            words[jbase + (p + i) % jcap * _JWORDS] = p + i + 1
            words[rbase + (r + i) % rcap * _SLOT_WORDS] = r + i + rcap
            if post is not None:
                writing = words[seqlock] | 1
                words[seqlock] = writing  # odd: writing
                words[seqlock + 1] = post[0] & _MASK64
                words[seqlock + 2] = post[1]
                words[seqlock + 3] = heartbeat
                words[seqlock] = writing + 1  # even: stable
        self._head, lane._tail = p + len(posts), r + len(posts)
        return True

    def try_append(
        self, op: int, label: int, clock: int, t0_ns: int,
        lane: int, reqpos: int, t1_ns: int, epoch: int,
        fence=None,
    ) -> bool:
        """Claim, write payload, check ``fence``, commit.  False = full.

        :meth:`append_run` of one entry: ``fence`` is called (if given)
        after the payload write and before the commit store, and if it
        returns true the append raises :class:`FencedOwnerError` with the
        slot still free.
        """
        row = [op, label, clock, t0_ns, lane, reqpos, t1_ns, epoch, 0]
        return self.append_run(np.array([[v & _MASK64 for v in row]], dtype=np.uint64), fence)

    def truncate_to(self, new_tail: int) -> None:
        """Recycle every entry below ``new_tail``."""
        if not self._tail <= new_tail <= self._head:
            raise ValueError(
                f"truncate_to({new_tail}) outside [{self._tail}, {self._head}]"
            )
        words, base, cap = self._words, self._slots >> 3, self.capacity
        for c in range(self._tail, new_tail):
            words[base + c % cap * _JWORDS] = c + cap
        self._tail = new_tail

    # -- reader side -----------------------------------------------------

    def cursor(self) -> int:
        """First position the collector has not read yet."""
        (pos,) = _CURSOR.unpack_from(self._buf, self._offset)
        return pos

    def set_cursor(self, pos: int) -> None:
        """Publish the collector's progress (the collector is the only writer)."""
        _store(self._buf, self._offset, _CURSOR.pack(pos))

    # -- recovery ---------------------------------------------------------

    def scan(self) -> List[JournalEntry]:
        """All committed entries in ``[tail, head)``, non-destructively."""
        out: List[JournalEntry] = []
        pos = self._tail
        while pos < self._head:
            run = self.read_run(pos, self._head - pos)
            if not len(run):
                raise TornSlotError(
                    f"journal position {pos} inside [tail, head) is not committed", pos
                )
            out.extend(_entries(run))
            pos += len(run)
        return out


class SnapshotState(NamedTuple):
    """Decoded content of the active snapshot buffer."""

    epoch: int
    clock: int
    fold_pos: int  # journal entries below this are folded into the labels
    cum_inserts: int
    cum_deletes: int
    cum_empties: int
    stopped_mask: int  # bit per lane: STOP already consumed
    watermarks: Tuple[int, ...]  # per-lane next-unapplied request position
    labels: "np.ndarray"  # heap content at the fold point (count elements)


class ShardSnapshot:
    """Double-buffered heap snapshot committed by one atomic index flip.

    The owner always writes the *inactive* buffer, then flips the active
    index with a single aligned 8-byte store.  A reader (the recovering
    successor) takes the active buffer if its checksum validates, else
    falls back to the other one — a writer killed at any instruction
    leaves at least one valid buffer, because :meth:`initialize` plants a
    valid empty snapshot before any owner runs.
    """

    def __init__(self, buf, offset: int, lanes: int, state_capacity: int) -> None:
        self._buf = buf
        self._offset = offset
        self.lanes = lanes
        self.state_capacity = state_capacity

    @staticmethod
    def buffer_size(lanes: int, state_capacity: int) -> int:
        return _SNAP_HEADER.size + lanes * 8 + state_capacity * 8

    @classmethod
    def region_size(cls, lanes: int, state_capacity: int) -> int:
        return _SNAP_CONTROL.size + 2 * cls.buffer_size(lanes, state_capacity)

    def _buffer_offset(self, index: int) -> int:
        return self._offset + _SNAP_CONTROL.size + index * self.buffer_size(
            self.lanes, self.state_capacity
        )

    def initialize(self) -> None:
        """Plant a valid empty snapshot in buffer 0 and mark it active."""
        _SNAP_CONTROL.pack_into(self._buf, self._offset, 0, 0)
        # Invalidate buffer 1 (checksum 0 can never validate: folds end `or 1`).
        _SNAP_HEADER.pack_into(self._buf, self._buffer_offset(1), *([0] * 10))
        self._write_buffer(
            0, epoch=0, clock=0, fold_pos=0, cum_inserts=0,
            cum_deletes=0, cum_empties=0, stopped_mask=0,
            watermarks=np.zeros(self.lanes, dtype=np.uint64),
            labels=np.empty(0, dtype=np.int64),
        )

    def _write_buffer(
        self, index: int, *, epoch: int, clock: int, fold_pos: int,
        cum_inserts: int, cum_deletes: int, cum_empties: int, stopped_mask: int,
        watermarks, labels,
    ) -> None:
        count = int(labels.size)
        if count > self.state_capacity:
            raise ValueError(
                f"snapshot of {count} labels exceeds state capacity "
                f"{self.state_capacity}"
            )
        base = self._buffer_offset(index)
        scalars = (
            SNAP_VERSION, epoch, clock, count, fold_pos,
            cum_inserts, cum_deletes, cum_empties, stopped_mask,
        )
        checksum = snapshot_checksum(scalars, watermarks, labels)
        wm_off = base + _SNAP_HEADER.size
        self._buf[wm_off : wm_off + self.lanes * 8] = watermarks.astype(
            np.uint64
        ).tobytes()
        lab_off = wm_off + self.lanes * 8
        self._buf[lab_off : lab_off + count * 8] = labels.astype(np.int64).tobytes()
        _SNAP_HEADER.pack_into(self._buf, base, *scalars, checksum)

    def write(
        self, *, epoch: int, clock: int, fold_pos: int,
        cum_inserts: int, cum_deletes: int, cum_empties: int, stopped_mask: int,
        watermarks, labels,
    ) -> None:
        """Write the inactive buffer, then commit it with the index flip."""
        (active, _pad) = _SNAP_CONTROL.unpack_from(self._buf, self._offset)
        target = 1 - int(active)
        self._write_buffer(
            target, epoch=epoch, clock=clock, fold_pos=fold_pos,
            cum_inserts=cum_inserts, cum_deletes=cum_deletes,
            cum_empties=cum_empties, stopped_mask=stopped_mask,
            watermarks=np.asarray(watermarks, dtype=np.uint64),
            labels=np.asarray(labels, dtype=np.int64),
        )
        _SNAP_CONTROL.pack_into(self._buf, self._offset, target, 0)

    def _read_buffer(self, index: int) -> Optional[SnapshotState]:
        base = self._buffer_offset(index)
        (
            version, epoch, clock, count, fold_pos,
            cum_inserts, cum_deletes, cum_empties, stopped_mask, checksum,
        ) = _SNAP_HEADER.unpack_from(self._buf, base)
        if version != SNAP_VERSION or count > self.state_capacity:
            return None
        wm_off = base + _SNAP_HEADER.size
        watermarks = np.frombuffer(
            bytes(self._buf[wm_off : wm_off + self.lanes * 8]), dtype=np.uint64
        )
        lab_off = wm_off + self.lanes * 8
        labels = np.frombuffer(
            bytes(self._buf[lab_off : lab_off + count * 8]), dtype=np.int64
        )
        scalars = (
            version, epoch, clock, count, fold_pos,
            cum_inserts, cum_deletes, cum_empties, stopped_mask,
        )
        if checksum != snapshot_checksum(scalars, watermarks, labels):
            return None
        return SnapshotState(
            epoch=epoch, clock=clock, fold_pos=fold_pos,
            cum_inserts=cum_inserts, cum_deletes=cum_deletes,
            cum_empties=cum_empties, stopped_mask=stopped_mask,
            watermarks=tuple(int(w) for w in watermarks),
            labels=labels.copy(),
        )

    def read(self) -> SnapshotState:
        """The newest valid snapshot (active buffer, else its sibling)."""
        (active, _pad) = _SNAP_CONTROL.unpack_from(self._buf, self._offset)
        active = int(active) & 1
        for index in (active, 1 - active):
            state = self._read_buffer(index)
            if state is not None:
                return state
        raise TornSlotError(
            "both snapshot buffers failed validation — snapshots are "
            "double-buffered, so this is a protocol breach, not a crash"
        )


class ShardHeader:
    """Seqlock-published ``(top, size, heartbeat)`` plus the fencing epoch."""

    def __init__(self, buf, offset: int, words) -> None:
        self._buf = buf
        self._words = words  # _word_view(buf), or a test's stand-in
        self._offset = offset

    @staticmethod
    def region_size() -> int:
        return HEADER.size

    def initialize(self) -> None:
        HEADER.pack_into(self._buf, self._offset, 0, 0, TOP_EMPTY, 0, 0)

    # -- owner side ------------------------------------------------------

    def bump_epoch(self) -> int:
        """Fence out any predecessor: the new owner generation's token."""
        (epoch,) = _SEQ.unpack_from(self._buf, self._offset)
        self._words[self._offset >> 3] = epoch + 1
        return epoch + 1

    def fence(self, epoch: int):
        """A callable that is true once the header epoch is no longer
        ``epoch``: one word load per call."""
        words, index = self._words, self._offset >> 3
        return lambda: words[index] != epoch

    def publish(self, top: int, size: int, heartbeat_ns: int) -> None:
        """Seqlock write: odd seq while the fields are in flight.

        A word load of the seqlock, then five whole-word stores.  ``| 1``
        (rather than ``+ 1``) absorbs a predecessor that died
        mid-publish and left the seqlock odd: blindly incrementing would
        invert the parity convention for the rest of the shard's life,
        sending every read down the stale-fallback path.
        """
        words = self._words
        seqlock = (self._offset >> 3) + 1
        writing = words[seqlock] | 1
        words[seqlock] = writing  # odd: writing
        words[seqlock + 1] = top & _MASK64
        words[seqlock + 2] = size
        words[seqlock + 3] = heartbeat_ns & _MASK64
        words[seqlock] = writing + 1  # even: stable

    # -- reader side -----------------------------------------------------

    def read(self, max_tries: int = 64) -> Tuple[int, int, int, int]:
        """Consistent ``(epoch, top, size, heartbeat_ns)`` snapshot.

        One ``HEADER`` unpack reads the seqlock before the fields (struct
        decodes in layout order), and a second read of the seqlock after
        them confirms no publish overlapped.
        """
        buf, off = self._buf, self._offset
        for _ in range(max_tries):
            epoch, seq1, top, size, heartbeat_ns = HEADER.unpack_from(buf, off)
            if not seq1 & 1 and _SEQ.unpack_from(buf, off + 8)[0] == seq1:
                return epoch, top, size, heartbeat_ns
        # The writer died mid-publish: the stale snapshot is still usable
        # for routing (tops are advisory), so return it rather than hang.
        epoch, _seq, top, size, heartbeat_ns = HEADER.unpack_from(buf, off)
        return epoch, top, size, heartbeat_ns

    def epoch(self) -> int:
        return _SEQ.unpack_from(self._buf, self._offset)[0]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting its lifetime.

    ``SharedMemory(name=...)`` registers the block with the resource
    tracker even when merely attaching (bpo-39959), so a child exiting
    would unlink a segment the creator still owns.  Suppress the
    registration for the duration of the attach (unregistering *after*
    would race the tracker and double-remove when creator and attacher
    share a process): only the creating process manages unlink.
    """
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class ServiceSegment:
    """Layout and lifetime of the one shared-memory block of a service run.

    Geometry: ``lanes`` producers (loadgen workers plus the control lane
    the parent uses for prefill/shutdown) times ``shards`` request rings,
    plus one header, one journal and one snapshot region per shard.  Any
    process can attach by name and reconstruct every view from the
    stored geometry.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, *, owns: bool,
        shards: int, lanes: int, req_capacity: int,
        journal_capacity: int, state_capacity: int,
    ) -> None:
        self._shm = shm
        # One word view for every ring and header; close() releases it.
        self._words = None if shm is None else _word_view(shm.buf)
        self._owns = owns
        self.shards = shards
        self.lanes = lanes
        self.req_capacity = req_capacity
        self.journal_capacity = journal_capacity
        self.state_capacity = state_capacity

    # -- creation / attachment -------------------------------------------

    @classmethod
    def create(
        cls,
        shards: int,
        lanes: int,
        req_capacity: int = 2048,
        journal_capacity: int = 8192,
        state_capacity: int = 4096,
        name: Optional[str] = None,
    ) -> "ServiceSegment":
        if shards <= 0 or lanes <= 0:
            raise ValueError(f"need positive geometry, got shards={shards}, lanes={lanes}")
        if lanes > 64:
            raise ValueError(
                f"at most 64 lanes (snapshot stopped_mask is one u64), got {lanes}"
            )
        if req_capacity < 2 or journal_capacity < 2:
            # In a 1-slot ring a free slot (seq == index mod 1) and a
            # committed one (seq == index + 1 mod 1) read the same, so
            # recover() could not tell a pending entry from a free slot.
            raise ValueError(
                f"ring capacities must be at least 2, got req_capacity={req_capacity}, "
                f"journal_capacity={journal_capacity}"
            )
        geometry = dict(
            shards=shards, lanes=lanes, req_capacity=req_capacity,
            journal_capacity=journal_capacity, state_capacity=state_capacity,
        )
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=cls(None, owns=True, **geometry)._end()
        )
        seg = cls(shm, owns=True, **geometry)
        _SEG_HEADER.pack_into(
            shm.buf, 0, _MAGIC, _SEG_VERSION, shards, lanes, req_capacity,
            journal_capacity, state_capacity,
        )
        for s in range(shards):
            seg.header(s).initialize()
            seg.journal(s).initialize()
            seg.snapshot(s).initialize()
            for lane in range(lanes):
                seg.request_ring(s, lane).initialize()
        return seg

    @classmethod
    def attach(cls, name: str) -> "ServiceSegment":
        shm = _attach_segment(name)
        (
            magic, version, shards, lanes, req_capacity,
            journal_capacity, state_capacity,
        ) = _SEG_HEADER.unpack_from(shm.buf, 0)
        if magic != _MAGIC:
            shm.close()
            raise ValueError(f"shared segment {name!r} is not a repro.service segment")
        if version != _SEG_VERSION:
            shm.close()
            raise ValueError(
                f"shared segment {name!r} has layout version {version}, "
                f"expected {_SEG_VERSION}"
            )
        return cls(
            shm, owns=False, shards=shards, lanes=lanes, req_capacity=req_capacity,
            journal_capacity=journal_capacity, state_capacity=state_capacity,
        )

    @property
    def name(self) -> str:
        return self._shm.name

    # -- views ------------------------------------------------------------

    def _headers_base(self) -> int:
        return _SEG_HEADER.size

    def _requests_base(self) -> int:
        return self._headers_base() + self.shards * ShardHeader.region_size()

    def _journals_base(self) -> int:
        return self._requests_base() + self.shards * self.lanes * SlotRing.region_size(
            self.req_capacity
        )

    def _snapshots_base(self) -> int:
        return self._journals_base() + self.shards * JournalRing.region_size(
            self.journal_capacity
        )

    def _end(self) -> int:
        return self._snapshots_base() + self.shards * ShardSnapshot.region_size(
            self.lanes, self.state_capacity
        )

    def header(self, shard: int) -> ShardHeader:
        self._check_shard(shard)
        return ShardHeader(
            self._shm.buf, self._headers_base() + shard * ShardHeader.region_size(),
            self._words,
        )

    def request_ring(self, shard: int, lane: int) -> SlotRing:
        self._check_shard(shard)
        if not 0 <= lane < self.lanes:
            raise IndexError(f"lane {lane} outside [0, {self.lanes})")
        offset = self._requests_base() + (
            shard * self.lanes + lane
        ) * SlotRing.region_size(self.req_capacity)
        return SlotRing(self._shm.buf, offset, self.req_capacity, self._words)

    def journal(self, shard: int) -> JournalRing:
        self._check_shard(shard)
        offset = self._journals_base() + shard * JournalRing.region_size(
            self.journal_capacity
        )
        return JournalRing(self._shm.buf, offset, self.journal_capacity, self._words)

    def snapshot(self, shard: int) -> ShardSnapshot:
        self._check_shard(shard)
        offset = self._snapshots_base() + shard * ShardSnapshot.region_size(
            self.lanes, self.state_capacity
        )
        return ShardSnapshot(self._shm.buf, offset, self.lanes, self.state_capacity)

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise IndexError(f"shard {shard} outside [0, {self.shards})")

    # -- audit -------------------------------------------------------------

    def audit(self) -> dict:
        """Census every ring; ``torn == 0`` is the crash-safety contract."""
        torn = committed = 0
        rings = 0
        for s in range(self.shards):
            audits = [self.journal(s).audit()]
            audits.extend(
                self.request_ring(s, lane).audit() for lane in range(self.lanes)
            )
            for a in audits:
                torn += a.torn
                committed += a.committed
                rings += 1
        return {"rings": rings, "torn": torn, "pending": committed}

    # -- lifetime ----------------------------------------------------------

    def close(self) -> None:
        self._words.release()  # an exported view would keep the mmap open
        self._shm.close()

    def unlink(self) -> None:
        if self._owns:
            self._shm.unlink()

    def __enter__(self) -> "ServiceSegment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        if self._owns:
            self.unlink()
