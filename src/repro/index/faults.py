"""Fault injection for the file-backed page store.

Crash-safety claims are only as good as the tests that attack them, so
this module provides a deterministic fault harness used by the
crash-consistency suite (and available for ad-hoc torture runs):

* :class:`FaultPlan` — a seeded, declarative schedule of faults:
  simulated crashes after N mutating file operations (optionally with a
  *torn* final write that persists only a prefix), transient
  ``OSError`` s on scheduled or random reads, and in-flight bit flips
  on read payloads.
* :class:`FaultInjectingMmapPageStore` — a
  :class:`~repro.index.storage.MmapPageStore` whose file handle is
  wrapped by :class:`FaultyFile`, which executes the plan for writes
  (mutation counting, torn writes, crashes), while ``mmap``-served
  reads run the read-fault schedule at the mapped-read hook.
* :func:`corrupt_page` — at-rest corruption: flip one bit inside a
  committed page record on disk, returning the flipped offset.

The fault store is byte-for-byte format compatible with its clean
counterpart, so after a simulated crash a test reopens the same path
with a plain store, exactly like a restarted process.

A simulated crash raises :class:`SimulatedCrash`, which deliberately
does **not** derive from :class:`~repro.exceptions.WalrusError` or
``OSError``: the storage layer must never swallow it, just as it cannot
swallow a real power failure.  After the crash fires, every further
operation on the wrapped file raises ``SimulatedCrash`` too — the
process is "dead".
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Any

from repro.exceptions import InvalidParameterError, StorageError
from repro.index.storage import _RECORD, MmapPageStore, open_page_store
from repro.observability.events import get_events


def _emit_fault(kind: str, **detail: int | bool | str) -> None:
    """Report one fault hit to the structured event log (no-op while
    the log is disabled) — torture runs become auditable streams."""
    events = get_events()
    if events.enabled:
        events.emit("fault", {"kind": kind, **detail})


class SimulatedCrash(Exception):
    """The fault plan killed the process at a scheduled fault point."""


class FaultPlan:
    """Deterministic schedule of storage faults.

    Parameters
    ----------
    seed:
        Seed for the plan's private RNG (prefix length of torn writes,
        probabilistic faults, bit positions).
    crash_after_ops:
        Simulate a crash on the Nth *mutating* file operation (write or
        fsync, 1-based) counted across the store's lifetime.  ``None``
        disables crashes.
    torn_writes:
        When the crashing operation is a write, persist a random proper
        prefix of the data first (a torn write).  When ``False`` the
        crashing write persists nothing.
    read_error_schedule:
        1-based read-operation indexes that raise a transient
        ``OSError`` (the read succeeds if retried).
    read_error_rate:
        Probability in ``[0, 1)`` that any read raises a transient
        ``OSError``.  Keep well below 1: the store retries only a
        bounded number of times.
    bitflip_rate:
        Probability that a read's returned bytes come back with one
        random bit flipped (in-flight corruption; the on-disk bytes are
        untouched).
    read_delay_seconds, read_delay_rate:
        Slow-read injection: with probability ``read_delay_rate`` a
        read sleeps ``read_delay_seconds`` before returning.  This is
        the chaos-harness knob for torturing a live ``walrus serve``
        daemon — slow storage must surface as bounded tail latency and
        deadline aborts, never as crashes.

    The plan's mutable state (operation counters, the RNG) is guarded
    by an internal lock, so one plan can be shared by several stores
    under a multithreaded server; scheduling stays deterministic only
    for single-threaded use, which is what the crash-consistency sweep
    relies on.
    """

    def __init__(self, *, seed: int = 0, crash_after_ops: int | None = None,
                 torn_writes: bool = True,
                 read_error_schedule: tuple[int, ...] = (),
                 read_error_rate: float = 0.0,
                 bitflip_rate: float = 0.0,
                 read_delay_seconds: float = 0.0,
                 read_delay_rate: float = 0.0) -> None:
        if crash_after_ops is not None and crash_after_ops < 1:
            raise InvalidParameterError("crash_after_ops must be >= 1")
        for name, rate in (("read_error_rate", read_error_rate),
                           ("bitflip_rate", bitflip_rate),
                           ("read_delay_rate", read_delay_rate)):
            if not 0.0 <= rate < 1.0:
                raise InvalidParameterError(
                    f"{name} must be in [0, 1), got {rate}")
        if read_delay_seconds < 0:
            raise InvalidParameterError(
                f"read_delay_seconds must be >= 0, got {read_delay_seconds}")
        self.rng = random.Random(seed)  # guarded-by: lock
        self.crash_after_ops = crash_after_ops
        self.torn_writes = torn_writes
        self.read_error_schedule = frozenset(read_error_schedule)
        self.read_error_rate = read_error_rate
        self.bitflip_rate = bitflip_rate
        self.read_delay_seconds = read_delay_seconds
        self.read_delay_rate = read_delay_rate
        self.mutation_ops = 0  # guarded-by: lock
        self.read_ops = 0  # guarded-by: lock
        self.crashed = False  # guarded-by: lock
        self.lock = threading.Lock()


class FaultyFile:
    """A binary file wrapper that executes a :class:`FaultPlan`.

    Mutating operations (``write``, ``fsync``) advance the plan's
    mutation counter and may trigger the scheduled crash.  (Reads are
    served from the store's mapping, not this handle; see
    :meth:`FaultInjectingMmapPageStore._mapped_read`.)
    """

    def __init__(self, raw: Any, plan: FaultPlan) -> None:
        self._raw = raw
        self.plan = plan

    # -- fault machinery ------------------------------------------------
    def _check_alive(self) -> None:
        if self.plan.crashed:
            raise SimulatedCrash("process already crashed")

    def _count_mutation(self) -> bool:
        """Advance the mutation counter; True when this op must crash."""
        self._check_alive()
        with self.plan.lock:
            self.plan.mutation_ops += 1
            if self.plan.crash_after_ops is not None \
                    and self.plan.mutation_ops >= self.plan.crash_after_ops:
                self.plan.crashed = True
                return True
        return False

    # -- mutating operations --------------------------------------------
    def write(self, data: bytes) -> int:
        if self._count_mutation():
            torn = self.plan.torn_writes and len(data) > 1
            if torn:
                with self.plan.lock:
                    prefix = self.plan.rng.randrange(1, len(data))
                self._raw.write(data[:prefix])
                self._raw.flush()
            _emit_fault("crash", operation="write",
                        mutation_ops=self.plan.mutation_ops, torn_write=torn)
            raise SimulatedCrash(
                f"crash during write of {len(data)} bytes")
        count = self._raw.write(data)
        # Push the bytes to the OS immediately: a later simulated crash
        # must freeze the file exactly as a reopening reader would see
        # it, with no data hiding in (or later leaking from) this
        # process's userspace buffer.
        self._raw.flush()
        return count

    def fsync(self) -> None:
        if self._count_mutation():
            _emit_fault("crash", operation="fsync",
                        mutation_ops=self.plan.mutation_ops)
            raise SimulatedCrash("crash during fsync")
        self._raw.flush()
        os.fsync(self._raw.fileno())

    # -- passthrough ------------------------------------------------------
    def seek(self, offset: int, whence: int = os.SEEK_SET) -> int:
        self._check_alive()
        return self._raw.seek(offset, whence)

    def tell(self) -> int:
        return self._raw.tell()

    def flush(self) -> None:
        self._check_alive()
        self._raw.flush()

    def fileno(self) -> int:
        return self._raw.fileno()

    def close(self) -> None:
        self._raw.close()

    @property
    def closed(self) -> bool:
        return self._raw.closed


class FaultInjectingMmapPageStore(MmapPageStore):
    """A :class:`MmapPageStore` whose IO runs through a
    :class:`FaultPlan`.

    Writes (and the fsync commit barrier) go through
    :class:`FaultyFile`, so crash points land on the plan's mutation
    schedule.  Reads are served from the mapping, not the file
    handle, so the read-fault schedule is applied at the
    :meth:`_mapped_read` hook instead — transient errors, slow reads,
    and bit flips all hit the zero-copy path.

    Construction itself performs file operations (header reads or the
    initial superblock write), so an aggressive enough plan can crash
    the store before it is ever usable — exactly like a real process.
    """

    def __init__(self, path: str | os.PathLike, buffer_pages: int = 256,
                 *, plan: FaultPlan | None = None,
                 readonly: bool = False) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        super().__init__(path, buffer_pages, readonly=readonly)

    def _wrap_file(self, stream: Any) -> Any:
        return FaultyFile(stream, self.plan)

    def _mapped_read(self, offset: int, size: int) -> bytes | memoryview:
        """One mapped read under the plan's read-fault schedule.

        Counts the read, raises a transient ``OSError`` when the
        schedule or rate says so, injects the optional slow-read
        delay, fetches the bytes, and applies the bit-flip lottery —
        consuming the plan's RNG in a fixed order (the
        crash-consistency sweep depends on that determinism).  A bit
        flip copies the payload (the mapped bytes stay intact); a
        clean read returns the zero-copy view untouched.
        """
        plan = self.plan
        if plan.crashed:
            raise SimulatedCrash("process already crashed")
        with plan.lock:
            plan.read_ops += 1
            read_ops = plan.read_ops
            fail = read_ops in plan.read_error_schedule \
                or (plan.read_error_rate
                    and plan.rng.random() < plan.read_error_rate)
        if fail:
            _emit_fault("read_error", read_ops=read_ops)
            raise OSError("injected transient read error "
                          f"(read op {read_ops})")
        if plan.read_delay_rate:
            with plan.lock:
                delayed = plan.rng.random() < plan.read_delay_rate
            if delayed:
                _emit_fault("slow_read", read_ops=read_ops,
                            seconds=plan.read_delay_seconds)
                # Sleep outside the lock: a slow read stalls one
                # reader session, not every store sharing the plan.
                time.sleep(plan.read_delay_seconds)
        data = super()._mapped_read(offset, size)
        if len(data) and plan.bitflip_rate:
            with plan.lock:
                flip = plan.rng.random() < plan.bitflip_rate
                if flip:
                    index = plan.rng.randrange(len(data))
                    bit = 1 << plan.rng.randrange(8)
            if flip:
                flipped = bytearray(data)
                flipped[index] ^= bit
                data = bytes(flipped)
                _emit_fault("bit_flip", read_ops=read_ops)
        return data


def corrupt_page(path: str | os.PathLike, page_id: int, *,
                 seed: int = 0) -> int:
    """Flip one bit inside the committed record of ``page_id``.

    Opens the page file read-only to find the record, then flips a
    random bit of its payload in place.  Returns the absolute file
    offset of the corrupted byte.  Raises
    :class:`StorageError` when the page has no committed record.
    """
    store = open_page_store(path, readonly=True)
    try:
        location = store._offsets.get(page_id)
    finally:
        store.close()
    if location is None:
        raise StorageError(f"page {page_id} has no committed record")
    offset, size = location
    rng = random.Random(seed)
    target = offset + _RECORD.size + rng.randrange(size - _RECORD.size)
    with open(os.fspath(path), "r+b") as stream:
        stream.seek(target)
        byte = stream.read(1)[0]
        stream.seek(target)
        stream.write(bytes([byte ^ (1 << rng.randrange(8))]))
    return target
