"""The write-ahead log: length-prefixed, checksummed, sequenced records.

Every committed :class:`~repro.views.database.UpdateBatch` is serialized
(through the :mod:`repro.io.serialization` value codec, see
:func:`encode_batch`) and appended here **before** the in-memory store
publishes it — the classic WAL contract: if the record is durable, the
batch is committed and recovery will replay it; if the record never made
it (or only a prefix did), the batch never happened.

File layout::

    b"RWAL" 0x01                                 # magic + format version
    [ <seq:u64> <len:u32> <payload:len bytes> <crc32:u32> ] *

Each record's CRC covers its header **and** payload, and sequences must
increase strictly, so a scan can always tell "valid record" from "torn
tail" or bit rot: :func:`recover_wal` reads records until the first
violation, physically truncates the file back to the last valid record
(counted in ``reliability_stats()['wal_torn_tails_truncated']``) and
returns what survived — a corrupt tail is data loss bounded to the
unacknowledged suffix, never a crash or a garbage batch.

The fsync policy is configurable per log: ``"always"`` makes every
append durable before it returns (the default — commit means *on disk*);
``"never"`` leaves flushing to the OS (the benchmark's low bar, still
torn-tail safe because the record format is self-validating).
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from zlib import crc32

from repro.errors import ReliabilityError
from repro.io.serialization import value_from_data, value_to_data

from repro.reliability.faults import (
    _count,
    active_fault_plan,
    register_fault_site,
)

MAGIC = b"RWAL\x01"

_HEADER = struct.Struct("<QI")
_CRC = struct.Struct("<I")

#: Fsync policies :class:`WriteAheadLog` accepts.
FSYNC_POLICIES = ("always", "never")

SITE_WAL_OPEN = register_fault_site("wal.open", "opening/creating the log file")
SITE_WAL_WRITE = register_fault_site("wal.write", "appending one record's bytes")
SITE_WAL_FSYNC = register_fault_site("wal.fsync", "fsync after an append")


def fsync_directory(directory) -> None:
    """fsync a directory so a just-created/renamed/removed entry survives
    a crash.

    POSIX only durably publishes a directory entry (a new WAL file, a
    checkpoint rename) once the *directory* itself is synced; fsyncing
    the file alone is not enough.  Platforms whose filesystems refuse
    ``open(dir)``/``fsync(dirfd)`` (Windows) are skipped silently — they
    provide the ordering through other means.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# -- batch payload codec ------------------------------------------------------------

#: Memoized per-value JSON fragments.  Values are immutable, so a value's
#: tagged encoding never changes; steady-state serving traffic re-logs the
#: same atoms and rows constantly, and hitting this cache turns an append
#: into string joins instead of a codec walk.  Bounded: once full, new
#: values are encoded but not remembered (correctness is unaffected).
#: Lock-free on purpose: entries are deterministic functions of their
#: immutable key, so a threaded race is at worst a duplicate encode whose
#: last write wins — and in practice only the single serialized writer
#: (the database's writer lock) ever encodes batches.
_FRAGMENT_CACHE_LIMIT = 65_536
_fragment_cache: dict = {}


def _value_fragment(value) -> str:
    fragment = _fragment_cache.get(value)
    if fragment is None:
        fragment = json.dumps(
            value_to_data(value), sort_keys=True, separators=(",", ":")
        )
        if len(_fragment_cache) < _FRAGMENT_CACHE_LIMIT:
            _fragment_cache[value] = fragment
    return fragment


def _fragments(values) -> str:
    # A cache hit is one dict probe inline; only misses pay the call.
    cached = _fragment_cache.get
    return ",".join([cached(value) or _value_fragment(value) for value in values])


def encode_batch(deltas: dict) -> bytes:
    """Serialize one batch's effective per-predicate deltas as the WAL
    record payload (JSON over the tagged value codec, compact and
    key-sorted so identical batches encode identically)."""
    parts = []
    for name in sorted(deltas):
        delta = deltas[name]
        parts.append(
            f'{json.dumps(name)}:{{"added":[{_fragments(delta.added)}],'
            f'"removed":[{_fragments(delta.removed)}]}}'
        )
    return ("{" + ",".join(parts) + "}").encode("utf-8")


def decode_batch(payload: bytes) -> dict[str, tuple[list, list]]:
    """Invert :func:`encode_batch` into the ``changes`` mapping
    :meth:`repro.views.database.Database.transact` takes."""
    data = json.loads(payload.decode("utf-8"))
    return {
        name: (
            [value_from_data(item) for item in sides["added"]],
            [value_from_data(item) for item in sides["removed"]],
        )
        for name, sides in data.items()
    }


# -- the log ------------------------------------------------------------------------

class WriteAheadLog:
    """An append-only record log with CRCs, sequences and fsync policy."""

    def __init__(self, path, fsync: str = "always", last_sequence: int = 0) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ReliabilityError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = Path(path)
        self.fsync = fsync
        self.last_sequence = last_sequence
        self._fire(SITE_WAL_OPEN)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._file = open(self.path, "ab")
        if fresh:
            # A brand-new log must itself be durable before any record
            # is acknowledged: fsync the header bytes, then the directory
            # so the *entry* for the file survives a crash too (the same
            # gap the checkpoint rename path had — see write_checkpoint).
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
            fsync_directory(self.path.parent)
        # Where the next record starts.  Appends go through this handle
        # only, so the offset is tracked here rather than asked of the
        # file on every append.
        self._end = self._file.tell()

    # -- faults ----------------------------------------------------------------
    def _fire(self, site: str, record: bytes | None = None) -> None:
        """Trigger *site*; ``"torn"`` specs at write sites persist a prefix
        of *record* before crashing."""
        plan = active_fault_plan()
        if plan is None:
            return
        spec = plan.trigger(site)
        if spec is None:
            return
        if spec.kind == "torn" and record is not None:
            keep = spec.keep_bytes if spec.keep_bytes is not None else len(record) // 2
            torn = record[:keep]
            self._file.write(torn)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._end += len(torn)
        plan.raise_for(site, spec)

    # -- appending -------------------------------------------------------------
    def append(self, payload: bytes, sequence: int | None = None) -> int:
        """Append one record; returns its sequence number.

        *sequence* defaults to the next in line; an explicit value lets
        the caller stamp records with its own strictly-increasing counter
        (the database's MVCC epoch — so a WAL record *is* its batch's
        epoch, and recovery's epoch is the last durable one).  The record
        is on disk (to the configured durability) when this returns; any
        exception means it must be treated as *not* written — a torn
        prefix on disk is recovery's to discard.
        """
        if sequence is None:
            sequence = self.last_sequence + 1
        elif sequence <= self.last_sequence:
            raise ReliabilityError(
                f"record sequence {sequence} is not past the last appended "
                f"sequence {self.last_sequence}"
            )
        header = _HEADER.pack(sequence, len(payload))
        record = b"".join((header, payload, _CRC.pack(crc32(payload, crc32(header)))))
        self._fire(SITE_WAL_WRITE, record)
        start = self._end
        try:
            self._file.write(record)
            self._file.flush()
            if self.fsync == "always":
                self._fire(SITE_WAL_FSYNC)
                os.fsync(self._file.fileno())
                _count("wal_fsyncs")
        except Exception:
            # An *ordinary* error (an fsync failure included) means the
            # caller aborts the batch — so the bytes must go too, or a
            # future recovery would replay a record the live database
            # never committed.  A SimulatedCrash (BaseException) skips
            # this on purpose: a dead process runs no cleanup, and
            # recovery's torn-tail truncation owns whatever hit the disk.
            try:
                self._file.truncate(start)
                self._file.flush()
            except OSError:
                pass
            raise
        self._end = start + len(record)
        self.last_sequence = sequence
        _count("wal_records_written")
        _count("wal_bytes_written", len(record))
        return sequence

    def sync(self) -> None:
        """Force everything appended so far to disk."""
        self._file.flush()
        os.fsync(self._file.fileno())
        _count("wal_fsyncs")

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- recovery-side reading ----------------------------------------------------------

def read_wal(path) -> tuple[list[tuple[int, bytes]], int]:
    """Scan a WAL file; returns ``(records, valid_length)``.

    *records* are the ``(sequence, payload)`` pairs up to (not including)
    the first violation — short header, short payload, CRC mismatch, or a
    non-increasing sequence; *valid_length* is the byte offset the file
    remains valid to.  A missing file is an empty log.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    data = path.read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        return [], 0
    records: list[tuple[int, bytes]] = []
    position = len(MAGIC)
    previous_sequence = 0
    while True:
        header_end = position + _HEADER.size
        if header_end > len(data):
            break
        sequence, length = _HEADER.unpack_from(data, position)
        record_end = header_end + length + _CRC.size
        if record_end > len(data):
            break
        payload = data[header_end:header_end + length]
        (recorded_crc,) = _CRC.unpack_from(data, header_end + length)
        actual_crc = crc32(data[position:header_end + length]) & 0xFFFFFFFF
        if recorded_crc != actual_crc or (records and sequence <= previous_sequence):
            break
        records.append((sequence, payload))
        previous_sequence = sequence
        position = record_end
    return records, position


def recover_wal(path) -> list[tuple[int, bytes]]:
    """Read a WAL and physically truncate any torn/corrupt tail.

    Returns the valid ``(sequence, payload)`` records; after this call
    the file ends exactly at the last valid record (or is a fresh empty
    log when it was missing/unreadable), so appending may resume.
    """
    path = Path(path)
    records, valid_length = read_wal(path)
    if not path.exists():
        return records
    size = path.stat().st_size
    if valid_length == 0 and size > 0 and path.read_bytes()[: len(MAGIC)] != MAGIC:
        # The header itself is gone: everything after it is untrustworthy.
        with open(path, "wb") as file:
            file.write(MAGIC)
            file.flush()
            os.fsync(file.fileno())
        _count("wal_torn_tails_truncated")
        return []
    if size > max(valid_length, len(MAGIC)):
        with open(path, "r+b") as file:
            file.truncate(max(valid_length, len(MAGIC)))
            file.flush()
            os.fsync(file.fileno())
        _count("wal_torn_tails_truncated")
    return records


__all__ = [
    "FSYNC_POLICIES",
    "MAGIC",
    "WriteAheadLog",
    "decode_batch",
    "encode_batch",
    "fsync_directory",
    "read_wal",
    "recover_wal",
]
