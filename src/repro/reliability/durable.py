"""Durable databases: WAL + checkpoints glued under ``views.Database``.

A durable database lives in a directory::

    <directory>/wal.log                    # the write-ahead log
    <directory>/checkpoint-<seq>.json      # sealed state snapshots

:func:`create_durable_database` builds a fresh one — checkpoint-0 of the
initial contents, then an empty WAL — and every committed batch is
appended to the log *before* it is published in memory.
:func:`recover_database` inverts that after a crash: truncate the WAL's
torn tail, load the newest checkpoint that passes its integrity checks,
replay the WAL records past the checkpoint's sequence through the normal
``transact`` path, and resume logging at the right sequence.  Because
the WAL is never truncated when a checkpoint is written, falling back to
an older checkpoint (when the newest is corrupt) still replays the full
suffix and converges on the same state.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import ReliabilityError

from repro.reliability.checkpoint import (
    list_checkpoints,
    load_newest_checkpoint,
    write_checkpoint,
)
from repro.reliability.faults import _count
from repro.reliability.wal import (
    WriteAheadLog,
    decode_batch,
    encode_batch,
    recover_wal,
)

WAL_FILENAME = "wal.log"


class DurabilityConfig:
    """Where and how a database persists: directory, fsync policy, and
    how many checkpoints to retain (≥ 2 keeps corrupt-newest recoverable)."""

    __slots__ = ("directory", "fsync", "keep_checkpoints")

    def __init__(self, directory, fsync: str = "always", keep_checkpoints: int = 2) -> None:
        if keep_checkpoints < 1:
            raise ReliabilityError("keep_checkpoints must be >= 1")
        self.directory = Path(directory)
        self.fsync = fsync
        self.keep_checkpoints = keep_checkpoints

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_FILENAME


class DurabilityController:
    """One database's handle on its WAL and checkpoint directory."""

    def __init__(self, config: DurabilityConfig, last_sequence: int = 0) -> None:
        self.config = config
        config.directory.mkdir(parents=True, exist_ok=True)
        self.wal = WriteAheadLog(
            config.wal_path, fsync=config.fsync, last_sequence=last_sequence
        )

    @property
    def last_sequence(self) -> int:
        return self.wal.last_sequence

    def log_batch(self, deltas: dict, epoch: int | None = None) -> int:
        """Make one batch durable before it is published; returns the WAL
        sequence.

        *epoch* is the MVCC epoch this batch will publish; when given it
        becomes the record's sequence, so WAL position and epoch are the
        same number and recovery's epoch is the last durable one.
        """
        sequence = epoch if epoch is not None and epoch > self.wal.last_sequence else None
        return self.wal.append(encode_batch(deltas), sequence=sequence)

    def checkpoint(self, database) -> Path:
        """Write a checkpoint of *database* at the current WAL position.

        The WAL is left alone — recovery skips records the checkpoint
        already covers, and older checkpoints stay usable as fallbacks.
        """
        return write_checkpoint(
            self.config.directory,
            database,
            self.wal.last_sequence,
            keep=self.config.keep_checkpoints,
        )

    def close(self) -> None:
        self.wal.close()


def create_durable_database(
    schema,
    assignments=None,
    *,
    directory,
    fsync: str = "always",
    keep_checkpoints: int = 2,
    log_updates: bool = True,
):
    """A fresh durable :class:`~repro.views.database.Database` rooted at
    *directory* (which must not already hold one)."""
    from repro.views.database import Database

    config = DurabilityConfig(directory, fsync=fsync, keep_checkpoints=keep_checkpoints)
    config.directory.mkdir(parents=True, exist_ok=True)
    if list_checkpoints(config.directory) or config.wal_path.exists():
        raise ReliabilityError(
            f"{config.directory} already holds a durable database; "
            "use recover_database() to reopen it"
        )
    database = Database(schema, assignments, log_updates=log_updates)
    write_checkpoint(config.directory, database, 0, keep=keep_checkpoints)
    database.attach_durability(DurabilityController(config))
    return database


def recover_database(
    directory,
    *,
    fsync: str = "always",
    keep_checkpoints: int = 2,
    log_updates: bool = True,
):
    """Rebuild the durable database rooted at *directory* after a crash.

    Truncates the WAL's torn tail, loads the newest valid checkpoint,
    replays every surviving WAL record past the checkpoint's sequence
    through the ordinary ``transact`` path, and reattaches a controller
    so the database resumes appending where the log left off.  Views are
    *not* part of the durable state — re-register them after recovery
    (definitions are code, not data).
    """
    from repro.views.database import Database

    config = DurabilityConfig(directory, fsync=fsync, keep_checkpoints=keep_checkpoints)
    records = recover_wal(config.wal_path)
    sequence, epoch, schema, assignments = load_newest_checkpoint(config.directory)
    database = Database(
        schema, assignments, log_updates=log_updates, initial_epoch=epoch
    )
    last_sequence = sequence
    for record_sequence, payload in records:
        last_sequence = max(last_sequence, record_sequence)
        if record_sequence <= sequence:
            continue
        database.transact(decode_batch(payload))
        _count("wal_records_replayed")
    database.attach_durability(
        DurabilityController(config, last_sequence=last_sequence)
    )
    _count("recoveries")
    return database


__all__ = [
    "WAL_FILENAME",
    "DurabilityConfig",
    "DurabilityController",
    "create_durable_database",
    "recover_database",
]
