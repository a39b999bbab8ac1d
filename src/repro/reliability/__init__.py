"""The durability and fault-tolerance layer of the serving core.

Four pieces, designed to be tested together:

* :mod:`repro.reliability.wal` — a write-ahead log of committed update
  batches (length-prefixed, CRC-checksummed, strictly sequenced records)
  with torn-tail detection and truncation on recovery;
* :mod:`repro.reliability.checkpoint` — sealed, format-versioned state
  snapshots written atomically; recovery replays the WAL suffix onto the
  newest checkpoint that passes its integrity checks;
* :mod:`repro.reliability.staging` — the undo journal that makes batch
  application to views commit-or-rollback without snapshotting their
  incremental state up front;
* :mod:`repro.reliability.faults` — deterministic, seeded fault
  injection (errors, simulated crashes, torn writes) at named sites
  throughout the stack, plus the ``reliability_stats()`` counter family.
"""

from repro.reliability.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    checkpoint_path,
    list_checkpoints,
    load_checkpoint,
    load_newest_checkpoint,
    write_checkpoint,
)
from repro.reliability.durable import (
    WAL_FILENAME,
    DurabilityConfig,
    DurabilityController,
    create_durable_database,
    recover_database,
)
from repro.reliability.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    SimulatedCrash,
    fault_plan,
    fault_point,
    fault_sites,
    register_fault_site,
    reliability_stats,
    set_fault_plan,
    wal_enabled,
)
from repro.reliability.staging import UndoJournal
from repro.reliability.wal import (
    FSYNC_POLICIES,
    WriteAheadLog,
    decode_batch,
    encode_batch,
    read_wal,
    recover_wal,
)

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "FAULT_KINDS",
    "FSYNC_POLICIES",
    "WAL_FILENAME",
    "DurabilityConfig",
    "DurabilityController",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "SimulatedCrash",
    "UndoJournal",
    "WriteAheadLog",
    "checkpoint_path",
    "create_durable_database",
    "decode_batch",
    "encode_batch",
    "fault_plan",
    "fault_point",
    "fault_sites",
    "list_checkpoints",
    "load_checkpoint",
    "load_newest_checkpoint",
    "read_wal",
    "recover_database",
    "recover_wal",
    "register_fault_site",
    "reliability_stats",
    "set_fault_plan",
    "wal_enabled",
    "write_checkpoint",
]
