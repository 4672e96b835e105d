"""Durable control plane: write-ahead log, snapshots, and recovery.

The paper's deployment survived a full semester because its state lived
in real MongoDB/RabbitMQ/S3; the in-memory reproduction would lose every
queue and submission record on restart.  This package closes that gap:

- :mod:`repro.durability.wal` — the CRC-framed, torn-tail-tolerant
  write-ahead log every control-plane mutation is appended to.
- :mod:`repro.durability.snapshot` — full-state capture/install (the
  WAL's compaction point).
- :mod:`repro.durability.manager` — the :class:`DurabilityManager` that
  the subsystems journal through, plus checkpointing and the recovery
  sequence (install snapshot → replay WAL → repair soft state).

Entry points live on :class:`~repro.core.system.RaiSystem`:
``attach_durability(path)``, ``checkpoint()``, ``crash_stop()``, and the
``RaiSystem.restore(path)`` classmethod.
"""

from repro.durability.manager import DurabilityManager
from repro.durability.snapshot import (
    SNAPSHOT_VERSION,
    capture,
    install,
    load_snapshot,
    write_snapshot,
)
from repro.durability.wal import (
    HEADER,
    WriteAheadLog,
    decode_record,
    encode_record,
)

__all__ = [
    "DurabilityManager",
    "HEADER",
    "SNAPSHOT_VERSION",
    "WriteAheadLog",
    "capture",
    "decode_record",
    "encode_record",
    "install",
    "load_snapshot",
    "write_snapshot",
]
