"""The write-ahead log: CRC-framed JSON records, torn-tail tolerant.

Every control-plane mutation (docdb write, durable-topic broker
transition, object-store put/delete, credential issue) is appended here
*after* it is applied in memory, so a restart can replay the suffix of
history that the last snapshot does not cover.  The format is
deliberately boring — one line per record::

    RAIWAL1
    <crc32:08x> <payload-len> <payload-json>
    <crc32:08x> <payload-len> <payload-json>
    ...

A crash can only damage the final line (appends are sequential, and the
file is flushed per record), so replay verifies length and CRC per line
and treats the first damaged record as the torn tail: everything before
it is applied, everything from it on is discarded and counted.  That is
the standard ARIES-lite contract — a record is durable iff it reads back
whole.

``fault_hook`` is the chaos seam: :class:`~repro.faults.CrashPoint`
installs a callable that may replace a record's bytes with a torn prefix
and kill the "process" (a :class:`~repro.errors.SimulatedCrash`), which
is how the tests manufacture mid-write power loss deterministically.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Callable, List, Optional, Tuple

from repro.errors import DurabilityError, SimulatedCrash

HEADER = b"RAIWAL1\n"


def encode_record(record: dict) -> bytes:
    """One record's on-disk framing (CRC, length, compact JSON)."""
    payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
    return b"%08x %d " % (zlib.crc32(payload), len(payload)) + payload + b"\n"


def decode_record(line: bytes) -> dict:
    """Parse one framed line; raises :class:`DurabilityError` on damage."""
    try:
        crc_hex, length_text, payload = line.split(b" ", 2)
        expected_crc = int(crc_hex, 16)
        expected_len = int(length_text)
    except ValueError:
        raise DurabilityError("malformed WAL frame") from None
    if payload.endswith(b"\n"):
        payload = payload[:-1]
    if len(payload) != expected_len:
        raise DurabilityError(
            f"short WAL record: {len(payload)} of {expected_len} bytes")
    if zlib.crc32(payload) != expected_crc:
        raise DurabilityError("WAL record CRC mismatch")
    try:
        return json.loads(payload)
    except ValueError as exc:
        raise DurabilityError(f"WAL record is not JSON: {exc}") from None


class WriteAheadLog:
    """Append-only mutation journal for one durability directory."""

    def __init__(self, path: str):
        self.path = str(path)
        #: Records appended through this handle (since open or reset).
        self.records_appended = 0
        #: Chaos seam: ``fault_hook(record_bytes) -> Optional[bytes]``.
        #: Returning bytes means "the process died mid-write": the
        #: returned (torn) bytes hit the disk and SimulatedCrash is
        #: raised.  Returning None lets the append proceed.
        self.fault_hook: Optional[Callable[[bytes], Optional[bytes]]] = None
        self._fh = None
        self._open()

    def _open(self) -> None:
        fresh = not os.path.exists(self.path) \
            or os.path.getsize(self.path) == 0
        self._fh = open(self.path, "ab")
        if fresh:
            self._fh.write(HEADER)
            self._fh.flush()

    @property
    def closed(self) -> bool:
        return self._fh is None

    @property
    def size_bytes(self) -> int:
        if self._fh is not None:
            self._fh.flush()
        return os.path.getsize(self.path) if os.path.exists(self.path) else 0

    # -- writing -------------------------------------------------------------

    def append(self, record: dict) -> None:
        """Frame and append one record; flushed before returning.

        Flush-per-record means a crash loses at most the final record
        (the torn tail replay tolerates); fsync is deferred to the next
        checkpoint so the steady-state cost stays at one buffered write
        per mutation.
        """
        if self._fh is None:
            raise DurabilityError("write-ahead log is closed")
        line = encode_record(record)
        if self.fault_hook is not None:
            torn = self.fault_hook(line)
            if torn is not None:
                self._fh.write(torn)
                self._fh.flush()
                self.close()
                raise SimulatedCrash(
                    f"crash point fired mid-append ({len(torn)} of "
                    f"{len(line)} bytes reached disk)")
        self._fh.write(line)
        self._fh.flush()
        self.records_appended += 1

    def reset(self) -> None:
        """Truncate back to an empty log (after a snapshot subsumed it)."""
        if self._fh is not None:
            self._fh.close()
        with open(self.path, "wb") as fh:
            fh.write(HEADER)
            fh.flush()
            os.fsync(fh.fileno())
        self._fh = open(self.path, "ab")
        self.records_appended = 0

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reading -------------------------------------------------------------

    def replay(self) -> Tuple[List[dict], dict]:
        """Read every intact record; returns ``(records, stats)``.

        Stops at the first damaged line: in a crash-consistent log only
        the tail can be damaged, so everything after the first bad frame
        is unreachable history and is counted, not applied.
        """
        records: List[dict] = []
        stats = {"records": 0, "torn": 0, "discarded": 0, "bytes": 0}
        if not os.path.exists(self.path):
            return records, stats
        with open(self.path, "rb") as fh:
            lines = fh.read().split(b"\n")
        stats["bytes"] = self.size_bytes
        if not lines or lines[0] + b"\n" != HEADER:
            if lines and lines[0]:
                raise DurabilityError(
                    f"{self.path} is not a RAIWAL1 write-ahead log")
            return records, stats
        body = [line for line in lines[1:] if line]
        for i, line in enumerate(body):
            try:
                records.append(decode_record(line + b"\n"))
            except DurabilityError:
                stats["torn"] = 1
                stats["discarded"] = len(body) - i
                break
        stats["records"] = len(records)
        return records, stats
