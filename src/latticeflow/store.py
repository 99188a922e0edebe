"""Persistent keyed storage of converged facts between runs.

A store maps ``(vertex, IN|OUT)`` keys to fact payloads serialized by the
owning analysis; the store itself is payload-agnostic. Every store carries
the analysis fingerprint it was written with and refuses readers with a
different one. Facts are immutable (see ``lattice``), so a batch read
decodes each distinct payload once and shares the fact, and a batch write
encodes a fact object once for consecutive pairs that hold it.

Two backends share one class: in-memory (``path=None``) and file-backed.
The file layout is a single snapshot: a header (magic, format version,
fingerprint) followed by length-prefixed records sorted by key. Batch
writes are atomic -- the new snapshot is written to a temporary file and
renamed over the old one, so an interrupted write leaves the previous
snapshot intact. One writer per store handle; batch calls are not
re-entrant.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

from .cfg import VertexId
from .errors import (
    StoreDecodeError,
    StoreError,
    StoreIOError,
    WrongAnalysisError,
)
from .lattice import Analysis, Fact

_MAGIC = b"LFSTORE1"
_HEADER = struct.Struct("<I")      # fingerprint byte length
_RECORD = struct.Struct("<QBI")    # vertex id, slot code, payload byte length


class Slot(Enum):
    IN = 0
    OUT = 1


_SLOTS = (Slot.IN, Slot.OUT)  # indexed by slot code


@dataclass(frozen=True)
class StoreKey:
    vertex: VertexId
    slot: Slot

    def sort_key(self) -> tuple[int, int]:
        return (self.vertex, self.slot.value)


class FactStore:
    """Keyed fact storage bound to one analysis fingerprint."""

    def __init__(self, analysis: Analysis, path: str | Path | None = None,
                 _entries: dict[StoreKey, bytes] | None = None):
        self._analysis = analysis
        self._path = Path(path) if path is not None else None
        self._entries: dict[StoreKey, bytes] = dict(_entries or {})

    @classmethod
    def in_memory(cls, analysis: Analysis) -> "FactStore":
        return cls(analysis)

    @classmethod
    def create(cls, path: str | Path, analysis: Analysis) -> "FactStore":
        """Create (or overwrite) a file-backed store."""
        store = cls(analysis, path)
        store._commit()
        return store

    @classmethod
    def open(cls, path: str | Path, analysis: Analysis) -> "FactStore":
        """Open an existing file-backed store; fingerprints must match."""
        entries, fingerprint = _read_snapshot(Path(path))
        if fingerprint != analysis.fingerprint():
            raise WrongAnalysisError(
                f"store was written by {fingerprint!r}, "
                f"not {analysis.fingerprint()!r}")
        return cls(analysis, path, _entries=entries)

    @staticmethod
    def read_fingerprint(path: str | Path) -> str:
        """The fingerprint recorded in a store file; reads only the header."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                return _read_header(fh, path)
        except OSError as exc:
            raise StoreIOError(f"cannot read store {path}: {exc}") from exc

    @property
    def analysis(self) -> Analysis:
        return self._analysis

    def batch_get(self, keys: Sequence[StoreKey]) -> list[Fact | None]:
        """Decoded facts positionally aligned with ``keys``; absent -> None.

        Each distinct payload is decoded once per call: keys whose bytes are
        equal get one shared (immutable) fact object.
        """
        decoded: dict[bytes, Fact] = {}
        out: list[Fact | None] = []
        for key in keys:
            data = self._entries.get(key)
            if data is None:
                out.append(None)
                continue
            fact = decoded.get(data)
            if fact is None:
                try:
                    fact = self._analysis.decode(data)
                except Exception as exc:
                    raise StoreDecodeError(f"cannot decode fact at {key}: {exc}",
                                           key=key) from exc
                decoded[data] = fact
            out.append(fact)
        return out

    def get(self, key: StoreKey) -> Fact | None:
        return self.batch_get([key])[0]

    def batch_put(self, pairs: Iterable[tuple[StoreKey, Fact]],
                  purge: Iterable[VertexId] = ()) -> None:
        """Write pairs and drop both slots of each ``purge`` vertex in one
        all-or-nothing commit; later duplicates win, and a purged vertex
        keeps no slot even if ``pairs`` names it."""
        doomed = set(purge)
        if doomed:
            staged = {key: data for key, data in self._entries.items()
                      if key.vertex not in doomed}
        else:
            staged = dict(self._entries)
        # Kernels hand on facts they do not change, so consecutive pairs (a
        # vertex's IN and OUT, a chain's next IN) often hold one object.
        last = data = None
        for key, fact in pairs:
            if key.vertex in doomed:
                continue
            if data is None or fact is not last:
                last, data = fact, self._analysis.encode(fact)
            staged[key] = data
        self._commit(staged)
        self._entries = staged

    def purge(self, vertices: Iterable[VertexId]) -> None:
        """Drop both slots of each vertex; absent vertices are a no-op."""
        doomed = set(vertices)
        if doomed:
            self.batch_put((), doomed)

    def keys(self) -> list[StoreKey]:
        return sorted(self._entries, key=StoreKey.sort_key)

    def snapshot(self) -> dict[StoreKey, bytes]:
        """Raw byte contents, for equality checks between runs."""
        return dict(self._entries)

    def _commit(self, staged: dict[StoreKey, bytes] | None = None) -> None:
        if self._path is None:
            return
        entries = self._entries if staged is None else staged
        try:
            blob = _render_snapshot(entries, self._analysis.fingerprint())
            tmp = self._path.with_name(self._path.name + ".tmp")
            with open(tmp, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, self._path)
        except OSError as exc:
            raise StoreIOError(f"cannot write store {self._path}: {exc}") from exc


def write_result(store: FactStore, in_facts: dict[VertexId, Fact],
                 out_facts: dict[VertexId, Fact],
                 purge: Iterable[VertexId] = ()) -> None:
    """Store both slots for every vertex of an analysis result and drop the
    ``purge`` vertices, in one commit."""
    pairs = []
    for vid in sorted(in_facts):
        pairs.append((StoreKey(vid, Slot.IN), in_facts[vid]))
        pairs.append((StoreKey(vid, Slot.OUT), out_facts[vid]))
    store.batch_put(pairs, purge)


def _render_snapshot(entries: dict[StoreKey, bytes], fingerprint: str) -> bytes:
    chunks = [_MAGIC]
    fp = fingerprint.encode("utf-8")
    chunks.append(_HEADER.pack(len(fp)))
    chunks.append(fp)
    for key in sorted(entries, key=StoreKey.sort_key):
        data = entries[key]
        chunks.append(_RECORD.pack(key.vertex, key.slot.value, len(data)))
        chunks.append(data)
    return b"".join(chunks)


def _read_header(fh: BinaryIO, path: Path) -> str:
    """Parse the header at the start of ``fh`` and return its fingerprint.

    Leaves ``fh`` positioned at the first record.
    """
    head = fh.read(len(_MAGIC) + _HEADER.size)
    if head[:len(_MAGIC)] != _MAGIC:
        raise StoreError(f"{path} is not a fact store (bad magic)")
    if len(head) < len(_MAGIC) + _HEADER.size:
        raise StoreError(f"{path} is truncated")
    (fp_len,) = _HEADER.unpack_from(head, len(_MAGIC))
    # Check the length against the file before reading, so that a corrupt
    # length cannot make the read allocate gigabytes.
    if fh.tell() + fp_len > os.fstat(fh.fileno()).st_size:
        raise StoreError(f"{path} is truncated")
    try:
        return fh.read(fp_len).decode("utf-8")
    except UnicodeDecodeError:
        raise StoreError(f"{path} has a fingerprint that is not UTF-8") from None


def _read_snapshot(path: Path) -> tuple[dict[StoreKey, bytes], str]:
    try:
        with open(path, "rb") as fh:
            fingerprint = _read_header(fh, path)
            blob = fh.read()
    except OSError as exc:
        raise StoreIOError(f"cannot read store {path}: {exc}") from exc
    view = memoryview(blob)
    offset = 0
    entries: dict[StoreKey, bytes] = {}
    while offset < len(view):
        if offset + _RECORD.size > len(view):
            raise StoreError(f"{path} is truncated")
        vertex, slot_code, size = _RECORD.unpack_from(view, offset)
        offset += _RECORD.size
        if offset + size > len(view):
            raise StoreError(f"{path} is truncated")
        if slot_code >= len(_SLOTS):
            raise StoreError(f"{path} has an invalid slot code {slot_code}")
        entries[StoreKey(vertex, _SLOTS[slot_code])] = bytes(view[offset:offset + size])
        offset += size
    return entries, fingerprint
