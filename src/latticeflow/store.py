"""Persistent per-vertex storage of converged facts between runs.

A store maps each vertex to its pair of incoming (IN) and outgoing (OUT)
fact payloads, serialized by the owning analysis: a vertex is stored with
both facts or not at all. Every store carries the analysis fingerprint it
was written with and refuses readers with a different one. Facts are
immutable (see ``lattice``), so a batch read decodes each distinct payload
once and shares the fact, and a batch write encodes each distinct fact
object once, however many IN and OUT slots of the batch hold it.

A store is one file, a single snapshot: a header (magic, format version,
fingerprint), then two length-prefixed records per vertex, IN then OUT,
with vertices ascending. A file whose records are unpaired or out of
that order is refused. Every commit writes the records to its own
temporary file beside the store as it packs them, so it holds the stored
bytes once, and then renames the file over the old one, so an interrupted
write leaves the previous snapshot intact. One writer per store handle;
batch calls are not re-entrant.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from pathlib import Path
from typing import BinaryIO, Iterable, KeysView, Mapping

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
_SLOTS = ("IN", "OUT")             # indexed by slot code

Entries = dict[VertexId, tuple[bytes, bytes]]


class FactStore:
    """Per-vertex IN/OUT facts bound to one analysis fingerprint."""

    def __init__(self, analysis: Analysis, path: str | Path):
        self._analysis = analysis
        self.path = Path(path)
        self._entries: Entries = {}

    @classmethod
    def open(cls, path: str | Path, analysis: Analysis) -> "FactStore":
        """Open an existing store file; fingerprints must match."""
        store = cls(analysis, path)
        store._entries, fingerprint = _read_snapshot(store.path)
        if fingerprint != analysis.fingerprint():
            raise WrongAnalysisError(
                f"store was written by {fingerprint!r}, "
                f"not {analysis.fingerprint()!r}")
        return store

    @staticmethod
    def read_fingerprint(path: str | Path) -> str:
        """The fingerprint recorded in a store file; reads only the header."""
        path = Path(path)
        try:
            with open(path, "rb") as fh:
                return _read_header(fh, path)
        except OSError as exc:
            raise StoreIOError(f"cannot read store {path}: {exc}") from exc

    def batch_get(self, vertices: Iterable[VertexId]) -> list[tuple[Fact, Fact] | None]:
        """Decoded ``(IN, OUT)`` pairs aligned with ``vertices``, None for an
        unstored vertex; each distinct payload decodes once, to one object."""
        decoded: dict[bytes, Fact] = {}

        def decode(vertex: VertexId, slot: int, data: bytes) -> Fact:
            fact = decoded.get(data)
            if fact is None:
                try:
                    fact = decoded[data] = self._analysis.decode(data)
                except Exception as exc:
                    raise StoreDecodeError(f"cannot decode the {_SLOTS[slot]} fact "
                                           f"of vertex {vertex}: {exc}") from exc
            return fact
        return [None if (pair := self._entries.get(v)) is None else
                (decode(v, 0, pair[0]), decode(v, 1, pair[1])) for v in vertices]

    def batch_put(self, in_facts: Mapping[VertexId, Fact], out_facts: Mapping[VertexId, Fact],
                  purge: Iterable[VertexId] = ()) -> None:
        """Store the IN and OUT fact of every vertex of ``in_facts`` and drop
        the ``purge`` vertices, even ones ``in_facts`` names, in one commit."""
        doomed = set(purge)
        staged = {v: pair for v, pair in self._entries.items() if v not in doomed}
        encode = self._analysis.encode
        encoded: dict[int, bytes] = {}  # by id(): the mappings keep every fact alive

        def data(fact: Fact) -> bytes:
            payload = encoded.get(id(fact))
            if payload is None:
                payload = encoded[id(fact)] = encode(fact)
            return payload

        for vertex in sorted(in_facts.keys() - doomed):
            staged[vertex] = (data(in_facts[vertex]), data(out_facts[vertex]))
        self._commit(staged)
        self._entries = staged

    def vertices(self) -> KeysView[VertexId]:
        return self._entries.keys()

    def _commit(self, entries: Entries) -> None:
        """Write ``entries`` to a temporary file of its own, record by record,
        then rename it into place. mkstemp makes that file private to its
        owner, so it first gets the mode a plain ``open`` gives a new file
        under the current umask. A failed write removes the file, and its
        error names the store, not the file's random name."""
        fp = self._analysis.fingerprint().encode("utf-8")
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(prefix=self.path.name + ".", suffix=".tmp",
                                       dir=self.path.parent)
            with open(fd, "wb") as fh:
                fh.write(_MAGIC + _HEADER.pack(len(fp)) + fp)
                for vertex in sorted(entries):
                    in_data, out_data = entries[vertex]
                    fh.write(_RECORD.pack(vertex, 0, len(in_data)))
                    fh.write(in_data)
                    fh.write(_RECORD.pack(vertex, 1, len(out_data)))
                    fh.write(out_data)
            umask = os.umask(0o022)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, self.path)
        except OSError as exc:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise StoreIOError(f"cannot write store {self.path}: {exc.strerror or exc}") from exc


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


def _read_snapshot(path: Path) -> tuple[Entries, str]:
    try:
        with open(path, "rb") as fh:
            fingerprint = _read_header(fh, path)
            blob = fh.read()
    except OSError as exc:
        raise StoreIOError(f"cannot read store {path}: {exc}") from exc
    entries: Entries = {}
    offset = 0
    previous = -1
    while offset < len(blob):
        vertex, slot, in_data, offset = _read_record(blob, offset, path)
        if slot != 0:
            raise StoreError(f"{path} has an OUT record without an IN record at vertex {vertex}")
        if vertex <= previous:
            raise StoreError(f"{path} has records out of order at vertex {vertex}")
        out_vertex, slot, out_data, offset = _read_record(blob, offset, path)
        if (out_vertex, slot) != (vertex, 1):
            raise StoreError(f"{path} has an IN record without an OUT record at vertex {vertex}")
        entries[vertex] = (in_data, out_data)
        previous = vertex
    return entries, fingerprint


def _read_record(blob: bytes, offset: int, path: Path) -> tuple[VertexId, int, bytes, int]:
    """Vertex, slot code and payload of the record at ``offset``, and the
    offset after it."""
    if offset + _RECORD.size > len(blob):
        raise StoreError(f"{path} is truncated")
    vertex, slot, size = _RECORD.unpack_from(blob, offset)
    offset += _RECORD.size
    if offset + size > len(blob):
        raise StoreError(f"{path} is truncated")
    if slot >= len(_SLOTS):
        raise StoreError(f"{path} has an invalid slot code {slot}")
    return vertex, slot, blob[offset:offset + size], offset + size
