"""The change classifier as it was when it still read the old program.

``diff_graphs`` and ``parse_changes_for_new`` here are the earlier
implementations, kept verbatim but for one thing: ``diff_graphs`` takes
plain set differences of ``support.edge_set``, built from predecessor
tuples, so it checks the package's per-source diff of successor tuples.
``_classify_edits`` queries the old version itself, as a real
``SuperGraph`` in ``diff_graphs`` or as ``_OldFromNew``, a view of it
rebuilt from the updated graph and the change lines. The package's
classifier reads only the updated graph; ``tests/test_cfg.py`` checks that
both give the same batch or the same error. Quadratic in the added vertices
and edges, so keep its inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass

from latticeflow.cfg import (
    AtomicChange,
    ChangeBatch,
    ChangeKind,
    SuperGraph,
    VertexAttribute,
    VertexId,
    _parse_vertex_decl,
    _parse_vertex_id,
)
from latticeflow.errors import ChangeConflictError, GraphParseError
from support import edge_set


@dataclass
class _RawEdits:
    """Unclassified edits between two versions."""

    deleted_nodes: set[VertexId]
    deleted_edges: set[tuple[VertexId, VertexId]]
    changed_nodes: dict[VertexId, VertexAttribute]
    added_nodes: dict[VertexId, VertexAttribute]
    added_edges: set[tuple[VertexId, VertexId]]


def _classify_edits(old: SuperGraph | _OldFromNew, raw: _RawEdits) -> ChangeBatch:
    """Normalize raw edits into the canonical atomic change sequence.

    Order is deletions, then payload changes, then additions; within the
    additions each new vertex is created before any edge that needs it.
    Of the old version it reads only vertex and edge membership and the
    sorted neighbours of deleted and changed vertices. Both callers hand it
    edits that agree with the updated version, so only two conflicts
    remain: a deleted edge or a changed vertex that the old version lacks.
    """
    def surviving(x: VertexId) -> bool:
        return x in old and x not in raw.deleted_nodes

    batch: list[AtomicChange] = []

    for (u, v) in sorted(raw.deleted_edges):
        if not old.has_edge(u, v):
            raise ChangeConflictError(f"cannot delete missing edge ({u}, {v})")
        batch.append(AtomicChange(ChangeKind.DELETE_EDGE, u=u, v=v))
    for x in sorted(raw.deleted_nodes):
        emitted = False
        for s in old.succs(x):
            if surviving(s):
                batch.append(AtomicChange(ChangeKind.DELETE_SOURCE_NODE, u=x, v=s))
                emitted = True
        for p in old.preds(x):
            if surviving(p):
                batch.append(AtomicChange(ChangeKind.DELETE_DEST_NODE, u=p, v=x))
                emitted = True
        if not emitted:
            batch.append(AtomicChange(ChangeKind.DELETE_DEST_NODE, u=None, v=x))

    for x in sorted(raw.changed_nodes):
        if x not in old:
            raise ChangeConflictError(f"cannot change unknown vertex {x}")
        payload = raw.changed_nodes[x]
        kind = ChangeKind.CHANGE_SOURCE_NODE if old.succs(x) else ChangeKind.CHANGE_DEST_NODE
        field = {"u": x} if kind is ChangeKind.CHANGE_SOURCE_NODE else {"v": x}
        batch.append(AtomicChange(kind, payload=payload, **field))

    consumed: set[tuple[VertexId, VertexId]] = set()
    created: set[VertexId] = set()

    def available(w: VertexId) -> bool:
        return surviving(w) or w in created

    for x in sorted(raw.added_nodes):
        payload = raw.added_nodes[x]
        in_avail = sorted(w for (w, y) in raw.added_edges if y == x and available(w))
        out_avail = sorted(w for (y, w) in raw.added_edges if y == x and available(w))
        if in_avail:
            batch.append(AtomicChange(ChangeKind.ADD_DEST_NODE, u=in_avail[0], v=x,
                                      payload=payload))
            consumed.add((in_avail[0], x))
        elif out_avail:
            batch.append(AtomicChange(ChangeKind.ADD_SOURCE_NODE, u=x, v=out_avail[0],
                                      payload=payload))
            consumed.add((x, out_avail[0]))
        else:
            batch.append(AtomicChange(ChangeKind.ADD_DEST_NODE, u=None, v=x,
                                      payload=payload))
        created.add(x)
    for (u, v) in sorted(raw.added_edges - consumed):
        batch.append(AtomicChange(ChangeKind.ADD_EDGE, u=u, v=v))

    return tuple(batch)


def diff_graphs(old: SuperGraph, new: SuperGraph) -> ChangeBatch:
    """The change batch taking ``old`` to ``new``.

    Vertex ids are assumed stable across versions: the same id names the
    same program point, and a differing attribute under the same id is a
    node change. A surviving vertex whose entry membership flips (an added
    edge can demote a derived entry, a deletion can promote one) is also
    classified as a node change: the implicit entry contribution to its
    incoming fact changed, so downstream analysis must treat it like a
    rewritten vertex.
    """
    old_ids = set(old.vertices)
    new_ids = set(new.vertices)
    surviving = old_ids & new_ids
    changed = {x: new.vertices[x] for x in sorted(surviving)
               if new.vertices[x] != old.vertices[x]}
    for x in sorted(surviving):
        if x not in changed and (x in old.entries) != (x in new.entries):
            changed[x] = new.vertices[x]
    raw = _RawEdits(
        deleted_nodes=old_ids - new_ids,
        deleted_edges={(u, v) for (u, v) in edge_set(old) - edge_set(new)
                       if u in surviving and v in surviving},
        changed_nodes=changed,
        added_nodes={x: new.vertices[x] for x in new_ids - old_ids},
        added_edges=edge_set(new) - edge_set(old),
    )
    return _classify_edits(old, raw)


class _OldFromNew:
    """The old version's structure, answered from the updated graph and the
    change lines without building the old graph.

    Old vertices are the new ones minus additions plus deletions; old edges
    are the new ones minus added edges plus every recorded ``DE`` edge,
    each with both endpoints in the old version. Only the queries
    ``_classify_edits`` makes are answered, each in time proportional to
    the vertex's degree.
    """

    def __init__(self, new: SuperGraph, raw: _RawEdits,
                 all_deleted_edges: set[tuple[VertexId, VertexId]]):
        self._new = new
        self._raw = raw
        self._deleted_out: dict[VertexId, list[VertexId]] = {}
        self._deleted_in: dict[VertexId, list[VertexId]] = {}
        for (u, v) in all_deleted_edges:
            self._deleted_out.setdefault(u, []).append(v)
            self._deleted_in.setdefault(v, []).append(u)

    def __contains__(self, vid: object) -> bool:
        return ((vid in self._new and vid not in self._raw.added_nodes)
                or vid in self._raw.deleted_nodes)

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        if u not in self or v not in self:
            return False
        return (v in self._deleted_out.get(u, ())
                or (self._new.has_edge(u, v) and (u, v) not in self._raw.added_edges))

    def succs(self, vid: VertexId) -> tuple[VertexId, ...]:
        kept = self._new.succs(vid) if vid in self._new else ()
        recorded = self._deleted_out.get(vid, ())
        return tuple(sorted({v for v in (*kept, *recorded) if self.has_edge(vid, v)}))

    def preds(self, vid: VertexId) -> tuple[VertexId, ...]:
        kept = self._new.preds(vid) if vid in self._new else ()
        recorded = self._deleted_in.get(vid, ())
        return tuple(sorted({u for u in (*kept, *recorded) if self.has_edge(u, vid)}))


def parse_changes_for_new(text: str, new: SuperGraph) -> ChangeBatch:
    """Parse a change file given only the *updated* graph.

    Lines: ``AE <u> <v>``, ``AN <id> [entry] <payload>``, ``DE <u> <v>``,
    ``DN <id>``, ``CN <id> [entry] <payload>``. Edge additions incident to
    an ``AN`` vertex are folded into that vertex's creating change; ``DE``
    lines incident to a ``DN`` vertex document edges removed by the node
    deletion. Every line must agree with ``new``: a ``DN`` vertex and a
    ``DE`` edge are absent from it, an ``AE`` edge is present, and an
    ``AN`` or ``CN`` vertex is present with exactly that payload and entry
    flag. The file is then self-contained enough to recover what the
    classifier needs of the old version (see ``_OldFromNew``); only
    adjacency and existence matter for classification, never an old payload.
    """
    raw = _RawEdits(deleted_nodes=set(), deleted_edges=set(), changed_nodes={},
                    added_nodes={}, added_edges=set())
    for lineno, line_text in enumerate(text.splitlines(), start=1):
        line = line_text.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind in ("AE", "DE"):
            if len(tokens) != 3:
                raise GraphParseError(f"{kind} line needs a source and a destination", lineno)
            u, v = _parse_vertex_id(tokens[1], lineno), _parse_vertex_id(tokens[2], lineno)
            if new.has_edge(u, v) != (kind == "AE"):
                where = "not in" if kind == "AE" else "still in"
                raise GraphParseError(f"edge ({u}, {v}) is {where} the updated CFG", lineno)
            (raw.added_edges if kind == "AE" else raw.deleted_edges).add((u, v))
        elif kind == "DN":
            if len(tokens) != 2:
                raise GraphParseError("DN line needs exactly a vertex id", lineno)
            vid = _parse_vertex_id(tokens[1], lineno)
            if vid in new:
                raise GraphParseError(f"vertex {vid} is still in the updated CFG", lineno)
            raw.deleted_nodes.add(vid)
        elif kind in ("AN", "CN"):
            vid, attr = _parse_vertex_decl(tokens, lineno)
            nodes = raw.added_nodes if kind == "AN" else raw.changed_nodes
            if vid in nodes:
                raise GraphParseError(f"duplicate {kind} for vertex {vid}", lineno)
            if vid not in new:
                raise GraphParseError(f"vertex {vid} is not in the updated CFG", lineno)
            if new.vertices[vid] != attr:
                raise GraphParseError(
                    f"vertex {vid} has another payload in the updated CFG", lineno)
            nodes[vid] = attr
        else:
            raise GraphParseError(f"unknown line kind {kind!r}", lineno)
    # DE lines incident to a DN vertex record that node's removed edges;
    # the classifier re-derives those from adjacency, so keep them separate.
    all_deleted = set(raw.deleted_edges)
    raw.deleted_edges = {(u, v) for (u, v) in raw.deleted_edges
                         if u not in raw.deleted_nodes and v not in raw.deleted_nodes}
    return _classify_edits(_OldFromNew(new, raw, all_deleted), raw)
