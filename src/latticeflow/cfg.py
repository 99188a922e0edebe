"""Supergraph model and the edit taxonomy between program versions.

A ``SuperGraph`` is an already-inlined interprocedural CFG: vertices carry
statement payloads, edges are directed, and the entry set is either the
explicitly flagged vertices or, when none are flagged, every vertex with
in-degree zero. Graphs are immutable after construction and safe to share
across workers.

Edits between two versions are normalized into eight atomic change kinds,
classified by whether an endpoint of the touched edge is being created,
destroyed, or rewritten:

    ADD_EDGE             new edge, both endpoints already present
    ADD_SOURCE_NODE      new vertex u created together with edge u -> v
    ADD_DEST_NODE        new vertex v, optionally with edge u -> v from an
                         existing u (u is None for an isolated addition)
    DELETE_EDGE          edge removed, both endpoints survive
    DELETE_SOURCE_NODE   vertex u removed; records its surviving successor v
    DELETE_DEST_NODE     vertex v removed; records its surviving predecessor
                         u (None when v had no surviving neighbors)
    CHANGE_SOURCE_NODE   vertex u's payload replaced (u has successors)
    CHANGE_DEST_NODE     vertex v's payload replaced (v has no successors)

``diff_graphs`` and ``parse_changes`` both normalize through the same
classifier, so a rendered change file round-trips to the identical batch.
Node deletion decomposes into one atomic change per surviving incident
edge so that downstream impact analysis sees each affected neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from .errors import (
    ChangeConflictError,
    DuplicateVertexError,
    GraphError,
    GraphParseError,
    UnknownVertexError,
)
from .stmts import Stmts, parse_stmt_payload, render_stmts

VertexId = int


@dataclass(frozen=True)
class VertexAttribute:
    stmts: Stmts
    is_entry: bool = False


class SuperGraph:
    """An immutable directed graph of statement vertices.

    Self-loops are permitted. Predecessor and successor lists are
    precomputed, sorted by vertex id for deterministic iteration.
    """

    def __init__(self, vertices: Mapping[VertexId, VertexAttribute],
                 edges: Iterable[tuple[VertexId, VertexId]]):
        self.vertices: dict[VertexId, VertexAttribute] = dict(vertices)
        for vid in self.vertices:
            if vid < 0:
                raise GraphParseError(f"vertex id must be non-negative, got {vid}")
        self.edges: frozenset[tuple[VertexId, VertexId]] = frozenset(edges)
        for (u, v) in self.edges:
            if u not in self.vertices:
                raise UnknownVertexError(f"edge ({u}, {v}) references unknown vertex {u}")
            if v not in self.vertices:
                raise UnknownVertexError(f"edge ({u}, {v}) references unknown vertex {v}")
        preds: dict[VertexId, list[VertexId]] = {vid: [] for vid in self.vertices}
        succs: dict[VertexId, list[VertexId]] = {vid: [] for vid in self.vertices}
        for (u, v) in self.edges:
            succs[u].append(v)
            preds[v].append(u)
        self._preds = {vid: tuple(sorted(ps)) for vid, ps in preds.items()}
        self._succs = {vid: tuple(sorted(ss)) for vid, ss in succs.items()}
        flagged = frozenset(vid for vid, attr in self.vertices.items() if attr.is_entry)
        if flagged:
            self.entries = flagged
        else:
            self.entries = frozenset(vid for vid in self.vertices if not self._preds[vid])

    def preds(self, vid: VertexId) -> tuple[VertexId, ...]:
        return self._preds[vid]

    def succs(self, vid: VertexId) -> tuple[VertexId, ...]:
        return self._succs[vid]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return (u, v) in self.edges

    def __contains__(self, vid: object) -> bool:
        return vid in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __repr__(self) -> str:
        return f"SuperGraph(|V|={len(self.vertices)}, |E|={len(self.edges)})"


def induced_subgraph(g: SuperGraph, keep: Iterable[VertexId]) -> SuperGraph:
    """The subgraph on ``keep`` with every edge whose endpoints both remain."""
    kept = set(keep)
    vertices = {vid: g.vertices[vid] for vid in kept}
    edges = [(u, v) for (u, v) in g.edges if u in kept and v in kept]
    return SuperGraph(vertices, edges)


# ---------------------------------------------------------------------------
# Graph file format


def parse_graph(text: str) -> SuperGraph:
    """Parse the line-oriented CFG format.

    ``V <id> [entry] <payload>`` declares a vertex, ``E <src> <dst>`` an
    edge; ``#`` starts a comment. Edges may reference vertices declared
    later in the file.
    """
    vertices: dict[VertexId, VertexAttribute] = {}
    edge_lines: list[tuple[int, VertexId, VertexId]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "V":
            if len(tokens) < 3:
                raise GraphParseError("V line needs an id and a payload", lineno)
            vid = _parse_vertex_id(tokens[1], lineno)
            if vid in vertices:
                raise DuplicateVertexError(f"duplicate vertex id {vid}", lineno)
            rest = tokens[2:]
            is_entry = False
            if rest and rest[0] == "entry":
                is_entry = True
                rest = rest[1:]
            try:
                stmts = parse_stmt_payload(rest)
            except ValueError as exc:
                raise GraphParseError(str(exc), lineno) from None
            vertices[vid] = VertexAttribute(stmts=stmts, is_entry=is_entry)
        elif kind == "E":
            if len(tokens) != 3:
                raise GraphParseError("E line needs exactly a source and a destination", lineno)
            u = _parse_vertex_id(tokens[1], lineno)
            v = _parse_vertex_id(tokens[2], lineno)
            edge_lines.append((lineno, u, v))
        else:
            raise GraphParseError(f"unknown line kind {kind!r}", lineno)
    for (lineno, u, v) in edge_lines:
        if u not in vertices:
            raise UnknownVertexError(f"edge references unknown vertex {u}", lineno)
        if v not in vertices:
            raise UnknownVertexError(f"edge references unknown vertex {v}", lineno)
    return SuperGraph(vertices, {(u, v) for (_, u, v) in edge_lines})


def render_graph(g: SuperGraph) -> str:
    """Render a graph to the text format, deterministically ordered.

    Raises ``GraphError`` for a payload the format cannot carry.
    """
    lines = []
    for vid in sorted(g.vertices):
        lines.append(f"V {vid} {_render_payload(g.vertices[vid])}")
    for (u, v) in sorted(g.edges):
        lines.append(f"E {u} {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def _render_payload(attr: VertexAttribute) -> str:
    try:
        stmts = render_stmts(attr.stmts)
    except ValueError as exc:  # e.g. two statements: the format carries one
        raise GraphError(str(exc)) from None
    return f"entry {stmts}" if attr.is_entry else stmts


def _parse_vertex_id(token: str, lineno: int) -> VertexId:
    try:
        vid = int(token)
    except ValueError:
        raise GraphParseError(f"not a vertex id: {token!r}", lineno) from None
    if vid < 0:
        raise GraphParseError(f"vertex id must be non-negative, got {vid}", lineno)
    return vid


# ---------------------------------------------------------------------------
# Atomic changes


class ChangeKind(Enum):
    ADD_EDGE = "add-edge"
    ADD_SOURCE_NODE = "add-source-node"
    ADD_DEST_NODE = "add-dest-node"
    DELETE_EDGE = "delete-edge"
    DELETE_SOURCE_NODE = "delete-source-node"
    DELETE_DEST_NODE = "delete-dest-node"
    CHANGE_SOURCE_NODE = "change-source-node"
    CHANGE_DEST_NODE = "change-dest-node"


_ADD_KINDS = {ChangeKind.ADD_EDGE, ChangeKind.ADD_SOURCE_NODE, ChangeKind.ADD_DEST_NODE}
_DELETE_KINDS = {ChangeKind.DELETE_EDGE, ChangeKind.DELETE_SOURCE_NODE,
                 ChangeKind.DELETE_DEST_NODE}
_CHANGE_KINDS = {ChangeKind.CHANGE_SOURCE_NODE, ChangeKind.CHANGE_DEST_NODE}


@dataclass(frozen=True)
class AtomicChange:
    """One minimal CFG edit; which fields are meaningful depends on kind."""

    kind: ChangeKind
    u: VertexId | None = None
    v: VertexId | None = None
    payload: VertexAttribute | None = None


ChangeBatch = tuple[AtomicChange, ...]


def deleted_vertices(batch: ChangeBatch) -> frozenset[VertexId]:
    out = set()
    for c in batch:
        if c.kind is ChangeKind.DELETE_SOURCE_NODE:
            out.add(c.u)
        elif c.kind is ChangeKind.DELETE_DEST_NODE:
            out.add(c.v)
    return frozenset(out)


def added_vertices(batch: ChangeBatch) -> frozenset[VertexId]:
    out = set()
    for c in batch:
        if c.kind is ChangeKind.ADD_SOURCE_NODE:
            out.add(c.u)
        elif c.kind is ChangeKind.ADD_DEST_NODE:
            out.add(c.v)
    return frozenset(out)


def added_edges(batch: ChangeBatch) -> frozenset[tuple[VertexId, VertexId]]:
    out = set()
    for c in batch:
        if c.kind is ChangeKind.ADD_EDGE or c.kind is ChangeKind.ADD_SOURCE_NODE:
            out.add((c.u, c.v))
        elif c.kind is ChangeKind.ADD_DEST_NODE and c.u is not None:
            out.add((c.u, c.v))
    return frozenset(out)


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
    sorted neighbours of deleted and changed vertices.
    """
    def surviving(x: VertexId) -> bool:
        return x in old and x not in raw.deleted_nodes

    batch: list[AtomicChange] = []

    for (u, v) in sorted(raw.deleted_edges):
        if not old.has_edge(u, v):
            raise ChangeConflictError(f"cannot delete missing edge ({u}, {v})")
        if not surviving(u) or not surviving(v):
            raise ChangeConflictError(
                f"edge ({u}, {v}) is already removed by a node deletion")
        batch.append(AtomicChange(ChangeKind.DELETE_EDGE, u=u, v=v))
    for x in sorted(raw.deleted_nodes):
        if x not in old:
            raise ChangeConflictError(f"cannot delete unknown vertex {x}")
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
        if x in raw.deleted_nodes:
            raise ChangeConflictError(f"vertex {x} is both deleted and changed")
        payload = raw.changed_nodes[x]
        kind = ChangeKind.CHANGE_SOURCE_NODE if old.succs(x) else ChangeKind.CHANGE_DEST_NODE
        field = {"u": x} if kind is ChangeKind.CHANGE_SOURCE_NODE else {"v": x}
        batch.append(AtomicChange(kind, payload=payload, **field))

    consumed: set[tuple[VertexId, VertexId]] = set()
    created: set[VertexId] = set()

    def available(w: VertexId) -> bool:
        return surviving(w) or w in created

    for x in sorted(raw.added_nodes):
        if x in old:
            raise ChangeConflictError(f"vertex id {x} already exists")
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
        for endpoint in (u, v):
            if not available(endpoint):
                raise ChangeConflictError(
                    f"added edge ({u}, {v}) references unknown vertex {endpoint}")
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
        deleted_edges={(u, v) for (u, v) in old.edges - new.edges
                       if u in surviving and v in surviving},
        changed_nodes=changed,
        added_nodes={x: new.vertices[x] for x in new_ids - old_ids},
        added_edges=set(new.edges - old.edges),
    )
    return _classify_edits(old, raw)


def apply_changes(g: SuperGraph, batch: ChangeBatch) -> SuperGraph:
    """Apply a change batch, validating each edit's applicability.

    Deletions are applied first (deleted vertices take all incident edges
    with them), then payload changes, then additions in batch order. A
    deleted vertex id cannot be re-added within the same batch.
    """
    vertices = dict(g.vertices)
    edges = set(g.edges)

    marks: set[VertexId] = set()
    edge_dels: list[tuple[VertexId, VertexId]] = []
    for c in batch:
        if c.kind is ChangeKind.DELETE_EDGE:
            edge_dels.append((c.u, c.v))
        elif c.kind is ChangeKind.DELETE_SOURCE_NODE:
            if c.u not in vertices:
                raise ChangeConflictError(f"cannot delete unknown vertex {c.u}")
            if c.v is not None and (c.u, c.v) not in edges:
                raise ChangeConflictError(f"deleted vertex {c.u} has no edge to {c.v}")
            marks.add(c.u)
        elif c.kind is ChangeKind.DELETE_DEST_NODE:
            if c.v not in vertices:
                raise ChangeConflictError(f"cannot delete unknown vertex {c.v}")
            if c.u is not None and (c.u, c.v) not in edges:
                raise ChangeConflictError(f"deleted vertex {c.v} has no edge from {c.u}")
            marks.add(c.v)
    for (u, v) in edge_dels:
        if u in marks or v in marks:
            raise ChangeConflictError(
                f"edge ({u}, {v}) is already removed by a node deletion")
        if (u, v) not in edges:
            raise ChangeConflictError(f"cannot delete missing edge ({u}, {v})")
        edges.remove((u, v))
    for x in marks:
        del vertices[x]
    edges = {(u, v) for (u, v) in edges if u not in marks and v not in marks}

    for c in batch:
        if c.kind not in _CHANGE_KINDS:
            continue
        x = c.u if c.kind is ChangeKind.CHANGE_SOURCE_NODE else c.v
        if x not in vertices:
            raise ChangeConflictError(f"cannot change unknown vertex {x}")
        if c.payload is None:
            raise ChangeConflictError(f"node change for {x} carries no payload")
        vertices[x] = c.payload

    for c in batch:
        if c.kind not in _ADD_KINDS:
            continue
        if c.kind is ChangeKind.ADD_EDGE:
            _require_vertex(vertices, c.u)
            _require_vertex(vertices, c.v)
            _add_edge(edges, c.u, c.v)
        elif c.kind is ChangeKind.ADD_SOURCE_NODE:
            _add_vertex(vertices, marks, c.u, c.payload)
            _require_vertex(vertices, c.v)
            _add_edge(edges, c.u, c.v)
        elif c.kind is ChangeKind.ADD_DEST_NODE:
            _add_vertex(vertices, marks, c.v, c.payload)
            if c.u is not None:
                _require_vertex(vertices, c.u)
                _add_edge(edges, c.u, c.v)

    return SuperGraph(vertices, edges)


def _require_vertex(vertices: dict, vid: VertexId | None) -> None:
    if vid not in vertices:
        raise ChangeConflictError(f"change references unknown vertex {vid}")


def _add_vertex(vertices: dict, marks: set, vid: VertexId | None,
                payload: VertexAttribute | None) -> None:
    if vid is None or payload is None:
        raise ChangeConflictError("node addition needs an id and a payload")
    if vid in marks:
        raise ChangeConflictError(f"vertex id {vid} was deleted in this batch")
    if vid in vertices:
        raise ChangeConflictError(f"vertex id {vid} already exists")
    vertices[vid] = payload


def _add_edge(edges: set, u: VertexId, v: VertexId) -> None:
    if (u, v) in edges:
        raise ChangeConflictError(f"edge ({u}, {v}) already exists")
    edges.add((u, v))


# ---------------------------------------------------------------------------
# Change file format


def _collect_change_lines(text: str) -> tuple[_RawEdits, set[tuple[VertexId, VertexId]]]:
    raw = _RawEdits(deleted_nodes=set(), deleted_edges=set(), changed_nodes={},
                    added_nodes={}, added_edges=set())
    for lineno, line_text in enumerate(text.splitlines(), start=1):
        line = line_text.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "AE":
            if len(tokens) != 3:
                raise GraphParseError("AE line needs a source and a destination", lineno)
            raw.added_edges.add((_parse_vertex_id(tokens[1], lineno),
                                 _parse_vertex_id(tokens[2], lineno)))
        elif kind == "DE":
            if len(tokens) != 3:
                raise GraphParseError("DE line needs a source and a destination", lineno)
            raw.deleted_edges.add((_parse_vertex_id(tokens[1], lineno),
                                   _parse_vertex_id(tokens[2], lineno)))
        elif kind == "DN":
            if len(tokens) != 2:
                raise GraphParseError("DN line needs exactly a vertex id", lineno)
            raw.deleted_nodes.add(_parse_vertex_id(tokens[1], lineno))
        elif kind in ("AN", "CN"):
            if len(tokens) < 3:
                raise GraphParseError(f"{kind} line needs an id and a payload", lineno)
            vid = _parse_vertex_id(tokens[1], lineno)
            rest = tokens[2:]
            is_entry = False
            if rest and rest[0] == "entry":
                is_entry = True
                rest = rest[1:]
            try:
                stmts = parse_stmt_payload(rest)
            except ValueError as exc:
                raise GraphParseError(str(exc), lineno) from None
            attr = VertexAttribute(stmts=stmts, is_entry=is_entry)
            if kind == "AN":
                if vid in raw.added_nodes:
                    raise GraphParseError(f"duplicate AN for vertex {vid}", lineno)
                raw.added_nodes[vid] = attr
            else:
                raw.changed_nodes[vid] = attr
        else:
            raise GraphParseError(f"unknown line kind {kind!r}", lineno)
    # DE lines incident to a DN vertex record that node's removed edges;
    # the classifier re-derives those from adjacency, so keep them separate.
    all_deleted = set(raw.deleted_edges)
    raw.deleted_edges = {(u, v) for (u, v) in raw.deleted_edges
                         if u not in raw.deleted_nodes and v not in raw.deleted_nodes}
    return raw, all_deleted


def parse_changes(text: str, old: SuperGraph) -> ChangeBatch:
    """Parse a change file against the graph it edits.

    Lines: ``AE <u> <v>``, ``AN <id> [entry] <payload>``, ``DE <u> <v>``,
    ``DN <id>``, ``CN <id> [entry] <payload>``. Edge additions incident to
    an ``AN`` vertex are folded into that vertex's creating change; ``DE``
    lines incident to a ``DN`` vertex document edges removed by the node
    deletion.
    """
    raw, _ = _collect_change_lines(text)
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

    Change files are self-contained enough to recover what the classifier
    needs of the old version (see ``_OldFromNew``); only adjacency and
    existence matter for classification, never an old payload.
    """
    raw, all_deleted_edges = _collect_change_lines(text)
    return _classify_edits(_OldFromNew(new, raw, all_deleted_edges), raw)


def render_changes(batch: ChangeBatch) -> str:
    """Render a batch to the change file format.

    Node deletions collapse to one ``DN`` per vertex plus a ``DE`` line for
    each recorded incident edge, which keeps the file self-contained for
    ``parse_changes_for_new``; the per-edge decomposition is regenerated on
    parse. Raises ``GraphError`` for a payload the format cannot carry.
    """
    lines: list[str] = []
    deleted_seen: set[VertexId] = set()

    def _note_deleted(x: VertexId) -> None:
        if x not in deleted_seen:
            deleted_seen.add(x)
            lines.append(f"DN {x}")

    for c in batch:
        if c.kind is ChangeKind.DELETE_EDGE:
            lines.append(f"DE {c.u} {c.v}")
        elif c.kind is ChangeKind.DELETE_SOURCE_NODE:
            _note_deleted(c.u)
            lines.append(f"DE {c.u} {c.v}")
        elif c.kind is ChangeKind.DELETE_DEST_NODE:
            _note_deleted(c.v)
            if c.u is not None:
                lines.append(f"DE {c.u} {c.v}")
        elif c.kind in _CHANGE_KINDS:
            x = c.u if c.kind is ChangeKind.CHANGE_SOURCE_NODE else c.v
            lines.append(f"CN {x} {_render_payload(c.payload)}")
        elif c.kind is ChangeKind.ADD_SOURCE_NODE:
            lines.append(f"AN {c.u} {_render_payload(c.payload)}")
            lines.append(f"AE {c.u} {c.v}")
        elif c.kind is ChangeKind.ADD_DEST_NODE:
            lines.append(f"AN {c.v} {_render_payload(c.payload)}")
            if c.u is not None:
                lines.append(f"AE {c.u} {c.v}")
        elif c.kind is ChangeKind.ADD_EDGE:
            lines.append(f"AE {c.u} {c.v}")
    return "\n".join(lines) + ("\n" if lines else "")
