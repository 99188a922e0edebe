"""Supergraph model and the edit taxonomy between program versions.

A ``SuperGraph`` is an already-inlined interprocedural CFG: vertices carry
statement payloads, edges are directed, and the entry set is either the
explicitly flagged vertices or, when none are flagged, every vertex with
in-degree zero. Graphs are immutable after construction and hold only
their adjacency, so duplicate input edges collapse.

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

``diff_graphs`` and ``parse_changes_for_new`` both normalize through the
same classifier, so a rendered change file read back against the updated
graph round-trips to the identical batch. The classifier reads only the
updated graph and the edits, never the old graph.
Node deletion decomposes into one atomic change per surviving incident
edge so that downstream impact analysis sees each affected neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .errors import (
    ChangeConflictError,
    DuplicateVertexError,
    GraphError,
    GraphParseError,
    UnknownVertexError,
)
from .stmts import Stmts, parse_stmt_payload, render_stmts

VertexId = int

# Stores record vertex ids as unsigned 64-bit integers.
VERTEX_ID_LIMIT = 1 << 64


@dataclass(frozen=True)
class VertexAttribute:
    stmts: Stmts
    is_entry: bool = False


class SuperGraph:
    """An immutable directed graph of statement vertices.

    The graph is its adjacency: sorted predecessor and successor tuples
    that hold each edge once, so ``has_edge`` costs the out-degree of its
    source. Self-loops are permitted.
    """

    def __init__(self, vertices: Mapping[VertexId, VertexAttribute],
                 edges: Iterable[tuple[VertexId, VertexId]]):
        self.vertices: dict[VertexId, VertexAttribute] = dict(vertices)
        if self.vertices:
            _check_vertex_id(min(self.vertices))
            _check_vertex_id(max(self.vertices))
        preds: dict = {vid: [] for vid in self.vertices}
        succs: dict = {vid: [] for vid in self.vertices}
        for (u, v) in edges:
            if u not in succs:
                raise UnknownVertexError(f"edge ({u}, {v}) references unknown vertex {u}")
            if v not in preds:
                raise UnknownVertexError(f"edge ({u}, {v}) references unknown vertex {v}")
            succs[u].append(v)
            preds[v].append(u)
        for table in (preds, succs):
            for vid, adjacent in table.items():
                table[vid] = tuple(sorted(set(adjacent)) if len(adjacent) > 1 else adjacent)
        self._preds: dict[VertexId, tuple[VertexId, ...]] = preds
        self._succs: dict[VertexId, tuple[VertexId, ...]] = succs
        self.n_edges: int = sum(map(len, succs.values()))
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
        return v in self._succs.get(u, ())

    def __contains__(self, vid: object) -> bool:
        return vid in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperGraph):
            return NotImplemented
        return self.vertices == other.vertices and self._succs == other._succs

    def __repr__(self) -> str:
        return f"SuperGraph(|V|={len(self.vertices)}, |E|={self.n_edges})"


# ---------------------------------------------------------------------------
# Graph file format


def parse_graph(text: str) -> SuperGraph:
    """Parse the line-oriented CFG format.

    ``V <id> [entry] <payload>`` declares a vertex, ``E <src> <dst>`` an
    edge; ``#`` starts a comment. Edges may reference vertices declared
    later in the file.
    """
    vertices: dict[VertexId, VertexAttribute] = {}
    edges: dict[tuple[VertexId, VertexId], int] = {}  # each edge's first line
    for lineno, tokens in _tokenized_lines(text):
        kind = tokens[0]
        if kind == "V":
            vid, attr = _parse_vertex_decl(tokens, lineno)
            if vid in vertices:
                raise DuplicateVertexError(f"duplicate vertex id {vid}", lineno)
            vertices[vid] = attr
        elif kind == "E":
            if len(tokens) != 3:
                raise GraphParseError("E line needs exactly a source and a destination", lineno)
            u = _parse_vertex_id(tokens[1], lineno)
            v = _parse_vertex_id(tokens[2], lineno)
            edges.setdefault((u, v), lineno)
        else:
            raise GraphParseError(f"unknown line kind {kind!r}", lineno)
    for (u, v), lineno in edges.items():
        if u not in vertices:
            raise UnknownVertexError(f"edge references unknown vertex {u}", lineno)
        if v not in vertices:
            raise UnknownVertexError(f"edge references unknown vertex {v}", lineno)
    return SuperGraph(vertices, edges)


def _tokenized_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, tokens)`` of every line that holds more than a ``#`` comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens


def render_graph(g: SuperGraph) -> str:
    """Render a graph to the text format, deterministically ordered.

    Raises ``GraphError`` for a payload the format cannot carry.
    """
    ids = sorted(g.vertices)
    lines = [f"V {vid} {_render_payload(g.vertices[vid])}" for vid in ids]
    lines += [f"E {u} {v}" for u in ids for v in g.succs(u)]
    return "\n".join(lines) + ("\n" if lines else "")


def _render_payload(attr: VertexAttribute) -> str:
    try:
        stmts = render_stmts(attr.stmts)
    except ValueError as exc:  # e.g. two statements: the format carries one
        raise GraphError(str(exc)) from None
    return f"entry {stmts}" if attr.is_entry else stmts


def _parse_vertex_decl(tokens: list[str], lineno: int) -> tuple[VertexId, VertexAttribute]:
    """The vertex of a ``<kind> <id> [entry] <payload>`` line (V, AN, CN)."""
    if len(tokens) < 3:
        raise GraphParseError(f"{tokens[0]} line needs an id and a payload", lineno)
    vid = _parse_vertex_id(tokens[1], lineno)
    rest = tokens[2:]
    is_entry = rest[0] == "entry"
    try:
        stmts = parse_stmt_payload(rest[1:] if is_entry else rest)
    except ValueError as exc:
        raise GraphParseError(str(exc), lineno) from None
    return vid, VertexAttribute(stmts=stmts, is_entry=is_entry)


def _parse_vertex_id(token: str, lineno: int) -> VertexId:
    try:
        vid = int(token)
    except ValueError:
        raise GraphParseError(f"not a vertex id: {token!r}", lineno) from None
    return _check_vertex_id(vid, lineno)


def _check_vertex_id(vid: int, lineno: int | None = None) -> VertexId:
    if vid < 0:
        raise GraphParseError(f"vertex id must be non-negative, got {vid}", lineno)
    if vid >= VERTEX_ID_LIMIT:
        raise GraphParseError(f"vertex id must be below {VERTEX_ID_LIMIT}, got {vid}", lineno)
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
    """Unclassified edits between two versions, each agreeing with the
    updated one: deleted vertices and removed edges are absent from it,
    changed and added vertices and added edges are present."""

    deleted_nodes: set[VertexId]
    deleted_edges: set[tuple[VertexId, VertexId]]  # with those of deleted nodes
    changed_nodes: dict[VertexId, VertexAttribute]
    added_nodes: dict[VertexId, VertexAttribute]
    added_edges: set[tuple[VertexId, VertexId]]


def _by_endpoint(edges: Iterable[tuple[VertexId, VertexId]],
                 ) -> tuple[dict[VertexId, list[VertexId]], dict[VertexId, list[VertexId]]]:
    """Each source's destinations and each destination's sources."""
    out: dict[VertexId, list[VertexId]] = {}
    into: dict[VertexId, list[VertexId]] = {}
    for (u, v) in edges:
        out.setdefault(u, []).append(v)
        into.setdefault(v, []).append(u)
    return out, into


def _classify_edits(new: SuperGraph, raw: _RawEdits) -> ChangeBatch:
    """Normalize raw edits into the canonical atomic change sequence.

    Order is deletions, then payload changes, then additions; within the
    additions each new vertex is created before any edge that needs it.
    Only the updated version is read: a vertex survives when it is in
    ``new`` and was not added, a deleted vertex's surviving neighbours are
    the other ends of its removed edges, and a changed vertex had
    successors when a removed edge leaves it or a kept edge leads from it
    to a surviving vertex. Two conflicts remain: a removed edge between
    vertices that are not both deleted or surviving, and a changed vertex
    that was added. Time is linear in the edits, up to sorting, plus the
    out-degree of each changed vertex.
    """
    def surviving(x: VertexId) -> bool:
        return x in new and x not in raw.added_nodes

    removed_out, removed_in = _by_endpoint(raw.deleted_edges)
    added_out, added_in = _by_endpoint(raw.added_edges)
    batch: list[AtomicChange] = []

    for (u, v) in sorted(raw.deleted_edges):
        if u in raw.deleted_nodes or v in raw.deleted_nodes:
            continue  # removed with its node, below
        if not (surviving(u) and surviving(v)):
            raise ChangeConflictError(f"cannot delete missing edge ({u}, {v})")
        batch.append(AtomicChange(ChangeKind.DELETE_EDGE, u=u, v=v))
    for x in sorted(raw.deleted_nodes):
        succs = sorted(s for s in removed_out.get(x, ()) if surviving(s))
        preds = sorted(p for p in removed_in.get(x, ()) if surviving(p))
        batch.extend(AtomicChange(ChangeKind.DELETE_SOURCE_NODE, u=x, v=s) for s in succs)
        batch.extend(AtomicChange(ChangeKind.DELETE_DEST_NODE, u=p, v=x) for p in preds)
        if not succs and not preds:
            batch.append(AtomicChange(ChangeKind.DELETE_DEST_NODE, u=None, v=x))

    for x in sorted(raw.changed_nodes):
        if x in raw.added_nodes:
            raise ChangeConflictError(f"cannot change unknown vertex {x}")
        payload = raw.changed_nodes[x]
        if x in removed_out or any(surviving(s) and (x, s) not in raw.added_edges
                                   for s in new.succs(x)):
            batch.append(AtomicChange(ChangeKind.CHANGE_SOURCE_NODE, u=x, payload=payload))
        else:
            batch.append(AtomicChange(ChangeKind.CHANGE_DEST_NODE, v=x, payload=payload))

    consumed: set[tuple[VertexId, VertexId]] = set()
    created: set[VertexId] = set()

    def first_available(ws: Iterable[VertexId]) -> VertexId | None:
        return min((w for w in ws if surviving(w) or w in created), default=None)

    for x in sorted(raw.added_nodes):
        payload = raw.added_nodes[x]
        if (u := first_available(added_in.get(x, ()))) is not None:
            batch.append(AtomicChange(ChangeKind.ADD_DEST_NODE, u=u, v=x, payload=payload))
            consumed.add((u, x))
        elif (v := first_available(added_out.get(x, ()))) is not None:
            batch.append(AtomicChange(ChangeKind.ADD_SOURCE_NODE, u=x, v=v, payload=payload))
            consumed.add((x, v))
        else:
            batch.append(AtomicChange(ChangeKind.ADD_DEST_NODE, u=None, v=x, payload=payload))
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
    changed = {x: attr for x, attr in new.vertices.items()
               if (was := old.vertices.get(x)) is not None
               and (attr != was or (x in old.entries) != (x in new.entries))}
    raw = _RawEdits(
        deleted_nodes=old.vertices.keys() - new.vertices.keys(),
        deleted_edges=_edges_only_in(old, new),
        changed_nodes=changed,
        added_nodes={x: new.vertices[x] for x in new.vertices.keys() - old.vertices.keys()},
        added_edges=_edges_only_in(new, old),
    )
    return _classify_edits(new, raw)


def _edges_only_in(g: SuperGraph, other: SuperGraph) -> set[tuple[VertexId, VertexId]]:
    """The edges of ``g`` that ``other`` lacks, read source by source."""
    return {(u, v) for u, succs in g._succs.items()
            if succs != (others := other._succs.get(u, ()))
            for v in set(succs).difference(others)}


# ---------------------------------------------------------------------------
# Change file format


def parse_changes_for_new(text: str, new: SuperGraph) -> ChangeBatch:
    """Parse a change file given only the *updated* graph.

    Lines: ``AE <u> <v>``, ``AN <id> [entry] <payload>``, ``DE <u> <v>``,
    ``DN <id>``, ``CN <id> [entry] <payload>``. Edge additions incident to
    an ``AN`` vertex are folded into that vertex's creating change; ``DE``
    lines incident to a ``DN`` vertex document edges removed by the node
    deletion. Every line must agree with ``new``: a ``DN`` vertex and a
    ``DE`` edge are absent from it, an ``AE`` edge is present, and an
    ``AN`` or ``CN`` vertex is present with exactly that payload and entry
    flag. The classifier needs nothing else: it reads only ``new`` and the
    lines, never an old payload. What it cannot see is a ``DE`` edge between
    two surviving vertices that the old version lacked, or a line left out.
    """
    raw = _RawEdits(deleted_nodes=set(), deleted_edges=set(), changed_nodes={},
                    added_nodes={}, added_edges=set())
    for lineno, tokens in _tokenized_lines(text):
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
    return _classify_edits(new, raw)


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
