"""Change-impact analysis and incremental re-analysis.

Given a change batch between two program versions, impact analysis first
seeds the directly affected vertices from each atomic change (for an added
edge the destination gains a new incoming fact; for a deleted edge the
destination loses one; a changed vertex gets a new transfer function; a
deleted vertex is gone and seeds nothing), then closes the seed set under
successor reachability: once a vertex's fact may change, so may every
vertex downstream of it. The closure runs as barriered frontier expansion,
one superstep per wave, and labels each affected vertex with the change
categories -- additions, deletions, changes -- that reached it. Analysis
resumes on the updated graph itself, seeded on the affected set only; by
construction no edge of the updated graph leads from an affected vertex to
an unaffected one, so the run never reaches the unaffected region, which
keeps its previous facts untouched.

Both update strategies take that one labeled closure; they differ only in
which affected vertices they reuse. A vertex reached only by additions
still satisfies the old fixed point from below (an added edge can only feed
more into a merge), so the optimized mode warm-starts it from its stored
facts: it quiesces immediately unless something actually changed, and it
needs a seeded message only for its newly added incoming edges. Vertices
new in this version have nothing stored and are never reused. The naive
mode reuses nothing. Every affected vertex that is not reused resets, with
the stored outgoing facts of its unaffected or reused predecessors seeded
as pending boundary messages. How reset and warm vertices start, and which
of them compute at superstep 0, is the engine's start rule (see
``engine``).

Affected vertices that are unreachable from the updated graph's entries
stay inert: a whole-program worklist never processes them, so they are
reset, get no messages and end with the initial element.

The store holds one IN/OUT pair per vertex and must hold exactly the old
version's vertices; any other store is refused before it is read or
written. A warm-started vertex reads its pair, and so does a boundary
predecessor, which seeds only its OUT. Both strategies run the engine's
optimized algorithm, which takes no worker count, and finish with one
store commit that writes the affected vertices' pairs and purges deleted
vertices; the resulting store equals a from-scratch analysis of the
updated graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .cfg import (
    ChangeBatch,
    ChangeKind,
    SuperGraph,
    VertexId,
    added_edges,
    added_vertices,
    deleted_vertices,
)
from .engine import AnalysisResult, require_entries, seed_and_run
from .errors import StoreInconsistentError
from .lattice import Analysis, Fact
from .store import FactStore

_ADD, _DELETE, _CHANGE = 1, 2, 4

# Each change kind's category bit and the endpoint fields naming the
# vertices it seeds. A deleted source node's surviving successor ``v`` may
# be None; a deleted destination node no longer exists and seeds nothing.
_SEEDS: dict[ChangeKind, tuple[int, tuple[str, ...]]] = {
    ChangeKind.ADD_EDGE: (_ADD, ("v",)),
    ChangeKind.ADD_SOURCE_NODE: (_ADD, ("u", "v")),
    ChangeKind.ADD_DEST_NODE: (_ADD, ("v",)),
    ChangeKind.DELETE_EDGE: (_DELETE, ("v",)),
    ChangeKind.DELETE_SOURCE_NODE: (_DELETE, ("v",)),
    ChangeKind.DELETE_DEST_NODE: (_DELETE, ()),
    ChangeKind.CHANGE_SOURCE_NODE: (_CHANGE, ("u",)),
    ChangeKind.CHANGE_DEST_NODE: (_CHANGE, ("v",)),
}


@dataclass(frozen=True)
class ImpactResult:
    """Affected vertex sets plus the boundary of the affected region.

    ``boundary_preds`` maps each affected vertex to the predecessors whose
    stored outgoing facts must seed its pending messages. ``reuse`` is the
    set of vertices that warm-start from stored facts. In naive mode it and
    the three per-category sets are empty.
    """

    affected_all: frozenset[VertexId]
    affected_add: frozenset[VertexId]
    affected_delete: frozenset[VertexId]
    affected_change: frozenset[VertexId]
    boundary_preds: Mapping[VertexId, frozenset[VertexId]]
    reuse: frozenset[VertexId]

    @property
    def add_only(self) -> frozenset[VertexId]:
        return self.affected_add - self.affected_delete - self.affected_change


@dataclass
class IncrementalRun:
    impact: ImpactResult
    result: AnalysisResult
    purged: frozenset[VertexId]


def _seeds(batch: ChangeBatch) -> Iterator[tuple[VertexId, int]]:
    """Each directly affected vertex with the category bit of its change."""
    for c in batch:
        bit, fields = _SEEDS[c.kind]
        for field in fields:
            k = getattr(c, field)
            if k is not None:
                yield k, bit


def _labeled_closure(seeds: Mapping[VertexId, int], g: SuperGraph) -> dict[VertexId, int]:
    """Propagate seed labels to all successors, one frontier per superstep."""
    labels = dict(seeds)
    frontier = set(seeds)
    while frontier:
        next_frontier: set[VertexId] = set()
        for k in frontier:
            lab = labels[k]
            for d in g.succs(k):
                merged = labels.get(d, 0) | lab
                if merged != labels.get(d, 0):
                    labels[d] = merged
                    next_frontier.add(d)
        frontier = next_frontier
    return labels


def transitive_closure(seed: set[VertexId], g: SuperGraph) -> frozenset[VertexId]:
    """Smallest superset of ``seed`` closed under successor reachability."""
    return frozenset(_labeled_closure({k: 1 for k in seed if k in g.vertices}, g))


def _reachable_from_entries(g: SuperGraph) -> frozenset[VertexId]:
    return transitive_closure(set(g.entries), g)


def build_impact(batch: ChangeBatch, new_graph: SuperGraph, *, per_kind: bool) -> ImpactResult:
    """Impact analysis over the updated graph: one labeled closure.

    ``per_kind`` selects the optimized mode, which reports the affected set
    of each change category and warm-starts the vertices that only
    additions reached. The naive mode reuses nothing.
    """
    seeds: dict[VertexId, int] = {}
    for k, bit in _seeds(batch):
        if k in new_graph.vertices:
            seeds[k] = seeds.get(k, 0) | bit
    labels = _labeled_closure(seeds, new_graph)
    affected = frozenset(labels)
    add = delete = change = reuse = frozenset()
    if per_kind:
        add = frozenset(k for k, lab in labels.items() if lab & _ADD)
        delete = frozenset(k for k, lab in labels.items() if lab & _DELETE)
        change = frozenset(k for k, lab in labels.items() if lab & _CHANGE)
        # Vertices new in this version have no stored facts to warm-start from.
        reuse = frozenset(k for k, lab in labels.items() if lab == _ADD) - added_vertices(batch)

    new_edges = added_edges(batch)
    boundary: dict[VertexId, frozenset[VertexId]] = {}
    for k in affected:
        # A reused vertex's stored facts already absorb every old incoming
        # edge; only a newly added edge carries a fact the old fixed point lacks.
        only_new = k in reuse
        boundary[k] = frozenset(
            p for p in new_graph.preds(k)
            if (not only_new or (p, k) in new_edges) and (p not in affected or p in reuse))

    return ImpactResult(
        affected_all=affected,
        affected_add=add,
        affected_delete=delete,
        affected_change=change,
        boundary_preds=boundary,
        reuse=reuse,
    )


def run_incremental_naive(new_graph: SuperGraph, batch: ChangeBatch, store: FactStore,
                          analysis: Analysis) -> IncrementalRun:
    """Re-analyze the affected vertices from the initial element."""
    return _run_incremental(new_graph, batch, store, analysis, per_kind=False)


def run_incremental_optimized(new_graph: SuperGraph, batch: ChangeBatch, store: FactStore,
                              analysis: Analysis) -> IncrementalRun:
    """Re-analyze the affected vertices, warm-starting add-only vertices."""
    return _run_incremental(new_graph, batch, store, analysis, per_kind=True)


def _run_incremental(new_graph: SuperGraph, batch: ChangeBatch, store: FactStore,
                     analysis: Analysis, *, per_kind: bool) -> IncrementalRun:
    old = (set(new_graph.vertices) - added_vertices(batch)) | deleted_vertices(batch)
    stored = store.vertices()
    if stored != old:
        raise StoreInconsistentError(
            f"store {store.path} was not computed for the program these changes start "
            f"from ({len(old)} vertices): it holds facts for {len(stored)} vertices, "
            f"{len(stored - old)} of them not in that program")
    require_entries(new_graph)
    if not batch:
        empty = ImpactResult(frozenset(), frozenset(), frozenset(), frozenset(),
                             {}, frozenset())
        zero = AnalysisResult(in_facts={}, out_facts={}, supersteps=0,
                              messages_sent=0, fact_updates=0)
        return IncrementalRun(impact=empty, result=zero, purged=frozenset())

    impact = build_impact(batch, new_graph, per_kind=per_kind)
    result = _resume(new_graph, impact, store, analysis)
    purged = deleted_vertices(batch)
    store.batch_put(result.in_facts, result.out_facts, purge=purged)
    return IncrementalRun(impact=impact, result=result, purged=purged)


def _resume(new_graph: SuperGraph, impact: ImpactResult, store: FactStore,
            analysis: Analysis) -> AnalysisResult:
    """The engine run on the affected set, seeded from the store."""
    # A whole-program run only ever processes vertices reachable from the
    # entries; everything else keeps the initial element. Affected vertices
    # outside that region stay inert here (reset, without messages) so the
    # final store matches a from-scratch run exactly.
    reachable = _reachable_from_entries(new_graph)

    # The store holds every old vertex, and only added vertices are new:
    # reused vertices are old by construction, and so is every boundary
    # predecessor, since it is unaffected or reused.
    reused = list(impact.reuse & reachable)
    warm = dict(zip(reused, store.batch_get(reused)))
    wanted = [(k, p) for k, preds in impact.boundary_preds.items() if k in reachable
              for p in preds]
    fetched = store.batch_get([p for (_, p) in wanted])
    boundary: dict[VertexId, list[tuple[VertexId, Fact]]] = {}
    for (k, p), (_, out) in zip(wanted, fetched):
        boundary.setdefault(k, []).append((p, out))
    return seed_and_run(new_graph, analysis, impact.affected_all - warm.keys(), warm, boundary)
