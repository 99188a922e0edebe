"""Change-impact analysis and incremental re-analysis.

Given a change batch between two program versions, impact analysis first
seeds the directly affected vertices from each atomic change (for an added
edge the destination gains a new incoming fact; for a deleted edge the
destination loses one; a changed vertex gets a new transfer function; a
deleted vertex is gone and seeds nothing), then closes the seed set under
successor reachability: once a vertex's fact may change, so may every
vertex downstream of it. The closure runs as barriered frontier expansion,
one superstep per wave. The affected vertices and the edges among them
form the sub-graph on which analysis resumes; by construction no edge of
the updated graph leads from an affected vertex to an unaffected one, so
the unaffected region keeps its previous facts untouched.

Two update strategies share that pipeline:

* naive -- one closure over all seeds. Every affected vertex is reset;
  for each affected vertex with an unaffected predecessor, the
  predecessor's stored outgoing fact is seeded as a pending message.
* optimized -- three closures (run as a single labeled pass) split the
  affected set by what reached it: additions, deletions, changes. A vertex
  reached only by additions still satisfies the old fixed point from below
  (an added edge can only feed more into a merge), so it warm-starts from
  its stored facts and quiesces immediately unless something actually
  changed; it needs a seeded message only for its newly added incoming
  edges. Every other affected vertex resets as in the naive mode, seeding
  messages from predecessors that are unaffected or warm-started. Vertices
  new in this version have nothing stored and always reset.

A reset vertex starts the way every vertex starts in a whole-program run:
incoming fact the initial element (the entry fact at an entry), outgoing
fact the engine's never-computed sentinel. Only the frontier computes at
superstep 0 -- reset entries and the targets of seeded boundary messages;
every other reset vertex computes when its predecessor's first fact
arrives, which the sentinel guarantees is pushed. So a reset region costs
what analysing it from scratch costs, not that plus a round of premature
computations on half-known facts. Warm-started vertices all compute at
superstep 0: a stored outgoing fact equals the transfer of the stored
incoming fact only where the old version reached the vertex, and one that
no entry reached there still holds the initial element.

Affected vertices that are unreachable from the updated graph's entries
stay inert: a whole-program worklist never processes them, so they are
reset, get no messages and end with the initial element.

Both strategies finish with one store commit that writes the affected
vertices' facts and purges deleted vertices; the resulting store equals a
from-scratch analysis of the updated graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .cfg import (
    _ADD_KINDS,
    _CHANGE_KINDS,
    _DELETE_KINDS,
    ChangeBatch,
    ChangeKind,
    SuperGraph,
    VertexId,
    added_edges,
    added_vertices,
    deleted_vertices,
    induced_subgraph,
)
from .engine import AnalysisResult, EngineConfig, seed_and_run
from .errors import StoreInconsistentError
from .lattice import Analysis, Fact
from .store import FactStore, Slot, StoreKey, write_result

_ADD, _DELETE, _CHANGE = 1, 2, 4


@dataclass(frozen=True)
class ImpactResult:
    """Affected vertex sets plus the induced sub-graph and its boundary.

    ``boundary_preds`` maps each affected vertex to the predecessors whose
    stored outgoing facts must seed its pending messages. ``reuse`` is the
    set of vertices that warm-start from stored facts (empty in naive
    mode).
    """

    affected_all: frozenset[VertexId]
    affected_add: frozenset[VertexId]
    affected_delete: frozenset[VertexId]
    affected_change: frozenset[VertexId]
    sub_graph: SuperGraph
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


_SEED_BUCKET = {kind: bucket
                for kinds, bucket in ((_ADD_KINDS, _ADD), (_DELETE_KINDS, _DELETE),
                                      (_CHANGE_KINDS, _CHANGE))
                for kind in kinds}


def _seed_targets(change) -> tuple[VertexId, ...]:
    kind = change.kind
    if kind is ChangeKind.ADD_EDGE:
        return (change.v,)
    if kind is ChangeKind.ADD_SOURCE_NODE:
        return (change.u, change.v)
    if kind is ChangeKind.ADD_DEST_NODE:
        return (change.v,)
    if kind is ChangeKind.DELETE_EDGE:
        return (change.v,)
    if kind is ChangeKind.DELETE_SOURCE_NODE:
        return (change.v,) if change.v is not None else ()
    if kind is ChangeKind.DELETE_DEST_NODE:
        return ()  # the deleted destination no longer exists
    if kind is ChangeKind.CHANGE_SOURCE_NODE:
        return (change.u,)
    if kind is ChangeKind.CHANGE_DEST_NODE:
        return (change.v,)
    raise ValueError(f"unknown change kind {kind}")


def seed_affected(batch: ChangeBatch) -> set[VertexId]:
    """Directly affected vertices, before transitive closure."""
    out: set[VertexId] = set()
    for c in batch:
        out.update(_seed_targets(c))
    return out


def seed_affected_by_kind(batch: ChangeBatch) -> tuple[set[VertexId], set[VertexId], set[VertexId]]:
    """Directly affected vertices split into addition/deletion/change seeds."""
    add: set[VertexId] = set()
    delete: set[VertexId] = set()
    change: set[VertexId] = set()
    buckets = {_ADD: add, _DELETE: delete, _CHANGE: change}
    for c in batch:
        buckets[_SEED_BUCKET[c.kind]].update(_seed_targets(c))
    return add, delete, change


def _labeled_closure(seeds: Mapping[VertexId, int], g: SuperGraph) -> dict[VertexId, int]:
    """Propagate seed labels to all successors, one frontier per superstep."""
    labels = dict(seeds)
    frontier = set(seeds)
    while frontier:
        next_frontier: set[VertexId] = set()
        for k in sorted(frontier):
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
    """Impact analysis over the updated graph.

    ``per_kind`` selects the optimized mode: separate closures per change
    category (computed in one labeled pass) and warm-start bookkeeping.
    """
    if per_kind:
        add, delete, change = seed_affected_by_kind(batch)
        seeds: dict[VertexId, int] = {}
        for bucket, bit in ((add, _ADD), (delete, _DELETE), (change, _CHANGE)):
            for k in bucket:
                if k in new_graph.vertices:
                    seeds[k] = seeds.get(k, 0) | bit
        labels = _labeled_closure(seeds, new_graph)
        affected_add = frozenset(k for k, lab in labels.items() if lab & _ADD)
        affected_delete = frozenset(k for k, lab in labels.items() if lab & _DELETE)
        affected_change = frozenset(k for k, lab in labels.items() if lab & _CHANGE)
        affected = frozenset(labels)
    else:
        affected = transitive_closure(seed_affected(batch), new_graph)
        affected_add = affected_delete = affected_change = frozenset()

    sub = induced_subgraph(new_graph, affected)

    if per_kind:
        add_only = affected_add - affected_delete - affected_change
        # Vertices new in this version have no stored facts to warm-start from.
        reuse = add_only - added_vertices(batch)
        reset = affected - reuse
        new_edges = added_edges(batch)
        boundary: dict[VertexId, frozenset[VertexId]] = {}
        for k in affected:
            if k in reuse:
                # Stored facts already absorb every old incoming edge; only a
                # newly added edge carries a fact the old fixed point lacks.
                sources = frozenset(
                    p for p in new_graph.preds(k)
                    if (p, k) in new_edges and p not in reset)
            else:
                sources = frozenset(
                    p for p in new_graph.preds(k)
                    if p not in affected or p in reuse)
            boundary[k] = sources
    else:
        reuse = frozenset()
        boundary = {k: frozenset(p for p in new_graph.preds(k) if p not in affected)
                    for k in affected}

    return ImpactResult(
        affected_all=affected,
        affected_add=affected_add,
        affected_delete=affected_delete,
        affected_change=affected_change,
        sub_graph=sub,
        boundary_preds=boundary,
        reuse=reuse,
    )


def run_incremental_naive(new_graph: SuperGraph, batch: ChangeBatch, store: FactStore,
                          analysis: Analysis, config: EngineConfig) -> IncrementalRun:
    """Re-analyze the affected sub-graph from the initial element."""
    return _run_incremental(new_graph, batch, store, analysis, config, per_kind=False)


def run_incremental_optimized(new_graph: SuperGraph, batch: ChangeBatch, store: FactStore,
                              analysis: Analysis, config: EngineConfig) -> IncrementalRun:
    """Re-analyze the affected sub-graph, warm-starting add-only vertices."""
    return _run_incremental(new_graph, batch, store, analysis, config, per_kind=True)


def _run_incremental(new_graph: SuperGraph, batch: ChangeBatch, store: FactStore,
                     analysis: Analysis, config: EngineConfig,
                     *, per_kind: bool) -> IncrementalRun:
    if not batch:
        empty = ImpactResult(frozenset(), frozenset(), frozenset(), frozenset(),
                             SuperGraph({}, ()), {}, frozenset())
        zero = AnalysisResult(in_facts={}, out_facts={}, supersteps=0,
                              messages_sent=0, fact_updates=0)
        return IncrementalRun(impact=empty, result=zero, purged=frozenset())

    impact = build_impact(batch, new_graph, per_kind=per_kind)
    affected = sorted(impact.affected_all)

    # A whole-program run only ever processes vertices reachable from the
    # entries; everything else keeps the initial element. Affected vertices
    # outside that region stay inert here (reset, unseeded, inactive) so
    # the final store matches a from-scratch run exactly.
    reachable = _reachable_from_entries(new_graph)
    live_reuse = impact.reuse & reachable

    initial_in: dict[VertexId, Fact] = {}
    initial_out: dict[VertexId, Fact | None] = {}
    if live_reuse:
        stored_keys = []
        for k in sorted(live_reuse):
            stored_keys.append(StoreKey(k, Slot.IN))
            stored_keys.append(StoreKey(k, Slot.OUT))
        stored = store.batch_get(stored_keys)
        for idx, k in enumerate(sorted(live_reuse)):
            in_fact, out_fact = stored[2 * idx], stored[2 * idx + 1]
            if in_fact is None or out_fact is None:
                raise StoreInconsistentError(
                    f"no stored facts for warm-started vertex {k}")
            initial_in[k] = in_fact
            initial_out[k] = out_fact
    for k in affected:
        if k in live_reuse:
            continue
        initial_in[k] = (analysis.entry_fact() if k in new_graph.entries
                         else analysis.initial())
        initial_out[k] = None  # never computed: its first result propagates

    messages: dict[VertexId, list[tuple[VertexId, Fact]]] = {}
    wanted: list[tuple[VertexId, VertexId]] = []
    for k in affected:
        if k not in reachable:
            continue
        for p in sorted(impact.boundary_preds[k]):
            wanted.append((k, p))
    if wanted:
        fetched = store.batch_get([StoreKey(p, Slot.OUT) for (_, p) in wanted])
        for (k, p), fact in zip(wanted, fetched):
            if fact is None:
                raise StoreInconsistentError(
                    f"no stored outgoing fact for boundary predecessor {p} of {k}")
            messages.setdefault(k, []).append((p, fact))

    # Reset vertices start like a whole-program run: only entries and the
    # targets of boundary messages compute at superstep 0, and every other
    # reset vertex waits for its first pushed fact. Warm-started vertices
    # all compute, because a stored OUT need not equal transfer(stored IN):
    # a vertex unreachable in the old version still holds the initial
    # element there.
    active = sorted(live_reuse | (impact.affected_all & new_graph.entries))
    result = seed_and_run(impact.sub_graph, analysis, config,
                          initial_in, initial_out, messages, active)

    purged = deleted_vertices(batch)
    write_result(store, result.in_facts, result.out_facts, purge=purged)
    return IncrementalRun(impact=impact, result=result, purged=purged)
