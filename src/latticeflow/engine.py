"""Synchronous execution of the two worklist algorithms.

All vertex state -- incoming and outgoing facts, the pending inbox and the
active set -- lives in one table. Execution proceeds in globally barriered
supersteps (the Pregel model): everything a vertex produces in superstep t
becomes visible to other vertices only at superstep t+1. The result
therefore depends only on the barrier, never on how vertices would be
split over workers, and the engine takes no worker count.

Two algorithms share this skeleton and reach the same fixed point:

* classic  -- an active vertex pulls the complete outgoing-fact set of all
  its predecessors as of the previous barrier (its own writes are applied
  at the barrier), re-merges it from the initial element, transfers, and
  on a changed result activates its successors.
* optimized -- an active vertex folds only the messages received at the
  barrier into its retained incoming fact; on a changed result it pushes
  its new outgoing fact as a message to each successor. Commutativity and
  associativity of the client merge make the accumulated incoming fact
  equal to the classic re-merge.

  A vertex that is not an entry and has exactly one predecessor in the
  graph folds its messages into ``initial()`` instead. Its retained
  incoming fact joins what that predecessor sent before (or, for a
  warm-started vertex, what it sent in the stored run), and a monotone
  client's successive outgoing facts at one vertex form a chain in the
  direction of iteration (Kam & Ullman, 1977), so the newest message
  already holds everything retained; with the bundled kernels the incoming
  fact is then the message itself. An entry keeps the retained fold,
  because that also holds the entry fact. The predecessor count is taken
  on the whole graph: in an incremental run a predecessor outside the
  seeded vertices sends its fact once, at superstep 0, so a vertex with
  such a predecessor never qualifies.

One start rule gives every vertex its superstep-0 state. A *reset* vertex
starts with incoming fact the initial element (the entry fact at an
entry) and outgoing fact the sentinel ``None``, never computed, so its
first result always propagates. Only the frontier computes at superstep 0:
reset entries and the targets of pending *boundary* messages; every other
reset vertex computes when its predecessor's first fact arrives. So a
reset region costs what analysing it from scratch costs, not that plus a
round of premature computations on half-known facts. A *warm* vertex
resumes from a stored incoming/outgoing pair and always computes at
superstep 0: a stored outgoing fact equals the transfer of the stored
incoming fact only where the stored run reached the vertex, and one that
no entry reached there still holds the initial element.

A whole-program run (``run``, ``run_classic``, ``run_optimized``) resets
every vertex. ``seed_and_run`` is the optimized algorithm on reset and warm
vertices plus boundary messages; the incremental pipeline uses it to
resume analysis on the updated graph, seeded on the successor-closed
affected set. Active vertices are processed in ascending id order and
gathered facts are folded in ascending sender order, so runs are
bit-reproducible. Facts are immutable (see ``lattice``), so one fact
object may reach many vertices.

Termination is only guaranteed for monotone clients over finite-height
lattices, so every run stops after ten supersteps per vertex it covers and
raises ``NonConvergenceError`` instead of looping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Collection, Iterable, Mapping, Sequence

from .cfg import SuperGraph, VertexId
from .errors import GraphError, NonConvergenceError, SeedMismatchError
from .lattice import Analysis, Fact


class Algorithm(Enum):
    CLASSIC = "classic"
    OPTIMIZED = "optimized"


@dataclass
class AnalysisResult:
    """Converged facts plus run accounting.

    ``messages_sent`` counts fact traffic: facts pushed to successors for
    the optimized algorithm, facts pulled from predecessors for the classic
    one. ``supersteps`` counts barriered rounds (worklist pops for the
    sequential runners).
    """

    in_facts: dict[VertexId, Fact]
    out_facts: dict[VertexId, Fact]
    supersteps: int
    messages_sent: int
    fact_updates: int
    active_per_superstep: list[int] = field(default_factory=list)

    def to_report(self) -> dict:
        return {
            "supersteps": self.supersteps,
            "messages_sent": self.messages_sent,
            "fact_updates": self.fact_updates,
            "active_per_superstep": list(self.active_per_superstep),
        }

    def facts_equal(self, other: "AnalysisResult") -> bool:
        return self.in_facts == other.in_facts and self.out_facts == other.out_facts


def run(g: SuperGraph, analysis: Analysis, algorithm: Algorithm) -> AnalysisResult:
    """Whole-program analysis with the given algorithm: every vertex resets."""
    require_entries(g)
    return _execute(g, analysis, algorithm, *_seeds(g, analysis, g.vertices, {}, {}))


def run_classic(g: SuperGraph, analysis: Analysis) -> AnalysisResult:
    """Whole-program analysis with the gather-all worklist algorithm."""
    return run(g, analysis, Algorithm.CLASSIC)


def run_optimized(g: SuperGraph, analysis: Analysis) -> AnalysisResult:
    """Whole-program analysis with the delta-message worklist algorithm."""
    return run(g, analysis, Algorithm.OPTIMIZED)


def seed_and_run(g: SuperGraph, analysis: Analysis,
                 reset: Collection[VertexId],
                 warm: Mapping[VertexId, tuple[Fact, Fact]],
                 boundary: Mapping[VertexId, Sequence[tuple[VertexId, Fact]]]) -> AnalysisResult:
    """The optimized algorithm on the vertices of ``reset`` and ``warm``.

    A ``reset`` vertex starts as in a whole-program run; a ``warm`` vertex
    resumes from its ``(IN, OUT)`` pair. ``boundary`` maps a vertex to the
    ``(sender, fact)`` messages pending for it at superstep 0. The run
    covers exactly the seeded vertices, so every boundary target and every
    successor of a seeded vertex must be seeded. Senders may be unseeded
    (facts of predecessors outside the run); they only order the gather.
    """
    twice = warm.keys() & reset
    if twice:
        raise SeedMismatchError(f"vertices {sorted(twice)} are both reset and warm")
    seeded = warm.keys() | reset
    stray = (seeded - g.vertices.keys()) | (boundary.keys() - seeded)
    if stray:
        raise SeedMismatchError(f"seeds or messages name vertices outside the run {sorted(stray)}")
    escapes = sorted((k, d) for k in seeded for d in g.succs(k) if d not in seeded)
    if escapes:
        raise SeedMismatchError(f"seeded vertices have unseeded successors: edges {escapes}")
    return _execute(g, analysis, Algorithm.OPTIMIZED, *_seeds(g, analysis, reset, warm, boundary))


def require_entries(g: SuperGraph) -> None:
    """Refuse a non-empty graph without entry vertices: no fact reaches it."""
    if g.vertices and not g.entries:
        raise GraphError("graph has no entry vertices")


def _seeds(g: SuperGraph, analysis: Analysis, reset: Iterable[VertexId],
           warm: Mapping[VertexId, tuple[Fact, Fact]],
           boundary: Mapping[VertexId, Sequence[tuple[VertexId, Fact]]]):
    """The superstep-0 IN, OUT, inbox and active set, by the start rule."""
    initial, entry, entries = analysis.initial(), analysis.entry_fact(), g.entries
    in_facts = {k: entry if k in entries else initial for k in reset}
    out_facts: dict[VertexId, Fact | None] = dict.fromkeys(in_facts)
    for k, (in_fact, out_fact) in warm.items():
        in_facts[k], out_facts[k] = in_fact, out_fact
    inbox = {k: [fact for _, fact in sorted(msgs, key=itemgetter(0))]
             for k, msgs in boundary.items()}
    active = {k for k in entries if k in in_facts}.union(warm, inbox)
    return in_facts, out_facts, inbox, active


def _execute(g: SuperGraph, analysis: Analysis, algorithm: Algorithm,
             in_facts: dict[VertexId, Fact],
             out_facts: dict[VertexId, Fact | None],
             inbox: dict[VertexId, list[Fact]],
             active: set[VertexId]) -> AnalysisResult:
    """Run barriered supersteps over one vertex-state table until quiescence.

    The table's vertices are the keys of ``in_facts``; both fact maps are
    updated in place. Each ``inbox`` list holds facts in ascending sender
    order; later supersteps keep that order because active vertices are
    processed in ascending id order. A run that is still active after ten
    supersteps per table vertex raises ``NonConvergenceError``.
    """
    cap = max(1, 10 * len(in_facts))
    classic = algorithm is Algorithm.CLASSIC
    initial, entry = analysis.initial(), analysis.entry_fact()
    preds, succs_of, entries, vertices = g.preds, g.succs, g.entries, g.vertices
    merge, transfer, propagate = analysis.merge, analysis.transfer, analysis.propagate

    supersteps = 0
    messages_sent = 0
    fact_updates = 0
    active_counts: list[int] = []

    while active:
        if supersteps >= cap:
            raise NonConvergenceError(
                f"no fixed point after {supersteps} supersteps "
                f"(cap {cap}); the analysis may not be monotone",
                steps=supersteps)
        supersteps += 1
        active_counts.append(len(active))
        next_active: set[VertexId] = set()
        next_inbox: dict[VertexId, list[Fact]] = {}
        changed: list[tuple[VertexId, Fact]] = []
        for k in sorted(active):
            if classic:
                # preds are id-sorted: canonical merge order
                gathered = [out_facts[q] for q in preds(k) if out_facts[q] is not None]
                messages_sent += len(gathered)
                new_in = merge(gathered, entry if k in entries else initial)
            else:
                msgs = inbox.get(k, ())
                # A sole predecessor's newest fact subsumes the retained IN.
                sole = msgs and k not in entries and len(preds(k)) == 1
                new_in = merge(msgs, initial if sole else in_facts[k])
            new_out = transfer(vertices[k].stmts, new_in)
            in_facts[k] = new_in
            if propagate(out_facts[k], new_out):
                fact_updates += 1
                succs = succs_of(k)
                if classic:
                    next_active.update(succs)
                    changed.append((k, new_out))
                else:
                    out_facts[k] = new_out
                    for d in succs:
                        box = next_inbox.get(d)
                        if box is None:
                            next_inbox[d] = [new_out]
                        else:
                            box.append(new_out)
                    messages_sent += len(succs)
        # Barrier: what superstep t produced becomes visible in t+1.
        out_facts.update(changed)
        inbox = next_inbox
        # An optimized vertex is active exactly when a message waits for it.
        active = next_active if classic else next_inbox.keys()

    return AnalysisResult(
        in_facts=in_facts,
        out_facts={vid: initial if out is None else out for vid, out in out_facts.items()},
        supersteps=supersteps, messages_sent=messages_sent,
        fact_updates=fact_updates, active_per_superstep=active_counts)
