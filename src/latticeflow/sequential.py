"""Single-threaded reference solvers.

``run_sequential`` is the plain worklist algorithm, written to be obviously
correct rather than fast: FIFO order, no partitions, no messages. It is the
ground truth the engines are checked against. ``run_chaotic`` is the same
computation under a seeded random processing order; a monotone client over
a finite-height lattice reaches the same unique maximal fixed point
whatever the order, which makes repeated chaotic runs a cheap detector for
order-sensitivity bugs.

Both solvers share the engine's conventions: they refuse a graph without
entry vertices, the worklist starts from the entry vertices, a vertex that
has never produced an outgoing fact holds the sentinel and its first
computation always counts as a change, and entry vertices fold their
(possibly empty) predecessor facts into the analysis's entry fact.
"""

from __future__ import annotations

import random
from collections import deque

from .cfg import SuperGraph, VertexId
from .engine import AnalysisResult, require_entries
from .errors import NonConvergenceError
from .lattice import Analysis, Fact


def run_sequential(g: SuperGraph, analysis: Analysis) -> AnalysisResult:
    """FIFO worklist solver; the oracle for every equivalence test."""
    return _solve(g, analysis, rng=None)


def run_chaotic(g: SuperGraph, analysis: Analysis, seed: int) -> AnalysisResult:
    """Worklist solver processing vertices in a seeded random order."""
    return _solve(g, analysis, rng=random.Random(seed))


def _solve(g: SuperGraph, analysis: Analysis, rng: random.Random | None) -> AnalysisResult:
    require_entries(g)
    n = len(g.vertices)
    initial, entry = analysis.initial(), analysis.entry_fact()
    in_facts: dict[VertexId, Fact] = {vid: entry if vid in g.entries else initial
                                      for vid in g.vertices}
    out_facts: dict[VertexId, Fact | None] = dict.fromkeys(g.vertices)

    worklist: deque[VertexId] = deque(sorted(g.entries))
    queued = set(worklist)
    cap = 10 * max(1, n) * max(16, n)
    iterations = 0
    while worklist:
        if iterations >= cap:
            raise NonConvergenceError(
                f"no fixed point after {iterations} worklist iterations (cap {cap})",
                steps=iterations)
        iterations += 1
        if rng is None:
            k = worklist.popleft()
        else:
            idx = rng.randrange(len(worklist))
            worklist.rotate(-idx)
            k = worklist.popleft()
            worklist.rotate(idx)
        queued.discard(k)

        gathered = [out_facts[q] for q in g.preds(k) if out_facts[q] is not None]
        new_in = analysis.merge(gathered, entry if k in g.entries else initial)
        new_out = analysis.transfer(g.vertices[k].stmts, new_in)
        in_facts[k] = new_in
        if analysis.propagate(out_facts[k], new_out):
            out_facts[k] = new_out
            for s in g.succs(k):
                if s not in queued:
                    worklist.append(s)
                    queued.add(s)

    final_out = {vid: initial if out is None else out for vid, out in out_facts.items()}
    return AnalysisResult(in_facts=in_facts, out_facts=final_out,
                          supersteps=iterations, messages_sent=0, fact_updates=0,
                          active_per_superstep=[])
