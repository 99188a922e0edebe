"""Property: an incremental update leaves exactly the store a fresh analysis
writes.

Hypothesis draws small programs -- some with a cycle that no entry reaches,
some with flagged entries -- and a sequence of edit batches that delete,
rewrite and add vertices and edges and flip entry flags. Each batch goes
through the change-file text, the way the CLI receives it, and is applied
in both incremental modes to file-backed stores that carry every earlier
batch. The first program is analysed with a drawn algorithm, classic or
optimized. After each batch both store files must be byte-identical to the
file a whole-program analysis of the updated program writes.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticeflow as lf
from support import edge_set, new_store

ANALYSES = [lf.reaching_defs, lf.const_prop, lambda: lf.lru_must_cache(sets=2, assoc=2)]

PAYLOADS = st.sampled_from([
    (),
    (lf.DefStmt("x", "d1"),),
    (lf.DefStmt("y", "d2"),),
    (lf.DefStmt("x", "d3"),),
    (lf.UseStmt("x"),),
    (lf.AssignConst("x", 1),),
    (lf.AssignConst("y", 2),),
    (lf.AssignBinOp("y", "x", "+", "y"),),
    (lf.AccessStmt(0),),
    (lf.AccessStmt(1),),
    (lf.AccessStmt(2),),
    (lf.AccessStmt(3),),
])
IDS = st.integers(0, 15)
FRESH_IDS = st.integers(16, 30)  # ids the edits may add


def _with_an_entry(vertices, edges):
    g = lf.SuperGraph(vertices, edges)
    if g.entries:
        return g
    first = min(vertices)  # every vertex lies on a cycle: flag one
    vertices = dict(vertices)
    vertices[first] = lf.VertexAttribute(stmts=vertices[first].stmts, is_entry=True)
    return lf.SuperGraph(vertices, edges)


@st.composite
def programs(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=10, unique=True))
    flagged = draw(st.sets(st.sampled_from(ids), max_size=2))
    vertices = {vid: lf.VertexAttribute(stmts=draw(PAYLOADS), is_entry=vid in flagged)
                for vid in ids}
    edges = set(draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=18)))
    if draw(st.booleans()):
        # A cycle with no edge into it from the rest: no entry reaches it.
        ring = draw(st.lists(FRESH_IDS, min_size=2, max_size=3, unique=True))
        for vid in ring:
            vertices[vid] = lf.VertexAttribute(stmts=draw(PAYLOADS))
        edges |= set(zip(ring, ring[1:] + ring[:1]))
        if draw(st.booleans()):
            edges.add((ring[-1], draw(st.sampled_from(ids))))  # it feeds the program
    return _with_an_entry(vertices, edges)


BATCH_SHAPES = {
    "add": ("add-vertex", "add-edge"),
    "delete": ("delete-vertex", "delete-edge"),
    "change": ("rewrite", "entry-flip"),
    "mixed": ("delete-vertex", "delete-edge", "rewrite", "entry-flip",
              "add-vertex", "add-edge"),
}


def edited(draw, old):
    # A batch sticks to one shape, so that add-only batches (the
    # warm-start path) are as common as deletions, rewrites and mixes.
    shape = BATCH_SHAPES[draw(st.sampled_from(sorted(BATCH_SHAPES)))]
    kinds = draw(st.sets(st.sampled_from(shape), min_size=1))
    vertices = dict(old.vertices)
    edges = edge_set(old)
    ids = sorted(vertices)
    if "delete-vertex" in kinds and len(ids) > 1:
        for vid in draw(st.sets(st.sampled_from(ids), min_size=1,
                                max_size=min(2, len(ids) - 1))):
            del vertices[vid]
            edges = {(u, v) for (u, v) in edges if vid not in (u, v)}
    if "delete-edge" in kinds and edges:
        edges -= draw(st.sets(st.sampled_from(sorted(edges)), min_size=1, max_size=2))
    live = sorted(vertices)
    if "rewrite" in kinds:
        for vid in draw(st.sets(st.sampled_from(live), min_size=1, max_size=2)):
            vertices[vid] = lf.VertexAttribute(stmts=draw(PAYLOADS),
                                               is_entry=vertices[vid].is_entry)
    if "entry-flip" in kinds:
        attr = vertices[vid := draw(st.sampled_from(live))]
        vertices[vid] = lf.VertexAttribute(stmts=attr.stmts, is_entry=not attr.is_entry)
    if "add-vertex" in kinds:
        for vid in draw(st.sets(FRESH_IDS, min_size=1, max_size=2)):
            if vid not in old.vertices:  # a deleted id is not re-added in one batch
                vertices[vid] = lf.VertexAttribute(stmts=draw(PAYLOADS))
    if "add-edge" in kinds or "add-vertex" in kinds:
        live = sorted(vertices)
        # Often aim an edge at a vertex that no entry reached before.
        reached = lf.transitive_closure(set(old.entries), old)
        stranded = [vid for vid in live if vid in old.vertices and vid not in reached]
        targets = stranded if stranded and draw(st.booleans()) else live
        edges |= set(draw(st.lists(st.tuples(st.sampled_from(live), st.sampled_from(targets)),
                                   min_size=1, max_size=3)))
    return _with_an_entry(vertices, edges)


@st.composite
def edit_sequences(draw):
    versions = [draw(programs())]
    for _ in range(draw(st.integers(1, 3))):
        versions.append(edited(draw, versions[-1]))
    return versions


def _analyze_to(path, graph, analysis, solver=lf.run_optimized):
    store = new_store(path, analysis)
    result = solver(graph, analysis)
    store.batch_put(result.in_facts, result.out_facts)
    return store


@pytest.mark.parametrize("make", ANALYSES, ids=["rd", "cp", "cache"])
# A fixed example set keeps the suite reproducible; at fewer examples it
# stops reaching the rare stranded-region cases that break a warm start.
@settings(max_examples=100, deadline=None, derandomize=True)
@given(versions=edit_sequences(), base_solver=st.sampled_from([lf.run_classic,
                                                               lf.run_optimized]))
def test_incremental_store_bytes_equal_a_fresh_analysis(make, versions, base_solver):
    analysis = make()
    runners = {"naive": lf.run_incremental_naive, "opt": lf.run_incremental_optimized}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        stores = {mode: _analyze_to(tmp / f"{mode}.store", versions[0], analysis, base_solver)
                  for mode in runners}
        for old, new in zip(versions, versions[1:]):
            batch = lf.diff_graphs(old, new)
            assert lf.parse_changes_for_new(lf.render_changes(batch), new) == batch
            _analyze_to(tmp / "fresh.store", new, analysis)
            fresh = (tmp / "fresh.store").read_bytes()
            for mode, runner in runners.items():
                runner(new, batch, stores[mode], analysis)
                assert (tmp / f"{mode}.store").read_bytes() == fresh, mode
