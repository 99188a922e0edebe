import random

import pytest

import latticeflow as lf
from latticeflow.cfg import ChangeKind
from support import load_fixture, random_edit, random_graph

DIAMOND = """
V 1 entry def x d1
V 2 def y d2
V 3 def x d3
V 4 use x
E 1 2
E 1 3
E 2 4
E 3 4
"""


def test_parse_minimal_chain():
    g = lf.parse_graph("V 1 entry def x d1\nV 2 def x d2\nE 1 2\n")
    assert set(g.vertices) == {1, 2}
    assert g.edges == frozenset({(1, 2)})
    assert g.entries == frozenset({1})


def test_parse_reports_unknown_edge_vertex_with_line():
    text = "V 1 def x d1\n# comment\nE 1 9\n"
    with pytest.raises(lf.UnknownVertexError) as exc:
        lf.parse_graph(text)
    assert "9" in str(exc.value)
    assert exc.value.line == 3


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(lf.DuplicateVertexError):
        lf.parse_graph("V 1 nop\nV 1 nop\n")


def test_parse_rejects_malformed_payload_with_line():
    with pytest.raises(lf.GraphParseError) as exc:
        lf.parse_graph("V 1 def x\n")
    assert exc.value.line == 1


def test_diamond_adjacency():
    g = lf.parse_graph(DIAMOND)
    assert g.preds(4) == (2, 3)
    assert g.succs(1) == (2, 3)
    assert g.entries == frozenset({1})


def test_entries_fall_back_to_in_degree_zero():
    g = lf.parse_graph("V 1 nop\nV 2 nop\nE 1 2\n")
    assert g.entries == frozenset({1})


def test_self_loops_permitted():
    g = lf.parse_graph("V 1 entry def x d1\nE 1 1\n")
    assert g.preds(1) == (1,)


def test_render_parse_round_trip_random():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, max_vertices=25, max_edges=60)
        assert lf.parse_graph(lf.render_graph(g)) == g


def test_apply_empty_batch_is_identity():
    g = lf.parse_graph(DIAMOND)
    assert lf.apply_changes(g, ()) == g


def test_apply_delete_source_node_on_diamond():
    g = lf.parse_graph(DIAMOND)
    without_2 = lf.SuperGraph(
        {vid: attr for vid, attr in g.vertices.items() if vid != 2},
        {(1, 3), (3, 4)})
    batch = lf.diff_graphs(g, without_2)
    kinds = {c.kind for c in batch}
    assert kinds == {ChangeKind.DELETE_SOURCE_NODE, ChangeKind.DELETE_DEST_NODE}
    applied = lf.apply_changes(g, batch)
    assert 2 not in applied.vertices
    assert applied.edges == frozenset({(1, 3), (3, 4)})


def test_apply_worked_example_fixture():
    old = load_fixture("incr_demo_old.cfg")
    new = load_fixture("incr_demo_new.cfg")
    batch = lf.diff_graphs(old, new)
    assert lf.apply_changes(old, batch) == new


def test_diff_identity_is_empty():
    g = lf.parse_graph(DIAMOND)
    assert lf.diff_graphs(g, g) == ()


def test_diff_single_added_edge():
    g = lf.parse_graph(DIAMOND)
    plus = lf.SuperGraph(g.vertices, set(g.edges) | {(2, 3)})
    batch = lf.diff_graphs(g, plus)
    assert batch == (lf.AtomicChange(ChangeKind.ADD_EDGE, u=2, v=3),)


def test_diff_worked_example_kinds():
    old = load_fixture("incr_demo_old.cfg")
    new = load_fixture("incr_demo_new.cfg")
    batch = lf.diff_graphs(old, new)
    by_kind = {}
    for c in batch:
        by_kind.setdefault(c.kind, []).append(c)
    assert [(c.u, c.v) for c in by_kind[ChangeKind.ADD_EDGE]] == [(1, 4)]
    assert [(c.u, c.v) for c in by_kind[ChangeKind.DELETE_SOURCE_NODE]] == [(2, 7)]
    assert [c.u for c in by_kind[ChangeKind.CHANGE_SOURCE_NODE]] == [5]
    assert len(batch) == 3


def test_diff_from_empty_graph_is_all_additions():
    empty = lf.SuperGraph({}, ())
    g = lf.parse_graph(DIAMOND)
    batch = lf.diff_graphs(empty, g)
    assert all(c.kind in {ChangeKind.ADD_EDGE, ChangeKind.ADD_SOURCE_NODE,
                          ChangeKind.ADD_DEST_NODE} for c in batch)
    assert lf.apply_changes(empty, batch) == g


def test_diff_apply_inverse_on_random_pairs():
    rng = random.Random(9)
    for _ in range(40):
        old = random_graph(rng, max_vertices=20, max_edges=45)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        assert lf.apply_changes(old, batch) == new


def test_change_file_round_trip_random():
    rng = random.Random(13)
    for _ in range(40):
        old = random_graph(rng, max_vertices=20, max_edges=45)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        text = lf.render_changes(batch)
        assert lf.parse_changes(text, old) == batch
        assert lf.parse_changes_for_new(text, new) == batch


def test_change_file_round_trip_delete_add_and_change_in_one_batch():
    old = lf.parse_graph(DIAMOND + "V 5 use y\nE 4 5\n")
    vertices = {vid: attr for vid, attr in old.vertices.items() if vid != 2}
    vertices[3] = lf.VertexAttribute(stmts=(lf.UseStmt("x"),))  # CN 3
    vertices[5] = lf.VertexAttribute(stmts=(lf.DefStmt("y", "d5"),))  # CN 5, no succs
    vertices[6] = lf.VertexAttribute(stmts=(lf.DefStmt("z", "d6"),))  # AN 6
    vertices[7] = lf.VertexAttribute(stmts=())  # AN 7, isolated
    new = lf.SuperGraph(vertices, {(1, 3), (3, 4), (4, 5), (1, 6), (6, 4), (5, 3)})
    batch = lf.diff_graphs(old, new)
    assert {c.kind for c in batch} == {
        ChangeKind.DELETE_SOURCE_NODE, ChangeKind.DELETE_DEST_NODE,
        ChangeKind.CHANGE_SOURCE_NODE, ChangeKind.CHANGE_DEST_NODE,
        ChangeKind.ADD_DEST_NODE, ChangeKind.ADD_EDGE}
    text = lf.render_changes(batch)
    assert {line.split()[0] for line in text.splitlines()} == {"DN", "DE", "CN", "AN", "AE"}
    assert lf.parse_changes(text, old) == batch
    assert lf.parse_changes_for_new(text, new) == batch
    assert lf.apply_changes(old, batch) == new


def test_change_classification_covers_all_kinds():
    rng = random.Random(17)
    seen = set()
    for _ in range(150):
        old = random_graph(rng, max_vertices=14, max_edges=30)
        new = random_edit(rng, old)
        for c in lf.diff_graphs(old, new):
            assert c.kind in ChangeKind
            seen.add(c.kind)
    assert seen == set(ChangeKind)


def test_apply_conflicts():
    g = lf.parse_graph(DIAMOND)
    with pytest.raises(lf.ChangeConflictError):
        lf.apply_changes(g, (lf.AtomicChange(ChangeKind.ADD_EDGE, u=1, v=2),))
    with pytest.raises(lf.ChangeConflictError):
        lf.apply_changes(g, (lf.AtomicChange(ChangeKind.DELETE_EDGE, u=2, v=3),))
    nop = lf.VertexAttribute(stmts=())
    reuse = (lf.AtomicChange(ChangeKind.DELETE_SOURCE_NODE, u=2, v=4),
             lf.AtomicChange(ChangeKind.DELETE_DEST_NODE, u=1, v=2),
             lf.AtomicChange(ChangeKind.ADD_DEST_NODE, u=1, v=2, payload=nop))
    with pytest.raises(lf.ChangeConflictError):
        lf.apply_changes(g, reuse)


def test_both_endpoints_new_decomposition():
    g = lf.parse_graph("V 1 entry nop\n")
    nop = lf.VertexAttribute(stmts=())
    new = lf.SuperGraph({1: g.vertices[1], 5: nop, 9: nop}, {(9, 5)})
    batch = lf.diff_graphs(g, new)
    kinds = [c.kind for c in batch]
    assert ChangeKind.ADD_SOURCE_NODE in kinds or ChangeKind.ADD_EDGE in kinds
    assert lf.apply_changes(g, batch) == new


def test_entry_flag_change_is_a_node_change():
    g = lf.parse_graph("V 1 entry nop\nV 2 nop\nE 1 2\n")
    flagged = lf.SuperGraph(
        {1: g.vertices[1], 2: lf.VertexAttribute(stmts=(), is_entry=True)},
        g.edges)
    batch = lf.diff_graphs(g, flagged)
    assert len(batch) == 1
    assert batch[0].kind in {ChangeKind.CHANGE_SOURCE_NODE, ChangeKind.CHANGE_DEST_NODE}
    assert lf.apply_changes(g, batch) == flagged


def test_adjacency_is_sorted_whatever_the_edge_order():
    rng = random.Random(23)
    vids = rng.sample(range(1000), 60)
    edges = [(rng.choice(vids), rng.choice(vids)) for _ in range(300)]
    rng.shuffle(edges)
    g = lf.SuperGraph({vid: lf.VertexAttribute(()) for vid in vids}, edges)
    for vid in vids:
        assert g.preds(vid) == tuple(sorted({u for (u, v) in edges if v == vid}))
        assert g.succs(vid) == tuple(sorted({v for (u, v) in edges if u == vid}))


def test_rendering_two_statements_is_a_graph_error():
    # The API accepts a vertex with two statements; the text format does not.
    two = lf.VertexAttribute((lf.DefStmt("x", "d1"), lf.UseStmt("x")))
    g = lf.SuperGraph({1: two}, ())
    with pytest.raises(lf.GraphError, match="at most one statement per vertex"):
        lf.render_graph(g)
    batch = lf.diff_graphs(lf.SuperGraph({}, ()), g)
    with pytest.raises(lf.GraphError, match="at most one statement per vertex"):
        lf.render_changes(batch)
