import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classify_reference
import latticeflow as lf
from latticeflow.cfg import ChangeKind
from support import apply_batch, edge_set, load_fixture, random_edit, random_graph

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


@pytest.mark.parametrize("edges", ["E 1 2\n", "E 1 2\nE 1 2\n"], ids=["once", "repeated"])
def test_parse_minimal_chain(edges):
    g = lf.parse_graph("V 1 entry def x d1\nV 2 def x d2\n" + edges)
    assert set(g.vertices) == {1, 2}
    assert edge_set(g) == frozenset({(1, 2)})
    assert g.preds(2) == (1,) and g.succs(1) == (2,)
    assert g.entries == frozenset({1})


@pytest.mark.parametrize("text,vertex,line", [
    ("V 1 def x d1\n# comment\nE 1 9\n", 9, 3),
    ("V 1 def x d1\nE 1 9\nV 2 nop\nE 1 9\n", 9, 2),  # the edge's first line
    ("V 1 nop\nE 5 9\nE 1 8\n", 5, 2),  # the first bad edge in file order
], ids=["one-edge", "repeated-edge", "file-order"])
def test_parse_reports_unknown_edge_vertex_with_line(text, vertex, line):
    with pytest.raises(lf.UnknownVertexError) as exc:
        lf.parse_graph(text)
    assert f"unknown vertex {vertex}" in str(exc.value)
    assert exc.value.line == line


def test_parse_rejects_duplicate_vertex():
    with pytest.raises(lf.DuplicateVertexError):
        lf.parse_graph("V 1 nop\nV 1 nop\n")


def test_parse_rejects_malformed_payload_with_line():
    with pytest.raises(lf.GraphParseError) as exc:
        lf.parse_graph("V 1 def x\n")
    assert exc.value.line == 1


@pytest.mark.parametrize("text,line,message", [
    ("V 1 entry nop\nE 1\n", 2, "E line needs exactly a source and a destination"),
    ("V 1 entry nop\nX 1\n", 2, "unknown line kind 'X'"),
    ("V 7\n", 1, "V line needs an id and a payload"),
    ("V x nop\n", 1, "not a vertex id: 'x'"),
], ids=["E-one-endpoint", "unknown-kind", "V-no-payload", "V-bad-id"])
def test_parse_rejects_malformed_line(text, line, message):
    with pytest.raises(lf.GraphParseError) as exc:
        lf.parse_graph(text)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}: {message}"


_TOO_BIG = 2 ** 64


@pytest.mark.parametrize("text,line", [
    (f"V 1 entry nop\nV {_TOO_BIG} use x\n", 2),
    (f"V 1 entry nop\nE 1 {_TOO_BIG}\n", 2),
], ids=["V", "E"])
def test_parse_rejects_vertex_id_past_the_store_limit(text, line):
    with pytest.raises(lf.GraphParseError) as exc:
        lf.parse_graph(text)
    assert exc.value.line == line
    assert f"must be below {_TOO_BIG}" in str(exc.value)


@pytest.mark.parametrize("change", [
    f"AE 1 {_TOO_BIG}", f"DE {_TOO_BIG} 1", f"DN {_TOO_BIG}",
    f"AN {_TOO_BIG} use x", f"CN {_TOO_BIG} entry use x",
], ids=["AE", "DE", "DN", "AN", "CN"])
def test_change_lines_reject_vertex_id_past_the_store_limit(change):
    new = lf.parse_graph("V 1 entry nop\n")
    with pytest.raises(lf.GraphParseError) as exc:
        lf.parse_changes_for_new(f"# header\n{change}\n", new)
    assert exc.value.line == 2
    assert f"must be below {_TOO_BIG}" in str(exc.value)


@pytest.mark.parametrize("change,message", [
    ("AE 1", "AE line needs a source and a destination"),
    ("DN 1 2", "DN line needs exactly a vertex id"),
    ("ZZ 1", "unknown line kind 'ZZ'"),
], ids=["AE-one-endpoint", "DN-two-ids", "unknown-kind"])
def test_change_lines_reject_malformed_line(change, message):
    new = lf.parse_graph("V 1 entry nop\n")
    with pytest.raises(lf.GraphParseError) as exc:
        lf.parse_changes_for_new(f"# header\n{change}\n", new)
    assert exc.value.line == 2
    assert str(exc.value) == f"line 2: {message}"


@pytest.mark.parametrize("edge,vertex", [((1, 2), 2), ((3, 1), 3)], ids=["dest", "source"])
def test_supergraph_refuses_an_edge_to_an_unknown_vertex(edge, vertex):
    attr = lf.VertexAttribute(stmts=())
    with pytest.raises(lf.UnknownVertexError) as exc:
        lf.SuperGraph({1: attr}, [edge])
    assert str(exc.value) == f"edge {edge} references unknown vertex {vertex}"


def test_supergraph_vertex_ids_fit_the_store():
    attr = lf.VertexAttribute(stmts=())
    assert _TOO_BIG - 1 in lf.SuperGraph({_TOO_BIG - 1: attr}, ())
    with pytest.raises(lf.GraphParseError):
        lf.SuperGraph({_TOO_BIG: attr}, ())
    with pytest.raises(lf.GraphParseError):
        lf.SuperGraph({-1: attr}, ())


def test_diamond_adjacency():
    g = lf.parse_graph(DIAMOND)
    assert g.preds(4) == (2, 3)
    assert g.succs(1) == (2, 3)
    assert g.entries == frozenset({1})


def test_entries_fall_back_to_in_degree_zero():
    g = lf.parse_graph("V 1 nop\nV 2 nop\nE 1 2\n")
    assert g.entries == frozenset({1})


def test_self_loops_permitted():
    parsed = lf.parse_graph("V 1 entry def x d1\nE 1 1\n")
    # The constructor itself holds a repeated edge once.
    constructed = lf.SuperGraph(parsed.vertices, [(1, 1), (1, 1)])
    for g in (parsed, constructed):
        assert g.preds(1) == (1,)
        assert g.succs(1) == (1,) and g.n_edges == 1
        assert lf.render_graph(g).splitlines().count("E 1 1") == 1
        # A DE line may name a deleted vertex: no KeyError for either end.
        assert not g.has_edge(9, 1) and not g.has_edge(1, 9)


def test_render_parse_round_trip_random():
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, max_vertices=25, max_edges=60)
        assert lf.parse_graph(lf.render_graph(g)) == g


def test_apply_delete_source_node_on_diamond():
    g = lf.parse_graph(DIAMOND)
    without_2 = lf.SuperGraph(
        {vid: attr for vid, attr in g.vertices.items() if vid != 2},
        {(1, 3), (3, 4)})
    batch = lf.diff_graphs(g, without_2)
    kinds = {c.kind for c in batch}
    assert kinds == {ChangeKind.DELETE_SOURCE_NODE, ChangeKind.DELETE_DEST_NODE}
    applied = apply_batch(g, batch)
    assert 2 not in applied.vertices
    assert edge_set(applied) == frozenset({(1, 3), (3, 4)})


def test_apply_worked_example_fixture():
    old = load_fixture("incr_demo_old.cfg")
    new = load_fixture("incr_demo_new.cfg")
    batch = lf.diff_graphs(old, new)
    assert apply_batch(old, batch) == new


def test_diff_identity_is_empty():
    g = lf.parse_graph(DIAMOND)
    assert lf.diff_graphs(g, g) == ()


def test_diff_single_added_edge():
    g = lf.parse_graph(DIAMOND)
    plus = lf.SuperGraph(g.vertices, edge_set(g) | {(2, 3)})
    assert plus != g  # equality compares edges, not only vertices
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
    assert apply_batch(empty, batch) == g


def test_diff_apply_inverse_on_random_pairs():
    rng = random.Random(9)
    for _ in range(40):
        old = random_graph(rng, max_vertices=20, max_edges=45)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        assert apply_batch(old, batch) == new


def test_change_file_round_trip_random():
    rng = random.Random(13)
    for _ in range(40):
        old = random_graph(rng, max_vertices=20, max_edges=45)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        text = lf.render_changes(batch)
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
    assert lf.parse_changes_for_new(text, new) == batch
    assert apply_batch(old, batch) == new


def _outcome(read, *args):
    """The batch ``read`` returns, or the type and message of its error."""
    try:
        return read(*args)
    except lf.LatticeflowError as exc:
        return type(exc).__name__, str(exc)


def _random_change_line(rng, ids, new):
    """A change line naming vertices of either version, or of neither."""
    kind = rng.choice(("AE", "DE", "DN", "AN", "CN"))
    u, v = rng.choice(ids), rng.choice(ids)
    if kind in ("AE", "DE"):
        return f"{kind} {u} {v}"
    if kind == "DN":
        return f"DN {u}"
    if u not in new:
        return f"{kind} {u} use x"
    # The vertex's line in the updated graph, "V" swapped for the kind: its
    # payload agrees with that graph, so the line reaches the classifier.
    return kind + lf.render_graph(lf.SuperGraph({u: new.vertices[u]}, ()))[1:].rstrip("\n")


def _perturbed_changes(rng, text, old, new):
    """``text`` with lines dropped, duplicated, shuffled or added."""
    lines = text.splitlines()
    ids = sorted(set(old.vertices) | set(new.vertices) | {rng.randint(0, 120)})
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.25 and lines:
            del lines[rng.randrange(len(lines))]
        elif roll < 0.5 and lines:
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
        elif roll < 0.6:
            rng.shuffle(lines)
        else:
            lines.insert(rng.randrange(len(lines) + 1), _random_change_line(rng, ids, new))
    return "".join(line + "\n" for line in lines)


def _random_version_pair(rng):
    old = random_graph(rng, max_vertices=20, max_edges=45)
    if rng.random() < 0.25:  # unrelated versions that share some vertex ids
        return old, random_graph(rng, max_vertices=20, max_edges=45)
    return old, random_edit(rng, old, max_id=60)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_classification_matches_a_reader_of_the_old_program(seed):
    # The classifier reads only the updated graph; the reference reads the
    # old version. Both must give the same batch, or the same error.
    rng = random.Random(seed)
    old, new = _random_version_pair(rng)
    batch = lf.diff_graphs(old, new)
    assert batch == classify_reference.diff_graphs(old, new)
    text = _perturbed_changes(rng, lf.render_changes(batch), old, new)
    assert (_outcome(lf.parse_changes_for_new, text, new)
            == _outcome(classify_reference.parse_changes_for_new, text, new))


def test_changed_vertex_counts_no_successor_that_was_added():
    # Vertex 1's only edge leads to an added vertex. Without its AE line the
    # edge is in the updated graph but was never recorded as added; the old
    # version still had no successor of 1, so the change stays CHANGE_DEST_NODE.
    new = lf.parse_graph("V 1 entry def x d9\nV 2 use x\nE 1 2\n")
    text = "CN 1 entry def x d9\nAN 2 use x\n"
    batch = lf.parse_changes_for_new(text, new)
    assert batch == classify_reference.parse_changes_for_new(text, new)
    assert [(c.kind, c.u, c.v) for c in batch] == [
        (ChangeKind.CHANGE_DEST_NODE, None, 1), (ChangeKind.ADD_DEST_NODE, None, 2)]


def test_all_addition_batch_classifies_in_linear_time():
    # A 20,000-vertex chain against a one-vertex version: every vertex and
    # edge is added. A classifier that pairs each added vertex with each
    # added edge takes minutes on it.
    n = 20_000
    new = lf.parse_graph("".join(f"V {i} use x\n" for i in range(n))
                         + "".join(f"E {i} {i + 1}\n" for i in range(n - 1)))
    old = lf.parse_graph("V 0 use x\n")
    start = time.perf_counter()
    batch = lf.diff_graphs(old, new)
    assert lf.parse_changes_for_new(lf.render_changes(batch), new) == batch
    assert time.perf_counter() - start < 10
    assert [(c.kind, c.u, c.v) for c in batch] == [
        (ChangeKind.ADD_DEST_NODE, i - 1, i) for i in range(1, n)]


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


def test_both_endpoints_new_decomposition():
    g = lf.parse_graph("V 1 entry nop\n")
    nop = lf.VertexAttribute(stmts=())
    new = lf.SuperGraph({1: g.vertices[1], 5: nop, 9: nop}, {(9, 5)})
    batch = lf.diff_graphs(g, new)
    kinds = [c.kind for c in batch]
    assert ChangeKind.ADD_SOURCE_NODE in kinds or ChangeKind.ADD_EDGE in kinds
    assert apply_batch(g, batch) == new


def test_entry_flag_change_is_a_node_change():
    g = lf.parse_graph("V 1 entry nop\nV 2 nop\nE 1 2\n")
    flagged = lf.SuperGraph(
        {1: g.vertices[1], 2: lf.VertexAttribute(stmts=(), is_entry=True)},
        edge_set(g))
    batch = lf.diff_graphs(g, flagged)
    assert len(batch) == 1
    assert batch[0].kind in {ChangeKind.CHANGE_SOURCE_NODE, ChangeKind.CHANGE_DEST_NODE}
    assert apply_batch(g, batch) == flagged


def test_adjacency_is_sorted_whatever_the_edge_order():
    rng = random.Random(23)
    vids = rng.sample(range(1000), 60)
    edges = [(rng.choice(vids), rng.choice(vids)) for _ in range(300)]
    rng.shuffle(edges)
    g = lf.SuperGraph({vid: lf.VertexAttribute(()) for vid in vids}, edges)
    for vid in vids:
        assert g.preds(vid) == tuple(sorted({u for (u, v) in edges if v == vid}))
        assert g.succs(vid) == tuple(sorted({v for (u, v) in edges if u == vid}))
    rendered = [line for line in lf.render_graph(g).splitlines() if line.startswith("E ")]
    assert rendered == [f"E {u} {v}" for (u, v) in sorted(set(edges))]


def test_rendering_two_statements_is_a_graph_error():
    # The API accepts a vertex with two statements; the text format does not.
    two = lf.VertexAttribute((lf.DefStmt("x", "d1"), lf.UseStmt("x")))
    g = lf.SuperGraph({1: two}, ())
    with pytest.raises(lf.GraphError, match="at most one statement per vertex"):
        lf.render_graph(g)
    batch = lf.diff_graphs(lf.SuperGraph({}, ()), g)
    with pytest.raises(lf.GraphError, match="at most one statement per vertex"):
        lf.render_changes(batch)


def test_rendering_an_unknown_statement_record_is_a_graph_error():
    g = lf.SuperGraph({1: lf.VertexAttribute((("jump", "x"),))}, ())
    with pytest.raises(lf.GraphError, match=r"unknown statement record \('jump', 'x'\)"):
        lf.render_graph(g)
