"""Impact analysis and incremental-update behavior.

The worked eight-vertex example (fixtures/incr_demo_*) pins exact
affected sets and boundary sources; randomized (graph, edit) pairs check
incremental results against from-scratch runs.
"""

import json
import random
import re

import pytest

import latticeflow as lf
from latticeflow import cli
from latticeflow.cfg import ChangeKind
from latticeflow.incremental import build_impact
from support import (
    edge_set,
    load_fixture,
    new_store,
    random_edit,
    random_graph,
    store_payloads,
)

ANALYSES = [lf.reaching_defs, lf.const_prop, lf.lru_must_cache]


def _example():
    old = load_fixture("incr_demo_old.cfg")
    new = load_fixture("incr_demo_new.cfg")
    return old, new, lf.diff_graphs(old, new)


def _converged_store(graph, analysis, path):
    store = lf.FactStore(analysis, path)
    result = lf.run_optimized(graph, analysis)
    store.batch_put(result.in_facts, result.out_facts)
    return store


def _scratch_bytes(graph, analysis, path):
    """The store file of a from-scratch analysis of ``graph``."""
    return _converged_store(graph, analysis, path).path.read_bytes()


# ---------------------------------------------------------------------------
# Seeds and closure


def _seeded(batch, vertices):
    """The affected sets of ``batch`` on a graph of ``vertices`` without
    edges, where the closure adds nothing: all of them, and those seeded
    by additions, deletions and changes."""
    edgeless = lf.SuperGraph({vid: lf.VertexAttribute(()) for vid in vertices}, ())
    impact = build_impact(batch, edgeless, per_kind=True)
    return impact.affected_all, (impact.affected_add, impact.affected_delete,
                                 impact.affected_change)


def test_seed_affected_worked_example():
    _, new, batch = _example()
    assert _seeded(batch, new.vertices)[0] == {4, 5, 7}


def test_seed_affected_empty_batch():
    assert _seeded((), (1, 2)) == (set(), (set(), set(), set()))


def test_seed_affected_by_kind_worked_example():
    _, new, batch = _example()
    assert _seeded(batch, new.vertices)[1] == ({4}, {7}, {5})


_CATEGORIES = (
    {ChangeKind.ADD_EDGE, ChangeKind.ADD_SOURCE_NODE, ChangeKind.ADD_DEST_NODE},
    {ChangeKind.DELETE_EDGE, ChangeKind.DELETE_SOURCE_NODE, ChangeKind.DELETE_DEST_NODE},
    {ChangeKind.CHANGE_SOURCE_NODE, ChangeKind.CHANGE_DEST_NODE},
)


@pytest.mark.parametrize("kind,seeded", [
    (ChangeKind.ADD_EDGE, {2}),
    (ChangeKind.ADD_SOURCE_NODE, {1, 2}),
    (ChangeKind.ADD_DEST_NODE, {2}),
    (ChangeKind.DELETE_EDGE, {2}),
    (ChangeKind.DELETE_SOURCE_NODE, {2}),
    (ChangeKind.DELETE_DEST_NODE, set()),  # the deleted destination is gone
    (ChangeKind.CHANGE_SOURCE_NODE, {1}),
    (ChangeKind.CHANGE_DEST_NODE, {2}),
])
def test_each_change_kind_seeds_its_category(kind, seeded):
    batch = (lf.AtomicChange(kind, u=1, v=2),)
    assert _seeded(batch, (1, 2)) == (
        seeded, tuple(seeded if kind in kinds else set() for kinds in _CATEGORIES))


def test_deleted_source_node_without_successor_seeds_nothing():
    batch = (lf.AtomicChange(ChangeKind.DELETE_SOURCE_NODE, u=1, v=None),)
    assert _seeded(batch, (1, 2))[0] == set()


def test_transitive_closure_worked_example():
    _, new, _ = _example()
    assert lf.transitive_closure({4, 5, 7}, new) == {1, 4, 5, 6, 7, 8}
    assert lf.transitive_closure(set(), new) == frozenset()
    assert lf.transitive_closure({4}, new) == {1, 4, 7, 8}
    assert lf.transitive_closure({5}, new) == {5, 6, 7}


def test_impact_naive_worked_example():
    _, new, batch = _example()
    impact = build_impact(batch, new, per_kind=False)
    assert impact.affected_all == {1, 4, 5, 6, 7, 8}
    # Closed under successors: a run seeded on exactly these vertices of
    # the updated graph never reaches beyond them.
    assert {d for k in impact.affected_all for d in new.succs(k)} <= {1, 4, 5, 6, 7, 8}
    assert impact.boundary_preds[4] == {3}
    assert all(not impact.boundary_preds[k] for k in (1, 5, 6, 7, 8))
    assert impact.reuse == frozenset()


def test_impact_optimized_worked_example():
    _, new, batch = _example()
    impact = build_impact(batch, new, per_kind=True)
    assert impact.affected_add == {1, 4, 7, 8}
    assert impact.affected_delete == {7}
    assert impact.affected_change == {5, 6, 7}
    assert impact.add_only == {1, 4, 8}
    assert impact.reuse == {1, 4, 8}
    assert impact.boundary_preds[4] == {1}
    assert impact.boundary_preds[7] == {4}
    assert all(not impact.boundary_preds[k] for k in (1, 5, 6, 8))


def test_impact_all_affected_has_no_boundary():
    g = load_fixture("diamond_rd.cfg")
    plus = lf.SuperGraph(g.vertices, edge_set(g) | {(4, 1)})
    batch = lf.diff_graphs(g, plus)  # 4 -> 1 closes a cycle over everything
    impact = build_impact(batch, plus, per_kind=False)
    assert impact.affected_all == set(plus.vertices)
    assert all(not ps for ps in impact.boundary_preds.values())


def test_closure_soundness_no_edge_escapes():
    rng = random.Random(61)
    for _ in range(30):
        old = random_graph(rng, max_vertices=20, max_edges=50)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        affected = []
        for per_kind in (False, True):
            impact = build_impact(batch, new, per_kind=per_kind)
            for (u, v) in edge_set(new):
                if u in impact.affected_all:
                    assert v in impact.affected_all
            affected.append(impact.affected_all)
        assert affected[0] == affected[1]


def test_subgraph_edges_are_the_induced_ones(capsys, tmp_path):
    # The report's sub_cfg counts the sub-graph that the affected set
    # induces in the updated graph: the worked example, then random edits.
    rng = random.Random(67)
    old, new, _ = _example()
    cases = [(old, new)]
    while len(cases) < 16:
        old = random_graph(rng, max_vertices=20, max_edges=50)
        cases.append((old, random_edit(rng, old)))
    old_cfg, new_cfg = tmp_path / "old.cfg", tmp_path / "new.cfg"
    changes, store = tmp_path / "edit.changes", tmp_path / "old.store"
    for old, new in cases:
        batch = lf.diff_graphs(old, new)
        old_cfg.write_text(lf.render_graph(old))
        new_cfg.write_text(lf.render_graph(new))
        changes.write_text(lf.render_changes(batch))
        affected = build_impact(batch, new, per_kind=False).affected_all
        expected = {(u, v) for (u, v) in edge_set(new) if u in affected and v in affected}
        for mode in ("naive", "opt"):
            assert cli.main(["analyze", "--cfg", str(old_cfg), "--analysis", "rd",
                             "--store", str(store)]) == cli.EXIT_OK
            capsys.readouterr()
            assert cli.main(["incremental", "--cfg", str(new_cfg), "--changes", str(changes),
                             "--store", str(store), "--mode", mode]) == cli.EXIT_OK
            report = json.loads(capsys.readouterr().out)
            assert report["sub_cfg"]["vertices"] == len(affected)
            assert report["sub_cfg"]["edges"] == len(expected)


# ---------------------------------------------------------------------------
# Incremental runs


@pytest.mark.parametrize("runner", [lf.run_incremental_naive,
                                    lf.run_incremental_optimized])
def test_empty_batch_touches_nothing(tmp_path, runner):
    g = load_fixture("diamond_rd.cfg")
    analysis = lf.reaching_defs()
    store = _converged_store(g, analysis, tmp_path / "g.store")
    before = store.path.read_bytes()
    run = runner(g, (), store, analysis)
    assert store.path.read_bytes() == before
    assert run.result.supersteps == 0
    assert not run.impact.affected_all


@pytest.mark.parametrize("make", ANALYSES)
@pytest.mark.parametrize("runner", [lf.run_incremental_naive,
                                    lf.run_incremental_optimized])
def test_added_edge_on_diamond_matches_scratch(tmp_path, make, runner):
    old = load_fixture("diamond_rd.cfg")
    new = lf.SuperGraph(old.vertices, edge_set(old) | {(2, 3)})
    batch = lf.diff_graphs(old, new)
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    runner(new, batch, store, analysis)
    assert store.path.read_bytes() == _scratch_bytes(new, analysis, tmp_path / "scratch.store")


@pytest.mark.parametrize("make", ANALYSES)
def test_worked_example_updates_only_affected(tmp_path, make):
    old, new, batch = _example()
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    before = store_payloads(store.path)
    run = lf.run_incremental_naive(new, batch, store, analysis)
    after = store_payloads(store.path)
    assert store.path.read_bytes() == _scratch_bytes(new, analysis, tmp_path / "scratch.store")
    untouched = set(new.vertices) - set(run.impact.affected_all)
    for vertex in untouched:
        assert after[vertex] == before[vertex]
    assert run.purged == {2}
    assert 2 not in after


@pytest.mark.parametrize("make", ANALYSES)
def test_random_edits_match_scratch_both_modes(tmp_path, make):
    rng = random.Random(73)
    analysis = make()
    for _ in range(15):
        old = random_graph(rng, max_vertices=18, max_edges=40)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        scratch = _scratch_bytes(new, analysis, tmp_path / "scratch.store")
        for runner in (lf.run_incremental_naive, lf.run_incremental_optimized):
            store = _converged_store(old, analysis, tmp_path / "old.store")
            runner(new, batch, store, analysis)
            assert store.path.read_bytes() == scratch


@pytest.mark.parametrize("make", ANALYSES)
def test_incremental_is_idempotent(tmp_path, make):
    old, new, batch = _example()
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    lf.run_incremental_optimized(new, batch, store, analysis)
    settled = store.path.read_bytes()
    rerun = lf.run_incremental_optimized(new, lf.diff_graphs(new, new), store,
                                         analysis)
    assert store.path.read_bytes() == settled
    assert rerun.result.supersteps == 0


@pytest.mark.parametrize("make", ANALYSES)
def test_add_only_batches_satisfy_warm_start_precondition(make):
    # On add-only edits, the old fixed point lies at or below the new one
    # for every warm-started vertex (dually above, for decreasing).
    rng = random.Random(79)
    analysis = make()
    checked = 0
    for _ in range(25):
        old = random_graph(rng, max_vertices=15, max_edges=30)
        new = _add_only_edit(rng, old)
        if new is None:
            continue
        batch = lf.diff_graphs(old, new)
        if not batch:
            continue
        old_result = lf.run_sequential(old, analysis)
        new_result = lf.run_sequential(new, analysis)
        impact = build_impact(batch, new, per_kind=True)
        for k in impact.reuse:
            lo_in, hi_in = old_result.in_facts[k], new_result.in_facts[k]
            lo_out, hi_out = old_result.out_facts[k], new_result.out_facts[k]
            if analysis.direction is lf.Direction.DECREASING:
                lo_in, hi_in = hi_in, lo_in
                lo_out, hi_out = hi_out, lo_out
            assert lo_in.leq(hi_in)
            assert lo_out.leq(hi_out)
            checked += 1
    assert checked > 10


def _add_only_edit(rng, old):
    vertices = dict(old.vertices)
    edges = edge_set(old)
    ids = sorted(vertices)
    for _ in range(rng.randint(1, 3)):
        edges.add((rng.choice(ids), rng.choice(ids)))
    if rng.random() < 0.5:
        new_id = max(ids) + rng.randint(1, 5)
        vertices[new_id] = lf.VertexAttribute(
            stmts=(lf.DefStmt("w", f"d{new_id}"),))
        edges.add((new_id, rng.choice(ids)))
    new = lf.SuperGraph(vertices, edges)
    return new if new.entries else None


def test_seeded_subgraph_run_reconverges_from_boundary_facts():
    # Drive the engine directly the way the naive mode does on the worked
    # example: the updated graph seeded on the affected set, affected facts
    # reset, the one boundary predecessor's stored outgoing fact seeded as
    # a pending message.
    old, new, batch = _example()
    analysis = lf.reaching_defs()
    old_result = lf.run_optimized(old, analysis)
    affected = build_impact(batch, new, per_kind=False).affected_all
    seeded = lf.seed_and_run(new, analysis, reset=affected, warm={},
                             boundary={4: [(3, old_result.out_facts[3])]})
    assert seeded.in_facts.keys() == seeded.out_facts.keys() == affected
    scratch = lf.run_optimized(new, analysis)
    for k in affected:
        assert seeded.in_facts[k] == scratch.in_facts[k]
        assert seeded.out_facts[k] == scratch.out_facts[k]


@pytest.mark.parametrize("make", ANALYSES)
@pytest.mark.parametrize("runner", [lf.run_incremental_naive,
                                    lf.run_incremental_optimized])
def test_region_made_unreachable_by_edge_deletion(tmp_path, make, runner):
    # Deleting 1 -> 2 strands the {2, 4} cycle; its edge into the still
    # reachable vertex 3 must not leak manufactured facts into 3.
    old = lf.parse_graph("""
V 1 def a d1
V 2 def b d2
V 3 use a
V 4 use b
E 1 2
E 1 3
E 2 3
E 2 4
E 4 2
""")
    new = lf.SuperGraph(old.vertices, edge_set(old) - {(1, 2)})
    batch = lf.diff_graphs(old, new)
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    runner(new, batch, store, analysis)
    assert store.path.read_bytes() == _scratch_bytes(new, analysis, tmp_path / "scratch.store")


@pytest.mark.parametrize("make", ANALYSES)
@pytest.mark.parametrize("runner", [lf.run_incremental_naive,
                                    lf.run_incremental_optimized])
def test_entry_demoted_by_added_edge(tmp_path, make, runner):
    # Adding 2 -> 1 raises vertex 1's in-degree, so it stops being a
    # derived entry and the {1, 2} region becomes unreachable.
    old = lf.parse_graph("""
V 9 nop
V 1 def a d1
V 2 use a
E 1 2
""")
    new = lf.SuperGraph(old.vertices, edge_set(old) | {(2, 1)})
    batch = lf.diff_graphs(old, new)
    assert any(c.kind in {ChangeKind.CHANGE_SOURCE_NODE, ChangeKind.CHANGE_DEST_NODE}
               for c in batch)  # the entry flip must surface as a node change
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    runner(new, batch, store, analysis)
    assert store.path.read_bytes() == _scratch_bytes(new, analysis, tmp_path / "scratch.store")


def test_store_miss_for_boundary_predecessor_raises(tmp_path):
    old, new, batch = _example()
    analysis = lf.reaching_defs()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    store.batch_put({}, {}, purge={3})  # vertex 3 is the unaffected boundary predecessor
    with pytest.raises(lf.StoreInconsistentError):
        lf.run_incremental_naive(new, batch, store, analysis)


def test_store_miss_for_warm_start_vertex_raises(tmp_path):
    old, new, batch = _example()
    analysis = lf.reaching_defs()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    store.batch_put({}, {}, purge={8})  # vertex 8 would be warm-started in optimized mode
    with pytest.raises(lf.StoreInconsistentError):
        lf.run_incremental_optimized(new, batch, store, analysis)


def test_deleted_vertex_facts_are_purged_only_on_success(tmp_path):
    old, new, batch = _example()
    analysis = lf.reaching_defs()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    store.batch_put({}, {}, purge={3})
    with pytest.raises(lf.StoreInconsistentError):
        lf.run_incremental_naive(new, batch, store, analysis)
    # The failed run must not have purged the deleted vertex's facts.
    assert 2 in store.vertices()


@pytest.mark.parametrize("changes", ["worked example", "none"])
def test_store_of_another_program_is_refused_before_anything_is_written(tmp_path, changes):
    # chain10 has vertices 1..10; the worked example starts from 1..8.
    _, new, batch = _example()
    if changes == "none":
        batch = lf.diff_graphs(new, new)
    analysis = lf.reaching_defs()
    path = tmp_path / "chain10.store"
    store = new_store(path, analysis)
    result = lf.run_optimized(load_fixture("chain10.cfg"), analysis)
    store.batch_put(result.in_facts, result.out_facts)
    blob = path.read_bytes()
    with pytest.raises(lf.StoreInconsistentError,
                       match=re.escape(f"store {path} was not computed for the program")):
        lf.run_incremental_optimized(new, batch, store, analysis)
    assert path.read_bytes() == blob
    assert store.vertices() == set(range(1, 11))


@pytest.mark.parametrize("make", ANALYSES)
@pytest.mark.parametrize("runner", [lf.run_incremental_naive,
                                    lf.run_incremental_optimized])
def test_edge_into_region_unreachable_before(tmp_path, make, runner):
    # The {3, 4} cycle was unreachable, so its stored OUT facts are the
    # initial element, not transfer(IN). Adding 2 -> 3 reaches it by an
    # addition only: the optimized mode warm-starts both vertices, and
    # vertex 4 gets no message, so it must still compute at superstep 0.
    old = lf.parse_graph("""
V 1 entry use x
V 2 use x
V 3 use x
V 4 def x d4
E 1 2
E 3 4
E 4 3
""")
    new = lf.SuperGraph(old.vertices, edge_set(old) | {(2, 3)})
    batch = lf.diff_graphs(old, new)
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    runner(new, batch, store, analysis)
    assert store.path.read_bytes() == _scratch_bytes(new, analysis, tmp_path / "scratch.store")


@pytest.mark.parametrize("make", ANALYSES)
@pytest.mark.parametrize("runner", [lf.run_incremental_naive,
                                    lf.run_incremental_optimized])
def test_full_reset_costs_what_a_scratch_run_costs(tmp_path, make, runner):
    # Changing the entry of a chain resets every vertex. Only the entry
    # computes at superstep 0; each other vertex computes once, when its
    # predecessor's first fact arrives -- exactly as in a whole-program run.
    n = 100
    text = "".join(f"V {k} def x d{k}\n" for k in range(1, n + 1))
    text += "".join(f"E {k} {k + 1}\n" for k in range(1, n))
    old = lf.parse_graph(text)
    vertices = dict(old.vertices)
    vertices[1] = lf.VertexAttribute(stmts=(lf.DefStmt("y", "d0"),))
    new = lf.SuperGraph(vertices, edge_set(old))
    batch = lf.parse_changes_for_new("CN 1 def y d0\n", new)
    assert batch == lf.diff_graphs(old, new)
    analysis = make()
    store = _converged_store(old, analysis, tmp_path / "old.store")
    run = runner(new, batch, store, analysis)
    assert run.impact.affected_all == set(new.vertices)
    scratch = lf.run_optimized(new, analysis)
    counts = (run.result.supersteps, run.result.messages_sent, run.result.fact_updates)
    assert counts == (scratch.supersteps, scratch.messages_sent, scratch.fact_updates)
    assert counts == (n, n - 1, n)
    assert store.path.read_bytes() == _scratch_bytes(new, analysis, tmp_path / "scratch.store")


def test_incremental_run_commits_the_store_once(tmp_path, monkeypatch):
    # Writing the re-analysed facts and purging the deleted vertex are one
    # staged commit: the store file is rendered and renamed once.
    old, new, batch = _example()
    analysis = lf.reaching_defs()
    path = tmp_path / "facts.store"
    store = new_store(path, analysis)
    result = lf.run_optimized(old, analysis)
    store.batch_put(result.in_facts, result.out_facts)
    commits = []
    original = lf.FactStore._commit
    monkeypatch.setattr(lf.FactStore, "_commit",
                        lambda self, *a: commits.append(1) or original(self, *a))
    run = lf.run_incremental_optimized(new, batch, store, analysis)
    assert run.purged == {2}
    assert len(commits) == 1
    fresh = new_store(tmp_path / "fresh.store", analysis)
    scratch = lf.run_optimized(new, analysis)
    fresh.batch_put(scratch.in_facts, scratch.out_facts)
    assert path.read_bytes() == (tmp_path / "fresh.store").read_bytes()
