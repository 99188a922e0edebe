"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line; run with ``pytest tests/test_acceptance.py -v -s`` to
see them. Expected values are exact unless a criterion states a bound.
"""

import random
import time
from collections import deque

import pytest

import latticeflow as lf
from latticeflow import cli
from latticeflow.cfg import ChangeKind
from latticeflow.incremental import build_impact
from support import (
    ConcreteLru,
    all_solvers,
    edge_set,
    fact_pairs,
    fixture_path,
    random_edit,
    random_graph,
    random_stmts,
    store_payloads,
)

ANALYSES = {"rd": lf.reaching_defs, "cp": lf.const_prop, "cache": lf.lru_must_cache}


def _announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_four_way_equivalence():
    """100 random CFGs x 3 analyses: classic, optimized, sequential and
    chaotic solvers agree fact-for-fact at every vertex."""
    start = time.monotonic()
    rng = random.Random(0xACCE55)
    graphs = [random_graph(rng, max_vertices=50, max_edges=150) for _ in range(100)]
    for name, make in sorted(ANALYSES.items()):
        analysis = make()
        for idx, g in enumerate(graphs):
            runs = all_solvers(g, analysis, seed=idx)
            reference = runs.pop("sequential")
            for solver, result in runs.items():
                assert result.facts_equal(reference), (name, idx, solver)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
    _announce(1, f"4-way equivalence on 100 graphs x 3 analyses "
                 f"({elapsed:.1f}s)")


def test_criterion_2_incremental_equals_scratch(tmp_path):
    """100 random (graph, change-batch) pairs covering all eight atomic
    kinds: both incremental modes reproduce the from-scratch store and do
    not touch unaffected vertices' bytes."""
    start = time.monotonic()
    rng = random.Random(0x17C)
    kinds_seen = set()
    pairs = []
    for _ in range(100):
        old = random_graph(rng, max_vertices=24, max_edges=60)
        new = random_edit(rng, old)
        batch = lf.diff_graphs(old, new)
        kinds_seen.update(c.kind for c in batch)
        pairs.append((old, new, batch))
    assert kinds_seen == set(ChangeKind), f"missing kinds: {set(ChangeKind) - kinds_seen}"

    for name, make in sorted(ANALYSES.items()):
        analysis = make()
        for idx, (old, new, batch) in enumerate(pairs):
            old_result = lf.run_optimized(old, analysis)
            scratch_result = lf.run_optimized(new, analysis)
            scratch = lf.FactStore(analysis, tmp_path / "scratch.store")
            scratch.batch_put(scratch_result.in_facts, scratch_result.out_facts)
            expected = scratch.path.read_bytes()
            for runner in (lf.run_incremental_naive, lf.run_incremental_optimized):
                store = lf.FactStore(analysis, tmp_path / "incremental.store")
                store.batch_put(old_result.in_facts, old_result.out_facts)
                before = store_payloads(store.path)
                run = runner(new, batch, store, analysis)
                assert store.path.read_bytes() == expected, (name, idx, runner.__name__)
                after = store_payloads(store.path)
                untouched = set(new.vertices) - set(run.impact.affected_all)
                for vertex, pair in before.items():
                    if vertex in untouched:
                        assert after[vertex] == pair, (name, idx, vertex)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"incremental sweep took {elapsed:.1f}s"
    _announce(2, f"incremental == scratch on 100 edit pairs x 3 analyses, "
                 f"all 8 atomic kinds covered ({elapsed:.1f}s)")


def test_criterion_3_worked_example_sets():
    """The eight-vertex fixture reproduces the documented affected sets and
    boundary query sources exactly."""
    old = lf.parse_graph(fixture_path("incr_demo_old.cfg").read_text())
    new = lf.parse_graph(fixture_path("incr_demo_new.cfg").read_text())
    batch = lf.diff_graphs(old, new)

    naive = build_impact(batch, new, per_kind=False)
    assert naive.affected_all == {1, 4, 5, 6, 7, 8}
    assert naive.boundary_preds[4] == {3}
    assert all(not naive.boundary_preds[k] for k in naive.affected_all if k != 4)

    opt = build_impact(batch, new, per_kind=True)
    assert opt.affected_add == {1, 4, 7, 8}
    assert opt.affected_delete == {7}
    assert opt.affected_change == {5, 6, 7}
    assert opt.add_only == {1, 4, 8}
    assert opt.reuse == {1, 4, 8}
    sources = {k: ps for k, ps in opt.boundary_preds.items() if ps}
    assert sources == {4: {1}, 7: {4}}
    _announce(3, "worked-example impact sets and boundary sources match")


def test_criterion_4_superstep_economy(tmp_path):
    """On a 100-vertex chain with one subsumed add-only edge, the optimized
    mode converges in <= 3 supersteps with zero fact changes while the
    naive mode re-propagates a >= 50 superstep wavefront."""
    lines = ["V 1 entry def x d1"]
    lines += [f"V {i} use x" for i in range(2, 101)]
    lines += [f"E {i} {i + 1}" for i in range(1, 100)]
    old = lf.parse_graph("\n".join(lines))
    new = lf.SuperGraph(old.vertices, edge_set(old) | {(5, 10)})
    batch = lf.diff_graphs(old, new)
    analysis = lf.reaching_defs()

    base = lf.run_optimized(old, analysis)
    # The carried fact is already subsumed at the destination.
    assert base.out_facts[5].leq(base.in_facts[10])

    reports = {}
    for mode, runner in (("naive", lf.run_incremental_naive),
                         ("opt", lf.run_incremental_optimized)):
        store = lf.FactStore(analysis, tmp_path / f"{mode}.store")
        store.batch_put(base.in_facts, base.out_facts)
        run = runner(new, batch, store, analysis)
        reports[mode] = run.result.to_report()

    assert reports["opt"]["supersteps"] <= 3
    assert reports["opt"]["fact_updates"] == 0
    assert reports["naive"]["supersteps"] >= 50
    _announce(4, f"subsumed add-only edge: optimized {reports['opt']['supersteps']} "
                 f"supersteps / 0 updates, naive {reports['naive']['supersteps']}")


FIXTURE_RUNS = [
    ("diamond_rd.cfg", "rd", ()),
    ("constprop_diamond.cfg", "cp", ()),
    ("cache_diamond.cfg", "cache", ("--sets", "1", "--assoc", "2")),
    ("chain10.cfg", "rd", ()),
    ("incr_demo_new.cfg", "rd", ()),
]


def test_criterion_5_worker_count_determinism(tmp_path, capsys):
    """Analyze with 1, 2, 4 and 8 workers: byte-identical stores for every
    bundled fixture."""
    for fixture, analysis, extra in FIXTURE_RUNS:
        blobs = set()
        for workers in (1, 2, 4, 8):
            store = tmp_path / f"{fixture}.{workers}.store"
            code = cli.main(["analyze", "--cfg", str(fixture_path(fixture)),
                             "--analysis", analysis, "--store", str(store),
                             "--workers", str(workers), *extra])
            assert code == cli.EXIT_OK
            blobs.add(store.read_bytes())
        assert len(blobs) == 1, fixture
    capsys.readouterr()
    _announce(5, "byte-identical stores for workers 1/2/4/8 on all fixtures")


def test_criterion_6_monotonicity_harness():
    """1000 random ordered fact pairs per client analysis: transfer
    preserves the order with zero failures."""
    rng = random.Random(0x40F0)
    failures = 0
    def_counter = [0]
    for name, make in sorted(ANALYSES.items()):
        analysis = make()
        for _ in range(1000):
            lo, hi = fact_pairs(rng, name)
            assert lo.leq(hi)
            stmts = random_stmts(rng, def_counter)
            if not analysis.transfer(stmts, lo).leq(analysis.transfer(stmts, hi)):
                failures += 1
    assert failures == 0
    _announce(6, "3000 ordered transfer pairs, 0 monotonicity failures")


def test_criterion_7_cache_soundness_exhaustive():
    """Every abstract must-hit on straight-line code is a concrete LRU hit
    (4 blocks, sets=4, assoc=2).

    Exhaustiveness: the joint (abstract, concrete) state after a prefix is
    a deterministic function of the prefix, so exploring every reachable
    state pair covers every access sequence. The frontier here empties
    within 20 steps, so all sequences of length <= 20 (and beyond) are
    checked; a direct sweep through the full engine re-checks every
    sequence of length <= 5.
    """
    blocks = (0, 4, 8, 12)  # all collide in one set: the hardest case
    analysis = lf.lru_must_cache(sets=4, assoc=2)

    def key(fact, concrete):
        return (analysis.encode(fact), concrete.state())

    start_fact = analysis.entry_fact()
    start_concrete = ConcreteLru(4, 2)
    seen = {key(start_fact, start_concrete)}
    frontier = deque([(start_fact, start_concrete, 0)])
    checked = 0
    max_depth = 0
    while frontier:
        fact, concrete, depth = frontier.popleft()
        max_depth = max(max_depth, depth)
        for block in blocks:
            if fact.must_hit(block, 4):
                assert concrete.age_of(block) is not None, (depth, block)
            checked += 1
            next_concrete = concrete.clone()
            next_concrete.access(block)
            next_fact = analysis.transfer((lf.AccessStmt(block),), fact)
            k = key(next_fact, next_concrete)
            if k not in seen:
                seen.add(k)
                frontier.append((next_fact, next_concrete, depth + 1))
    assert max_depth <= 20, "state closure must cover all length-20 prefixes"

    # Cross-check through the whole pipeline on every short sequence.
    engine_checked = 0
    for length in range(1, 6):
        for combo in range(len(blocks) ** length):
            seq, c = [], combo
            for _ in range(length):
                seq.append(blocks[c % len(blocks)])
                c //= len(blocks)
            g = _access_chain(seq)
            result = lf.run_optimized(g, analysis)
            concrete = ConcreteLru(4, 2)
            for vid, block in enumerate(seq, start=1):
                if result.in_facts[vid].must_hit(block, 4):
                    assert concrete.age_of(block) is not None, (seq, vid)
                concrete.access(block)
                engine_checked += 1
    _announce(7, f"cache soundness: {checked} state-pair checks "
                 f"(closure depth {max_depth}), {engine_checked} engine checks, "
                 f"0 violations")


def _access_chain(seq):
    vertices = {i: lf.VertexAttribute(stmts=(lf.AccessStmt(b),),
                                      is_entry=(i == 1))
                for i, b in enumerate(seq, start=1)}
    edges = [(i, i + 1) for i in range(1, len(seq))]
    return lf.SuperGraph(vertices, edges)


def test_criterion_8_non_convergence_guard(tmp_path, capsys, monkeypatch):
    """A deliberately non-monotone analysis makes the CLI exit with code 3
    inside the superstep cap instead of hanging."""
    from test_engine import _Oscillator

    loop = tmp_path / "loop.cfg"
    loop.write_text("V 1 entry nop\nV 2 nop\nV 3 nop\nE 1 2\nE 2 3\nE 3 1\n")
    monkeypatch.setitem(cli.ANALYSES, "osc", lambda args: _Oscillator())
    code = cli.main(["analyze", "--cfg", str(loop), "--analysis", "osc",
                     "--store", str(tmp_path / "s.store")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "supersteps" in captured.err
    _announce(8, "non-monotone analysis stopped at the superstep cap, exit 3")
