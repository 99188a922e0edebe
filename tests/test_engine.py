import random

import pytest

import latticeflow as lf
from latticeflow.lattice import Analysis, Direction
from support import all_solvers, load_fixture, random_graph


def _rd(*pairs):
    return lf.ReachingDefsFact(frozenset(pairs))


def test_classic_matches_oracle_on_diamond():
    g = load_fixture("diamond_rd.cfg")
    analysis = lf.reaching_defs()
    classic = lf.run_classic(g, analysis)
    oracle = lf.run_sequential(g, analysis)
    assert classic.facts_equal(oracle)
    assert classic.in_facts[4] == _rd(("d1", "x"), ("d2", "y"), ("d3", "x"))


def test_single_nop_entry_outputs_initial():
    g = lf.parse_graph("V 1 entry nop\n")
    r = lf.run_classic(g, lf.reaching_defs())
    assert r.out_facts[1] == lf.reaching_defs().initial()


def test_self_loop_converges_quickly():
    g = lf.parse_graph("V 1 entry def x d1\nE 1 1\n")
    r = lf.run_optimized(g, lf.reaching_defs())
    assert r.out_facts[1] == _rd(("d1", "x"))
    assert r.supersteps <= 3


def test_optimized_equals_classic_on_diamond():
    g = load_fixture("diamond_rd.cfg")
    analysis = lf.reaching_defs()
    a = lf.run_classic(g, analysis)
    b = lf.run_optimized(g, analysis)
    assert a.facts_equal(b)


def test_message_merges_into_retained_incoming_fact():
    # One vertex, one pending message: the new incoming fact must be the
    # fold of the message into the seeded value.
    g = lf.SuperGraph({4: lf.VertexAttribute(stmts=())}, ())
    analysis = lf.reaching_defs()
    seeded = _rd(("d2", "y"))
    incoming = _rd(("d1", "x"))
    r = lf.seed_and_run(g, analysis, reset=(), warm={4: (seeded, seeded)},
                        boundary={4: [(1, incoming)]})
    assert r.in_facts[4] == analysis.merge([incoming], seeded)
    assert r.in_facts[4] == _rd(("d1", "x"), ("d2", "y"))


def test_late_predecessor_update_arrives_as_a_single_message():
    # Vertex 4 has predecessors 1, 2 and 3; vertex 1 updates one superstep
    # later than the others, so 4's final activation gathers exactly the
    # one fresh fact and folds it into its retained incoming fact.
    g = lf.parse_graph("""
V 0 def a d0
V 1 def b d1
V 2 def c d2
V 3 def e d3
V 4 use a
V 5 use b
V 6 use c
E 0 1
E 1 4
E 2 4
E 3 4
E 4 5
E 4 6
""")
    analysis = _MergeRecording(lf.reaching_defs())
    r = lf.run_optimized(g, analysis)
    all_defs = _rd(("d0", "a"), ("d1", "b"), ("d2", "c"), ("d3", "e"))
    assert r.in_facts[4] == all_defs
    assert r.supersteps == 4
    assert r.messages_sent == 8
    out_1 = r.out_facts[1]
    early_in_4 = _rd(("d2", "c"), ("d3", "e"))
    late_gathers = [(facts, old) for (facts, old) in analysis.calls
                    if facts == [out_1] and old == early_in_4]
    assert len(late_gathers) == 1  # exactly one message, merged into IN_4


class _MergeRecording(lf.Analysis):
    """Delegate that records each merge call's inputs."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.direction = inner.direction
        self.calls = []
        self.transfers = []  # the engines transfer right after each merge

    def initial(self):
        return self.inner.initial()

    def entry_fact(self):
        return self.inner.entry_fact()

    def merge(self, pred_facts, old_in):
        self.calls.append((list(pred_facts), old_in))
        return self.inner.merge(pred_facts, old_in)

    def transfer(self, stmts, in_fact):
        self.transfers.append(stmts)
        return self.inner.transfer(stmts, in_fact)

    def encode(self, fact):
        return self.inner.encode(fact)

    def decode(self, data):
        return self.inner.decode(data)


def test_entry_with_only_a_back_edge_keeps_the_entry_fact():
    # Entry 1's sole predecessor is 2, over a back edge. A must-cache entry
    # fact (empty cache) differs from the merge unit (unreached), so an IN
    # built from 2's message alone would claim block 0 is cached at 1.
    g = lf.parse_graph("V 1 entry nop\nV 2 access 0\nE 1 2\nE 2 1\n")
    analysis = lf.lru_must_cache()
    r = lf.run_optimized(g, analysis)
    assert r.in_facts[1] == analysis.entry_fact()
    assert r.facts_equal(lf.run_sequential(g, analysis))


def test_seeded_boundary_fact_survives_later_messages():
    # Vertex 3 has predecessors 1 and 2; only {2, 3} is seeded, so 1's fact
    # arrives once, as a superstep-0 message. 2's message comes a superstep
    # later and must be folded into the IN that holds 1's fact.
    g = lf.parse_graph("V 1 entry def y d1\nV 2 entry def x d2\nV 3 use x\nE 1 3\nE 2 3\n")
    analysis = lf.reaching_defs()
    r = lf.seed_and_run(g, analysis, reset={2, 3}, warm={},
                        boundary={3: [(1, _rd(("d1", "y")))]})
    assert r.in_facts[3] == _rd(("d1", "y"), ("d2", "x"))
    assert r.supersteps == 2


def test_sole_predecessor_message_is_folded_into_the_merge_unit():
    # 2 has predecessors 1 and 4. 3 and 4 have one predecessor each and
    # compute again when the loop feeds 2 a second time: each new message
    # already holds the retained IN, so the merge starts from initial().
    g = lf.parse_graph("V 1 entry def x d1\nV 2 use x\nV 3 def y d3\nV 4 def x d4\n"
                       "V 5 use y\nE 1 2\nE 2 3\nE 3 4\nE 4 2\nE 4 5\n")
    analysis = _MergeRecording(lf.reaching_defs())
    r = lf.run_optimized(g, analysis)
    assert r.facts_equal(lf.run_sequential(g, lf.reaching_defs()))
    vertex_of = {attr.stmts: k for k, attr in g.vertices.items()}
    bases = {}
    for (msgs, old_in), stmts in zip(analysis.calls, analysis.transfers, strict=True):
        if msgs:
            bases.setdefault(vertex_of[stmts], []).append(old_in)
    initial = analysis.initial()
    assert len(bases[3]) == len(bases[4]) == 2
    assert all(old_in == initial for k in (3, 4, 5) for old_in in bases[k])
    assert bases[2][-1] != initial  # two predecessors: the retained IN


CHAINS = {
    "rd": (lf.reaching_defs, ["def x d1", "use x", "def y d3", "use y", "def x d5"]),
    "cp": (lf.const_prop, ["assign x = 1", "assign y = x + x", "nop",
                           "assign x = 3", "assign z = y * x"]),
    "cache": (lf.lru_must_cache, ["access 0", "access 1", "nop", "access 4", "access 0"]),
}


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_chain_vertex_takes_its_predecessors_fact_itself(kind):
    # A chain vertex has one predecessor, so its IN is that vertex's OUT,
    # the very object, not an equal copy.
    make, payloads = CHAINS[kind]
    lines = [f"V {k} {'entry ' if k == 1 else ''}{p}" for k, p in enumerate(payloads, 1)]
    lines += [f"E {k} {k + 1}" for k in range(1, len(payloads))]
    g = lf.parse_graph("\n".join(lines) + "\n")
    analysis = make()
    r = lf.run_optimized(g, analysis)
    assert r.facts_equal(lf.run_sequential(g, analysis))
    for k in range(2, len(payloads) + 1):
        assert r.in_facts[k] is r.out_facts[k - 1]


@pytest.mark.parametrize("runner", [lf.run_classic, lf.run_optimized])
def test_engine_fixed_point_is_stable_under_reevaluation(runner):
    rng = random.Random(83)
    analysis = lf.reaching_defs()
    for _ in range(10):
        g = random_graph(rng, max_vertices=20, max_edges=50)
        r = runner(g, analysis)
        for k in lf.transitive_closure(set(g.entries), g):
            base = analysis.entry_fact() if k in g.entries else analysis.initial()
            new_in = analysis.merge([r.out_facts[q] for q in g.preds(k)], base)
            assert new_in == r.in_facts[k]
            assert analysis.transfer(g.vertices[k].stmts, new_in) == r.out_facts[k]


def test_chain_converges_in_one_wavefront():
    g = load_fixture("chain10.cfg")
    r = lf.run_optimized(g, lf.reaching_defs())
    assert r.supersteps == 10
    assert r.out_facts[10] == _rd(("d1", "x"))


def test_seed_and_run_degenerate_equals_whole_program():
    g = load_fixture("diamond_rd.cfg")
    analysis = lf.reaching_defs()
    whole = lf.run_optimized(g, analysis)
    seeded = lf.seed_and_run(g, analysis, reset=g.vertices.keys(), warm={}, boundary={})
    assert seeded.facts_equal(whole)
    assert seeded.to_report() == whole.to_report()


def test_seed_and_run_from_converged_facts_changes_nothing():
    g = load_fixture("diamond_rd.cfg")
    analysis = lf.reaching_defs()
    whole = lf.run_optimized(g, analysis)
    warm = {k: (whole.in_facts[k], whole.out_facts[k]) for k in g.vertices}
    seeded = lf.seed_and_run(g, analysis, reset=(), warm=warm, boundary={})
    assert seeded.fact_updates == 0
    assert seeded.active_per_superstep == [len(g)]
    assert seeded.facts_equal(whole)


def test_seed_and_run_validates_coverage():
    g = load_fixture("diamond_rd.cfg")
    analysis = lf.reaching_defs()
    every = set(g.vertices)
    pair = (analysis.initial(), analysis.initial())
    with pytest.raises(lf.SeedMismatchError, match="both reset and warm"):
        lf.seed_and_run(g, analysis, every, {1: pair}, {})
    with pytest.raises(lf.SeedMismatchError):
        lf.seed_and_run(g, analysis, every, {}, {99: [(1, analysis.initial())]})
    # Vertex 1 is seeded but its successors 2 and 3 are not.
    with pytest.raises(lf.SeedMismatchError, match="unseeded successors"):
        lf.seed_and_run(g, analysis, {1}, {}, {})
    with pytest.raises(lf.SeedMismatchError):
        lf.seed_and_run(g, analysis, every | {99}, {}, {})
    with pytest.raises(lf.SeedMismatchError):
        lf.seed_and_run(g, analysis, every, {99: pair}, {})
    # {2, 4} is closed under successors: the run covers it and nothing else.
    whole = lf.run_optimized(g, analysis)
    part = lf.seed_and_run(g, analysis, {2, 4}, {}, {2: [(1, whole.out_facts[1])]})
    assert part.in_facts.keys() == part.out_facts.keys() == {2, 4}
    assert part.out_facts[2] == whole.out_facts[2]
    assert part.supersteps == 2


# The start rule, pinned at the engine. Entry 1 feeds 2 and 3; 2 and 3 feed
# 4, which feeds 5. Seeded on {2, 3, 4, 5}, with 1's fact as a boundary
# message to 2 only.
_START = "V 1 entry def x d1\nV 2 nop\nV 3 def y d3\nV 4 nop\nV 5 def z d5\n" \
         "E 1 2\nE 1 3\nE 2 4\nE 3 4\nE 4 5\n"


def test_superstep_0_computes_reset_entries_boundary_targets_and_every_warm_vertex():
    # Reset 2 has a boundary message and 4 has none; warm 3 has neither, and
    # its stored OUT is not transfer(IN). So superstep 0 computes 2 and 3,
    # and 4 waits for its first pushed fact.
    g = lf.parse_graph(_START)
    analysis = lf.reaching_defs()
    d1 = _rd(("d1", "x"))
    r = lf.seed_and_run(g, analysis, reset={2, 4, 5}, warm={3: (d1, d1)},
                        boundary={2: [(1, d1)]})
    assert r.active_per_superstep == [2, 1, 1]
    assert r.out_facts[3] == _rd(("d1", "x"), ("d3", "y"))
    assert r.out_facts[5] == _rd(("d1", "x"), ("d3", "y"), ("d5", "z"))
    whole = lf.run_optimized(g, analysis)
    assert all(r.out_facts[k] == whole.out_facts[k] for k in (2, 3, 4, 5))
    # A reset entry computes at superstep 0 without any message.
    entry = lf.seed_and_run(g, analysis, reset=g.vertices.keys(), warm={}, boundary={})
    assert entry.active_per_superstep[0] == 1
    assert entry.facts_equal(whole)


def test_reset_vertex_propagates_a_first_result_equal_to_the_initial_element():
    # Reset 2 has never computed, so its first OUT is pushed to 4 even though
    # it equals initial() (no definition reaches 2 through the message);
    # 4 and 5 then compute and 5 gains its own definition.
    g = lf.parse_graph(_START)
    analysis = lf.reaching_defs()
    r = lf.seed_and_run(g, analysis, reset={2, 3, 4, 5}, warm={},
                        boundary={2: [(1, analysis.initial())],
                                  3: [(1, analysis.initial())]})
    assert r.out_facts[2] == analysis.initial()
    assert r.out_facts[5] == _rd(("d3", "y"), ("d5", "z"))
    assert r.active_per_superstep == [2, 1, 1]
    assert r.fact_updates == 4


@pytest.mark.parametrize("make", [lf.reaching_defs, lf.const_prop, lf.lru_must_cache])
def test_four_way_equivalence_random(make):
    rng = random.Random(43)
    analysis = make()
    for _ in range(12):
        g = random_graph(rng, max_vertices=30, max_edges=80)
        runs = all_solvers(g, analysis, seed=rng.randint(0, 10**6))
        reference = runs.pop("sequential")
        for name, result in runs.items():
            assert result.facts_equal(reference), name


class _Recording(Analysis):
    """Delegating wrapper that records every (old, new) outgoing pair."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.direction = inner.direction
        self.trajectory = []

    def initial(self):
        return self.inner.initial()

    def entry_fact(self):
        return self.inner.entry_fact()

    def merge(self, pred_facts, old_in):
        return self.inner.merge(pred_facts, old_in)

    def transfer(self, stmts, in_fact):
        return self.inner.transfer(stmts, in_fact)

    def propagate(self, old_out, new_out):
        self.trajectory.append((old_out, new_out))
        return self.inner.propagate(old_out, new_out)

    def encode(self, fact):
        return self.inner.encode(fact)

    def decode(self, data):
        return self.inner.decode(data)


@pytest.mark.parametrize("runner", [lf.run_classic, lf.run_optimized])
@pytest.mark.parametrize("make", [lf.reaching_defs, lf.const_prop, lf.lru_must_cache])
def test_monotone_trajectory(make, runner):
    rng = random.Random(47)
    recorder = _Recording(make())
    for _ in range(8):
        g = random_graph(rng, max_vertices=20, max_edges=50)
        recorder.trajectory.clear()
        runner(g, recorder)
        for old, new in recorder.trajectory:
            if old is None:
                continue
            if recorder.direction is Direction.INCREASING:
                assert old.leq(new)
            else:
                assert new.leq(old)


class _Oscillator(Analysis):
    """Deliberately non-monotone: the outgoing fact flips every visit."""

    name = "oscillator"
    direction = Direction.INCREASING

    def initial(self):
        return lf.ReachingDefsFact(frozenset())

    def merge(self, pred_facts, old_in):
        return old_in

    def transfer(self, stmts, in_fact):
        flip = ("flip", "x")
        if flip in in_fact.defs:
            return lf.ReachingDefsFact(frozenset())
        return lf.ReachingDefsFact(frozenset({flip}))

    def propagate(self, old_out, new_out):
        return True

    def encode(self, fact):
        raise NotImplementedError

    def decode(self, data):
        raise NotImplementedError


def test_non_monotone_analysis_hits_superstep_cap():
    g = lf.parse_graph("V 1 entry nop\nV 2 nop\nE 1 2\nE 2 1\n")
    with pytest.raises(lf.NonConvergenceError):
        lf.run_optimized(g, _Oscillator())
    with pytest.raises(lf.NonConvergenceError):
        lf.run_classic(g, _Oscillator())
    for solve in (lf.run_sequential, lambda g, a: lf.run_chaotic(g, a, 7)):
        with pytest.raises(lf.NonConvergenceError, match="no fixed point after 320 worklist "
                                                         "iterations"):
            solve(g, _Oscillator())


class _Climber(Analysis):
    """Monotone on the chain 0 < 1 < ... < ``height``: a transfer adds one,
    up to ``height``. A lone vertex on a self-loop changes its OUT
    ``height + 1`` times and so runs ``height + 1`` supersteps."""

    name = "climber"
    direction = Direction.INCREASING

    def __init__(self, height):
        self.height = height

    def initial(self):
        return 0

    def merge(self, pred_facts, old_in):
        return max([old_in, *pred_facts])

    def transfer(self, stmts, in_fact):
        return min(in_fact + 1, self.height)

    def encode(self, fact):
        raise NotImplementedError

    def decode(self, data):
        raise NotImplementedError


_CAP_10 = r"no fixed point after 10 supersteps \(cap 10\)"


def test_superstep_cap_is_ten_per_vertex_the_run_covers():
    g = lf.parse_graph("V 1 entry nop\nE 1 1\n")
    for runner in (lf.run_classic, lf.run_optimized):
        assert runner(g, _Climber(9)).supersteps == 10
        with pytest.raises(lf.NonConvergenceError, match=_CAP_10):
            runner(g, _Climber(10))
    # Warm-started on one vertex of three, the run covers one: cap 10, not 30.
    g = lf.parse_graph("V 1 entry nop\nV 2 nop\nV 3 nop\nE 1 2\nE 2 3\nE 3 3\n")
    assert lf.seed_and_run(g, _Climber(9), (), {3: (0, 0)}, {}).supersteps == 10
    with pytest.raises(lf.NonConvergenceError, match=_CAP_10):
        lf.seed_and_run(g, _Climber(10), (), {3: (0, 0)}, {})


def test_run_report_shape():
    g = load_fixture("chain10.cfg")
    r = lf.run_optimized(g, lf.reaching_defs())
    report = r.to_report()
    assert report["supersteps"] == 10
    assert len(report["active_per_superstep"]) == 10
    assert report["messages_sent"] > 0
    assert report["fact_updates"] == 10
