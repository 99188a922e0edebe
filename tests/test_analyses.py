import random

import pytest

import latticeflow as lf
from latticeflow.analyses import analysis_from_name
from support import ConcreteLru, load_fixture, random_rd_fact


def _rd(*pairs):
    return lf.ReachingDefsFact(frozenset(pairs))


# ---------------------------------------------------------------------------
# Reaching definitions


def test_rd_kill_then_gen():
    analysis = lf.reaching_defs()
    before = _rd(("d1", "x"), ("d2", "y"))
    after = analysis.transfer((lf.DefStmt("x", "d3"),), before)
    assert after == _rd(("d2", "y"), ("d3", "x"))


def test_rd_use_and_nop_are_identity():
    analysis = lf.reaching_defs()
    fact = _rd(("d1", "x"))
    assert analysis.transfer((lf.UseStmt("x"),), fact) == fact
    assert analysis.transfer((), _rd()) == _rd()


def test_statement_sequences_apply_in_order():
    rd = lf.reaching_defs()
    out = rd.transfer((lf.DefStmt("x", "d1"), lf.DefStmt("x", "d2")), _rd())
    assert out == _rd(("d2", "x"))  # the second definition kills the first
    cp = lf.const_prop()
    stmts = (lf.AssignConst("x", 2), lf.AssignBinOp("y", "x", "*", "x"),
             lf.AssignConst("x", 9))
    result = cp.transfer(stmts, cp.initial())
    assert result.env == {"x": 9, "y": 4}
    cache = lf.lru_must_cache(sets=1, assoc=2)
    fact = cache.transfer((lf.AccessStmt(0), lf.AccessStmt(1)), cache.entry_fact())
    assert fact.sets[0] == {0: 1, 1: 0}


def test_rd_merge_is_union():
    analysis = lf.reaching_defs()
    merged = analysis.merge([_rd(("d1", "x"))], _rd(("d2", "y")))
    assert merged == _rd(("d1", "x"), ("d2", "y"))


def test_rd_is_distributive():
    # merge-then-transfer equals transfer-then-merge for kill/gen sets.
    rng = random.Random(19)
    analysis = lf.reaching_defs()
    for _ in range(200):
        f, g = random_rd_fact(rng), random_rd_fact(rng)
        stmts = (lf.DefStmt(rng.choice("xyzw"), f"d{rng.randint(0, 9)}"),)
        joined_first = analysis.transfer(stmts, analysis.merge([f], g))
        split_first = analysis.merge(
            [analysis.transfer(stmts, f)], analysis.transfer(stmts, g))
        assert joined_first == split_first


# ---------------------------------------------------------------------------
# Constant propagation


def test_cp_merge_equal_and_conflicting_constants():
    analysis = lf.const_prop()
    one = lf.ConstPropFact({"x": 1})
    also_one = lf.ConstPropFact({"x": 1})
    two = lf.ConstPropFact({"x": 2})
    assert analysis.merge([one], also_one).env == {"x": 1}
    assert analysis.merge([one, two], analysis.initial()).env == {"x": lf.TOP}


def test_cp_merge_bottom_is_identity_per_variable():
    analysis = lf.const_prop()
    merged = analysis.merge([lf.ConstPropFact({"x": 3})], lf.ConstPropFact({"y": 4}))
    assert merged.env == {"x": 3, "y": 4}


def test_cp_binop_evaluation():
    analysis = lf.const_prop()
    env = lf.ConstPropFact({"y": 6, "z": 7})
    out = analysis.transfer((lf.AssignBinOp("x", "y", "*", "z"),), env)
    assert out.env["x"] == 42


def test_cp_binop_with_top_operand_is_top():
    analysis = lf.const_prop()
    env = lf.ConstPropFact({"y": lf.TOP, "z": 7})
    out = analysis.transfer((lf.AssignBinOp("x", "y", "+", "z"),), env)
    assert out.env["x"] is lf.TOP


def test_cp_binop_with_unknown_operand_stays_unknown():
    analysis = lf.const_prop()
    env = lf.ConstPropFact({"z": 7, "x": 5})
    out = analysis.transfer((lf.AssignBinOp("x", "y", "+", "z"),), env)
    assert "x" not in out.env  # the assignment's result is not yet known


def test_cp_arithmetic_wraps_to_64_bits():
    analysis = lf.const_prop()
    env = lf.ConstPropFact({"y": 2**62, "z": 2**62})
    out = analysis.transfer((lf.AssignBinOp("x", "y", "+", "z"),), env)
    assert out.env["x"] == -(2**63)


def test_cp_unknown_operator_is_a_definition_error():
    analysis = lf.const_prop()
    stmt = lf.AssignBinOp("x", "y", "%", "z")
    with pytest.raises(lf.AnalysisDefinitionError):
        analysis.transfer((stmt,), lf.ConstPropFact({"y": 1, "z": 1}))


def test_cp_diamond_fixture_join_loses_constant():
    g = load_fixture("constprop_diamond.cfg")
    r = lf.run_sequential(g, lf.const_prop())
    assert r.in_facts[4].env["x"] is lf.TOP
    assert r.out_facts[4].env["y"] is lf.TOP


def test_cp_non_distributive_witness():
    # x - x is 0 on every path, but joining the branch facts first loses it.
    analysis = lf.const_prop()
    branch1 = lf.ConstPropFact({"x": 1})
    branch2 = lf.ConstPropFact({"x": 2})
    stmts = (lf.AssignBinOp("y", "x", "-", "x"),)
    joined_first = analysis.transfer(stmts, analysis.merge([branch1, branch2],
                                                           analysis.initial()))
    split_first = analysis.merge(
        [analysis.transfer(stmts, branch1), analysis.transfer(stmts, branch2)],
        analysis.initial())
    assert split_first.env["y"] == 0
    assert joined_first.env["y"] is lf.TOP
    assert joined_first != split_first


def test_cp_paths_enumerated_agree_with_fixture():
    # Brute-force the diamond's two paths and join at the end: the abstract
    # result must sit at or above the path join.
    g = load_fixture("constprop_diamond.cfg")
    analysis = lf.const_prop()
    paths = ([1, 2, 4], [1, 3, 4])
    path_facts = []
    for path in paths:
        fact = analysis.entry_fact()
        for vid in path:
            fact = analysis.transfer(g.vertices[vid].stmts, fact)
        path_facts.append(fact)
    meet_over_paths = analysis.merge(path_facts, analysis.initial())
    fixed_point = lf.run_sequential(g, analysis).out_facts[4]
    assert meet_over_paths.leq(fixed_point)


# ---------------------------------------------------------------------------
# LRU must-cache


def test_cache_single_access_from_cold_start():
    analysis = lf.lru_must_cache(sets=4, assoc=2)
    out = analysis.transfer((lf.AccessStmt(0),), analysis.entry_fact())
    assert out.sets[0] == {0: 0}
    assert out.must_hit(0, 4)


def test_cache_merge_unreached_is_identity():
    analysis = lf.lru_must_cache(sets=1, assoc=2)
    fact = lf.CacheFact(False, ({0: 1},))
    assert analysis.merge([analysis.initial()], fact) == fact
    assert analysis.merge([fact], analysis.initial()) == fact


def test_cache_straight_line_hit_and_ages():
    # Accesses b0, b1, b0 with one 2-way set: the third access is a
    # guaranteed hit, leaving b0 most recent and b1 one step older.
    analysis = lf.lru_must_cache(sets=1, assoc=2)
    fact = analysis.entry_fact()
    fact = analysis.transfer((lf.AccessStmt(0),), fact)
    fact = analysis.transfer((lf.AccessStmt(1),), fact)
    assert fact.sets[0] == {0: 1, 1: 0}
    assert fact.must_hit(0, 1)  # mapped before the third access: a hit
    fact = analysis.transfer((lf.AccessStmt(0),), fact)
    assert fact.sets[0] == {0: 0, 1: 1}


def test_cache_eviction_on_miss():
    analysis = lf.lru_must_cache(sets=1, assoc=2)
    fact = analysis.entry_fact()
    for block in (0, 1, 2):
        fact = analysis.transfer((lf.AccessStmt(block),), fact)
    assert fact.sets[0] == {2: 0, 1: 1}  # block 0 aged out


def test_cache_diamond_same_block_is_a_must_hit():
    text = """
V 1 entry nop
V 2 access 0
V 3 access {branch}
V 4 access 0
E 1 2
E 1 3
E 2 4
E 3 4
"""
    analysis = lf.lru_must_cache(sets=1, assoc=2)
    g = lf.parse_graph(text.format(branch=0))
    r = lf.run_sequential(g, analysis)
    assert r.in_facts[4].must_hit(0, 1)
    g = lf.parse_graph(text.format(branch=1))
    r = lf.run_sequential(g, analysis)
    assert r.in_facts[4].sets[0] == {}  # neither block guaranteed


def test_cache_merge_keeps_maximum_age():
    analysis = lf.lru_must_cache(sets=1, assoc=2)
    a = lf.CacheFact(False, ({0: 0, 1: 1},))
    b = lf.CacheFact(False, ({1: 0, 0: 1},))
    merged = analysis.merge([a, b], analysis.initial())
    assert merged.sets[0] == {0: 1, 1: 1}


def test_cache_kernels_share_what_they_do_not_change():
    analysis = lf.lru_must_cache(sets=2, assoc=2)
    fact = lf.CacheFact(False, ({0: 0}, {1: 1}))
    assert analysis.transfer((lf.UseStmt("x"),), fact) is fact
    assert analysis.merge([fact, analysis.initial()], analysis.initial()) is fact
    out = analysis.transfer((lf.AccessStmt(2),), fact)
    assert out.sets == ({2: 0, 0: 1}, {1: 1})
    assert out.sets[1] is fact.sets[1]  # set 1 was not accessed
    merged = analysis.merge([out, fact], analysis.initial())
    assert merged.sets == ({0: 1}, {1: 1})
    assert merged.sets[1] is fact.sets[1]  # both operands hold this dict
    assert fact == lf.CacheFact(False, ({0: 0}, {1: 1}))


def test_cache_abstract_hits_are_sound_on_random_lines():
    # Straight-line soundness against the concrete simulator; the
    # exhaustive sweep lives in the acceptance suite.
    rng = random.Random(59)
    analysis = lf.lru_must_cache(sets=4, assoc=2)
    for _ in range(300):
        seq = [rng.choice((0, 4, 8, 12, 1, 5)) for _ in range(rng.randint(1, 20))]
        concrete = ConcreteLru(4, 2)
        fact = analysis.entry_fact()
        for block in seq:
            if fact.must_hit(block, 4):
                assert concrete.age_of(block) is not None
            concrete.access(block)
            fact = analysis.transfer((lf.AccessStmt(block),), fact)


def test_cache_geometry_validation():
    with pytest.raises(lf.AnalysisDefinitionError):
        lf.lru_must_cache(sets=0, assoc=2)


# ---------------------------------------------------------------------------
# Name round trips


@pytest.mark.parametrize("make", [
    lf.reaching_defs,
    lf.const_prop,
    lambda: lf.lru_must_cache(sets=128, assoc=4),
])
def test_analysis_from_name_round_trip(make):
    analysis = make()
    rebuilt = analysis_from_name(analysis.name)
    assert rebuilt.name == analysis.name
    assert rebuilt.direction == analysis.direction


def test_analysis_from_name_rejects_unknown():
    with pytest.raises(lf.AnalysisDefinitionError):
        analysis_from_name("points-to")
