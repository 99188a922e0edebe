"""Properties of facts that share parts: kernels never alter an argument,
return an argument where they promise to, agree with reference kernels
that share nothing, and the cache encoder writes canonical JSON without
building it.

Facts are immutable, so a kernel may return an argument it did not change
or hand an unchanged part of it to a new fact. These tests draw facts and
statements and run merge and transfer in a chain, so a result that is, or
shares parts with, an argument is fed to the next kernel. Every fact drawn
or produced must still equal the deep copy taken when it appeared, and
every result must equal the result for deep copies of its arguments.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticeflow as lf
from latticeflow.analyses import _canonical_json, _eval_binop, _join_value, _wrap64

CACHE_SETS = 4

VARS = st.sampled_from(["x", "y", "z"])
STMTS = st.lists(st.one_of(
    st.builds(lf.DefStmt, VARS, st.sampled_from(["d1", "d2", "d3"])),
    st.builds(lf.UseStmt, VARS),
    st.builds(lf.AssignConst, VARS, st.integers(-2, 2)),
    st.builds(lf.AssignBinOp, VARS, VARS, st.sampled_from(["+", "-", "*"]), VARS),
    st.builds(lf.AccessStmt, st.integers(0, 40)),
), max_size=3).map(tuple)

RD_FACTS = st.frozensets(st.tuples(st.sampled_from(["d1", "d2", "d3", "d4"]), VARS),
                         max_size=5).map(lf.ReachingDefsFact)
CP_FACTS = st.dictionaries(VARS, st.one_of(st.integers(-2, 2), st.just(lf.TOP)),
                           max_size=3).map(lf.ConstPropFact)
# Block ids reach past 9, so string order and numeric order of keys differ.
CACHE_FACTS = st.one_of(
    st.just(lf.CacheFact(unreached=True, sets=())),
    st.tuples(*(st.dictionaries(st.integers(0, 15).map(lambda k, i=i: k * CACHE_SETS + i),
                                st.integers(0, 2), max_size=3)
                for i in range(CACHE_SETS)))
    .map(lambda sets: lf.CacheFact(unreached=False, sets=sets)),
)

KINDS = {
    "rd": (lf.reaching_defs, RD_FACTS),
    "cp": (lf.const_prop, CP_FACTS),
    "cache": (lambda: lf.lru_must_cache(sets=CACHE_SETS, assoc=3), CACHE_FACTS),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernels_leave_their_arguments_unchanged(kind, data):
    make, facts_strategy = KINDS[kind]
    analysis = make()
    seen = []  # (fact, deep copy taken when it was drawn or produced)

    def keep(fact):
        seen.append((fact, copy.deepcopy(fact)))
        return fact

    def merge(preds, old_in):
        # Deep copies share nothing, so the reference takes no shortcut.
        expected = analysis.merge(copy.deepcopy(preds), copy.deepcopy(old_in))
        return keep(analysis.merge(preds, old_in)), expected

    def transfer(stmts, fact):
        expected = analysis.transfer(stmts, copy.deepcopy(fact))
        return keep(analysis.transfer(stmts, fact)), expected

    a = keep(data.draw(facts_strategy))
    b = keep(data.draw(facts_strategy))
    a_out, a_expected = transfer(data.draw(STMTS), a)
    pool = [a, b, a_out, analysis.initial()]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    # The merge result may be an operand, and the transfer may return it.
    merged, merged_expected = merge(picks[:-1], picks[-1])
    out, out_expected = transfer(data.draw(STMTS), merged)
    last, last_expected = transfer(data.draw(STMTS), out)

    for fact, before in seen:
        assert fact == before
    assert (a_out, merged, out, last) == (a_expected, merged_expected,
                                          out_expected, last_expected)


# Reference kernels that build every result from scratch and return no
# argument: the kernels as they were before they shared anything.


def _rd_merge(preds, old_in):
    defs = set(old_in.defs)
    for f in preds:
        defs |= f.defs
    return lf.ReachingDefsFact(frozenset(defs))


def _rd_transfer(stmts, in_fact):
    defs = set(in_fact.defs)
    for s in stmts:
        if isinstance(s, lf.DefStmt):
            defs = {d for d in defs if d[1] != s.var} | {(s.def_id, s.var)}
    return lf.ReachingDefsFact(frozenset(defs))


def _cp_merge(preds, old_in):
    env = dict(old_in.env)
    for f in preds:
        for var, val in f.env.items():
            env[var] = _join_value(env[var], val) if var in env else val
    return lf.ConstPropFact(env)


def _cp_transfer(stmts, in_fact):
    env = dict(in_fact.env)
    for s in stmts:
        if isinstance(s, lf.AssignConst):
            env[s.var] = _wrap64(s.value)
        elif isinstance(s, lf.AssignBinOp):
            left, right = env.get(s.left), env.get(s.right)
            if left is None or right is None:
                env.pop(s.var, None)
            elif left is lf.TOP or right is lf.TOP:
                env[s.var] = lf.TOP
            else:
                env[s.var] = _wrap64(_eval_binop(s.op, left, right))
    return lf.ConstPropFact(env)


def _cache_merge(preds, old_in):
    reached = [f for f in (*preds, old_in) if not f.unreached]
    if not reached:
        return lf.CacheFact(unreached=True, sets=())
    sets = [dict(s) for s in reached[0].sets]
    for f in reached[1:]:
        sets = [{b: max(age, theirs[b]) for b, age in mine.items() if b in theirs}
                for mine, theirs in zip(sets, f.sets)]
    return lf.CacheFact(False, tuple(sets))


def _cache_transfer(stmts, in_fact, assoc=3):
    if in_fact.unreached:
        return lf.CacheFact(unreached=True, sets=())
    sets = [dict(s) for s in in_fact.sets]
    for s in stmts:
        if isinstance(s, lf.AccessStmt):
            cache_set = sets[s.block % CACHE_SETS]
            old_age = cache_set.get(s.block)
            if old_age is not None:
                after = {b: age + 1 if age < old_age else age for b, age in cache_set.items()}
            else:
                after = {b: age + 1 for b, age in cache_set.items() if age + 1 < assoc}
            after[s.block] = 0
            sets[s.block % CACHE_SETS] = after
    return lf.CacheFact(False, tuple(sets))


def _no_def(stmts, fact):
    return not any(isinstance(s, lf.DefStmt) for s in stmts)


def _each_statement_keeps(ref_transfer):
    """Whether every statement, applied alone, leaves the fact equal."""
    return lambda stmts, fact: all(ref_transfer((s,), fact) == fact for s in stmts)


# Each kind's reference merge and transfer, and when its transfer promises
# to return its argument.
REFERENCE = {
    "rd": (_rd_merge, _rd_transfer, _no_def),
    "cp": (_cp_merge, _cp_transfer, _each_statement_keeps(_cp_transfer)),
    "cache": (_cache_merge, _cache_transfer, _each_statement_keeps(_cache_transfer)),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernels_agree_with_references_and_return_what_they_promise(kind, data):
    make, facts_strategy = KINDS[kind]
    ref_merge, ref_transfer, returns_argument = REFERENCE[kind]
    analysis = make()
    f, h = data.draw(facts_strategy), data.draw(facts_strategy)
    stmts = data.draw(STMTS)
    preds = data.draw(st.lists(st.sampled_from([f, h, analysis.initial()]), max_size=4))

    assert analysis.merge(preds, h) == ref_merge(preds, h)
    out = analysis.transfer(stmts, f)
    assert out == ref_transfer(stmts, f)

    assert analysis.merge([], f) is f
    if f != analysis.initial():  # an operand equal to old_in leaves old_in
        assert analysis.merge([f], analysis.initial()) is f
    if returns_argument(stmts, f):
        assert out is f
    if kind == "cache" and not f.unreached:  # hits on the youngest blocks
        youngest = [lf.AccessStmt(b) for s in f.sets for b, age in s.items() if age == 0]
        assert analysis.transfer(tuple(youngest), f) is f
    # g is built from f, so it subsumes f: the fold of g into f is g itself.
    g = analysis.merge([h], f)
    assert analysis.merge([g], f) is g


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CACHE_FACTS)
def test_cache_encoding_is_canonical_json(fact):
    analysis = lf.lru_must_cache(sets=CACHE_SETS, assoc=3)
    if fact.unreached:
        reference = {"unreached": True}
    else:
        reference = {"sets": [{str(b): age for b, age in s.items()} for s in fact.sets]}
    data = analysis.encode(fact)
    assert data == _canonical_json(reference)
    assert analysis.decode(data) == fact
