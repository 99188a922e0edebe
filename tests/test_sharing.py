"""Properties of facts that share parts: kernels never alter an argument,
and the cache encoder writes canonical JSON without building it.

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
from latticeflow.analyses import _canonical_json

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
