import builtins
import errno
import os
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import latticeflow as lf
from latticeflow import cli
from support import (
    fixture_path,
    join_store,
    new_store,
    random_rd_fact,
    split_store,
    store_contents,
)

# The benchmark's independent store reader, imported the way bench/test_checks.py does.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import oracle  # noqa: E402


def _rd(*pairs):
    return lf.ReachingDefsFact(frozenset(pairs))


def _put(store, facts):
    """Store ``{vertex: (IN, OUT)}``."""
    store.batch_put({v: pair[0] for v, pair in facts.items()},
                    {v: pair[1] for v, pair in facts.items()})


def _store_of_payloads(tmp_path, payloads):
    """An rd store file holding the raw ``{vertex: (IN, OUT)}`` payload
    bytes, valid or not, opened."""
    path = tmp_path / "facts.store"
    new_store(path, lf.reaching_defs())
    header, _ = split_store(path.read_bytes())
    path.write_bytes(join_store(header, [(v, slot, pair[slot]) for v, pair in
                                         sorted(payloads.items()) for slot in (0, 1)]))
    return lf.FactStore.open(path, lf.reaching_defs())


def test_put_then_get_round_trip(tmp_path):
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    pair = (_rd(), _rd(("d1", "x")))
    _put(store, {1: pair})
    assert store.batch_get([1]) == [pair]
    assert list(store.vertices()) == [1]


def test_get_of_unknown_key_is_none(tmp_path):
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    _put(store, {1: (_rd(), _rd())})
    assert store.batch_get([7, 1, 8]) == [None, (_rd(), _rd()), None]
    assert store.batch_get([7, 1])[1][1] == _rd()


def test_batch_get_positional_alignment(tmp_path):
    rng = random.Random(3)
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    facts = {v: (random_rd_fact(rng), random_rd_fact(rng)) for v in range(1000)}
    _put(store, facts)
    order = list(facts)
    rng.shuffle(order)
    got = store.batch_get(order)
    for vertex, pair in zip(order, got):
        assert pair == facts[vertex]
        assert [pair] == store.batch_get([vertex])
    assert [pair[1] for pair in got] == [facts[v][1] for v in order]


def test_empty_batch_put_is_noop(tmp_path):
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    _put(store, {1: (_rd(), _rd(("d1", "x")))})
    before = store_contents(store)
    store.batch_put({}, {})
    assert store_contents(store) == before


def test_overwrite_and_duplicate_in_batch(tmp_path):
    # A batch holds one IN/OUT pair per vertex, so it cannot name a vertex
    # twice; a later batch replaces the whole pair and leaves others alone.
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    _put(store, {1: (_rd(), _rd(("d1", "x"))), 2: (_rd(), _rd(("d2", "y")))})
    _put(store, {1: (_rd(("d3", "z")), _rd(("d2", "y")))})
    assert store.batch_get([1, 2]) == [(_rd(("d3", "z")), _rd(("d2", "y"))),
                                       (_rd(), _rd(("d2", "y")))]


def test_purge(tmp_path):
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    _put(store, {1: (_rd(), _rd(("d1", "x"))), 2: (_rd(), _rd(("d2", "y")))})
    store.batch_put({}, {}, purge={1})
    assert store.batch_get([1, 2]) == [None, (_rd(), _rd(("d2", "y")))]
    assert list(store.vertices()) == [2]
    store.batch_put({}, {}, purge=set())
    store.batch_put({}, {}, purge={42})  # absent vertex: no-op
    assert store.batch_get([2]) == [(_rd(), _rd(("d2", "y")))]


def test_file_round_trip(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = new_store(path, analysis)
    pair = (_rd(("d1", "x")), _rd(("d1", "x"), ("d2", "y")))
    _put(store, {3: pair})
    reopened = lf.FactStore.open(path, lf.reaching_defs())
    assert reopened.batch_get([3]) == [pair]
    assert store_contents(reopened) == store_contents(store)


def test_open_of_a_missing_file_is_a_store_io_error(tmp_path):
    path = tmp_path / "absent.store"
    with pytest.raises(lf.StoreIOError, match=f"cannot read store {path}: "):
        lf.FactStore.open(path, lf.reaching_defs())


def test_fingerprint_mismatch(tmp_path):
    path = tmp_path / "facts.store"
    new_store(path, lf.reaching_defs())
    with pytest.raises(lf.WrongAnalysisError):
        lf.FactStore.open(path, lf.const_prop())
    with pytest.raises(lf.WrongAnalysisError):
        lf.FactStore.open(path, lf.lru_must_cache(sets=8, assoc=4))


def test_read_fingerprint(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.lru_must_cache(sets=4, assoc=2)
    new_store(path, analysis)
    assert lf.FactStore.read_fingerprint(path) == analysis.fingerprint()


def test_read_fingerprint_reads_only_the_header(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = new_store(path, analysis)
    _put(store, {1: (_rd(), _rd(("d1", "x")))})
    path.write_bytes(path.read_bytes()[:-1])  # cut into the last record
    assert lf.FactStore.read_fingerprint(path) == analysis.fingerprint()
    with pytest.raises(lf.StoreError, match="truncated"):
        lf.FactStore.open(path, analysis)


def test_decode_error_carries_key(tmp_path):
    store = _store_of_payloads(tmp_path, {5: (b"[]", b"not json")})
    with pytest.raises(lf.StoreDecodeError, match="the OUT fact of vertex 5: "):
        store.batch_get([5])


def test_interrupted_batch_put_preserves_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "facts.store"
    store = new_store(path, lf.reaching_defs())
    _put(store, {1: (_rd(), _rd(("d1", "x")))})
    good_bytes = path.read_bytes()

    def boom(src, dst):
        raise OSError("injected failure")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(lf.StoreIOError):
        _put(store, {2: (_rd(), _rd(("d2", "y")))})
    monkeypatch.undo()

    assert path.read_bytes() == good_bytes
    reopened = lf.FactStore.open(path, lf.reaching_defs())
    assert reopened.batch_get([2, 1]) == [None, (_rd(), _rd(("d1", "x")))]


class _FullDisk:
    """A file that takes ``room`` more bytes, then fails like a full disk."""

    def __init__(self, fh, room):
        self._fh, self._room = fh, room

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        taken = self._fh.write(data[:self._room])
        self._room -= taken
        if taken < len(data):
            raise OSError(errno.ENOSPC, "No space left on device")
        return taken


def test_batch_put_failing_after_the_header_removes_its_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "facts.store"
    store = new_store(path, lf.reaching_defs())
    _put(store, {1: (_rd(), _rd(("d1", "x")))})
    good_bytes = path.read_bytes()
    header, _ = split_store(good_bytes)

    def open_on_a_full_disk(file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        return _FullDisk(fh, len(header) + 5) if "w" in mode else fh

    monkeypatch.setattr(lf.store, "open", open_on_a_full_disk, raising=False)
    with pytest.raises(lf.StoreIOError, match="No space left on device"):
        _put(store, {2: (_rd(), _rd(("d2", "y")))})
    monkeypatch.undo()

    assert path.read_bytes() == good_bytes
    reopened = lf.FactStore.open(path, lf.reaching_defs())
    assert reopened.batch_get([2, 1]) == [None, (_rd(), _rd(("d1", "x")))]
    assert store.batch_get([2, 1]) == [None, (_rd(), _rd(("d1", "x")))]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.store"]


def test_two_handles_committing_at_once_use_separate_temporary_files(tmp_path, monkeypatch):
    path = tmp_path / "s.store"
    analysis = lf.reaching_defs()
    new_store(path, analysis)
    first, second = lf.FactStore.open(path, analysis), lf.FactStore.open(path, analysis)
    real_replace = os.replace
    renamed = []

    def replace(src, dst):
        renamed.append(Path(src))
        if len(renamed) == 1:
            # The second handle commits in full just before the first one renames.
            _put(second, {2: (_rd(), _rd(("d2", "y")))})
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    _put(first, {1: (_rd(), _rd(("d1", "x")))})
    monkeypatch.undo()

    assert len(renamed) == 2 and renamed[0] != renamed[1]
    assert [p.parent for p in renamed] == [tmp_path, tmp_path]
    _put(new_store(tmp_path / "fresh.store", analysis), {1: (_rd(), _rd(("d1", "x")))})
    assert path.read_bytes() == (tmp_path / "fresh.store").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.store", "s.store"]


def test_a_store_file_gets_the_mode_a_plain_open_gives(tmp_path):
    plain = tmp_path / "plain"
    plain.write_bytes(b"")
    store = new_store(tmp_path / "facts.store", lf.reaching_defs())
    _put(store, {1: (_rd(), _rd(("d1", "x")))})
    assert store.path.stat().st_mode == plain.stat().st_mode


def test_one_vertex_commit_holds_no_copy_of_the_store(tmp_path):
    # 2,000 vertices of 40-definition facts: a file of about 2.65 MB.
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    facts = {v: _rd(*((f"d{v}.{i}", "x") for i in range(40))) for v in range(2000)}
    new_store(path, analysis).batch_put(facts, facts)
    size = path.stat().st_size
    store = lf.FactStore.open(path, analysis)
    tracemalloc.start()
    try:
        _put(store, {0: (_rd(), _rd())})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size / 2


def test_snapshot_bytes_are_canonical(tmp_path):
    # Same logical contents written in different orders and batches:
    # identical files.
    analysis = lf.reaching_defs()
    facts = {i: (_rd((f"d{i}", "x")), _rd((f"d{i}", "y"))) for i in range(10)}
    a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
    a = new_store(a_path, analysis)
    _put(a, facts)
    b = new_store(b_path, analysis)
    backwards = dict(reversed(facts.items()))
    _put(b, {v: pair for v, pair in backwards.items() if v % 2})
    _put(b, {v: pair for v, pair in backwards.items() if not v % 2})
    assert a_path.read_bytes() == b_path.read_bytes()


def test_batch_put_with_purge_is_one_commit(tmp_path, monkeypatch):
    analysis = lf.reaching_defs()
    facts = {i: (_rd((f"d{i}", "x")), _rd((f"d{i}", "y"))) for i in range(6)}
    a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
    a = new_store(a_path, analysis)
    _put(a, facts)
    b = new_store(b_path, analysis)
    _put(b, facts)
    update = {1: (_rd(), _rd(("d9", "y"))), 4: (_rd(("d8", "z")), _rd())}
    _put(a, update)
    a.batch_put({}, {}, purge={2, 4, 42})
    renames = []
    original = os.replace
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: renames.append(dst) or original(src, dst))
    b.batch_put({v: p[0] for v, p in update.items()}, {v: p[1] for v, p in update.items()},
                purge={2, 4, 42})  # a purged vertex is dropped even if the batch names it
    assert len(renames) == 1
    assert b.batch_get([4]) == [None]
    assert a_path.read_bytes() == b_path.read_bytes()


def test_equal_payloads_decode_to_one_object(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = new_store(path, analysis)
    _put(store, {1: (_rd(("d1", "x")), _rd(("d1", "x"))),
                 2: (_rd(("d1", "x")), _rd(("d2", "y")))})
    reopened = lf.FactStore.open(path, analysis)  # each record its own bytes
    (a, b), (c, d) = reopened.batch_get([1, 2])
    assert a is b is c
    (_, e), (_, f) = reopened.batch_get([1, 1])
    assert e is f and e == a
    assert a == _rd(("d1", "x")) and d == _rd(("d2", "y"))


def test_decode_error_names_the_first_corrupt_key_requested(tmp_path):
    d1 = lf.reaching_defs().encode(_rd(("d1", "x")))
    store = _store_of_payloads(tmp_path, {1: (d1, d1), 3: (b"not json", b"[]"),
                                          7: (b"[]", b"not json")})
    assert store.batch_get([1]) == [(_rd(("d1", "x")), _rd(("d1", "x")))]
    with pytest.raises(lf.StoreDecodeError, match="the OUT fact of vertex 7: "):
        store.batch_get([1, 7, 3])
    with pytest.raises(lf.StoreDecodeError, match="the IN fact of vertex 3"):
        store.batch_get([3, 7])


def test_shared_fact_objects_write_the_bytes_of_distinct_ones(tmp_path):
    analysis = lf.lru_must_cache(sets=2, assoc=2)
    shared = lf.CacheFact(False, ({10: 0, 2: 1}, {}))
    slots = [(v, s) for v in range(8) for s in (0, 1)]

    def fresh(i):  # a new object per call, dropped once it is encoded
        return lf.CacheFact(False, ({2 * i: 0}, {1: i % 2}))

    def facts(make_shared):
        chosen = {slot: make_shared() if i % 3 else fresh(i) for i, slot in enumerate(slots)}
        return ({v: chosen[v, 0] for v in range(8)}, {v: chosen[v, 1] for v in range(8)})

    a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
    new_store(a_path, analysis).batch_put(*facts(lambda: shared))
    new_store(b_path, analysis).batch_put(
        *facts(lambda: lf.CacheFact(False, ({10: 0, 2: 1}, {}))))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_consecutive_identical_facts_are_encoded_once(tmp_path, monkeypatch):
    analysis = lf.reaching_defs()
    encoded = []
    real = type(analysis).encode
    monkeypatch.setattr(type(analysis), "encode",
                        lambda self, fact: encoded.append(fact) or real(self, fact))
    a, b = _rd(("d1", "x")), _rd(("d2", "x"))
    store = lf.FactStore(analysis, tmp_path / "facts.store")
    # 1: IN is its OUT; 2: IN is 1's OUT; 3: an equal but distinct object.
    store.batch_put({1: a, 2: a, 3: _rd(("d2", "x"))}, {1: a, 2: b, 3: b})
    assert encoded == [a, b, _rd(("d2", "x"))]
    _, records = split_store((tmp_path / "facts.store").read_bytes())
    data = {(v, slot): payload for v, slot, payload in records}
    assert data[1, 0] == data[1, 1] == data[2, 0] and data[2, 1] == data[3, 0] == data[3, 1]


def test_shared_facts_far_apart_are_encoded_once(tmp_path, monkeypatch):
    analysis = lf.reaching_defs()
    encoded = []
    real = type(analysis).encode
    monkeypatch.setattr(type(analysis), "encode",
                        lambda self, fact: encoded.append(fact) or real(self, fact))
    a, b, c = _rd(("d1", "x")), _rd(("d2", "x")), _rd(("d3", "y"))
    # a and b come back after other objects, in both slots, never adjacent.
    in_facts = {1: a, 2: b, 3: c, 4: a, 5: b}
    out_facts = {1: c, 2: a, 3: b, 4: c, 5: a}
    store = lf.FactStore(analysis, tmp_path / "a.store")
    store.batch_put(in_facts, out_facts)
    assert encoded == [a, c, b]
    fresh = lf.FactStore(analysis, tmp_path / "b.store")
    fresh.batch_put({v: _rd(*f.defs) for v, f in in_facts.items()},
                    {v: _rd(*f.defs) for v, f in out_facts.items()})
    assert (tmp_path / "a.store").read_bytes() == (tmp_path / "b.store").read_bytes()


def _two_vertex_store(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = new_store(path, analysis)
    _put(store, {1: (_rd(), _rd(("d1", "x"))), 2: (_rd(("d1", "x")), _rd(("d2", "x")))})
    return path, analysis


@pytest.mark.parametrize("code", [2, 255])
def test_invalid_slot_code_is_a_store_error(tmp_path, code):
    path, analysis = _two_vertex_store(tmp_path)
    header, records = split_store(path.read_bytes())
    vertex, slot, payload = records[1]
    assert slot == 1
    records[1] = (vertex, code, payload)
    path.write_bytes(join_store(header, records))
    with pytest.raises(lf.StoreError, match=f"invalid slot code {code}"):
        lf.FactStore.open(path, analysis)


_ANALYSIS_ARGS = {"rd": [], "cp": [], "cache": ["--sets", "2", "--assoc", "3"]}


@pytest.mark.parametrize("algo", ["classic", "opt"])
@pytest.mark.parametrize("analysis", sorted(_ANALYSIS_ARGS))
def test_store_and_benchmark_oracle_read_the_same_records(tmp_path, capsys, analysis, algo):
    for cfg in sorted(fixture_path("").glob("*.cfg")):
        path = tmp_path / f"{cfg.stem}.store"
        assert cli.main(["analyze", "--cfg", str(cfg), "--analysis", analysis,
                         *_ANALYSIS_ARGS[analysis], "--algo", algo,
                         "--store", str(path)]) == cli.EXIT_OK
        fingerprint, records = oracle.read_store(path.read_bytes())
        _, ours = split_store(path.read_bytes())
        assert {(v, slot): data for v, slot, data in ours} == records, cfg.name
        # The store's own reader decodes the same payloads.
        client = lf.analysis_from_fingerprint(fingerprint)
        vertices, pairs = store_contents(lf.FactStore.open(path, client))
        assert pairs == [(client.decode(records[v, 0]), client.decode(records[v, 1]))
                         for v in vertices], cfg.name
        assert len(records) == 2 * len(vertices) > 0
    capsys.readouterr()
