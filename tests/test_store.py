import os
import random

import pytest

import latticeflow as lf
from latticeflow.store import Slot, StoreKey
from support import random_rd_fact


def _rd(*pairs):
    return lf.ReachingDefsFact(frozenset(pairs))


def test_put_then_get_round_trip():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    fact = _rd(("d1", "x"))
    store.batch_put([(StoreKey(1, Slot.OUT), fact)])
    assert store.get(StoreKey(1, Slot.OUT)) == fact


def test_get_of_unknown_key_is_none():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    assert store.get(StoreKey(7, Slot.IN)) is None


def test_batch_get_positional_alignment():
    rng = random.Random(3)
    store = lf.FactStore.in_memory(lf.reaching_defs())
    keys = [StoreKey(i, Slot.IN if i % 2 else Slot.OUT) for i in range(1000)]
    facts = {k: random_rd_fact(rng) for k in keys}
    store.batch_put(list(facts.items()))
    order = list(keys)
    rng.shuffle(order)
    got = store.batch_get(order)
    for key, fact in zip(order, got):
        assert fact == facts[key]
        assert fact == store.get(key)


def test_empty_batch_put_is_noop():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    before = store.snapshot()
    store.batch_put([])
    assert store.snapshot() == before


def test_overwrite_and_duplicate_in_batch():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    key = StoreKey(1, Slot.OUT)
    store.batch_put([(key, _rd(("d1", "x")))])
    store.batch_put([(key, _rd(("d2", "y")))])
    assert store.get(key) == _rd(("d2", "y"))
    store.batch_put([(key, _rd(("d1", "x"))), (key, _rd(("d3", "z")))])
    assert store.get(key) == _rd(("d3", "z"))  # later duplicate wins


def test_purge():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    store.batch_put([(StoreKey(1, Slot.IN), _rd()),
                     (StoreKey(1, Slot.OUT), _rd(("d1", "x"))),
                     (StoreKey(2, Slot.OUT), _rd(("d2", "y")))])
    store.batch_put((), purge={1})
    assert store.get(StoreKey(1, Slot.IN)) is None
    assert store.get(StoreKey(1, Slot.OUT)) is None
    assert store.get(StoreKey(2, Slot.OUT)) == _rd(("d2", "y"))
    store.batch_put((), purge=set())
    store.batch_put((), purge={42})  # absent vertex: no-op
    assert store.get(StoreKey(2, Slot.OUT)) == _rd(("d2", "y"))


def test_file_round_trip(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = lf.FactStore.create(path, analysis)
    fact = _rd(("d1", "x"), ("d2", "y"))
    store.batch_put([(StoreKey(3, Slot.OUT), fact)])
    reopened = lf.FactStore.open(path, lf.reaching_defs())
    assert reopened.get(StoreKey(3, Slot.OUT)) == fact
    assert reopened.snapshot() == store.snapshot()


def test_fingerprint_mismatch(tmp_path):
    path = tmp_path / "facts.store"
    lf.FactStore.create(path, lf.reaching_defs())
    with pytest.raises(lf.WrongAnalysisError):
        lf.FactStore.open(path, lf.const_prop())
    with pytest.raises(lf.WrongAnalysisError):
        lf.FactStore.open(path, lf.lru_must_cache(sets=8, assoc=4))


def test_read_fingerprint(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.lru_must_cache(sets=4, assoc=2)
    lf.FactStore.create(path, analysis)
    assert lf.FactStore.read_fingerprint(path) == analysis.fingerprint()


def test_read_fingerprint_reads_only_the_header(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = lf.FactStore.create(path, analysis)
    store.batch_put([(StoreKey(1, Slot.OUT), _rd(("d1", "x")))])
    path.write_bytes(path.read_bytes()[:-1])  # cut into the last record
    assert lf.FactStore.read_fingerprint(path) == analysis.fingerprint()
    with pytest.raises(lf.StoreError, match="truncated"):
        lf.FactStore.open(path, analysis)


def test_decode_error_carries_key():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    key = StoreKey(5, Slot.IN)
    store._entries[key] = b"not json"
    with pytest.raises(lf.StoreDecodeError) as exc:
        store.batch_get([key])
    assert exc.value.key == key


def test_interrupted_batch_put_preserves_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "facts.store"
    store = lf.FactStore.create(path, lf.reaching_defs())
    store.batch_put([(StoreKey(1, Slot.OUT), _rd(("d1", "x")))])
    good_bytes = path.read_bytes()

    def boom(src, dst):
        raise OSError("injected failure")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(lf.StoreIOError):
        store.batch_put([(StoreKey(2, Slot.OUT), _rd(("d2", "y")))])
    monkeypatch.undo()

    assert path.read_bytes() == good_bytes
    reopened = lf.FactStore.open(path, lf.reaching_defs())
    assert reopened.get(StoreKey(2, Slot.OUT)) is None
    assert reopened.get(StoreKey(1, Slot.OUT)) == _rd(("d1", "x"))


def test_snapshot_bytes_are_canonical(tmp_path):
    # Same logical contents written in different orders: identical files.
    analysis = lf.reaching_defs()
    pairs = [(StoreKey(i, slot), _rd((f"d{i}", "x")))
             for i in range(10) for slot in (Slot.IN, Slot.OUT)]
    a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
    a = lf.FactStore.create(a_path, analysis)
    a.batch_put(pairs)
    b = lf.FactStore.create(b_path, analysis)
    b.batch_put(list(reversed(pairs)))
    assert a_path.read_bytes() == b_path.read_bytes()


def test_batch_put_with_purge_is_one_commit(tmp_path, monkeypatch):
    analysis = lf.reaching_defs()
    pairs = [(StoreKey(i, slot), _rd((f"d{i}", "x")))
             for i in range(6) for slot in (Slot.IN, Slot.OUT)]
    a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
    a = lf.FactStore.create(a_path, analysis)
    a.batch_put(pairs)
    b = lf.FactStore.create(b_path, analysis)
    b.batch_put(pairs)
    update = [(StoreKey(1, Slot.OUT), _rd(("d9", "y"))),
              (StoreKey(4, Slot.IN), _rd(("d8", "z")))]
    a.batch_put(update)
    a.batch_put((), purge={2, 4, 42})
    renames = []
    original = os.replace
    monkeypatch.setattr(os, "replace",
                        lambda src, dst: renames.append(dst) or original(src, dst))
    b.batch_put(update, purge={2, 4, 42})  # a purged vertex keeps no slot
    assert len(renames) == 1
    assert b.get(StoreKey(4, Slot.IN)) is None
    assert a_path.read_bytes() == b_path.read_bytes()


def test_equal_payloads_decode_to_one_object(tmp_path):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = lf.FactStore.create(path, analysis)
    keys = [StoreKey(v, slot) for v in (1, 2) for slot in (Slot.IN, Slot.OUT)]
    store.batch_put([(keys[0], _rd(("d1", "x"))), (keys[1], _rd(("d1", "x"))),
                     (keys[2], _rd(("d1", "x"))), (keys[3], _rd(("d2", "y")))])
    reopened = lf.FactStore.open(path, analysis)  # each record its own bytes
    a, b, c, d = reopened.batch_get(keys)
    assert a is b is c
    assert a == _rd(("d1", "x")) and d == _rd(("d2", "y"))


def test_decode_error_names_the_first_corrupt_key_requested():
    store = lf.FactStore.in_memory(lf.reaching_defs())
    store.batch_put([(StoreKey(1, Slot.IN), _rd(("d1", "x")))])
    store._entries[StoreKey(7, Slot.OUT)] = b"not json"
    store._entries[StoreKey(3, Slot.IN)] = b"not json"
    with pytest.raises(lf.StoreDecodeError) as exc:
        store.batch_get([StoreKey(1, Slot.IN), StoreKey(7, Slot.OUT),
                         StoreKey(3, Slot.IN)])
    assert exc.value.key == StoreKey(7, Slot.OUT)


def test_shared_fact_objects_write_the_bytes_of_distinct_ones(tmp_path):
    analysis = lf.lru_must_cache(sets=2, assoc=2)
    shared = lf.CacheFact(False, ({10: 0, 2: 1}, {}))
    keys = [StoreKey(v, slot) for v in range(8) for slot in (Slot.IN, Slot.OUT)]

    def fresh(i):  # a new object per call, dropped once it is encoded
        return lf.CacheFact(False, ({2 * i: 0}, {1: i % 2}))

    a_path, b_path = tmp_path / "a.store", tmp_path / "b.store"
    a = lf.FactStore.create(a_path, analysis)
    a.batch_put((k, shared if i % 3 else fresh(i)) for i, k in enumerate(keys))
    b = lf.FactStore.create(b_path, analysis)
    b.batch_put([(k, lf.CacheFact(False, ({10: 0, 2: 1}, {})) if i % 3 else fresh(i))
                 for i, k in enumerate(keys)])
    assert a_path.read_bytes() == b_path.read_bytes()


@pytest.mark.parametrize("code", [2, 255])
def test_invalid_slot_code_is_a_store_error(tmp_path, code):
    path = tmp_path / "facts.store"
    analysis = lf.reaching_defs()
    store = lf.FactStore.create(path, analysis)
    store.batch_put([(StoreKey(1, Slot.OUT), _rd(("d1", "x")))])
    blob = bytearray(path.read_bytes())
    slot_at = 8 + 4 + len(analysis.fingerprint().encode()) + 8  # magic, fp, vertex
    assert blob[slot_at] == Slot.OUT.value
    blob[slot_at] = code
    path.write_bytes(bytes(blob))
    with pytest.raises(lf.StoreError, match=f"invalid slot code {code}"):
        lf.FactStore.open(path, analysis)
