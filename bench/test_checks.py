"""Tests of the benchmark's own correctness checks.

    python3 bench/test_checks.py        (or: python3 -m pytest bench/test_checks.py)

On small versions of every workload, an untouched store passes both
checks, and a store in which one record has been altered fails both: the
byte comparison with a fresh ``analyze`` and the independent solver.
"""

from __future__ import annotations

import dataclasses
import functools
import shutil
import struct
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "deep_rd": dict(vertices=400, edits=2),
    "calls_cache_w2": dict(vertices=1500, edits=4),
    "handlers_cp": dict(vertices=400, edits=5),
}


def _small_round(name: str):
    wl = workloads.WORKLOADS[name]
    wl = dataclasses.replace(wl, build=functools.partial(wl.build, **SMALL[name]))
    work = run.OUT / f"test-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = run.Inputs(wl, wl.default_seed, work)
    inputs.set_up()
    counts = [inputs.vertex_count(i) for i in range(inputs.edits + 1)]
    commands = run.Commands()
    rnd = run.run_round(commands, inputs, counts, work / "run.store")
    assert commands.failed == 0, commands.errors
    return commands, inputs, rnd


def _alter_one_record(blob: bytes) -> bytes:
    """Give the largest record the payload of another record."""
    fingerprint, records = oracle.read_store(blob)
    target = max(records, key=lambda k: (len(records[k]), k))
    donor = next(k for k in sorted(records) if records[k] != records[target])
    records[target] = records[donor]
    fp = fingerprint.encode("utf-8")
    chunks = [oracle.MAGIC, struct.pack("<I", len(fp)), fp]
    for (vertex, slot), data in sorted(records.items()):
        chunks += [struct.pack("<QBI", vertex, slot, len(data)), data]
    return b"".join(chunks)


def _check(name: str) -> None:
    commands, inputs, rnd = _small_round(name)
    assert run.verify(commands, inputs, [rnd]) == []

    altered = run.Round()
    altered.base_blob = rnd.base_blob
    altered.final_blob = _alter_one_record(rnd.final_blob)
    problems = run.verify(commands, inputs, [altered])
    assert any("byte-identical" in p for p in problems), problems
    assert any(p.startswith("final store: vertex") for p in problems), problems

    altered.base_blob = _alter_one_record(rnd.base_blob)
    altered.final_blob = rnd.final_blob
    problems = run.verify(commands, inputs, [altered])
    assert any(p.startswith("base store: vertex") for p in problems), problems
    assert commands.failed == 0, commands.errors


def test_deep_rd_checks_catch_an_altered_record():
    _check("deep_rd")


def test_calls_cache_w2_checks_catch_an_altered_record():
    _check("calls_cache_w2")


def test_handlers_cp_checks_catch_an_altered_record():
    _check("handlers_cp")


def test_same_seed_same_inputs_and_structure_fixed_across_seeds():
    for name, size in SMALL.items():
        build = workloads.WORKLOADS[name].build
        a, b, c = build(1, **size), build(1, **size), build(2, **size)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert a.atomic_counts == c.atomic_counts
        assert [t.count("\n") for t in a.texts] == [t.count("\n") for t in c.texts]


if __name__ == "__main__":
    if not (run.SRC / "latticeflow" / "cli.py").is_file():
        sys.exit(f"no latticeflow sources under {run.SRC}")
    for test in [v for k, v in sorted(globals().items()) if k.startswith("test_")]:
        test()
        print(f"ok {test.__name__}")
