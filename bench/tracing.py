"""Spans and counters around latticeflow's public functions, from outside.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``latticeflow`` module that holds a reference to it (``write_result``
is looked up by both ``cli`` and ``incremental``, for example), and
``Tracer.uninstall`` puts the originals back. Functions that run once per
vertex -- an analysis's ``merge``, ``transfer``, ``encode``, ``decode`` and a
fact's ``copy`` -- keep only a call count and a summed time; everything
else records one span per call with its name, start, end and parent.
Spans stay in memory until ``to_json``.

A traced name that no longer exists is recorded in ``absent`` with the
reason, and the metrics that depend on it read 0.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function) pairs traced with one span per call. ``Class.method``
# names a method of a class defined in that module.
SPANNED = (
    ("cfg", "parse_graph"),
    ("cfg", "diff_graphs"),
    ("cfg", "parse_changes_for_new"),
    ("cfg", "induced_subgraph"),
    ("engine", "run"),
    ("engine", "seed_and_run"),
    ("incremental", "run_incremental_optimized"),
    ("incremental", "build_impact"),
    ("incremental", "transitive_closure"),
    ("store", "write_result"),
    ("store", "FactStore.read_fingerprint"),
    ("store", "FactStore.open"),
    ("store", "FactStore.create"),
    ("store", "FactStore.batch_get"),
    ("store", "FactStore.batch_put"),
    ("store", "FactStore.purge"),
)

# Per-vertex functions: counted and timed in aggregate, keyed by operation.
AGGREGATED = (
    ("analyses", "ReachingDefs.merge", "merge"),
    ("analyses", "ConstProp.merge", "merge"),
    ("analyses", "LruMustCache.merge", "merge"),
    ("analyses", "ReachingDefs.transfer", "transfer"),
    ("analyses", "ConstProp.transfer", "transfer"),
    ("analyses", "LruMustCache.transfer", "transfer"),
    ("analyses", "ReachingDefs.encode", "encode"),
    ("analyses", "ConstProp.encode", "encode"),
    ("analyses", "LruMustCache.encode", "encode"),
    ("analyses", "ReachingDefs.decode", "decode"),
    ("analyses", "ConstProp.decode", "decode"),
    ("analyses", "LruMustCache.decode", "decode"),
    ("analyses", "ReachingDefsFact.copy", "copy"),
    ("analyses", "ConstPropFact.copy", "copy"),
    ("analyses", "CacheFact.copy", "copy"),
)

# Store calls that read or rewrite the whole store file. A purge of no
# vertices leaves the file alone.
_FILE_READERS = {"store.FactStore.read_fingerprint", "store.FactStore.open"}
_FILE_WRITERS = {"store.FactStore.create", "store.FactStore.batch_put",
                 "store.FactStore.purge"}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by child spans and aggregated calls

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    store_path: str = ""
    phase: str = ""
    spans: list[Span] = field(default_factory=list)
    # (phase, op) -> [calls, seconds]
    aggregates: dict[tuple[str, str], list] = field(default_factory=dict)
    # phase -> counters of whole-file store reads and rewrites
    files: dict[str, dict[str, int]] = field(default_factory=dict)
    absent: dict[str, str] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "latticeflow" or name.startswith("latticeflow.")]
        for mod_name, qual in SPANNED:
            self._wrap(modules, mod_name, qual, self._span_wrapper(f"{mod_name}.{qual}"))
        for mod_name, qual, op in AGGREGATED:
            self._wrap(modules, mod_name, qual, self._agg_wrapper(op))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, modules, mod_name: str, qual: str, make) -> None:
        full = f"{mod_name}.{qual}"
        module = sys.modules.get(f"latticeflow.{mod_name}")
        if module is None:
            self.absent[full] = f"module latticeflow.{mod_name} is not loaded"
            return
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            self.absent[full] = f"latticeflow.{mod_name} has no {qual}"
            return
        raw = vars(owner)[attr]
        if owner_name:
            # Methods live on the class: wrap the function inside any
            # staticmethod/classmethod and keep the descriptor kind.
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            func = raw.__func__ if kind else raw
            wrapped = make(func)
            self._set(owner, attr, kind(wrapped) if kind else wrapped, raw)
            return
        wrapped = make(raw)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is raw:
                    self._set(m, name, wrapped, raw)

    def _set(self, owner, attr, value, original) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, value)

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str):
        tracer = self
        clock = time.perf_counter

        def make(func):
            def wrapper(*args, **kwargs):
                stack = tracer._stack
                parent = stack[-1] if stack else None
                writes = name in _FILE_WRITERS
                if name == "store.FactStore.purge" and len(args) > 1:
                    args = (args[0], tuple(args[1])) + args[2:]
                    writes = bool(args[1])
                span = Span(len(tracer.spans), name, parent.sid if parent else None,
                            tracer.phase, clock())
                tracer.spans.append(span)
                stack.append(span)
                try:
                    return func(*args, **kwargs)
                finally:
                    span.end = clock()
                    stack.pop()
                    if parent is not None:
                        parent.child_s += span.duration
                    if name in _FILE_READERS:
                        tracer._count("file_reads", 1)
                    elif writes and tracer.store_path:
                        tracer._count("file_writes", 1)
                        tracer._count("bytes_written", os.path.getsize(tracer.store_path))

            wrapper.__wrapped__ = func
            return wrapper
        return make

    def _agg_wrapper(self, op: str):
        tracer = self
        clock = time.perf_counter

        def make(func):
            def wrapper(*args, **kwargs):
                t0 = clock()
                try:
                    return func(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    with tracer._lock:
                        slot = tracer.aggregates.setdefault((tracer.phase, op), [0, 0.0])
                        slot[0] += 1
                        slot[1] += dt
                        if tracer._stack:
                            top = tracer._stack[-1]
                            top.child_s += dt

            wrapper.__wrapped__ = func
            return wrapper
        return make

    def _count(self, key: str, n: int) -> None:
        counters = self.files.setdefault(self.phase, {})
        counters[key] = counters.get(key, 0) + n

    # -- queries ----------------------------------------------------------

    def span_total(self, name: str, phase: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name and s.phase == phase)

    def span_self(self, name: str, phase: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name and s.phase == phase)

    def aggregate(self, op: str) -> tuple[int, float]:
        calls = sum(v[0] for (ph, o), v in self.aggregates.items() if o == op)
        secs = sum(v[1] for (ph, o), v in self.aggregates.items() if o == op)
        return calls, secs

    def to_json(self) -> dict:
        return {
            "spans": [{"id": s.sid, "name": s.name, "parent": s.parent, "phase": s.phase,
                       "start": s.start, "end": s.end, "self_s": s.self_s}
                      for s in self.spans],
            "aggregates": [{"phase": ph, "op": op, "calls": v[0], "seconds": v[1]}
                           for (ph, op), v in sorted(self.aggregates.items())],
            "files": self.files,
            "absent": self.absent,
        }
