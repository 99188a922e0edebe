"""Seeded program versions for the three benchmark workloads.

Every workload is a base program plus a fixed stream of edits; version i+1
is version i with edit i applied. The shape of each program -- vertices,
edges, statement kinds, which variable slot or cache block a statement
names, and where every edit lands -- is drawn from a random generator with
a constant seed, so the amount of analysis work never depends on the
workload seed. The workload seed only renames: it permutes the variable
names, permutes cache blocks among the tags of their own cache set, and
draws the integer constants of constant propagation. Equal seeds give
byte-identical files.

Each edit also yields the change-file lines and the number of atomic
changes that ``latticeflow diff`` must produce for it, which the benchmark
uses to check the ``diff`` and ``incremental`` children.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

CACHE_SETS = 16
CACHE_ASSOC = 4
_CACHE_TAGS = 12          # blocks per cache set: 16 x 12 = 192 > 64 lines
_CACHE_TAG_BASE = 7       # keeps every block id at three digits


class Program:
    """A mutable CFG in the text format's terms: payload strings and edges."""

    __slots__ = ("payloads", "entries", "edges")

    def __init__(self):
        self.payloads: dict[int, str] = {}
        self.entries: set[int] = set()
        self.edges: set[tuple[int, int]] = set()

    def copy(self) -> "Program":
        out = Program()
        out.payloads = dict(self.payloads)
        out.entries = set(self.entries)
        out.edges = set(self.edges)
        return out

    def line_payload(self, vid: int) -> str:
        return ("entry " if vid in self.entries else "") + self.payloads[vid]

    def render(self) -> str:
        lines = [f"V {vid} {self.line_payload(vid)}" for vid in sorted(self.payloads)]
        lines += [f"E {u} {v}" for (u, v) in sorted(self.edges)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Edit:
    """One version step; ``op`` is payload, add_edge, del_edge, add_vertex or del_vertex."""

    op: str
    vid: int = -1
    edge: tuple[int, int] = (-1, -1)
    payload: str = ""
    incident: tuple[tuple[int, int], ...] = ()

    def apply(self, prog: Program) -> tuple[list[str], int]:
        """Apply to ``prog``; return the expected change lines and atomic count."""
        if self.op == "payload":
            if prog.payloads[self.vid] == self.payload:
                raise ValueError(f"edit leaves vertex {self.vid} unchanged")
            prog.payloads[self.vid] = self.payload
            return [f"CN {self.vid} {prog.line_payload(self.vid)}"], 1
        if self.op == "add_edge":
            _require(self.edge not in prog.edges, f"edge {self.edge} exists")
            prog.edges.add(self.edge)
            return [f"AE {self.edge[0]} {self.edge[1]}"], 1
        if self.op == "del_edge":
            _require(self.edge in prog.edges, f"edge {self.edge} is missing")
            prog.edges.remove(self.edge)
            return [f"DE {self.edge[0]} {self.edge[1]}"], 1
        if self.op == "add_vertex":
            _require(self.vid not in prog.payloads, f"vertex {self.vid} exists")
            prog.payloads[self.vid] = self.payload
            prog.edges.update(self.incident)
            lines = [f"AN {self.vid} {self.payload}"]
            lines += [f"AE {u} {v}" for (u, v) in self.incident]
            return lines, max(1, len(self.incident))
        if self.op == "del_vertex":
            incident = sorted(e for e in prog.edges if self.vid in e)
            del prog.payloads[self.vid]
            prog.edges.difference_update(incident)
            lines = [f"DN {self.vid}"] + [f"DE {u} {v}" for (u, v) in incident]
            return lines, max(1, len(incident))
        raise ValueError(f"unknown edit {self.op!r}")


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ValueError(message)


@dataclass
class Versions:
    """A generated workload: every version's CFG text plus the edit expectations."""

    texts: list[str]
    change_lines: list[list[str]] = field(default_factory=list)
    atomic_counts: list[int] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode("utf-8"))
        return h.hexdigest()


def _versions(base: Program, edits: list[Edit]) -> Versions:
    out = Versions(texts=[base.render()])
    prog = base
    for edit in edits:
        prog = prog.copy()
        lines, count = edit.apply(prog)
        out.texts.append(prog.render())
        out.change_lines.append(sorted(lines))
        out.atomic_counts.append(count)
    return out


def _names(prefix: str, count: int, rng: random.Random) -> list[str]:
    names = [f"{prefix}{k:02d}" for k in range(count)]
    rng.shuffle(names)
    return names


def _block_map(rng: random.Random) -> dict[tuple[int, int], int]:
    """(set, tag slot) -> block id; the seed permutes tags within each set."""
    out = {}
    for s in range(CACHE_SETS):
        tags = list(range(_CACHE_TAG_BASE, _CACHE_TAG_BASE + _CACHE_TAGS))
        rng.shuffle(tags)
        for slot, tag in enumerate(tags):
            out[(s, slot)] = s + CACHE_SETS * tag
    return out


def _chain_body(prog: Program, s: random.Random, base: int, length: int,
                skip_p: float, skip_span: tuple[int, int],
                loop_p: float, loop_span: tuple[int, int]) -> None:
    """Chain ``base .. base+length-1`` with forward skips and back edges inside it."""
    last = base + length - 1
    for i in range(base, last):
        prog.edges.add((i, i + 1))
    for i in range(base, last):
        if s.random() < skip_p:
            j = i + s.randint(*skip_span)
            if j <= last:
                prog.edges.add((i, j))
        if s.random() < loop_p:
            j = i - s.randint(*loop_span)
            if j >= base:
                prog.edges.add((i, j))


# ---------------------------------------------------------------------------
# deep_rd: one long chain, reaching definitions, payload edits by strata

_RD_VARS = 5


def deep_rd(seed: int, vertices: int = 20000, edits: int = 4) -> Versions:
    s = random.Random("deep_rd/structure")
    r = random.Random(seed)
    names = _names("v", _RD_VARS, r)
    prog = Program()
    var_slot: dict[int, int] = {}
    for vid in range(vertices):
        roll = s.random()
        if roll < 0.2:
            var_slot[vid] = s.randrange(_RD_VARS)
            prog.payloads[vid] = f"def {names[var_slot[vid]]} d{vid}"
        elif roll < 0.4:
            prog.payloads[vid] = f"use {names[s.randrange(_RD_VARS)]}"
        else:
            prog.payloads[vid] = "nop"
    prog.entries.add(0)
    _chain_body(prog, s, 0, vertices, 0.1, (2, 6), 0.02, (10, 60))

    # One def per stratum of the chain, so affected shares spread evenly
    # from near 100 % (start of the chain) to near 0 % (its end).
    stream = []
    width = vertices // edits
    for j in range(edits):
        vid = j * width + width // 4 + s.randrange(width // 2)
        while vid not in var_slot:
            vid += 1
        slot = (var_slot[vid] + 1 + s.randrange(_RD_VARS - 1)) % _RD_VARS
        stream.append(Edit("payload", vid=vid, payload=f"def {names[slot]} d{vid}"))
    s.shuffle(stream)
    return _versions(prog, stream)


# ---------------------------------------------------------------------------
# calls_cache_w2: procedures joined by call and return edges, LRU must-cache

_PROC_LEN = 100
_FANOUT = 14


def calls_cache_w2(seed: int, vertices: int = 20000, edits: int = 4) -> Versions:
    s = random.Random("calls_cache_w2/structure")
    blocks = _block_map(random.Random(seed))
    procs = vertices // _PROC_LEN
    prog = Program()
    for p in range(procs):
        base = p * _PROC_LEN
        working_set = [(s.randrange(CACHE_SETS), s.randrange(_CACHE_TAGS))
                       for _ in range(6)]
        for vid in range(base, base + _PROC_LEN):
            if s.random() < 0.6:
                prog.payloads[vid] = f"access {blocks[s.choice(working_set)]}"
            else:
                prog.payloads[vid] = "nop"
        _chain_body(prog, s, base, _PROC_LEN, 0.15, (2, 6), 0.0, (1, 1))
    prog.entries.add(0)

    # A call tree of fan-out 14 below main; every procedure below the first
    # level is also called from a second first-level procedure. Calls leave
    # the first 60 vertices of a body and return into its last 30, so the
    # callees of one procedure run side by side and every return site
    # merges a callee's exit fact into its caller's fall-through path.
    for callee in range(1, procs):
        callers = [(callee - 1) // _FANOUT]
        if callee > _FANOUT:
            callers.append(s.randrange(1, _FANOUT + 1))
        for caller in callers:
            site = caller * _PROC_LEN + s.randrange(1, 60)
            ret = caller * _PROC_LEN + s.randrange(70, _PROC_LEN - 2)
            prog.edges.add((site, callee * _PROC_LEN))
            prog.edges.add((callee * _PROC_LEN + _PROC_LEN - 1, ret))

    # Edge edits land near the head of main and reach almost every vertex;
    # the vertex pair lands in a first-level procedure and reaches its
    # subtree and the tails of its callers.
    def head_edge(proc: int) -> tuple[int, int]:
        while True:
            u = proc * _PROC_LEN + s.randrange(1, 20)
            edge = (u, u + s.randint(2, 6))
            if edge not in prog.edges:
                return edge

    added_edge = head_edge(0)
    new_vid = procs * _PROC_LEN
    u, w = head_edge(s.randrange(1, _FANOUT + 1))
    skips = sorted((a, b) for (a, b) in prog.edges if b < _PROC_LEN and a + 1 < b)
    stream = [
        Edit("add_edge", edge=added_edge),
        Edit("add_vertex", vid=new_vid,
             payload=f"access {blocks[(s.randrange(CACHE_SETS), s.randrange(_CACHE_TAGS))]}",
             incident=((u, new_vid), (new_vid, w))),
        Edit("del_edge", edge=s.choice(skips)),
        Edit("del_vertex", vid=new_vid),
    ]
    return _versions(prog, stream[:edits])


# ---------------------------------------------------------------------------
# handlers_cp: a forest of entry handlers with private helpers, const-prop

_HANDLER_LEN = 40
_HELPERS = 3
_HELPER_LEN = 20
_TREE_LEN = _HANDLER_LEN + _HELPERS * _HELPER_LEN
_CP_VARS = 8


def _cp_payload(s: random.Random, r: random.Random, names: list[str]) -> str:
    roll = s.random()
    if roll < 0.3:
        return f"assign {names[s.randrange(_CP_VARS)]} = {r.randint(10, 99)}"
    if roll < 0.55:
        a, b, c = (names[s.randrange(_CP_VARS)] for _ in range(3))
        return f"assign {a} = {b} {s.choice('+-*')} {c}"
    if roll < 0.7:
        return f"use {names[s.randrange(_CP_VARS)]}"
    return "nop"


def handlers_cp(seed: int, vertices: int = 20000, edits: int = 8) -> Versions:
    s = random.Random("handlers_cp/structure")
    r = random.Random(seed)
    names = _names("x", _CP_VARS, r)
    trees = vertices // _TREE_LEN
    prog = Program()
    for t in range(trees):
        base = t * _TREE_LEN
        for vid in range(base, base + _TREE_LEN):
            prog.payloads[vid] = _cp_payload(s, r, names)
        prog.entries.add(base)
        _chain_body(prog, s, base, _HANDLER_LEN, 0.2, (2, 5), 0.05, (3, 10))
        sites = sorted(s.sample(range(base + 1, base + _HANDLER_LEN - 2), _HELPERS))
        for h, site in enumerate(sites):
            entry = base + _HANDLER_LEN + h * _HELPER_LEN
            _chain_body(prog, s, entry, _HELPER_LEN, 0.2, (2, 4), 0.0, (1, 1))
            prog.edges.discard((site, site + 1))
            prog.edges.add((site, entry))
            prog.edges.add((entry + _HELPER_LEN - 1, site + 1))

    stream = []
    added: list[int] = []
    for j in range(edits):
        base = s.randrange(trees) * _TREE_LEN
        kind = ("payload", "add_edge", "add_vertex", "del_edge", "del_vertex")[j % 5]
        if kind == "payload":
            vid = base + s.randrange(_TREE_LEN)
            var = names[s.randrange(_CP_VARS)]
            # Names are a permutation, so this test does not depend on the seed.
            while prog.payloads[vid].startswith(f"assign {var} = "):
                var = names[s.randrange(_CP_VARS)]
            stream.append(Edit("payload", vid=vid, payload=f"assign {var} = {r.randint(10, 99)}"))
        elif kind == "add_edge":
            u = base + s.randrange(1, _HANDLER_LEN - 6)
            stream.append(Edit("add_edge", edge=(u, u + 6)))
        elif kind == "add_vertex":
            vid = trees * _TREE_LEN + j
            u = base + _HANDLER_LEN + s.randrange(_HELPER_LEN - 3)
            added.append(vid)
            stream.append(Edit("add_vertex", vid=vid, payload=_cp_payload(s, r, names),
                               incident=((u, vid), (vid, u + 2))))
        elif kind == "del_edge":
            skips = sorted((u, v) for (u, v) in prog.edges
                           if base <= u and u + 1 < v < base + _HANDLER_LEN)
            stream.append(Edit("del_edge", edge=s.choice(skips)))
        else:
            stream.append(Edit("del_vertex", vid=added.pop()))
    return _versions(prog, stream)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    build: Callable[..., Versions]
    analysis: str      # rd, cp or cache
    algo: str          # classic or opt
    workers: int
    analyze_probes: int  # extra analyze samples per round of the benchmark

    def analyze_args(self) -> list[str]:
        args = ["--analysis", self.analysis, "--algo", self.algo,
                "--workers", str(self.workers)]
        if self.analysis == "cache":
            args += ["--sets", str(CACHE_SETS), "--assoc", str(CACHE_ASSOC)]
        return args

    def incremental_args(self) -> list[str]:
        return ["--mode", "opt", "--workers", str(self.workers)]


WORKLOADS = {
    w.name: w for w in (
        Workload("deep_rd", 101, deep_rd, "rd", "opt", 1, 2),
        Workload("calls_cache_w2", 202, calls_cache_w2, "cache", "classic", 2, 1),
        Workload("handlers_cp", 303, handlers_cp, "cp", "opt", 1, 3),
    )
}
