"""Shared test machinery: generators and independent oracles.

The oracles here deliberately do not reuse the package's lattice code:
the LRU simulator models a concrete cache, and the fact generators build
ordered pairs from first principles, so the tests they feed stay
independent of the implementation they check.
"""

from __future__ import annotations

import random
import struct
from pathlib import Path

import latticeflow as lf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

VARS = ("x", "y", "z", "w")
BLOCKS = (0, 1, 2, 3, 4, 5, 6, 7)


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def load_fixture(name: str) -> lf.SuperGraph:
    return lf.parse_graph(fixture_path(name).read_text(encoding="utf-8"))


def edge_set(g: lf.SuperGraph) -> set[tuple[int, int]]:
    """Every edge of ``g``, read from its predecessor tuples, so it does not
    lean on the successor tuples that ``diff_graphs`` compares."""
    return {(u, v) for v in g.vertices for u in g.preds(v)}


# ---------------------------------------------------------------------------
# Store files, read by the documented layout: magic, fingerprint length and
# fingerprint, then records of (vertex, slot code, payload length, payload)

STORE_RECORD = struct.Struct("<QBI")


def split_store(blob: bytes) -> tuple[bytes, list[tuple[int, int, bytes]]]:
    """The header of a store file and its records as (vertex, slot code, payload)."""
    offset = 12 + int.from_bytes(blob[8:12], "little")
    header, records = blob[:offset], []
    while offset < len(blob):
        vertex, code, size = STORE_RECORD.unpack_from(blob, offset)
        offset += STORE_RECORD.size
        records.append((vertex, code, blob[offset:offset + size]))
        offset += size
    return header, records


def join_store(header: bytes, records: list[tuple[int, int, bytes]]) -> bytes:
    return header + b"".join(STORE_RECORD.pack(vertex, code, len(payload)) + payload
                             for vertex, code, payload in records)


def store_payloads(path: Path) -> dict[int, tuple[bytes, bytes]]:
    """The ``(IN, OUT)`` payload bytes per vertex of a well-formed store file."""
    _, records = split_store(path.read_bytes())
    return {v: (in_data, out_data)
            for (v, _, in_data), (_, _, out_data) in zip(records[::2], records[1::2])}


def store_contents(store: lf.FactStore) -> tuple[list[int], list]:
    """What a store handle holds: its vertices and their decoded pairs."""
    vertices = sorted(store.vertices())
    return vertices, store.batch_get(vertices)


def new_store(path: Path, analysis: lf.Analysis) -> lf.FactStore:
    """A file-backed store of no vertices, committed as a header-only file."""
    store = lf.FactStore(analysis, path)
    store.batch_put({}, {})
    return store


# ---------------------------------------------------------------------------
# Random graphs and edits


def random_stmts(rng: random.Random, def_counter: list[int]) -> lf.Stmts:
    roll = rng.random()
    if roll < 0.25:
        def_counter[0] += 1
        return (lf.DefStmt(var=rng.choice(VARS), def_id=f"d{def_counter[0]}"),)
    if roll < 0.40:
        return (lf.UseStmt(var=rng.choice(VARS)),)
    if roll < 0.55:
        return (lf.AssignConst(var=rng.choice(VARS), value=rng.randint(-4, 4)),)
    if roll < 0.70:
        return (lf.AssignBinOp(var=rng.choice(VARS), left=rng.choice(VARS),
                               op=rng.choice(("+", "-", "*")), right=rng.choice(VARS)),)
    if roll < 0.85:
        return (lf.AccessStmt(block=rng.choice(BLOCKS)),)
    return ()


def random_graph(rng: random.Random, max_vertices: int = 50,
                 max_edges: int = 150) -> lf.SuperGraph:
    """A random graph with mixed payloads, cycles allowed, entries non-empty."""
    n = rng.randint(1, max_vertices)
    ids = sorted(rng.sample(range(2 * max_vertices), n))
    def_counter = [0]
    vertices = {vid: lf.VertexAttribute(stmts=random_stmts(rng, def_counter))
                for vid in ids}
    possible = n * n
    m = rng.randint(0, min(max_edges, possible))
    edges = set()
    for _ in range(m):
        edges.add((rng.choice(ids), rng.choice(ids)))
    g = lf.SuperGraph(vertices, edges)
    if not g.entries:
        # Cycles everywhere: flag a couple of vertices as explicit entries.
        for vid in rng.sample(ids, min(2, n)):
            vertices[vid] = lf.VertexAttribute(stmts=vertices[vid].stmts, is_entry=True)
        g = lf.SuperGraph(vertices, edges)
    return g


def random_edit(rng: random.Random, old: lf.SuperGraph,
                max_id: int = 500) -> lf.SuperGraph:
    """A randomly edited copy of ``old`` covering all edit categories."""
    for _ in range(50):
        vertices = dict(old.vertices)
        edges = edge_set(old)
        def_counter = [1000 + rng.randint(0, 1000)]

        candidates = sorted(vertices)
        for vid in rng.sample(candidates, min(len(candidates), rng.randint(0, 2))):
            del vertices[vid]
            edges = {(u, v) for (u, v) in edges if u != vid and v != vid}
        if edges:
            for edge in rng.sample(sorted(edges), min(len(edges), rng.randint(0, 2))):
                edges.discard(edge)
        remaining = sorted(vertices)
        if remaining:
            for vid in rng.sample(remaining, min(len(remaining), rng.randint(0, 2))):
                vertices[vid] = lf.VertexAttribute(
                    stmts=random_stmts(rng, def_counter),
                    is_entry=vertices[vid].is_entry)
        for _ in range(rng.randint(0, 2)):
            new_id = rng.randint(0, max_id)
            if new_id in vertices or new_id in old.vertices:
                continue
            vertices[new_id] = lf.VertexAttribute(stmts=random_stmts(rng, def_counter))
            anchors = sorted(v for v in vertices if v != new_id)
            if anchors and rng.random() < 0.9:
                other = rng.choice(anchors)
                edges.add((new_id, other) if rng.random() < 0.5 else (other, new_id))
        live = sorted(vertices)
        if live:
            for _ in range(rng.randint(0, 3)):
                edges.add((rng.choice(live), rng.choice(live)))

        if not vertices:
            continue
        new = lf.SuperGraph(vertices, edges)
        if new.entries:
            return new
    raise AssertionError("could not generate a valid edited graph")


def apply_batch(g: lf.SuperGraph, batch: lf.ChangeBatch) -> lf.SuperGraph:
    """``g`` with ``batch`` applied, trusting the batch: deleted vertices
    take their edges with them, changed and added vertices take their
    payloads, and added edges join. Validates nothing."""
    gone = lf.deleted_vertices(batch)
    vertices = {vid: attr for vid, attr in g.vertices.items() if vid not in gone}
    for c in batch:
        if c.payload is not None:
            source = c.kind in (lf.ChangeKind.ADD_SOURCE_NODE, lf.ChangeKind.CHANGE_SOURCE_NODE)
            vertices[c.u if source else c.v] = c.payload
    dropped = {(c.u, c.v) for c in batch if c.kind is lf.ChangeKind.DELETE_EDGE}
    edges = {(u, v) for (u, v) in edge_set(g) - dropped if u not in gone and v not in gone}
    return lf.SuperGraph(vertices, edges | lf.added_edges(batch))


def all_solvers(g: lf.SuperGraph, analysis: lf.Analysis, seed: int = 7):
    """Results of all four solvers, keyed by name."""
    return {
        "sequential": lf.run_sequential(g, analysis),
        "chaotic": lf.run_chaotic(g, analysis, seed),
        "classic": lf.run_classic(g, analysis),
        "optimized": lf.run_optimized(g, analysis),
    }


# ---------------------------------------------------------------------------
# Concrete LRU cache simulation (independent oracle)


class ConcreteLru:
    """A real set-associative LRU cache; the ground truth for must-hits."""

    def __init__(self, sets: int, assoc: int):
        self.sets = sets
        self.assoc = assoc
        self.lines: list[list[int]] = [[] for _ in range(sets)]  # MRU first

    def access(self, block: int) -> bool:
        line = self.lines[block % self.sets]
        hit = block in line
        if hit:
            line.remove(block)
        line.insert(0, block)
        del line[self.assoc:]
        return hit

    def age_of(self, block: int) -> int | None:
        line = self.lines[block % self.sets]
        return line.index(block) if block in line else None

    def clone(self) -> "ConcreteLru":
        out = ConcreteLru(self.sets, self.assoc)
        out.lines = [list(line) for line in self.lines]
        return out

    def state(self) -> tuple:
        return tuple(tuple(line) for line in self.lines)


# ---------------------------------------------------------------------------
# Random facts and ordered pairs, per analysis


def random_rd_fact(rng: random.Random) -> lf.ReachingDefsFact:
    pool = [(f"d{i}", rng.choice(VARS)) for i in range(8)]
    picked = {pair for pair in pool if rng.random() < 0.4}
    return lf.ReachingDefsFact(frozenset(picked))


def weaken_rd(rng: random.Random, fact: lf.ReachingDefsFact) -> lf.ReachingDefsFact:
    kept = {d for d in fact.defs if rng.random() < 0.7}
    return lf.ReachingDefsFact(frozenset(kept))


def random_cp_fact(rng: random.Random) -> lf.ConstPropFact:
    env = {}
    for var in VARS:
        roll = rng.random()
        if roll < 0.35:
            continue  # bottom
        if roll < 0.55:
            env[var] = lf.TOP
        else:
            env[var] = rng.randint(-3, 3)
    return lf.ConstPropFact(env)


def weaken_cp(rng: random.Random, fact: lf.ConstPropFact) -> lf.ConstPropFact:
    env = {}
    for var, val in fact.env.items():
        roll = rng.random()
        if roll < 0.3:
            continue  # drop to bottom
        if val is lf.TOP and roll < 0.6:
            env[var] = rng.randint(-3, 3)  # any constant sits below Top
        else:
            env[var] = val
    return lf.ConstPropFact(env)


def random_cache_fact(rng: random.Random, sets: int = 4, assoc: int = 2,
                      allow_unreached: bool = True) -> lf.CacheFact:
    if allow_unreached and rng.random() < 0.15:
        return lf.CacheFact(unreached=True, sets=())
    maps = []
    for idx in range(sets):
        blocks = [b for b in BLOCKS if b % sets == idx]
        line: dict[int, int] = {}
        # Respect the capacity profile: at most h+1 blocks at age <= h.
        ages = sorted(rng.sample(range(assoc), rng.randint(0, min(assoc, len(blocks)))))
        for b, age in zip(rng.sample(blocks, len(ages)), ages):
            line[b] = age
        maps.append(line)
    return lf.CacheFact(unreached=False, sets=tuple(maps))


def weaken_cache(rng: random.Random, fact: lf.CacheFact,
                 assoc: int = 2) -> lf.CacheFact:
    """A fact at-or-below ``fact``: drop blocks, raise age bounds."""
    if fact.unreached:
        if rng.random() < 0.5:
            return fact
        return random_cache_fact(rng, allow_unreached=False)
    maps = []
    for line in fact.sets:
        out = {}
        for b, age in line.items():
            if rng.random() < 0.25:
                continue
            out[b] = rng.randint(age, assoc - 1)
        maps.append(out)
    return lf.CacheFact(unreached=False, sets=tuple(maps))


def fact_pairs(rng: random.Random, analysis_name: str):
    """One random ordered pair (lo, hi) with lo <= hi for the named analysis."""
    if analysis_name == "rd":
        hi = random_rd_fact(rng)
        return weaken_rd(rng, hi), hi
    if analysis_name == "cp":
        hi = random_cp_fact(rng)
        return weaken_cp(rng, hi), hi
    if analysis_name == "cache":
        hi = random_cache_fact(rng)
        return weaken_cache(rng, hi), hi
    raise ValueError(analysis_name)
