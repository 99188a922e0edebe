"""Independent reference for the benchmark's correctness checks.

Nothing here imports ``latticeflow``. The store reader follows the
documented file format, the CFG reader the documented text format, and the
solver is a plain round-robin fixed-point iteration over the semantics
documented in ``analyses.py``:

* ``rd`` -- facts are sets of ``(def_id, var)``; merge is union; ``def v d``
  kills every pair of ``v`` and adds ``(d, v)``.
* ``cp`` -- facts map a variable to an int or Top (absent is bottom); merge
  joins pointwise; a binary assignment is bottom when an operand is bottom,
  Top when an operand is Top, and otherwise wraps to 64 bits.
* ``cache`` -- facts are per-set maps of block to an upper bound on its LRU
  age, or "unreached"; merge keeps blocks present in every reached operand
  at their maximum age; an access ages younger blocks on a hit and every
  block on a miss, evicting those that reach the associativity.

As in the engines, only vertices reachable from the entries are solved;
the rest keep the merge unit as IN (the entry fact for entries) and OUT.
"""

from __future__ import annotations

import json
import struct

MAGIC = b"LFSTORE1"
_HEADER = struct.Struct("<I")
_RECORD = struct.Struct("<QBI")
_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63

FINGERPRINTS = {
    "rd": "reaching-defs|increasing",
    "cp": "const-prop|increasing",
}


def cache_fingerprint(sets: int, assoc: int) -> str:
    return f"lru-must-cache(sets={sets},assoc={assoc})|decreasing"


def read_store(blob: bytes) -> tuple[str, dict[tuple[int, int], bytes]]:
    """Fingerprint and ``(vertex, slot) -> payload`` of a store file's bytes."""
    if blob[:len(MAGIC)] != MAGIC:
        raise ValueError("bad magic")
    offset = len(MAGIC)
    (fp_len,) = _HEADER.unpack_from(blob, offset)
    offset += _HEADER.size
    fingerprint = blob[offset:offset + fp_len].decode("utf-8")
    offset += fp_len
    records: dict[tuple[int, int], bytes] = {}
    last = None
    while offset < len(blob):
        vertex, slot, size = _RECORD.unpack_from(blob, offset)
        offset += _RECORD.size
        if slot not in (0, 1) or offset + size > len(blob):
            raise ValueError(f"bad record at vertex {vertex}")
        key = (vertex, slot)
        if last is not None and key <= last:
            raise ValueError(f"records out of order at {key}")
        records[key] = blob[offset:offset + size]
        offset += size
        last = key
    return fingerprint, records


def read_cfg(text: str):
    """Payload tokens, entry set and predecessor lists of a CFG file."""
    payloads: dict[int, list[str]] = {}
    flagged: set[int] = set()
    edges = []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "V":
            vid = int(tokens[1])
            rest = tokens[2:]
            if rest[0] == "entry":
                flagged.add(vid)
                rest = rest[1:]
            payloads[vid] = rest
        else:
            edges.append((int(tokens[1]), int(tokens[2])))
    succs: dict[int, list[int]] = {vid: [] for vid in payloads}
    preds = {vid: [] for vid in payloads}
    for (u, v) in set(edges):
        succs[u].append(v)
        preds[v].append(u)
    entries = flagged or {vid for vid in payloads if not preds[vid]}
    return payloads, entries, preds, succs


class _Rd:
    unit = frozenset()
    entry = frozenset()

    @staticmethod
    def merge(a, b):
        return a | b

    @staticmethod
    def transfer(tokens, fact):
        if tokens[0] == "def":
            var = tokens[1]
            return frozenset(p for p in fact if p[1] != var) | {(tokens[2], var)}
        return fact

    @staticmethod
    def decode(data: bytes):
        return frozenset((d, v) for (d, v) in json.loads(data))


_TOP = None  # how the store encodes Top


def _wrap(x: int) -> int:
    return ((x + _I64_SIGN) & _I64_MASK) - _I64_SIGN


class _Cp:
    unit = {}
    entry = {}

    @staticmethod
    def merge(a, b):
        out = dict(a)
        for var, val in b.items():
            if var not in out:
                out[var] = val
            elif out[var] is _TOP or val is _TOP or out[var] != val:
                out[var] = _TOP
        return out

    @staticmethod
    def transfer(tokens, fact):
        if tokens[0] != "assign":
            return fact
        env = dict(fact)
        var = tokens[1]
        if len(tokens) == 4:
            env[var] = _wrap(int(tokens[3]))
            return env
        left, op, right = tokens[3], tokens[4], tokens[5]
        if left not in env or right not in env:
            env.pop(var, None)
        elif env[left] is _TOP or env[right] is _TOP:
            env[var] = _TOP
        else:
            a, b = env[left], env[right]
            env[var] = _wrap(a + b if op == "+" else a - b if op == "-" else a * b)
        return env

    @staticmethod
    def decode(data: bytes):
        return json.loads(data)


class _Cache:
    unit = None  # unreached

    def __init__(self, sets: int, assoc: int):
        self.sets = sets
        self.assoc = assoc
        self.entry = tuple({} for _ in range(sets))

    @staticmethod
    def merge(a, b):
        if a is None:
            return b
        if b is None:
            return a
        return tuple({blk: max(age, theirs[blk]) for blk, age in mine.items() if blk in theirs}
                     for mine, theirs in zip(a, b))

    def transfer(self, tokens, fact):
        if fact is None or tokens[0] != "access":
            return fact
        block = int(tokens[1])
        idx = block % self.sets
        line = fact[idx]
        old = line.get(block)
        if old is not None:
            new = {b: (age + 1 if age < old else age) for b, age in line.items()}
        else:
            new = {b: age + 1 for b, age in line.items() if age + 1 < self.assoc}
        new[block] = 0
        return fact[:idx] + (new,) + fact[idx + 1:]

    @staticmethod
    def decode(data: bytes):
        obj = json.loads(data)
        if obj.get("unreached"):
            return None
        return tuple({int(b): age for b, age in s.items()} for s in obj["sets"])


def semantics(analysis: str, sets: int = 0, assoc: int = 0):
    if analysis == "rd":
        return _Rd()
    if analysis == "cp":
        return _Cp()
    if analysis == "cache":
        return _Cache(sets, assoc)
    raise ValueError(f"unknown analysis {analysis!r}")


def solve(cfg_text: str, sem) -> tuple[dict, dict]:
    """IN and OUT facts of every vertex by round-robin iteration to a fixed point."""
    payloads, entries, preds, succs = read_cfg(cfg_text)
    reach = set(entries)
    stack = list(entries)
    while stack:
        for s in succs[stack.pop()]:
            if s not in reach:
                reach.add(s)
                stack.append(s)
    base = {vid: (sem.entry if vid in entries else sem.unit) for vid in payloads}
    in_facts = dict(base)
    out_facts = {vid: sem.unit for vid in payloads}
    order = sorted(reach)
    changed = True
    while changed:
        changed = False
        for vid in order:
            fact = base[vid]
            for p in preds[vid]:
                fact = sem.merge(fact, out_facts[p])
            out = sem.transfer(payloads[vid], fact)
            if fact != in_facts[vid] or out != out_facts[vid]:
                in_facts[vid] = fact
                out_facts[vid] = out
                changed = True
    return in_facts, out_facts


def check_store(blob: bytes, cfg_text: str, sem, fingerprint: str) -> list[str]:
    """Mismatches between a store and the solver's facts; empty when they agree."""
    try:
        found_fp, records = read_store(blob)
    except (ValueError, struct.error, UnicodeDecodeError) as exc:
        return [f"unreadable store: {exc}"]
    problems = []
    if found_fp != fingerprint:
        problems.append(f"fingerprint {found_fp!r}, expected {fingerprint!r}")
    in_facts, out_facts = solve(cfg_text, sem)
    expected_keys = {(vid, slot) for vid in in_facts for slot in (0, 1)}
    if set(records) != expected_keys:
        extra = sorted(set(records) - expected_keys)[:3]
        missing = sorted(expected_keys - set(records))[:3]
        problems.append(f"store keys differ: extra {extra}, missing {missing}")
    for (vid, slot), data in sorted(records.items()):
        if (vid, slot) not in expected_keys:
            continue
        try:
            fact = sem.decode(data)
        except ValueError as exc:
            problems.append(f"vertex {vid} slot {slot}: undecodable ({exc})")
            continue
        want = in_facts[vid] if slot == 0 else out_facts[vid]
        if fact != want:
            problems.append(f"vertex {vid} {'IN' if slot == 0 else 'OUT'} differs from the solver")
        if len(problems) >= 5:
            break
    return problems
