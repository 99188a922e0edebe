"""Bundled client analyses.

Three analyses exercise both lattice directions and both merge operators:

* reaching definitions -- increasing, merge is set union. A ``def v d``
  statement kills every prior definition of ``v`` and generates ``(d, v)``.
* constant propagation -- increasing, merge is the pointwise join of flat
  per-variable lattices (absent means bottom). A binary assignment
  evaluates only when both operands are known constants; if either operand
  is bottom the result is bottom, otherwise it is Top. Arithmetic wraps to
  64 bits. The transfer functions are monotone but not distributive.
* LRU must-cache -- decreasing, merge is the age-wise meet (keep blocks
  present in every reached operand, at their maximum age). A fact maps
  each cache set to the blocks guaranteed resident, with an upper bound on
  their LRU age. The distinguished "unreached" fact is the meet identity
  standing for "no path reaches here"; every transfer leaves it unchanged.
  The state entering the program is the empty cache (nothing guaranteed),
  which is this analysis's ``entry_fact``.

Facts serialize to canonical JSON so equal facts always produce equal
bytes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from .errors import AnalysisDefinitionError
from .lattice import Analysis, Direction
from .stmts import (
    AccessStmt,
    AssignBinOp,
    AssignConst,
    DefStmt,
    Stmts,
    UseStmt,
)

_KNOWN_STMTS = (DefStmt, UseStmt, AssignConst, AssignBinOp, AccessStmt)


def _check_stmts(stmts: Stmts) -> None:
    for s in stmts:
        if not isinstance(s, _KNOWN_STMTS):
            raise AnalysisDefinitionError(f"unrecognized statement record {s!r}")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Reaching definitions


@dataclass(frozen=True)
class ReachingDefsFact:
    defs: frozenset[tuple[str, str]]  # (def_id, var)

    def leq(self, other: "ReachingDefsFact") -> bool:
        return self.defs <= other.defs


class ReachingDefs(Analysis):
    name = "reaching-defs"
    direction = Direction.INCREASING

    def initial(self) -> ReachingDefsFact:
        return ReachingDefsFact(frozenset())

    def merge(self, pred_facts: Sequence[ReachingDefsFact],
              old_in: ReachingDefsFact) -> ReachingDefsFact:
        defs = old_in.defs
        for f in pred_facts:
            defs = defs | f.defs
        return ReachingDefsFact(defs)

    def transfer(self, stmts: Stmts, in_fact: ReachingDefsFact) -> ReachingDefsFact:
        _check_stmts(stmts)
        defs = in_fact.defs
        for s in stmts:
            if isinstance(s, DefStmt):
                defs = frozenset(d for d in defs if d[1] != s.var) | {(s.def_id, s.var)}
        return ReachingDefsFact(defs)

    def encode(self, fact: ReachingDefsFact) -> bytes:
        return _canonical_json(sorted(fact.defs))

    def decode(self, data: bytes) -> ReachingDefsFact:
        pairs = json.loads(data.decode("utf-8"))
        return ReachingDefsFact(frozenset((d, v) for (d, v) in pairs))


# ---------------------------------------------------------------------------
# Constant propagation


class _Top:
    """Singleton 'not a single constant' value of the flat lattice."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Top"


TOP = _Top()

_I64_MASK = (1 << 64) - 1
_I64_SIGN = 1 << 63


def _wrap64(x: int) -> int:
    return ((x + _I64_SIGN) & _I64_MASK) - _I64_SIGN


def _join_value(a, b):
    if a is TOP or b is TOP:
        return TOP
    return a if a == b else TOP


@dataclass(frozen=True)
class ConstPropFact:
    env: dict  # var -> int | TOP; an absent var is bottom

    def leq(self, other: "ConstPropFact") -> bool:
        for var, val in self.env.items():
            oval = other.env.get(var)
            if oval is None:
                return False  # bottom is strictly below any value
            if oval is not TOP and val != oval:
                return False
        return True


class ConstProp(Analysis):
    name = "const-prop"
    direction = Direction.INCREASING

    def initial(self) -> ConstPropFact:
        return ConstPropFact({})

    def merge(self, pred_facts: Sequence[ConstPropFact],
              old_in: ConstPropFact) -> ConstPropFact:
        env = dict(old_in.env)
        for f in pred_facts:
            for var, val in f.env.items():
                if var in env:
                    env[var] = _join_value(env[var], val)
                else:
                    env[var] = val
        return ConstPropFact(env)

    def transfer(self, stmts: Stmts, in_fact: ConstPropFact) -> ConstPropFact:
        _check_stmts(stmts)
        env = dict(in_fact.env)
        for s in stmts:
            if isinstance(s, AssignConst):
                env[s.var] = _wrap64(s.value)
            elif isinstance(s, AssignBinOp):
                left = env.get(s.left)
                right = env.get(s.right)
                if left is None or right is None:
                    env.pop(s.var, None)  # bottom operand: result unknown-yet
                elif left is TOP or right is TOP:
                    env[s.var] = TOP
                else:
                    env[s.var] = _wrap64(_eval_binop(s.op, left, right))
        return ConstPropFact(env)

    def encode(self, fact: ConstPropFact) -> bytes:
        obj = {var: (None if val is TOP else val) for var, val in fact.env.items()}
        return _canonical_json(obj)

    def decode(self, data: bytes) -> ConstPropFact:
        obj = json.loads(data.decode("utf-8"))
        return ConstPropFact({var: (TOP if val is None else val)
                              for var, val in obj.items()})


def _eval_binop(op: str, left: int, right: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    raise AnalysisDefinitionError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# LRU must-cache


@dataclass(frozen=True)
class CacheFact:
    """Per-set maps of block -> guaranteed-age upper bound, or unreached."""

    unreached: bool
    sets: tuple  # tuple of dict[int, int]; empty when unreached

    def leq(self, other: "CacheFact") -> bool:
        # Fewer guaranteed blocks / older bounds is lower; unreached is top.
        if other.unreached:
            return True
        if self.unreached:
            return False
        for mine, theirs in zip(self.sets, other.sets):
            for block, age in mine.items():
                oage = theirs.get(block)
                if oage is None or oage > age:
                    return False
        return True

    def must_hit(self, block: int, set_count: int) -> bool:
        if self.unreached:
            return False
        return block in self.sets[block % set_count]


class LruMustCache(Analysis):
    """Set-associative LRU must-analysis: a mapped block is a guaranteed hit."""

    direction = Direction.DECREASING

    def __init__(self, sets: int = 4, assoc: int = 2):
        if sets < 1 or assoc < 1:
            raise AnalysisDefinitionError("cache geometry must be at least 1x1")
        self.sets = sets
        self.assoc = assoc
        self.name = f"lru-must-cache(sets={sets},assoc={assoc})"

    def initial(self) -> CacheFact:
        return CacheFact(unreached=True, sets=())

    def entry_fact(self) -> CacheFact:
        return CacheFact(unreached=False, sets=tuple({} for _ in range(self.sets)))

    def merge(self, pred_facts: Sequence[CacheFact], old_in: CacheFact) -> CacheFact:
        reached = [f for f in pred_facts if not f.unreached]
        if not old_in.unreached:
            reached.append(old_in)
        if not reached:
            return old_in
        if len(reached) == 1:
            return reached[0]
        # Facts are immutable, so a set dict the meet leaves alone is shared.
        acc = list(reached[0].sets)
        for f in reached[1:]:
            for idx, theirs in enumerate(f.sets):
                mine = acc[idx]
                if mine is not theirs:
                    acc[idx] = {block: max(age, theirs[block])
                                for block, age in mine.items() if block in theirs}
        return CacheFact(False, tuple(acc))

    def transfer(self, stmts: Stmts, in_fact: CacheFact) -> CacheFact:
        _check_stmts(stmts)
        if in_fact.unreached:
            return in_fact  # no path reaches here; nothing to model
        accesses = [s.block for s in stmts if isinstance(s, AccessStmt)]
        if not accesses:
            return in_fact
        sets = list(in_fact.sets)  # only the accessed sets are replaced
        for block in accesses:
            idx = block % self.sets
            sets[idx] = self._access(sets[idx], block)
        return CacheFact(False, tuple(sets))

    def _access(self, cache_set: dict[int, int], block: int) -> dict[int, int]:
        """The set after accessing ``block``, as a new dict."""
        old_age = cache_set.get(block)
        if old_age is not None:
            # Hit: only blocks younger than the accessed one grow older.
            after = {b: age + 1 if age < old_age else age
                     for b, age in cache_set.items()}
        else:
            # Miss: everything ages; bounds reaching the way count evict.
            after = {b: age + 1 for b, age in cache_set.items()
                     if age + 1 < self.assoc}
        after[block] = 0
        return after

    def encode(self, fact: CacheFact) -> bytes:
        # Writes what ``_canonical_json`` writes for {"sets": [{str(b): age}]}
        # without building that object. Sorting whole '"b":age' items sorts
        # by key: a key's closing quote sorts below every character of an id.
        if fact.unreached:
            return b'{"unreached":true}'
        sets = ",".join([
            "{" + ",".join(sorted([f'"{b}":{age}' for b, age in s.items()])) + "}"
            if s else "{}" for s in fact.sets])
        return f'{{"sets":[{sets}]}}'.encode("ascii")

    def decode(self, data: bytes) -> CacheFact:
        obj = json.loads(data.decode("utf-8"))
        if obj.get("unreached"):
            return CacheFact(unreached=True, sets=())
        return CacheFact(False, tuple({int(b): age for b, age in s.items()}
                                      for s in obj["sets"]))


# ---------------------------------------------------------------------------
# Construction and lookup


def reaching_defs() -> ReachingDefs:
    return ReachingDefs()


def const_prop() -> ConstProp:
    return ConstProp()


def lru_must_cache(sets: int = 4, assoc: int = 2) -> LruMustCache:
    return LruMustCache(sets=sets, assoc=assoc)


_CACHE_NAME = re.compile(r"lru-must-cache\(sets=(\d+),assoc=(\d+)\)")


def analysis_from_name(name: str) -> Analysis:
    """Reconstruct a bundled analysis from its self-describing name.

    Used to reopen a fact store whose fingerprint names the analysis that
    wrote it.
    """
    if name == ReachingDefs.name:
        return reaching_defs()
    if name == ConstProp.name:
        return const_prop()
    m = _CACHE_NAME.fullmatch(name)
    if m:
        return lru_must_cache(sets=int(m.group(1)), assoc=int(m.group(2)))
    raise AnalysisDefinitionError(f"unknown analysis {name!r}")


def analysis_from_fingerprint(fingerprint: str) -> Analysis:
    name, _, direction = fingerprint.rpartition("|")
    analysis = analysis_from_name(name)
    if analysis.direction.value != direction:
        raise AnalysisDefinitionError(
            f"fingerprint {fingerprint!r} direction does not match {name!r}")
    return analysis
