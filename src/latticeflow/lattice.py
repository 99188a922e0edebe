"""The contract between the engines and a client analysis.

A client supplies a lattice of facts plus three functions:

* ``merge`` folds predecessor facts into an incoming fact. It is the
  lattice join (the meet, for a decreasing analysis), so it must be
  commutative, associative and idempotent, and folding the empty sequence
  must return ``old_in`` unchanged (``initial()`` is the fold unit).
* ``transfer`` maps an incoming fact through a vertex's statements. It must
  be deterministic and monotone with respect to ``Fact.leq``; finite lattice
  height is what makes the fixed-point iteration terminate.
* ``propagate`` decides whether a freshly computed outgoing fact needs to
  reach the successors. The previous value may be ``None``, the "never
  computed" sentinel, and propagate must return True in that case -- the
  engines rely on the first computation at a vertex always propagating.

Facts are immutable once handed to an engine, and all three functions must
be pure: they may not mutate their arguments. The engines rely on this to
hand one fact object to every successor without copying it. For the same
reason a client may return an argument it did not change, or build a new
fact that shares the unchanged parts of one, and a fact store, which holds
each vertex's IN/OUT pair, hands one decoded object to every stored fact
whose payload bytes are equal.

The optimized engine relies on these properties: at a vertex with a single
predecessor it folds that predecessor's newest fact into ``initial()``
instead of into the retained incoming fact (see ``engine``), which is only
the same fact for a monotone ``transfer`` and an idempotent ``merge``.

``entry_fact`` is the value assumed to flow into CFG entry vertices. For
most analyses it coincides with ``initial()``; it exists separately because
a decreasing analysis needs a merge unit at the top of its lattice while
the state entering the program is usually not that unit (an empty
must-cache, for example, guarantees nothing, whereas the merge unit stands
for "no path reaches here at all").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from enum import Enum
from typing import Protocol, Sequence, runtime_checkable

from .stmts import Stmts


class Direction(Enum):
    """Which way facts move during iteration.

    Increasing analyses merge with a join and start from the lattice bottom;
    decreasing analyses merge with a meet and start from the top.
    """

    INCREASING = "increasing"
    DECREASING = "decreasing"


@runtime_checkable
class Fact(Protocol):
    """What the engines require of a client fact value.

    Equality (``==``) decides propagation and result comparison, and
    ``leq`` is the lattice partial order (reflexive, anti-symmetric,
    transitive). The engines themselves never call ``leq``; it exists so
    monotonicity and ordering properties are testable, and a client's own
    kernels may use it.
    """

    def leq(self, other: "Fact") -> bool: ...


class Analysis(ABC):
    """A dataflow analysis definition.

    Subclasses set ``name`` (a stable, self-describing identifier used as
    the fact-store fingerprint) and ``direction``, and implement the
    abstract methods. ``propagate`` defaults to "did the fact change";
    overriding it is the extension point for client-defined termination
    conditions, subject to the sentinel rule above.
    """

    name: str
    direction: Direction

    @abstractmethod
    def initial(self) -> Fact:
        """The merge unit: lattice bottom (increasing) or top (decreasing)."""

    def entry_fact(self) -> Fact:
        """Fact flowing into CFG entry vertices; defaults to ``initial()``."""
        return self.initial()

    @abstractmethod
    def merge(self, pred_facts: Sequence[Fact], old_in: Fact) -> Fact:
        """Fold ``pred_facts`` into ``old_in``; empty sequence is identity."""

    @abstractmethod
    def transfer(self, stmts: Stmts, in_fact: Fact) -> Fact:
        """Apply a vertex's statements to an incoming fact."""

    def propagate(self, old_out: Fact | None, new_out: Fact) -> bool:
        """True when ``new_out`` must flow to successors.

        ``old_out`` is None when the vertex has never produced an outgoing
        fact; that case always propagates.
        """
        return old_out is None or new_out != old_out

    @abstractmethod
    def encode(self, fact: Fact) -> bytes:
        """Serialize a fact canonically (equal facts yield equal bytes)."""

    @abstractmethod
    def decode(self, data: bytes) -> Fact:
        """Inverse of ``encode`` up to fact equality; raises ``ValueError``
        for bytes of a shape ``encode`` never writes."""

    def fingerprint(self) -> str:
        """Identity string a fact store is bound to."""
        return f"{self.name}|{self.direction.value}"
