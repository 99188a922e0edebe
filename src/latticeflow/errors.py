"""Exception types shared across the package."""

from __future__ import annotations


class LatticeflowError(Exception):
    """Base class for every error raised by this package."""


class GraphError(LatticeflowError):
    """A graph violates a structural requirement (e.g. no entry vertices)."""


class GraphParseError(LatticeflowError):
    """Malformed graph or change file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateVertexError(GraphParseError):
    pass


class UnknownVertexError(GraphParseError):
    pass


class ChangeConflictError(LatticeflowError):
    """A change batch is not applicable to the graph it was applied to."""


class AnalysisDefinitionError(LatticeflowError):
    """A client analysis received input it cannot interpret."""


class NonConvergenceError(LatticeflowError):
    """The iteration budget was exhausted before a fixed point was reached."""

    def __init__(self, message: str, steps: int):
        self.steps = steps
        super().__init__(message)


class SeedMismatchError(LatticeflowError):
    """Seeded engine state does not line up with the graph's vertex set."""


class StoreError(LatticeflowError):
    """Base class for fact-store failures."""


class WrongAnalysisError(StoreError):
    """Store fingerprint does not match the analysis trying to read it."""


class StoreDecodeError(StoreError):
    """A stored fact payload could not be decoded."""


class StoreIOError(StoreError):
    """Reading or writing the backing file failed."""


class StoreInconsistentError(StoreError):
    """The store lacks facts that an incremental run is required to reuse."""
