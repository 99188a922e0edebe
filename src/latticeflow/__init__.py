"""Monotone-framework dataflow analysis on a barriered superstep engine.

Whole-program analysis runs either as the classic gather-all worklist or
the optimized delta-message worklist; a sequential oracle provides ground
truth; an incremental pipeline re-analyzes the updated program seeded on
only the vertices a batch of CFG edits affects, reusing facts from a
persistent store.
"""

from .analyses import (
    CacheFact,
    ConstProp,
    ConstPropFact,
    LruMustCache,
    ReachingDefs,
    ReachingDefsFact,
    TOP,
    analysis_from_fingerprint,
    analysis_from_name,
    const_prop,
    lru_must_cache,
    reaching_defs,
)
from .cfg import (
    AtomicChange,
    ChangeBatch,
    ChangeKind,
    SuperGraph,
    VertexAttribute,
    VertexId,
    added_edges,
    added_vertices,
    deleted_vertices,
    diff_graphs,
    parse_changes_for_new,
    parse_graph,
    render_changes,
    render_graph,
)
from .engine import (
    Algorithm,
    AnalysisResult,
    run,
    run_classic,
    run_optimized,
    seed_and_run,
)
from .errors import (
    AnalysisDefinitionError,
    ChangeConflictError,
    DuplicateVertexError,
    GraphError,
    GraphParseError,
    LatticeflowError,
    NonConvergenceError,
    SeedMismatchError,
    StoreDecodeError,
    StoreError,
    StoreInconsistentError,
    StoreIOError,
    UnknownVertexError,
    WrongAnalysisError,
)
from .incremental import (
    ImpactResult,
    IncrementalRun,
    build_impact,
    run_incremental_naive,
    run_incremental_optimized,
    transitive_closure,
)
from .lattice import Analysis, Direction, Fact
from .sequential import run_chaotic, run_sequential
from .stmts import (
    AccessStmt,
    AssignBinOp,
    AssignConst,
    DefStmt,
    Stmt,
    Stmts,
    UseStmt,
)
from .store import FactStore

__version__ = "0.1.0"
