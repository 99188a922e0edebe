"""The public API, pinned: a name added to or removed from the package's
exports, or from a fact store's or a graph's public members, and a
parameter renamed, reordered, added or removed in a runner or in the
store's constructor, fails these tests, so every change to the API shows
in review."""

import inspect
import types

import latticeflow as lf

PUBLIC = {
    # analyses
    "CacheFact", "ConstProp", "ConstPropFact", "LruMustCache", "ReachingDefs",
    "ReachingDefsFact", "TOP", "analysis_from_fingerprint", "analysis_from_name",
    "const_prop", "lru_must_cache", "reaching_defs",
    # cfg
    "AtomicChange", "ChangeBatch", "ChangeKind", "SuperGraph", "VertexAttribute", "VertexId",
    "added_edges", "added_vertices", "deleted_vertices", "diff_graphs",
    "parse_changes_for_new", "parse_graph", "render_changes", "render_graph",
    # engine
    "Algorithm", "AnalysisResult", "run", "run_classic", "run_optimized", "seed_and_run",
    # errors
    "AnalysisDefinitionError", "ChangeConflictError", "DuplicateVertexError", "GraphError",
    "GraphParseError", "LatticeflowError", "NonConvergenceError", "SeedMismatchError",
    "StoreDecodeError", "StoreError", "StoreInconsistentError", "StoreIOError",
    "UnknownVertexError", "WrongAnalysisError",
    # incremental
    "ImpactResult", "IncrementalRun", "build_impact", "run_incremental_naive",
    "run_incremental_optimized", "transitive_closure",
    # lattice
    "Analysis", "Direction", "Fact",
    # sequential
    "run_chaotic", "run_sequential",
    # stmts
    "AccessStmt", "AssignBinOp", "AssignConst", "DefStmt", "Stmt", "Stmts", "UseStmt",
    # store
    "FactStore",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(lf).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC


STORE_MEMBERS = {
    "open", "read_fingerprint", "batch_get", "batch_put", "vertices", "snapshot", "path",
}


def test_store_members_are_pinned(tmp_path):
    store = lf.FactStore(lf.reaching_defs(), tmp_path / "facts.store")
    assert {name for name in dir(store) if not name.startswith("_")} == STORE_MEMBERS


# The graph is its adjacency: a second edge representation would show here.
GRAPH_MEMBERS = {"vertices", "entries", "preds", "succs", "has_edge", "n_edges"}


def test_graph_members_are_pinned():
    g = lf.SuperGraph({}, ())
    assert {name for name in dir(g) if not name.startswith("_")} == GRAPH_MEMBERS


P, K = "POSITIONAL_OR_KEYWORD", "KEYWORD_ONLY"
SIGNATURES = {
    "run": [("g", P), ("analysis", P), ("algorithm", P), ("superstep_cap", K)],
    "run_classic": [("g", P), ("analysis", P), ("superstep_cap", K)],
    "run_optimized": [("g", P), ("analysis", P), ("superstep_cap", K)],
    "seed_and_run": [("g", P), ("analysis", P), ("reset", P), ("warm", P), ("boundary", P),
                     ("superstep_cap", K)],
    "build_impact": [("batch", P), ("new_graph", P), ("per_kind", K)],
    "transitive_closure": [("seed", P), ("g", P)],
    "run_incremental_naive": [("new_graph", P), ("batch", P), ("store", P), ("analysis", P),
                              ("superstep_cap", K)],
    "run_incremental_optimized": [("new_graph", P), ("batch", P), ("store", P),
                                  ("analysis", P), ("superstep_cap", K)],
    "FactStore": [("analysis", P), ("path", P)],  # every store is a file
}


def test_runner_signatures_are_pinned():
    found = {name: [(p.name, p.kind.name)
                    for p in inspect.signature(getattr(lf, name)).parameters.values()]
             for name in SIGNATURES}
    assert found == SIGNATURES
