"""The public API, pinned: a name added to or removed from the package's
exports, or from a fact store's or a graph's public members, a parameter
renamed, reordered, added or removed in a runner or in the store's
constructor, and an option added to or removed from a command fails these
tests, so every change to the API shows in review."""

import argparse
import inspect
import types

import latticeflow as lf
from latticeflow import cli

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


STORE_MEMBERS = {"open", "read_fingerprint", "batch_get", "batch_put", "vertices", "path"}


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
    "run": [("g", P), ("analysis", P), ("algorithm", P)],
    "run_classic": [("g", P), ("analysis", P)],
    "run_optimized": [("g", P), ("analysis", P)],
    "seed_and_run": [("g", P), ("analysis", P), ("reset", P), ("warm", P), ("boundary", P)],
    "build_impact": [("batch", P), ("new_graph", P), ("per_kind", K)],
    "transitive_closure": [("seed", P), ("g", P)],
    "run_incremental_naive": [("new_graph", P), ("batch", P), ("store", P), ("analysis", P)],
    "run_incremental_optimized": [("new_graph", P), ("batch", P), ("store", P),
                                  ("analysis", P)],
    "FactStore": [("analysis", P), ("path", P)],  # every store is a file
}


def test_runner_signatures_are_pinned():
    found = {name: [(p.name, p.kind.name)
                    for p in inspect.signature(getattr(lf, name)).parameters.values()]
             for name in SIGNATURES}
    assert found == SIGNATURES


# Each subcommand's option strings besides -h/--help.
OPTIONS = {
    "analyze": {"--cfg", "--analysis", "--algo", "--workers", "--store", "--sets", "--assoc"},
    "diff": {"--old", "--new", "--out"},
    "incremental": {"--cfg", "--changes", "--store", "--mode", "--workers"},
    "verify": {"--cfg", "--analysis", "--sets", "--assoc"},
}


def test_command_line_options_are_pinned():
    commands = next(action.choices for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    found = {name: {option for action in sub._actions if action.dest != "help"
                    for option in action.option_strings}
             for name, sub in commands.items()}
    assert found == OPTIONS
