"""Command-line driver.

Commands:

    analyze      whole-program analysis; writes a fact store and prints a
                 JSON run report
    diff         compare two CFG files and write a change file
    incremental  apply a change file to an existing store (naive or
                 optimized mode); prints an impact + run report
    verify       run all four solvers and check they agree vertex by vertex

Exit codes: 0 success/verified, 1 verification divergence, 2 usage or
input/store errors, 3 non-convergence. Reports go to stdout only and carry
no wall-clock fields, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import engine, incremental, sequential
from .analyses import (
    MAX_CACHE_SETS,
    analysis_from_fingerprint,
    const_prop,
    lru_must_cache,
    reaching_defs,
)
from .cfg import diff_graphs, parse_changes_for_new, parse_graph, render_changes
from .engine import Algorithm
from .errors import GraphParseError, LatticeflowError, NonConvergenceError
from .lattice import Analysis
from .store import FactStore

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

# Analysis name -> factory(args). Extensible: tests register synthetic
# analyses here to drive engine failure paths through the real CLI.
ANALYSES = {
    "rd": lambda args: reaching_defs(),
    "cp": lambda args: const_prop(),
    "cache": lambda args: lru_must_cache(sets=args.sets, assoc=args.assoc),
}

_CHAOTIC_SEED = 0x5EED
_SETS_HELP = f"cache sets, 1 to {MAX_CACHE_SETS} (cache analysis)"
_WORKERS_HELP = ("a positive integer, checked but not passed to the engine, which runs "
                 "one barriered vertex table whatever the worker count")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (LatticeflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeflow",
        description="Interprocedural dataflow analysis on a barriered "
                    "superstep engine, with incremental re-analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="whole-program analysis")
    p_an.add_argument("--cfg", required=True, help="CFG file")
    p_an.add_argument("--analysis", required=True,
                      help="client analysis (rd, cp, cache)")
    p_an.add_argument("--algo", choices=["classic", "opt"], default="opt")
    p_an.add_argument("--workers", type=_positive_int, default=1,
                      help=_WORKERS_HELP + "; echoed in the report")
    p_an.add_argument("--store", required=True, help="output fact-store path")
    p_an.add_argument("--sets", type=int, default=4, help=_SETS_HELP)
    p_an.add_argument("--assoc", type=int, default=2,
                      help="cache associativity (cache analysis)")
    p_an.set_defaults(func=cmd_analyze)

    p_diff = sub.add_parser("diff", help="diff two CFG files into a change file")
    p_diff.add_argument("--old", required=True)
    p_diff.add_argument("--new", required=True)
    p_diff.add_argument("--out", required=True)
    p_diff.set_defaults(func=cmd_diff)

    p_inc = sub.add_parser("incremental", help="incremental re-analysis")
    p_inc.add_argument("--cfg", required=True, help="updated CFG file")
    p_inc.add_argument("--changes", required=True, help="change file (old -> updated)")
    p_inc.add_argument("--store", required=True, help="fact store from the old version")
    p_inc.add_argument("--mode", choices=["naive", "opt"], default="opt")
    p_inc.add_argument("--workers", type=_positive_int, default=1, help=_WORKERS_HELP)
    p_inc.set_defaults(func=cmd_incremental)

    p_ver = sub.add_parser("verify", help="cross-check all four solvers")
    p_ver.add_argument("--cfg", required=True)
    p_ver.add_argument("--analysis", required=True)
    p_ver.add_argument("--sets", type=int, default=4, help=_SETS_HELP)
    p_ver.add_argument("--assoc", type=int, default=2)
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _make_analysis(args) -> Analysis:
    factory = ANALYSES.get(args.analysis)
    if factory is None:
        raise LatticeflowError(
            f"unknown analysis {args.analysis!r}; expected one of {sorted(ANALYSES)}")
    return factory(args)


def _read_input(path: str) -> str:
    """The text of a CFG or change file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _load_graph(path: str):
    return parse_graph(_read_input(path))


def _emit_report(report: dict) -> None:
    print(json.dumps(report, indent=2, sort_keys=True))


def cmd_analyze(args) -> int:
    graph = _load_graph(args.cfg)
    analysis = _make_analysis(args)
    algorithm = Algorithm.CLASSIC if args.algo == "classic" else Algorithm.OPTIMIZED
    result = engine.run(graph, analysis, algorithm)
    FactStore(analysis, args.store).batch_put(result.in_facts, result.out_facts)
    _emit_report({
        "command": "analyze",
        "analysis": analysis.name,
        "algorithm": algorithm.value,
        "workers": args.workers,
        "graph": {"vertices": len(graph.vertices), "edges": graph.n_edges},
        "run": result.to_report(),
    })
    return EXIT_OK


def cmd_diff(args) -> int:
    old = _load_graph(args.old)
    new = _load_graph(args.new)
    batch = diff_graphs(old, new)
    Path(args.out).write_text(render_changes(batch), encoding="utf-8")
    print(f"{len(batch)} atomic changes written to {args.out}")
    return EXIT_OK


def cmd_incremental(args) -> int:
    graph = _load_graph(args.cfg)
    fingerprint = FactStore.read_fingerprint(args.store)
    analysis = analysis_from_fingerprint(fingerprint)
    store = FactStore.open(args.store, analysis)
    batch = parse_changes_for_new(_read_input(args.changes), graph)
    runner = (incremental.run_incremental_optimized if args.mode == "opt"
              else incremental.run_incremental_naive)
    run = runner(graph, batch, store, analysis)
    impact = run.impact
    n_vertices = max(1, len(graph.vertices))
    n_edges = max(1, graph.n_edges)
    # Closed under successors, the affected set's out-edges are its induced edges.
    sub_vertices = len(impact.affected_all)
    sub_edges = sum(len(graph.succs(k)) for k in impact.affected_all)
    _emit_report({
        "command": "incremental",
        "mode": args.mode,
        "analysis": analysis.name,
        "atomic_changes": len(batch),
        "affected": {
            "all": len(impact.affected_all),
            "add": len(impact.affected_add),
            "delete": len(impact.affected_delete),
            "change": len(impact.affected_change),
            "reused": len(impact.reuse),
            "purged": len(run.purged),
        },
        "sub_cfg": {
            "vertices": sub_vertices,
            "edges": sub_edges,
            "vertex_pct": round(100.0 * sub_vertices / n_vertices, 3),
            "edge_pct": round(100.0 * sub_edges / n_edges, 3),
        },
        "run": run.result.to_report(),
    })
    return EXIT_OK


def cmd_verify(args) -> int:
    graph = _load_graph(args.cfg)
    analysis = _make_analysis(args)
    runs = [
        ("classic", engine.run_classic(graph, analysis)),
        ("optimized", engine.run_optimized(graph, analysis)),
        ("sequential", sequential.run_sequential(graph, analysis)),
        ("chaotic", sequential.run_chaotic(graph, analysis, _CHAOTIC_SEED)),
    ]
    base_name, base = runs[0]
    for name, result in runs[1:]:
        for vid in sorted(graph.vertices):
            for slot, facts, base_facts in (("IN", result.in_facts, base.in_facts),
                                            ("OUT", result.out_facts, base.out_facts)):
                if facts[vid] != base_facts[vid]:
                    print(f"divergence at vertex {vid}: {name} {slot} != "
                          f"{base_name} {slot}")
                    return EXIT_DIVERGED
    print(f"verified: 4 solvers agree on {len(graph.vertices)} vertices "
          f"({analysis.name})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
