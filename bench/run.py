"""Benchmark of latticeflow's whole-program and incremental analysis.

    python3 bench/run.py --workload deep_rd [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all        # every workload, one after another

A run generates the workload's program versions from the seed, then
repeats whole rounds for at least ``--seconds``: one ``analyze`` of the
base version, then for every edit of the stream one ``diff`` of the two
versions and one ``incremental`` update of the store. Every CLI command
runs in its own child process, one at a time. Afterwards the run checks
that the last store is byte-identical to a fresh ``analyze`` of the final
version and that the base and final stores hold exactly the facts of an
independent solver (``oracle.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced round run in process through ``latticeflow.cli.main``
(see README.md). The last line of standard output is one JSON object with
``correct``, ``attempted`` and ``failed`` (counts of CLI commands) and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
CHILD = "import sys; from latticeflow.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = (
    ("analyze_s", "s"),
    ("update_s", "s"),
    ("peak_rss_mb", "MB"),
    ("store_mb", "MB"),
    ("setup_s", "s"),
)


# ---------------------------------------------------------------------------
# Running CLI commands


class Commands:
    """Runs CLI commands (as children or in process) and counts failures."""

    def __init__(self, in_process: bool = False):
        self.in_process = in_process
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def __call__(self, args: list[str], check) -> tuple[float, str]:
        self.attempted += 1
        args = [str(a) for a in args]
        if self.in_process:
            seconds, code, out, err = self._in_process(args)
        else:
            seconds, code, out, err = self._child(args)
        problem = f"exit {code}: {err.strip()[-300:]}" if code != 0 else check(out)
        if problem:
            self.failed += 1
            self.errors.append(f"{args[0]}: {problem}")
        return seconds, out

    def _child(self, args):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", CHILD, *args], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, -1, "", f"timed out after {CHILD_TIMEOUT_S} s"
        return time.perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def _in_process(args):
        from latticeflow import cli
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return time.perf_counter() - t0, code, out.getvalue(), err.getvalue()


def _report_check(command: str, **expected):
    def check(out: str):
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not a JSON report"
        if report.get("command") != command:
            return f"report is not from {command}"
        for path, want in expected.items():
            node = report
            for key in path.split("__"):
                node = node.get(key, {}) if isinstance(node, dict) else {}
            if node != want:
                return f"report {path} is {node!r}, expected {want!r}"
        return None
    return check


def _diff_check(changes: Path, lines: list[str], count: int):
    def check(out: str):
        if out.strip() != f"{count} atomic changes written to {changes}":
            return f"unexpected output {out.strip()[:120]!r}"
        if sorted(changes.read_text(encoding="utf-8").splitlines()) != lines:
            return "change file differs from the generated edit"
        return None
    return check


# ---------------------------------------------------------------------------
# Inputs


class Inputs:
    def __init__(self, workload: workloads.Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.setup_times: list[float] = []
        self.versions: workloads.Versions | None = None
        self.digests: set[str] = set()

    def set_up(self) -> None:
        """Generate and write every version; timed as ``setup_s``."""
        t0 = time.perf_counter()
        versions = self.workload.build(self.seed)
        for i, text in enumerate(versions.texts):
            self.cfg(i).write_text(text, encoding="utf-8")
        self.setup_times.append(time.perf_counter() - t0)
        self.versions = versions
        self.digests.add(versions.digest())

    def cfg(self, i: int) -> Path:
        return self.work / f"v{i:02d}.cfg"

    @property
    def edits(self) -> int:
        return len(self.versions.texts) - 1

    def vertex_count(self, i: int) -> int:
        return sum(1 for line in self.versions.texts[i].splitlines() if line.startswith("V "))


# ---------------------------------------------------------------------------
# One round: analyze the base, then apply the whole edit stream


class Round:
    def __init__(self):
        self.analyze_s: list[float] = []   # the round's analyze and its probes
        self.update_s = 0.0          # diff + incremental, summed over the stream
        self.command_s: list[float] = []   # every command but the probes
        self.reports: list[dict] = []
        self.base_blob = b""
        self.final_blob = b""

    def record(self, kind: str, seconds: float, out: str, store: Path) -> None:
        if kind in ("analyze", "probe"):
            self.analyze_s.append(seconds)
        if kind == "probe":
            return
        self.command_s.append(seconds)
        if kind != "analyze":
            self.update_s += seconds
        if kind != "diff":
            self.reports.append(_json_or_empty(out))
        if kind == "analyze":
            self.base_blob = store.read_bytes() if store.exists() else b""


def round_commands(inputs: Inputs, counts: list[int], store: Path, tag: str = "",
                   probes: int = 0):
    """The round's commands as (kind, argv, check): analyze, then diff and
    incremental per edit. ``probes`` extra analyze samples of the base are
    spread through the stream, so that analyze_s sees the host at several
    moments of the round."""
    wl = inputs.workload

    def analyze(target: Path):
        return (["analyze", "--cfg", inputs.cfg(0), "--store", target, *wl.analyze_args()],
                _report_check("analyze", graph__vertices=counts[0]))

    yield ("analyze", *analyze(store))
    probe_after = {round(p * inputs.edits / (probes + 1)) for p in range(1, probes + 1)}
    for i in range(1, inputs.edits + 1):
        changes = inputs.work / f"c{i:02d}{tag}.changes"
        expected = inputs.versions.atomic_counts[i - 1]
        yield ("diff",
               ["diff", "--old", inputs.cfg(i - 1), "--new", inputs.cfg(i), "--out", changes],
               _diff_check(changes, inputs.versions.change_lines[i - 1], expected))
        yield ("incremental",
               ["incremental", "--cfg", inputs.cfg(i), "--changes", changes, "--store", store,
                *wl.incremental_args()],
               _report_check("incremental", atomic_changes=expected))
        if i in probe_after:
            yield ("probe", *analyze(inputs.work / "probe.store"))


def run_round(run, inputs: Inputs, counts: list[int], store: Path, probes: int = 0) -> Round:
    rnd = Round()
    for kind, args, check in round_commands(inputs, counts, store, probes=probes):
        dt, out = run(args, check)
        rnd.record(kind, dt, out, store)
    rnd.final_blob = store.read_bytes() if store.exists() else b""
    return rnd


def interleaved_rounds(inputs: Inputs, counts: list[int], variants) -> list[Round]:
    """One round per ``(run, store, tracer or None)`` variant, run command by
    command: each command runs once per variant, back to back, so that the
    differences between variants are not swamped by the host's drift. The
    order of the variants flips at every command, so that none of them
    always runs second on a warm heap."""
    rounds = [Round() for _ in variants]
    streams = [round_commands(inputs, counts, store, tag=f"-{k}")
               for k, (_, store, _) in enumerate(variants)]
    for j, steps in enumerate(zip(*streams)):
        order = list(zip(variants, rounds, steps))
        for (run, store, tracer), rnd, (kind, args, check) in order[::1 - 2 * (j % 2)]:
            if tracer is not None:
                tracer.phase = "analyze" if kind == "analyze" else "update"
                tracer.install()
            try:
                dt, out = run(args, check)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            rnd.record(kind, dt, out, store)
    for (_, store, _), rnd in zip(variants, rounds):
        rnd.final_blob = store.read_bytes() if store.exists() else b""
    return rounds


def _json_or_empty(out: str) -> dict:
    try:
        return json.loads(out)
    except ValueError:
        return {}


def verify(run, inputs: Inputs, rounds: list[Round]) -> list[str]:
    """Byte identity with a fresh analyze, and agreement with the solver."""
    wl = inputs.workload
    last = inputs.edits
    problems = []
    if len(inputs.digests) != 1:
        problems.append("set-up produced different inputs for the same seed")
    if len({r.final_blob for r in rounds}) != 1:
        problems.append("rounds ended with different stores")
    fresh = inputs.work / "fresh.store"
    run(["analyze", "--cfg", inputs.cfg(last), "--store", fresh, *wl.analyze_args()],
        _report_check("analyze", graph__vertices=inputs.vertex_count(last)))
    final = rounds[0].final_blob
    if not fresh.exists() or fresh.read_bytes() != final:
        problems.append("final store is not byte-identical to a fresh analyze")
    problems += check_facts(wl, inputs.versions.texts[0], rounds[0].base_blob, "base")
    problems += check_facts(wl, inputs.versions.texts[last], final, "final")
    return problems


def check_facts(wl: workloads.Workload, cfg_text: str, blob: bytes, label: str) -> list[str]:
    if wl.analysis == "cache":
        sem = oracle.semantics("cache", workloads.CACHE_SETS, workloads.CACHE_ASSOC)
        fingerprint = oracle.cache_fingerprint(workloads.CACHE_SETS, workloads.CACHE_ASSOC)
    else:
        sem = oracle.semantics(wl.analysis)
        fingerprint = oracle.FINGERPRINTS[wl.analysis]
    return [f"{label} store: {p}" for p in oracle.check_store(blob, cfg_text, sem, fingerprint)]


# ---------------------------------------------------------------------------
# Per-layer metrics of a traced round

def _analysis_methods(op: str) -> tuple[str, ...]:
    return tuple(f"analyses.{c}.{op}" for c in ("ReachingDefs", "ConstProp", "LruMustCache"))


# metric -> (unit, traced names it depends on)
PER_LAYER = {
    "cli.startup_s": ("s", ()),
    "cfg.parse_graph_s": ("s", ("cfg.parse_graph",)),
    "cfg.diff_graphs_s": ("s", ("cfg.diff_graphs",)),
    "cfg.parse_changes_for_new_s": ("s", ("cfg.parse_changes_for_new",)),
    "cfg.induced_subgraph_s": ("s", ("cfg.induced_subgraph",)),
    "engine.run_s": ("s", ("engine.run",)),
    "engine.seed_and_run_s": ("s", ("engine.seed_and_run",)),
    "engine.self_s": ("s", ("engine.run",)),
    "engine.supersteps": ("count", ()),
    "engine.messages_sent": ("count", ()),
    "engine.fact_updates": ("count", ()),
    "engine.active_mean": ("count", ()),
    "analyses.merge_s": ("s", _analysis_methods("merge")),
    "analyses.merge_calls": ("count", _analysis_methods("merge")),
    "analyses.transfer_s": ("s", _analysis_methods("transfer")),
    "analyses.transfer_calls": ("count", _analysis_methods("transfer")),
    "analyses.encode_s": ("s", _analysis_methods("encode")),
    "analyses.encode_calls": ("count", _analysis_methods("encode")),
    "analyses.decode_s": ("s", _analysis_methods("decode")),
    "analyses.decode_calls": ("count", _analysis_methods("decode")),
    "analyses.copy_calls": ("count", tuple(f"analyses.{c}.copy" for c in
                                           ("ReachingDefsFact", "ConstPropFact", "CacheFact"))),
    "incremental.run_s": ("s", ("incremental.run_incremental_optimized",)),
    "incremental.build_impact_s": ("s", ("incremental.build_impact",)),
    "incremental.transitive_closure_s": ("s", ("incremental.transitive_closure",)),
    "incremental.affected_share": ("share", ()),
    "incremental.reset_vertices": ("count", ()),
    "incremental.reused_vertices": ("count", ()),
    "store.read_fingerprint_s": ("s", ("store.FactStore.read_fingerprint",)),
    "store.open_s": ("s", ("store.FactStore.open",)),
    "store.batch_get_s": ("s", ("store.FactStore.batch_get",)),
    "store.batch_put_s": ("s", ("store.FactStore.batch_put",)),
    "store.purge_s": ("s", ("store.FactStore.purge",)),
    "store.file_reads": ("count", ("store.FactStore.read_fingerprint", "store.FactStore.open")),
    "store.file_writes": ("count", ("store.FactStore.create", "store.FactStore.batch_put",
                                    "store.FactStore.purge")),
    "store.bytes_written": ("B", ("store.FactStore.create", "store.FactStore.batch_put",
                                  "store.FactStore.purge")),
    "trace.overhead_pct": ("%", ()),
}


def layer_metrics(tracer: Tracer, inputs: Inputs, child: Round, plain: Round,
                  traced: Round) -> tuple[dict, dict]:
    """Per-layer values and, for metrics that could not be measured, why."""
    edits = inputs.edits
    analyze_run = traced.reports[0].get("run", {})
    updates = traced.reports[1:]
    files = tracer.files.get("update", {})
    merge_n, merge_s = tracer.aggregate("merge")
    transfer_n, transfer_s = tracer.aggregate("transfer")
    encode_n, encode_s = tracer.aggregate("encode")
    decode_n, decode_s = tracer.aggregate("decode")
    copy_n, _ = tracer.aggregate("copy")

    def per_update(name: str) -> float:
        return tracer.span_total(name, "update") / edits

    def mean_over_updates(fn) -> float:
        return sum(fn(i, rep) for i, rep in enumerate(updates, start=1)) / edits

    active = analyze_run.get("active_per_superstep") or [0]
    values = {
        "cli.startup_s": (sum(child.command_s) - sum(plain.command_s)) / len(child.command_s),
        "cfg.parse_graph_s": per_update("cfg.parse_graph"),
        "cfg.diff_graphs_s": per_update("cfg.diff_graphs"),
        "cfg.parse_changes_for_new_s": per_update("cfg.parse_changes_for_new"),
        "cfg.induced_subgraph_s": per_update("cfg.induced_subgraph"),
        "engine.run_s": tracer.span_total("engine.run", "analyze"),
        "engine.seed_and_run_s": per_update("engine.seed_and_run"),
        "engine.self_s": tracer.span_self("engine.run", "analyze"),
        "engine.supersteps": analyze_run.get("supersteps", 0),
        "engine.messages_sent": analyze_run.get("messages_sent", 0),
        "engine.fact_updates": analyze_run.get("fact_updates", 0),
        "engine.active_mean": sum(active) / len(active),
        "analyses.merge_s": merge_s,
        "analyses.merge_calls": merge_n,
        "analyses.transfer_s": transfer_s,
        "analyses.transfer_calls": transfer_n,
        "analyses.encode_s": encode_s,
        "analyses.encode_calls": encode_n,
        "analyses.decode_s": decode_s,
        "analyses.decode_calls": decode_n,
        "analyses.copy_calls": copy_n,
        "incremental.run_s": per_update("incremental.run_incremental_optimized"),
        "incremental.build_impact_s": per_update("incremental.build_impact"),
        "incremental.transitive_closure_s": per_update("incremental.transitive_closure"),
        "incremental.affected_share": mean_over_updates(
            lambda i, rep: rep.get("affected", {}).get("all", 0) / inputs.vertex_count(i)),
        "incremental.reset_vertices": mean_over_updates(
            lambda i, rep: rep.get("affected", {}).get("all", 0)
            - rep.get("affected", {}).get("reused", 0)),
        "incremental.reused_vertices": mean_over_updates(
            lambda i, rep: rep.get("affected", {}).get("reused", 0)),
        "store.read_fingerprint_s": per_update("store.FactStore.read_fingerprint"),
        "store.open_s": per_update("store.FactStore.open"),
        "store.batch_get_s": per_update("store.FactStore.batch_get"),
        "store.batch_put_s": per_update("store.FactStore.batch_put"),
        "store.purge_s": per_update("store.FactStore.purge"),
        "store.file_reads": files.get("file_reads", 0) / edits,
        "store.file_writes": files.get("file_writes", 0) / edits,
        "store.bytes_written": files.get("bytes_written", 0) / edits,
        "trace.overhead_pct": 100.0 * (sum(traced.command_s) / sum(plain.command_s) - 1.0),
    }
    absent = {}
    for metric, (_, sources) in PER_LAYER.items():
        missing = [tracer.absent[s] for s in sources if s in tracer.absent]
        if missing and len(missing) == len(sources):
            absent[metric] = "; ".join(missing)
            values[metric] = 0
    for key in ("supersteps", "messages_sent", "fact_updates", "active_per_superstep"):
        if key not in analyze_run:
            metric = "engine.active_mean" if key == "active_per_superstep" else f"engine.{key}"
            absent[metric] = f"the analyze report has no run.{key}"
    return values, absent


# ---------------------------------------------------------------------------


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = Inputs(workload, seed, work)
    for _ in range(SETUP_REPEATS if not trace else 1):
        inputs.set_up()
    counts = [inputs.vertex_count(i) for i in range(inputs.edits + 1)]
    print(f"inputs: workload={workload.name} seed={seed} versions={inputs.edits + 1} "
          f"vertices={counts[0]}..{counts[-1]} sha256={inputs.versions.digest()}")
    # Compile the package once so no measured child pays for it.
    subprocess.run([sys.executable, "-c", "import latticeflow.cli"], env=Commands().env,
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)

    children = Commands()
    in_process = Commands(in_process=True)
    store = work / "run.store"
    rounds: list[Round] = []
    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}
    if trace:
        tracer = Tracer(store_path=str(work / "traced.store"))
        child, plain, traced = interleaved_rounds(inputs, counts, [
            (children, store, None),
            (in_process, work / "plain.store", None),
            (in_process, work / "traced.store", tracer)])
        rounds.append(child)
        (work / "trace.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
        metrics, absent = layer_metrics(tracer, inputs, child, plain, traced)
    else:
        # Start another round only if it should end within the run length.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(children, inputs, counts, store,
                                    probes=workload.analyze_probes))
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - t0) > seconds:
                break
        maxrss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {
            "analyze_s": statistics.median(s for r in rounds for s in r.analyze_s),
            "update_s": statistics.median(r.update_s / inputs.edits for r in rounds),
            "peak_rss_mb": maxrss_kib / 1024.0,
            "store_mb": len(rounds[-1].final_blob) / 2**20,
            "setup_s": statistics.median(inputs.setup_times),
        }
    problems = verify(children, inputs, rounds)
    if trace and {plain.final_blob, traced.final_blob} != {rounds[0].final_blob}:
        problems.append("an in-process round ended with another store than the children")

    units = dict(END_TO_END) | {m: u for m, (u, _) in PER_LAYER.items()}
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    for name, reason in sorted(absent.items()):
        print(f"  absent: {name}: {reason}")
    attempted = children.attempted + in_process.attempted
    failed = children.failed + in_process.failed
    print(f"rounds={len(rounds)} commands: attempted={attempted} failed={failed}")
    print("  analyze samples: " + " ".join(f"{s:.3f}" for r in rounds for s in r.analyze_s))
    print("  update samples: " + " ".join(f"{r.update_s / inputs.edits:.3f}" for r in rounds))
    for line in children.errors + in_process.errors + problems:
        print(f"  problem: {line}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own, see README.md)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run whole rounds until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "latticeflow" / "cli.py").is_file():
        print(f"error: no latticeflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import latticeflow.cli  # imported before any in-process round is timed
    if SRC not in Path(latticeflow.__file__).resolve().parents:
        print(f"error: latticeflow was imported from {latticeflow.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        seed = wl.default_seed if args.seed is None else args.seed
        results[name] = measure(wl, seed, args.seconds, bool(args.trace))
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
