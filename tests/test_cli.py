import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticeflow as lf
from latticeflow import cli, engine
from latticeflow.analyses import MAX_CACHE_SETS
from latticeflow.store import Slot, StoreKey
from support import fixture_path


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _analyze(capsys, tmp_path, fixture, analysis, *extra):
    store = tmp_path / f"{fixture}.{analysis}.store"
    code, out, err = _run(
        capsys, "analyze", "--cfg", str(fixture_path(fixture)),
        "--analysis", analysis, "--store", str(store), *extra)
    assert code == cli.EXIT_OK, err
    return store, json.loads(out)


def test_analyze_diamond_writes_expected_store(capsys, tmp_path):
    store_path, report = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd",
                                  "--algo", "opt", "--workers", "4")
    store = lf.FactStore.open(store_path, lf.reaching_defs())
    in_4 = store.get(StoreKey(4, Slot.IN))
    assert in_4.defs == {("d1", "x"), ("d2", "y"), ("d3", "x")}
    assert report["run"]["supersteps"] >= 1
    assert report["graph"] == {"vertices": 4, "edges": 4}


def test_analyze_worker_counts_yield_identical_store_bytes(capsys, tmp_path):
    blobs = set()
    for workers in (1, 8):
        store_path, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd",
                                 "--workers", str(workers))
        blobs.add(store_path.read_bytes())
        store_path.unlink()
    assert len(blobs) == 1


def test_analyze_classic_and_optimized_agree(capsys, tmp_path):
    opt_store, _ = _analyze(capsys, tmp_path, "constprop_diamond.cfg", "cp",
                            "--algo", "opt")
    opt_bytes = opt_store.read_bytes()
    opt_store.unlink()
    classic_store, _ = _analyze(capsys, tmp_path, "constprop_diamond.cfg", "cp",
                                "--algo", "classic")
    assert classic_store.read_bytes() == opt_bytes


def test_analyze_missing_file_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, "analyze", "--cfg", str(tmp_path / "absent.cfg"),
                        "--analysis", "rd", "--store", str(tmp_path / "s"))
    assert code == cli.EXIT_USAGE
    assert "error" in err


def test_analyze_unknown_analysis_exits_2(capsys, tmp_path):
    code, _, err = _run(capsys, "analyze", "--cfg", str(fixture_path("diamond_rd.cfg")),
                        "--analysis", "nope", "--store", str(tmp_path / "s"))
    assert code == cli.EXIT_USAGE
    assert "unknown analysis" in err


def test_diff_identical_files_writes_empty_change_file(capsys, tmp_path):
    out = tmp_path / "empty.changes"
    code, _, _ = _run(capsys, "diff", "--old", str(fixture_path("diamond_rd.cfg")),
                      "--new", str(fixture_path("diamond_rd.cfg")), "--out", str(out))
    assert code == cli.EXIT_OK
    assert out.read_text() == ""


def test_diff_worked_example_pair(capsys, tmp_path):
    out = tmp_path / "example.changes"
    code, stdout, _ = _run(
        capsys, "diff", "--old", str(fixture_path("incr_demo_old.cfg")),
        "--new", str(fixture_path("incr_demo_new.cfg")), "--out", str(out))
    assert code == cli.EXIT_OK
    assert "3 atomic changes" in stdout
    assert out.read_text() == fixture_path("incr_demo.changes").read_text()


def test_incremental_empty_change_file_reports_zero(capsys, tmp_path):
    store_path, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd")
    before = store_path.read_bytes()
    changes = tmp_path / "none.changes"
    changes.write_text("")
    code, out, _ = _run(capsys, "incremental",
                        "--cfg", str(fixture_path("diamond_rd.cfg")),
                        "--changes", str(changes), "--store", str(store_path))
    assert code == cli.EXIT_OK
    report = json.loads(out)
    assert report["affected"]["all"] == 0
    assert store_path.read_bytes() == before


# Naive mode reuses nothing, so it reports no per-category sets.
_DEMO_AFFECTED = {
    "naive": {"add": 0, "all": 6, "change": 0, "delete": 0, "purged": 1, "reused": 0},
    "opt": {"add": 4, "all": 6, "change": 3, "delete": 1, "purged": 1, "reused": 3},
}
_DEMO_RUN = {"naive": (5, 8, 9), "opt": (3, 4, 6)}  # supersteps, messages, updates


@pytest.mark.parametrize("mode", ["naive", "opt"])
def test_incremental_matches_scratch_run(capsys, tmp_path, mode):
    store_path, _ = _analyze(capsys, tmp_path, "incr_demo_old.cfg", "rd")
    code, out, err = _run(
        capsys, "incremental", "--cfg", str(fixture_path("incr_demo_new.cfg")),
        "--changes", str(fixture_path("incr_demo.changes")),
        "--store", str(store_path), "--mode", mode)
    assert code == cli.EXIT_OK, err
    scratch_path, _ = _analyze(capsys, tmp_path, "incr_demo_new.cfg", "rd")
    assert store_path.read_bytes() == scratch_path.read_bytes()
    report = json.loads(out)
    assert report["affected"] == _DEMO_AFFECTED[mode]
    run = report["run"]
    assert (run["supersteps"], run["messages_sent"], run["fact_updates"]) == _DEMO_RUN[mode]
    assert report["sub_cfg"]["vertices"] == 6


def test_incremental_modes_agree_and_optimized_converges_faster(capsys, tmp_path):
    # A long chain plus one already-subsumed edge: both modes end at the
    # same store, but the optimized mode quiesces in a few supersteps while
    # the naive mode replays the whole wavefront.
    lines = ["V 1 entry def x d1"]
    lines += [f"V {i} use x" for i in range(2, 101)]
    lines += [f"E {i} {i + 1}" for i in range(1, 100)]
    old_cfg = tmp_path / "chain_old.cfg"
    old_cfg.write_text("\n".join(lines) + "\n")
    new_cfg = tmp_path / "chain_new.cfg"
    new_cfg.write_text("\n".join(lines) + "\nE 5 10\n")
    changes = tmp_path / "chain.changes"
    code = cli.main(["diff", "--old", str(old_cfg), "--new", str(new_cfg),
                     "--out", str(changes)])
    assert code == cli.EXIT_OK

    reports, stores = {}, {}
    for mode in ("naive", "opt"):
        store = tmp_path / f"chain.{mode}.store"
        assert cli.main(["analyze", "--cfg", str(old_cfg), "--analysis", "rd",
                         "--store", str(store)]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["incremental", "--cfg", str(new_cfg),
                         "--changes", str(changes), "--store", str(store),
                         "--mode", mode]) == cli.EXIT_OK
        reports[mode] = json.loads(capsys.readouterr().out)
        stores[mode] = store.read_bytes()

    assert stores["naive"] == stores["opt"]
    assert reports["opt"]["run"]["supersteps"] <= reports["naive"]["run"]["supersteps"]
    assert reports["opt"]["run"]["supersteps"] <= 3
    assert reports["naive"]["run"]["supersteps"] >= 50


def test_incremental_resolves_analysis_from_store_fingerprint(capsys, tmp_path):
    store_path, _ = _analyze(capsys, tmp_path, "cache_diamond.cfg", "cache",
                             "--sets", "1", "--assoc", "2")
    changes = tmp_path / "none.changes"
    changes.write_text("")
    code, out, _ = _run(capsys, "incremental",
                        "--cfg", str(fixture_path("cache_diamond.cfg")),
                        "--changes", str(changes), "--store", str(store_path))
    assert code == cli.EXIT_OK
    assert json.loads(out)["analysis"] == "lru-must-cache(sets=1,assoc=2)"


@pytest.mark.parametrize("fixture,analysis", [
    ("diamond_rd.cfg", "rd"),
    ("constprop_diamond.cfg", "cp"),
    ("cache_diamond.cfg", "cache"),
    ("chain10.cfg", "rd"),
    ("incr_demo_new.cfg", "rd"),
])
def test_verify_accepts_bundled_fixtures(capsys, fixture, analysis):
    code, out, _ = _run(capsys, "verify", "--cfg", str(fixture_path(fixture)),
                        "--analysis", analysis)
    assert code == cli.EXIT_OK
    assert "verified" in out


def test_verify_empty_graph(capsys, tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing\n")
    code, _, _ = _run(capsys, "verify", "--cfg", str(empty), "--analysis", "rd")
    assert code == cli.EXIT_OK


def test_verify_flags_injected_divergence(capsys, monkeypatch):
    real = engine.run_optimized

    def corrupted(g, analysis, config):
        result = real(g, analysis, config)
        result.out_facts[4] = lf.ReachingDefsFact(frozenset({("bogus", "q")}))
        return result

    monkeypatch.setattr(engine, "run_optimized", corrupted)
    code, out, _ = _run(capsys, "verify", "--cfg", str(fixture_path("diamond_rd.cfg")),
                        "--analysis", "rd")
    assert code == cli.EXIT_DIVERGED
    assert "vertex 4" in out


def test_non_monotone_registered_analysis_exits_3(capsys, tmp_path, monkeypatch):
    from test_engine import _Oscillator

    loop = tmp_path / "loop.cfg"
    loop.write_text("V 1 entry nop\nV 2 nop\nE 1 2\nE 2 1\n")
    monkeypatch.setitem(cli.ANALYSES, "osc", lambda args: _Oscillator())
    code, _, err = _run(capsys, "analyze", "--cfg", str(loop),
                        "--analysis", "osc", "--store", str(tmp_path / "s"))
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "monotone" in err


def test_report_file_matches_stdout(capsys, tmp_path):
    report_path = tmp_path / "run.json"
    _, report = _analyze(capsys, tmp_path, "chain10.cfg", "rd",
                         "--report", str(report_path))
    assert json.loads(report_path.read_text()) == report


def test_usage_error_exits_2(capsys):
    assert cli.main(["analyze"]) == cli.EXIT_USAGE
    capsys.readouterr()


_REQUIRED = {
    "analyze": ("--cfg", "a.cfg", "--analysis", "rd", "--store", "a.store"),
    "incremental": ("--cfg", "a.cfg", "--changes", "a.changes", "--store", "a.store"),
    "verify": ("--cfg", "a.cfg", "--analysis", "rd"),
}


@pytest.mark.parametrize("command,flag,value", [
    ("analyze", "--workers", "0"),
    ("analyze", "--workers", "two"),
    ("analyze", "--superstep-cap", "0"),
    ("incremental", "--workers", "-1"),
    ("incremental", "--superstep-cap", "0"),
    ("verify", "--workers", "0"),
])
def test_bad_count_flag_is_a_usage_error(capsys, command, flag, value):
    code, _, err = _run(capsys, command, *_REQUIRED[command], flag, value)
    assert code == cli.EXIT_USAGE
    assert f"error: argument {flag}" in err


def _empty_changes(tmp_path):
    changes = tmp_path / "none.changes"
    changes.write_text("")
    return changes


def _incremental_on(capsys, store_path, changes):
    return _run(capsys, "incremental", "--cfg", str(fixture_path("diamond_rd.cfg")),
                "--changes", str(changes), "--store", str(store_path))


def test_incremental_on_truncated_store_header_exits_2(capsys, tmp_path):
    # Every cut of the file, in the header, inside a record or at a record
    # boundary (a store missing the facts of some vertices).
    store_path, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd")
    blob = store_path.read_bytes()
    header_len = len(b"LFSTORE1") + 4 + len(lf.reaching_defs().fingerprint())
    assert header_len < len(blob)
    changes = _empty_changes(tmp_path)
    for cut in range(len(blob)):
        store_path.write_bytes(blob[:cut])
        code, _, err = _incremental_on(capsys, store_path, changes)
        assert code == cli.EXIT_USAGE, cut
        assert err.startswith("error:") and err.count("\n") == 1, cut
        assert store_path.read_bytes() == blob[:cut], cut


def test_incremental_on_non_utf8_fingerprint_exits_2(capsys, tmp_path):
    store_path, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd")
    blob = bytearray(store_path.read_bytes())
    start = len(b"LFSTORE1") + 4
    fp_len = len(lf.reaching_defs().fingerprint())
    blob[start:start + fp_len] = b"\xff" * fp_len
    store_path.write_bytes(bytes(blob))
    code, _, err = _incremental_on(capsys, store_path, _empty_changes(tmp_path))
    assert code == cli.EXIT_USAGE
    assert "not UTF-8" in err


@pytest.mark.parametrize("argv,named", [
    (("analyze", "--cfg", "{latin1}", "--analysis", "rd", "--store", "{out}"), "latin1.cfg"),
    (("diff", "--old", "{cfg}", "--new", "{latin1}", "--out", "{out}"), "latin1.cfg"),
    (("incremental", "--cfg", "{cfg}", "--changes", "{latin1}", "--store", "{store}"),
     "latin1.cfg"),
    (("analyze", "--cfg", "{big_id}", "--analysis", "rd", "--store", "{out}"), "line 1"),
    (("analyze", "--cfg", "{cfg}", "--analysis", "cache",
      "--sets", str(MAX_CACHE_SETS + 1), "--store", "{out}"), str(MAX_CACHE_SETS)),
    # A store of chain10 (vertices 1..10) for changes that start from
    # incr_demo_old (vertices 1..8).
    (("incremental", "--cfg", "{demo_new}", "--changes", "{demo_changes}",
      "--store", "{chain_store}"), "2 of them not in that program"),
], ids=["cfg-not-utf8", "diff-cfg-not-utf8", "changes-not-utf8", "vertex-id-2**64",
        "sets-past-bound", "store-of-another-program"])
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv, named):
    store, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd")
    chain_store, _ = _analyze(capsys, tmp_path, "chain10.cfg", "rd")
    stored = {path: path.read_bytes() for path in (store, chain_store)}
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"V 1 entry def x d\xff\n")
    big_id = tmp_path / "big_id.cfg"
    big_id.write_text(f"V {2 ** 64} entry def x d\n")
    out = tmp_path / "out"
    paths = {"latin1": latin1, "big_id": big_id, "out": out, "store": store,
             "chain_store": chain_store, "cfg": fixture_path("diamond_rd.cfg"),
             "demo_new": fixture_path("incr_demo_new.cfg"),
             "demo_changes": fixture_path("incr_demo.changes")}
    code, stdout, err = _run(capsys, *(a.format(**paths) for a in argv))
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert named in err
    assert not out.exists()
    assert {path: path.read_bytes() for path in stored} == stored


def test_largest_vertex_id_round_trips_through_analyze(capsys, tmp_path):
    top = 2 ** 64 - 1
    cfg = tmp_path / "top.cfg"
    cfg.write_text(f"V {top} entry def x d1\nV 3 use x\nE {top} 3\n")
    store = tmp_path / "top.store"
    code, _, err = _run(capsys, "analyze", "--cfg", str(cfg), "--analysis", "rd",
                        "--store", str(store))
    assert code == cli.EXIT_OK, err
    reopened = lf.FactStore.open(store, lf.reaching_defs())
    assert reopened.keys()[-2:] == [StoreKey(top, Slot.IN), StoreKey(top, Slot.OUT)]
    assert reopened.get(StoreKey(3, Slot.IN)) == lf.ReachingDefsFact(frozenset({("d1", "x")}))


def test_module_entry_point_runs_the_command(tmp_path):
    store = tmp_path / "m.store"
    src = str(Path(lf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "latticeflow.cli", "analyze",
         "--cfg", str(fixture_path("chain10.cfg")), "--analysis", "rd",
         "--store", str(store)],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert store.exists()
