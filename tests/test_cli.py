import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticeflow as lf
from latticeflow import cli, engine
from latticeflow.analyses import MAX_CACHE_SETS
from support import STORE_RECORD, fixture_path, join_store, split_store


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
    [(in_4, _)] = store.batch_get([4])
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


@pytest.mark.parametrize("mode", ["naive", "opt"])
def test_incremental_empty_change_file_reports_zero(capsys, tmp_path, mode):
    # An empty batch never writes the store: not even an identical rewrite
    # replaces the file.
    store_path, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd")
    before = store_path.read_bytes()
    stat = store_path.stat()
    changes = tmp_path / "none.changes"
    changes.write_text("")
    code, out, _ = _run(capsys, "incremental",
                        "--cfg", str(fixture_path("diamond_rd.cfg")),
                        "--changes", str(changes), "--store", str(store_path),
                        "--mode", mode)
    assert code == cli.EXIT_OK
    assert json.loads(out) == {
        "affected": dict.fromkeys(("add", "all", "change", "delete", "purged", "reused"), 0),
        "analysis": "reaching-defs",
        "atomic_changes": 0,
        "command": "incremental",
        "mode": mode,
        "run": {"active_per_superstep": [], "fact_updates": 0, "messages_sent": 0,
                "supersteps": 0},
        "sub_cfg": {"edge_pct": 0.0, "edges": 0, "vertex_pct": 0.0, "vertices": 0},
    }
    assert store_path.read_bytes() == before
    after = store_path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (stat.st_ino, stat.st_mtime_ns)


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

    def corrupted(g, analysis):
        result = real(g, analysis)
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


def test_usage_error_exits_2(capsys):
    assert cli.main(["analyze"]) == cli.EXIT_USAGE
    capsys.readouterr()


_REQUIRED = {
    "analyze": ("--cfg", "a.cfg", "--analysis", "rd", "--store", "a.store"),
    "incremental": ("--cfg", "a.cfg", "--changes", "a.changes", "--store", "a.store"),
    "verify": ("--cfg", "a.cfg", "--analysis", "rd"),
}


# --superstep-cap, --report and verify's --seed are gone: every run has the
# default cap, a report is kept by redirecting stdout, and verify's chaotic
# solver runs in one fixed order.
_REMOVED = {"--superstep-cap", "--report", "--seed"}


@pytest.mark.parametrize("command,flag,value", [
    ("analyze", "--workers", "0"),
    ("analyze", "--workers", "two"),
    ("analyze", "--superstep-cap", "0"),
    ("incremental", "--workers", "-1"),
    ("incremental", "--superstep-cap", "0"),
    ("analyze", "--report", "r.json"),
    ("incremental", "--report", "r.json"),
    ("verify", "--seed", "7"),
])
def test_bad_count_flag_is_a_usage_error(capsys, command, flag, value):
    code, _, err = _run(capsys, command, *_REQUIRED[command], flag, value)
    assert code == cli.EXIT_USAGE
    if flag in _REMOVED:
        assert f"error: unrecognized arguments: {flag} {value}" in err
    else:
        assert f"error: argument {flag}" in err
    assert "Traceback" not in err


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


# Lines appended to incr_demo.changes, each contradicting incr_demo_new.cfg
# or the version the changes start from, and the error each must name.
_CONTRADICTIONS = {
    # Vertex 6 is still in the updated program: accepting this would purge
    # its facts and leave a store the next update refuses.
    "dn-vertex-present": ("DN 6\nDE 5 6\nDE 6 7\n",
                          "line 5: vertex 6 is still in the updated CFG"),
    "an-vertex-absent": ("AN 9 use x\n", "line 5: vertex 9 is not in the updated CFG"),
    "an-other-payload": ("AN 3 use c\n",
                         "line 5: vertex 3 has another payload in the updated CFG"),
    "cn-other-payload": ("CN 4 use b\n",
                         "line 5: vertex 4 has another payload in the updated CFG"),
    "cn-other-entry-flag": ("CN 3 entry def c d3\n",
                            "line 5: vertex 3 has another payload in the updated CFG"),
    "cn-twice": ("CN 5 def y d5\n", "line 5: duplicate CN for vertex 5"),
    "ae-edge-absent": ("AE 3 8\n", "line 5: edge (3, 8) is not in the updated CFG"),
    "de-edge-present": ("DE 3 4\n", "line 5: edge (3, 4) is still in the updated CFG"),
    # Lines that agree with incr_demo_new.cfg but not with the version the
    # changes start from: a removed edge needs two old endpoints, and an
    # added vertex has no payload to change.
    "de-from-unknown-vertex": ("DE 99 7\n", "cannot delete missing edge (99, 7)"),
    "de-from-added-vertex": ("AN 3 def c d3\nDE 3 7\n", "cannot delete missing edge (3, 7)"),
    "cn-of-added-vertex": ("AN 3 def c d3\nCN 3 def c d3\n",
                           "cannot change unknown vertex 3"),
}


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
    # The updated program drops its only entry flag and closes a cycle, so
    # no vertex is an entry: analyze refuses it, and so must incremental.
    (("incremental", "--cfg", "{no_entry}", "--changes", "{no_entry_changes}",
      "--store", "{entry_store}"), "graph has no entry vertices"),
    # A cache geometry with more digits than int() parses.
    (("incremental", "--cfg", "{demo_new}", "--changes", "{demo_changes}",
      "--store", "{long_geometry_store}"), "too long"),
    # A known analysis name with the other direction.
    (("incremental", "--cfg", "{demo_new}", "--changes", "{demo_changes}",
      "--store", "{wrong_direction_store}"),
     "fingerprint 'reaching-defs|decreasing' direction does not match 'reaching-defs'"),
    (("incremental", "--cfg", "{demo_new}", "--changes", "{demo_changes}",
      "--store", "{missing}/s.store"), "cannot read store"),
    # A failed commit names the store, not its temporary file.
    (("analyze", "--cfg", "{cfg}", "--analysis", "rd", "--store", "{missing}/s.store"),
     "s.store: No such file or directory"),
    # incr_demo.changes (four lines) plus a line that contradicts the
    # updated program it is read against; see _CONTRADICTIONS.
    *((("incremental", "--cfg", "{demo_new}", "--changes", f"{{{name}}}",
        "--store", "{demo_store}"), named) for name, (_, named) in _CONTRADICTIONS.items()),
], ids=["cfg-not-utf8", "diff-cfg-not-utf8", "changes-not-utf8", "vertex-id-2**64",
        "sets-past-bound", "store-of-another-program", "update-without-entries",
        "store-geometry-too-long", "store-direction-mismatch", "store-missing",
        "store-unwritable", *_CONTRADICTIONS])
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv, named):
    store, _ = _analyze(capsys, tmp_path, "diamond_rd.cfg", "rd")
    chain_store, _ = _analyze(capsys, tmp_path, "chain10.cfg", "rd")
    demo_store, _ = _analyze(capsys, tmp_path, "incr_demo_old.cfg", "rd")
    header_only = {"long_geometry": f"lru-must-cache(sets=4,assoc={'9' * 5000})|decreasing",
                   "wrong_direction": "reaching-defs|decreasing"}
    for name, fingerprint in header_only.items():
        (tmp_path / f"{name}.store").write_bytes(
            b"LFSTORE1" + len(fingerprint).to_bytes(4, "little") + fingerprint.encode())
    long_geometry_store = tmp_path / "long_geometry.store"
    wrong_direction_store = tmp_path / "wrong_direction.store"
    with_entry = tmp_path / "with_entry.cfg"
    with_entry.write_text("V 1 entry def x d1\nV 2 use x\nE 1 2\n")
    no_entry = tmp_path / "no_entry.cfg"
    no_entry.write_text("V 1 def x d1\nV 2 use x\nE 1 2\nE 2 1\n")
    entry_store = tmp_path / "entry.store"
    no_entry_changes = tmp_path / "no_entry.changes"
    assert cli.main(["analyze", "--cfg", str(with_entry), "--analysis", "rd",
                     "--store", str(entry_store)]) == cli.EXIT_OK
    assert cli.main(["diff", "--old", str(with_entry), "--new", str(no_entry),
                     "--out", str(no_entry_changes)]) == cli.EXIT_OK
    capsys.readouterr()
    stored = {path: path.read_bytes()
              for path in (store, chain_store, entry_store, demo_store, long_geometry_store,
                           wrong_direction_store)}
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes(b"V 1 entry def x d\xff\n")
    big_id = tmp_path / "big_id.cfg"
    big_id.write_text(f"V {2 ** 64} entry def x d\n")
    demo_changes = fixture_path("incr_demo.changes").read_text()
    for name, (lines, _) in _CONTRADICTIONS.items():
        (tmp_path / f"{name}.changes").write_text(demo_changes + lines)
    out = tmp_path / "out"
    paths = {"latin1": latin1, "big_id": big_id, "out": out, "store": store,
             "chain_store": chain_store, "cfg": fixture_path("diamond_rd.cfg"),
             "demo_new": fixture_path("incr_demo_new.cfg"),
             "demo_changes": fixture_path("incr_demo.changes"), "no_entry": no_entry,
             "no_entry_changes": no_entry_changes, "entry_store": entry_store,
             "demo_store": demo_store, "long_geometry_store": long_geometry_store,
             "wrong_direction_store": wrong_direction_store,
             "missing": tmp_path / "missing",
             **{name: tmp_path / f"{name}.changes" for name in _CONTRADICTIONS}}
    code, stdout, err = _run(capsys, *(a.format(**paths) for a in argv))
    assert code == cli.EXIT_USAGE
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert named in err
    assert not out.exists()
    assert {path: path.read_bytes() for path in stored} == stored


def _demo_incremental(capsys, store_path):
    return _run(capsys, "incremental", "--cfg", str(fixture_path("incr_demo_new.cfg")),
                "--changes", str(fixture_path("incr_demo.changes")),
                "--store", str(store_path))


def _assert_refused(code, out, err, store_path, blob):
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert store_path.read_bytes() == blob


def _with_new_access_vertex(tmp_path):
    """cache_diamond.cfg plus one access vertex after its join, and the changes."""
    new = tmp_path / "cache_more.cfg"
    new.write_text(fixture_path("cache_diamond.cfg").read_text() + "V 5 access 1\nE 4 5\n")
    changes = tmp_path / "cache_more.changes"
    assert cli.main(["diff", "--old", str(fixture_path("cache_diamond.cfg")),
                     "--new", str(new), "--out", str(changes)]) == cli.EXIT_OK
    return new, changes


@pytest.mark.parametrize("analysis,payload", [
    ("rd", b'[[3,"c"],["d3","c"]]'),
    ("rd", b'{"d1":"x"}'),
    ("cp", b'{"x":"x"}'),
    ("cp", b'{"x":1.5}'),
    ("cp", b'{"x":true}'),
    ("cp", b'{"x":[1]}'),
    ("cp", b'{"x":9223372036854775808}'),
    ("cache", b'{"sets":[]}'),
    ("cache", b'{"sets":[{"0":"a"},{},{},{}]}'),
    ("cache", b'{"sets":[{"1":0},{},{},{}]}'),
    ("cache", b'{"unreached":false}'),
])
def test_wrongly_shaped_store_payload_exits_2(capsys, tmp_path, analysis, payload):
    # Valid JSON that encode never writes, in every record of the store.
    if analysis == "cache":
        old = fixture_path("cache_diamond.cfg")
        new, changes = _with_new_access_vertex(tmp_path)
    else:
        old = fixture_path("incr_demo_old.cfg")
        new, changes = fixture_path("incr_demo_new.cfg"), fixture_path("incr_demo.changes")
    store_path = tmp_path / "bad.store"
    assert cli.main(["analyze", "--cfg", str(old), "--analysis", analysis,
                     "--store", str(store_path)]) == cli.EXIT_OK
    header, records = split_store(store_path.read_bytes())
    blob = join_store(header, [(vertex, code, payload) for vertex, code, _ in records])
    store_path.write_bytes(blob)
    capsys.readouterr()
    code, out, err = _run(capsys, "incremental", "--cfg", str(new), "--changes", str(changes),
                          "--store", str(store_path))
    _assert_refused(code, out, err, store_path, blob)
    assert "cannot decode the" in err


# Edits of the incr_demo_old store's records, two per vertex (IN, OUT):
# r[0], r[1] are vertex 1's, r[2], r[3] vertex 2's, and so on.
_BAD_RECORDS = {
    "missing-out": (lambda r: r[:5] + r[6:], "IN record without an OUT record at vertex 3"),
    "missing-in": (lambda r: r[1:], "OUT record without an IN record at vertex 1"),
    "out-before-in": (lambda r: [r[1], r[0]] + r[2:],
                      "OUT record without an IN record at vertex 1"),
    "out-of-another-vertex": (lambda r: [r[0], r[3], r[2], r[1]] + r[4:],
                              "IN record without an OUT record at vertex 1"),
    "vertices-descending": (lambda r: r[:2] + r[4:6] + r[2:4] + r[6:],
                            "out of order at vertex 2"),
    "vertex-twice": (lambda r: r[:4] + r[2:], "out of order at vertex 2"),
    "slot-code-2": (lambda r: r[:3] + [(r[3][0], 2, r[3][2])] + r[4:], "invalid slot code 2"),
}


@pytest.mark.parametrize("edit", sorted(_BAD_RECORDS))
def test_incremental_refuses_unpaired_or_misordered_records(capsys, tmp_path, edit):
    store_path, _ = _analyze(capsys, tmp_path, "incr_demo_old.cfg", "rd")
    header, records = split_store(store_path.read_bytes())
    change, message = _BAD_RECORDS[edit]
    blob = join_store(header, change(records))
    store_path.write_bytes(blob)
    code, out, err = _demo_incremental(capsys, store_path)
    _assert_refused(code, out, err, store_path, blob)
    assert message in err


def test_corrupt_in_payload_of_a_boundary_predecessor_exits_2(capsys, tmp_path):
    # In naive mode vertex 3 is the boundary predecessor of the reset vertex
    # 4: only its OUT seeds a message, but its whole pair is decoded, so a
    # corrupt IN payload there is refused. In opt mode no update reads
    # vertex 3 and the run exits 0, copying the corrupt bytes into the new
    # store; that is the unread-payload FOUND that the store checksum of
    # ROADMAP B closes, so it is not asserted here.
    store_path, _ = _analyze(capsys, tmp_path, "incr_demo_old.cfg", "rd")
    header, records = split_store(store_path.read_bytes())
    assert records[4][:2] == (3, 0)
    records[4] = (3, 0, b"\xff")
    blob = join_store(header, records)
    store_path.write_bytes(blob)
    code, out, err = _run(capsys, "incremental", "--mode", "naive",
                          "--cfg", str(fixture_path("incr_demo_new.cfg")),
                          "--changes", str(fixture_path("incr_demo.changes")),
                          "--store", str(store_path))
    _assert_refused(code, out, err, store_path, blob)
    assert "error: cannot decode the IN fact of vertex 3" in err


def test_incremental_survives_every_corrupted_store_byte(capsys, tmp_path):
    # Each byte of every record header (vertex id, slot code, length) is
    # changed two ways, and each payload byte has its low bit flipped. A
    # change may still decode (exit 0); it must never be a traceback.
    store_path, _ = _analyze(capsys, tmp_path, "incr_demo_old.cfg", "rd")
    blob = store_path.read_bytes()
    header, records = split_store(blob)
    cases = []
    at = len(header)
    for _, _, payload in records:
        cases += [(i, mask) for i in range(at, at + STORE_RECORD.size) for mask in (0x01, 0xFF)]
        at += STORE_RECORD.size
        cases += [(i, 0x01) for i in range(at, at + len(payload))]
        at += len(payload)
    assert at == len(blob)
    codes = []
    for pos, mask in cases:
        corrupt = bytearray(blob)
        corrupt[pos] ^= mask
        store_path.write_bytes(corrupt)
        code, out, err = _demo_incremental(capsys, store_path)
        codes.append(code)
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE), (pos, mask, err)
        if code == cli.EXIT_USAGE:
            _assert_refused(code, out, err, store_path, corrupt)
    assert codes.count(cli.EXIT_USAGE) > len(cases) // 2


def test_largest_vertex_id_round_trips_through_analyze(capsys, tmp_path):
    top = 2 ** 64 - 1
    cfg = tmp_path / "top.cfg"
    cfg.write_text(f"V {top} entry def x d1\nV 3 use x\nE {top} 3\n")
    store = tmp_path / "top.store"
    code, _, err = _run(capsys, "analyze", "--cfg", str(cfg), "--analysis", "rd",
                        "--store", str(store))
    assert code == cli.EXIT_OK, err
    reopened = lf.FactStore.open(store, lf.reaching_defs())
    assert max(reopened.vertices()) == top
    [(in_3, _)] = reopened.batch_get([3])
    assert in_3 == lf.ReachingDefsFact(frozenset({("d1", "x")}))


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


def _loop_program(n, edited=False):
    """A chain of ``n`` rd vertices with a back edge every four; the edited
    version rewrites vertex 2 and appends a vertex."""
    lines = ["V 1 entry def x d1"]
    lines += [f"V {i} {'use x' if i % 3 else f'def x d{i}'}" for i in range(2, n + 1)]
    lines += [f"E {i} {i + 1}" for i in range(1, n)]
    lines += [f"E {i} {i - 3}" for i in range(5, n + 1, 4)]
    if edited:
        lines[1] = "V 2 def y d0"
        lines += [f"V {n + 1} use y", f"E {n} {n + 1}"]
    return "\n".join(lines) + "\n"


def _cyclic_garbage_per_command(capsys, tmp_path, n):
    """What ``gc.collect()`` finds after each command, the collector off."""
    old, new = tmp_path / f"old{n}.cfg", tmp_path / f"new{n}.cfg"
    old.write_text(_loop_program(n))
    new.write_text(_loop_program(n, edited=True))
    store, changes = tmp_path / f"{n}.store", tmp_path / f"{n}.changes"
    commands = [
        ("analyze", "--cfg", old, "--analysis", "rd", "--store", store),
        ("diff", "--old", old, "--new", new, "--out", changes),
        ("incremental", "--cfg", new, "--changes", changes, "--store", store),
    ]
    found = []
    for argv in commands:
        gc.collect()
        code, _, err = _run(capsys, *map(str, argv))
        assert code == cli.EXIT_OK, err
        found.append(gc.collect())
    return found


def test_commands_leave_no_cyclic_garbage_per_vertex(capsys, tmp_path):
    enabled = gc.isenabled()
    gc.disable()
    try:
        small = _cyclic_garbage_per_command(capsys, tmp_path, 12)
        large = _cyclic_garbage_per_command(capsys, tmp_path, 2000)
    finally:
        if enabled:
            gc.enable()
    assert small == large
