"""Stateful property: a store kept up to date through the CLI equals the
store a fresh ``analyze`` writes, after every edit.

For each of ``rd``, ``cp`` and ``cache``, the machine analyses a drawn
program with a drawn ``--algo``, then applies edits one at a time the way a user would:
write the edited program, ``diff`` it against the previous one, and run
``incremental`` on two stores, one per mode. After every step both store
files must be byte-identical to the file ``analyze`` writes for the current
program.
"""

import contextlib
import io
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

import latticeflow as lf
from latticeflow import cli
from test_properties import edited, programs

ANALYSIS_ARGS = {
    "rd": ("--analysis", "rd"),
    "cp": ("--analysis", "cp"),
    "cache": ("--analysis", "cache", "--sets", "2", "--assoc", "2"),
}
MODES = ("naive", "opt")


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main([str(a) for a in argv])
    assert code == cli.EXIT_OK, out.getvalue()


class IncrementalThroughTheCli(RuleBasedStateMachine):
    def __init__(self, analysis):
        super().__init__()
        self.analysis_args = ANALYSIS_ARGS[analysis]
        self.dir = Path(tempfile.mkdtemp())
        self.cfg = self.dir / "program.cfg"
        self.version = 0

    @initialize(program=programs(), algo=st.sampled_from(["classic", "opt"]))
    def analyze(self, program, algo):
        self.program = program
        self.cfg.write_text(lf.render_graph(program))
        for mode in MODES:
            _cli("analyze", "--cfg", self.cfg, "--store", self.dir / f"{mode}.store",
                 "--algo", algo, *self.analysis_args)

    @rule(data=st.data())
    def edit(self, data):
        new = edited(data.draw, self.program)
        self.version += 1
        new_cfg = self.dir / f"v{self.version}.cfg"
        new_cfg.write_text(lf.render_graph(new))
        changes = self.dir / f"v{self.version}.changes"
        _cli("diff", "--old", self.cfg, "--new", new_cfg, "--out", changes)
        for mode in MODES:
            _cli("incremental", "--cfg", new_cfg, "--changes", changes,
                 "--store", self.dir / f"{mode}.store", "--mode", mode)
        self.program, self.cfg = new, new_cfg

    @invariant()
    def stores_equal_a_fresh_analysis(self):
        fresh = self.dir / "fresh.store"
        _cli("analyze", "--cfg", self.cfg, "--store", fresh, *self.analysis_args)
        for mode in MODES:
            assert (self.dir / f"{mode}.store").read_bytes() == fresh.read_bytes(), \
                (mode, self.cfg.read_text())

    def teardown(self):
        shutil.rmtree(self.dir)


# No shrink phase: with ``st.data()`` draws, the shrinker of hypothesis 6.155
# can stop on an internal assertion instead of reporting the failing steps.
# The first failing run is reported as found, with the program's CFG text.
SETTINGS = settings(max_examples=25, stateful_step_count=4, deadline=None,
                    derandomize=True, phases=(Phase.explicit, Phase.reuse, Phase.generate))


@pytest.mark.parametrize("analysis", sorted(ANALYSIS_ARGS))
def test_incremental_through_the_cli(analysis):
    run_state_machine_as_test(lambda: IncrementalThroughTheCli(analysis), settings=SETTINGS)
