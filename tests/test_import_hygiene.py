"""A process loads only what its run uses.

numpy is the package's only runtime dependency: the finite-volume fields use
numpy's FFT and the particle integrator is the numpy-only stepper of
``nlftl.stiff``, which only a particle run loads, so no process loads any
``scipy`` module.  ``np.union1d`` and ``np.unique`` import ``numpy.ma`` on
their first call, which a run would pay inside its own time.  The version
comes from ``nlftl.__version__``, not from the installed distribution's
metadata: ``importlib.metadata`` pulls in ``email``, ``socket`` and
``zipfile``, about 22 ms and over 1 MB of peak RSS in every process.  Each case runs
in a fresh interpreter with ``src`` on the path and reads ``sys.modules`` as
the interpreter exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# printed to stderr at exit, after whatever the case ran, SystemExit included
REPORT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: print(json.dumps([m for m in sorted(sys.modules)"
    " if m.split('.')[0] == 'scipy' or m in ('numpy.ma', 'importlib.metadata', 'nlftl.stiff')]), file=sys.stderr))\n"
)
# what `python -m nlftl.cli ARGS` runs, with the arguments after `-c CODE`
CLI = "import runpy\nrunpy.run_module('nlftl.cli', run_name='__main__', alter_sys=True)\n"


def run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter: (exit code, stdout, the scipy modules,
    ``numpy.ma``, ``importlib.metadata`` and ``nlftl.stiff`` if loaded at exit)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", REPORT + code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    lines = proc.stderr.strip().splitlines()
    assert lines, f"no module report; exit {proc.returncode}"
    return proc.returncode, proc.stdout, json.loads(lines[-1])


SMALL_GODUNOV = """
import dataclasses
import nlftl as nl
cfg = dataclasses.replace(nl.builtin_scenario("two-step-0206"), fv_cells=200, t_end=0.2, output_times=(0.1, 0.2))
run = nl.run_godunov(cfg)
print(len(run.profiles))
"""


@pytest.mark.parametrize(
    "code, args, code_out, stdout_has",
    [
        ("import nlftl\n", (), 0, ""),
        (CLI, ("scenario", "list"), 0, "two-step-0206: "),
        (CLI, ("--help",), 0, "usage: nlftl"),
        (CLI, ("particles", "--scenario", "no-such-scenario"), 3, ""),
        (SMALL_GODUNOV, (), 0, "3"),
    ],
    ids=["import", "scenario-list", "help", "config-error", "run-godunov"],
)
def test_runs_without_particles_load_no_scipy_solver(code, args, code_out, stdout_has):
    returncode, stdout, loaded = run_fresh(code, *args)
    assert returncode == code_out
    assert stdout_has in stdout
    assert loaded == []


def test_init_particles_loads_the_stiff_solver():
    # the numpy-only stepper, and no scipy module
    code = """
import nlftl as nl
cfg = nl.builtin_scenario("single-step")
nl.init_particles(nl.build_profile(cfg), 50, nl.build_mobility(cfg))
"""
    returncode, _, loaded = run_fresh(code)
    assert returncode == 0
    assert loaded == ["nlftl.stiff"]


def test_integrate_loads_the_solver_without_init_particles():
    code = """
import sys
import nlftl as nl
mob = nl.Mobility()
state = nl.jam_state(0.0, 0.4, mob, 40)
assert "nlftl.stiff" not in sys.modules
traj = nl.integrate(state, nl.Kernel(), mob, 0.5)
print(traj.steps, traj.final.time)
"""
    returncode, stdout, loaded = run_fresh(code)
    assert returncode == 0
    steps, t_final = stdout.split()
    assert int(steps) > 0 and float(t_final) == 0.5
    assert loaded == ["nlftl.stiff"]


def test_particle_run_loads_no_scipy_solver_and_no_numpy_ma():
    # the expansion path and the metrics of every snapshot
    code = """
import dataclasses
import nlftl as nl
cfg = dataclasses.replace(nl.builtin_scenario("single-step"), n_cells=240, t_end=0.2, output_times=(0.1, 0.2))
run = nl.run_particles(cfg)
print(len(run.profiles), run.trajectory.pair_sum_terms > 0)
"""
    returncode, stdout, loaded = run_fresh(code)
    assert returncode == 0
    assert stdout.split() == ["3", "True"]
    assert loaded == ["nlftl.stiff"]


def test_numpy_is_the_only_runtime_dependency():
    # scipy computes the tests' references only
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]
    assert "scipy>=1.11" in project["optional-dependencies"]["test"]


def test_the_version_has_one_home():
    # pyproject.toml reads nlftl.__version__; meta.json records the same string
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "nlftl.__version__"}
