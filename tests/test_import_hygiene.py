"""A process loads only what its run uses.

scipy's FFT, stiff solver and sparse matrices take most of the time of
``import nlftl`` when they load with it, and only the particle integrator
needs them.  Each case runs in a fresh interpreter with ``src`` on the path
and reads ``sys.modules`` as the interpreter exits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.fft", "scipy.integrate", "scipy.sparse")
# printed to stderr at exit, after whatever the case ran, SystemExit included
REPORT = (
    "import atexit, json, sys\n"
    f"atexit.register(lambda: print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]), file=sys.stderr))\n"
)
# what `python -m nlftl.cli ARGS` runs, with the arguments after `-c CODE`
CLI = "import runpy\nrunpy.run_module('nlftl.cli', run_name='__main__', alter_sys=True)\n"


def run_fresh(code: str, *args: str):
    """Run ``code`` in a fresh interpreter: (exit code, stdout, the ``HEAVY`` modules loaded at exit)."""
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
    code = """
import nlftl as nl
cfg = nl.builtin_scenario("single-step")
nl.init_particles(nl.build_profile(cfg), 50, nl.build_mobility(cfg))
"""
    returncode, _, loaded = run_fresh(code)
    assert returncode == 0
    assert {"scipy.integrate", "scipy.sparse"} <= set(loaded)


def test_integrate_loads_the_solver_without_init_particles():
    code = """
import sys
import nlftl as nl
mob = nl.Mobility()
state = nl.jam_state(0.0, 0.4, mob, 40)
assert "scipy.integrate" not in sys.modules
traj = nl.integrate(state, nl.Kernel(), mob, 0.5)
print(traj.steps, traj.final.time)
"""
    returncode, stdout, loaded = run_fresh(code)
    assert returncode == 0
    steps, t_final = stdout.split()
    assert int(steps) > 0 and float(t_final) == 0.5
    assert {"scipy.integrate", "scipy.sparse"} <= set(loaded)
