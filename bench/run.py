"""nlftl benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload settle --seed 0 --seconds 30 --trace 0

Closed loop: one iteration at a time, each in a fresh interpreter
(``bench/child.py``), repeated while the next one is expected to end within
``--seconds`` (always at least one).  With ``--trace 0`` set-up-only
interpreters then run until there are MIN_SETUP_SAMPLES set-up samples, and
the last stdout line reports the end-to-end metrics.  With ``--trace 1`` the
iterations run under the tracer, one more untraced iteration measures the
tracing overhead, and the line reports the per-layer metrics.  Every iteration's
outputs are checked; a failed iteration is counted in ``failed``, never
retried or dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import LAYER_UNITS, TIME_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKLOADS = ("settle", "wide", "fv-march", "audit")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # stay inside the 180 s a run may take


class Runner:
    """Starts child interpreters one at a time and tallies their outcomes."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.attempted = self.failed = 0
        self.records: list[dict] = []
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def child(self, *, setup_only: bool = False, traced: bool = False) -> None:
        """Run one child interpreter and record its outcome."""
        i = self.attempted
        self.attempted += 1
        out = WORK / f"{self.workload}-{self.seed}-{i}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed), str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd += ["--spans", str(WORK / f"spans-{self.workload}-{self.seed}-{i}.json")]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self._fail(i, "timed out")
            return
        finally:
            shutil.rmtree(out, ignore_errors=True)
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except json.JSONDecodeError:
            record = None
        if record is None:
            self._fail(i, f"exit {proc.returncode}\n{proc.stderr[-4000:]}")
            return
        if record.get("failures"):
            self._fail(i, "; ".join(record["failures"]))
        record.update(setup_only=setup_only, traced=traced)
        self.records.append(record)

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        print(f"iteration {i} of {self.workload} seed {self.seed} failed: {why}", file=sys.stderr)


def measure(runner: Runner, seconds: float, traced: bool) -> None:
    start = time.monotonic()
    durations: list[float] = []
    while True:
        t = time.monotonic()
        runner.child(traced=traced)
        durations.append(time.monotonic() - t)
        now = time.monotonic()
        est = statistics.median(durations)
        if now - start + est > seconds or now + 2.0 * est > runner.deadline:
            return


def median_of(records, key) -> float | None:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def layer_values(traced: list[dict], untraced: list[dict]) -> dict[str, float | None]:
    """Median over traced iterations for times; counts must repeat exactly."""
    out: dict[str, float | None] = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace_overhead":
            a, b = median_of(traced, "wall_s"), median_of(untraced, "wall_s")
            out[name] = a / b if a is not None and b else None
            continue
        pairs = [r["layers"][name] for r in traced if "layers" in r]
        reasons = {why for _, why in pairs if why}
        if not pairs or reasons:
            print(f"{name}: null ({'; '.join(sorted(reasons)) or 'no traced iteration succeeded'})", file=sys.stderr)
            out[name] = None
        elif unit in TIME_UNITS:
            out[name] = statistics.median(v for v, _ in pairs)
        else:
            if len({v for v, _ in pairs}) > 1:
                print(f"{name}: differs between iterations: {[v for v, _ in pairs]}", file=sys.stderr)
            out[name] = pairs[0][0]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "nlftl" / "__init__.py").is_file():
        print(f"bench: no nlftl sources at {ROOT / 'src' / 'nlftl'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    measure(runner, args.seconds, traced=bool(args.trace))
    if args.trace:
        runner.child()
        traced = [r for r in runner.records if r["traced"]]
        untraced = [r for r in runner.records if not r["traced"]]
        values, units = layer_values(traced, untraced), LAYER_UNITS
        samples = {}
    else:
        while sum("setup_s" in r for r in runner.records) < MIN_SETUP_SAMPLES and runner.attempted < 4 * MIN_SETUP_SAMPLES:
            runner.child(setup_only=True)
        runs = [r for r in runner.records if not r["setup_only"]]
        samples = {
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": [r["setup_s"] for r in runner.records],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        values = {name: statistics.median(v) if v else None for name, v in samples.items()}
        units = END_TO_END
    print(f"{args.workload} seed {args.seed}: {runner.attempted} attempted, {runner.failed} failed")
    for name, value in values.items():
        v = samples.get(name)
        extra = f"  median of {len(v)}, range {min(v):.6g} to {max(v):.6g}" if v else ""
        print(f"  {name:28s} {'null' if value is None else f'{value:.6g}':>14s} {units[name]}{extra}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
