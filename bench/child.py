"""One benchmark iteration in a fresh interpreter; prints one JSON line.

    python3 bench/child.py WORKLOAD SEED OUT_DIR [--setup-only] [--spans FILE]

``bench/run.py`` starts this with ``src`` on PYTHONPATH.  The set-up clock
starts before nlftl is imported.  With ``--spans`` the iteration runs under
the tracer, writes its spans to FILE and reports the per-layer metrics.
"""

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

import workloads  # noqa: E402  (imports nlftl: part of the set-up time)
from nlftl import godunov, particles  # noqa: E402
from spans import Tracer, rhs_peak_mb  # noqa: E402


def layer_metrics(tr: Tracer, cfg, out_dir: Path) -> dict[str, list]:
    """Per-layer metric -> [value, reason]; value is None when a wrapped
    name is missing, 0 when the workload bypasses the layer."""
    st = tr.stats()
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def span(name):
        return st.get(name, zero)

    out: dict[str, list] = {}

    def put(metric, needs, value):
        gone = sorted({tr.missing[n] for n in needs if n in tr.missing})
        out[metric] = [None, "; ".join(gone)] if gone else [value(), None]

    rhs, fields = span("particles.rhs"), span("godunov.fields")
    put("particles.rhs_calls", ["particles.rhs"], lambda: rhs["calls"])
    put("particles.rhs_s", ["particles.rhs"], lambda: rhs["s"])
    put("particles.rhs_ms_per_call", ["particles.rhs"], lambda: 1e3 * rhs["s"] / rhs["calls"] if rhs["calls"] else 0.0)
    put("particles.integrate_self_s", ["particles.integrate", "particles.rhs"], lambda: span("particles.integrate")["self_s"])
    put("particles.pair_evals", ["particles.rhs"], lambda: int(tr.counts["particles.pair_evals"]))
    put("particles.rhs_temp_mb", ["particles.rhs"], lambda: rhs_peak_mb(particles._velocities, tr.rhs_args) if tr.rhs_args else 0.0)
    traj = tr.results.get("trajectory")
    put("particles.settle_t", ["particles.integrate"], lambda: traj.final.time if traj else 0.0)
    put("particles.min_gap_ratio", ["particles.integrate"], lambda: traj.min_gap_seen / traj.states[0].gap_floor if traj else 0.0)
    put("godunov.steps", ["godunov.step"], lambda: span("godunov.step")["calls"])
    put("godunov.fields_calls", ["godunov.fields"], lambda: fields["calls"])
    put("godunov.fields_s", ["godunov.fields"], lambda: fields["s"])
    cells = tr.counts["godunov.fields_cells"]
    put("godunov.fields_us_per_cell", ["godunov.fields"], lambda: 1e6 * fields["s"] / cells if cells else 0.0)
    put("godunov.step_self_s", ["godunov.step", "godunov.fields"], lambda: span("godunov.step")["self_s"])
    fv = tr.results.get("fv")
    put("godunov.clamped_mass", ["godunov.run"], lambda: fv.clamped_mass if fv else 0.0)
    put("entropy.residual_calls", ["entropy.residual"], lambda: span("entropy.residual")["calls"])
    put("entropy.residual_s", ["entropy.residual"], lambda: span("entropy.residual")["s"])
    put("entropy.conv_calls", ["entropy.conv"], lambda: span("entropy.conv")["calls"])
    put("entropy.conv_s", ["entropy.conv"], lambda: span("entropy.conv")["s"])
    put("entropy.conv_work", ["entropy.conv"], lambda: int(tr.counts["entropy.conv_work"]))
    put("entropy.flags", ["entropy.residual"], lambda: int(tr.counts["entropy.flags"]))
    put("metrics.calls", ["metrics"], lambda: span("metrics")["calls"])
    put("metrics.s", ["metrics"], lambda: span("metrics")["s"])
    put("profiles.init_s", ["profiles.init"], lambda: tr.seconds_under("profiles.init", "setup"))
    put("scenarios.reconstruct_s", ["scenarios.reconstruct"], lambda: span("scenarios.reconstruct")["s"])
    put("scenarios.emit_s", ["scenarios.emit"], lambda: span("scenarios.emit")["s"])
    put("scenarios.emit_bytes", [], lambda: sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()))

    if fv is not None:
        first, last = (godunov.state_profile(fv.grid, s) for s in (fv.states[0], fv.final))
    elif traj is not None:
        first, last = (particles.reconstruct_density(s) for s in (traj.states[0], traj.final))
    else:
        first = last = None
    reason = "no solver result was captured: " + "; ".join(sorted(tr.missing.values()))
    for metric, value in (
        ("l1_to_block", lambda: workloads.l1_to_block(last, cfg.cap)),
        ("mass_drift_rel", lambda: abs(last.mass - first.mass) / first.mass),
    ):
        out[metric] = [value(), None] if last is not None else [None, reason]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("seed", type=int)
    p.add_argument("out_dir", type=Path)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", type=Path, default=None)
    args = p.parse_args(argv)

    with contextlib.ExitStack() as stack:
        tracer = stack.enter_context(Tracer()) if args.spans is not None else None
        phase = tracer.phase if tracer is not None else (lambda name: contextlib.nullcontext())
        with phase("setup"):
            cfg = workloads.setup(args.workload, args.seed)
        record = {"setup_s": time.perf_counter() - T0}
        if args.setup_only:
            print(json.dumps(record))
            return 0
        t1 = time.perf_counter()
        with phase("run"):
            result, out_dir = workloads.execute(args.workload, cfg, args.out_dir)
        record["wall_s"] = time.perf_counter() - t1
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["failures"] = workloads.check(args.workload, cfg, result, out_dir)
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, cfg, out_dir)
        args.spans.write_text(json.dumps({"spans": tracer.spans, "missing": tracer.missing}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
