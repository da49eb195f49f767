"""Command-line harness around the scenario runners.

Exit codes: 0 success, 2 invariant violation (e.g. a maximum-principle
breach reported by the integrator), 3 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, InvariantViolation
from .scenarios import (
    ScenarioConfig,
    builtin_description,
    builtin_names,
    default_test_function,
    emit_compare,
    emit_convergence,
    emit_entropy,
    emit_method_run,
    run_compare,
    run_convergence,
    run_entropy_audit,
    run_godunov,
    run_particles,
)

_SEEDLESS = "reserved"  # marker: the flag takes no value


class _Parser(argparse.ArgumentParser):
    """argparse error -> ConfigError, so bad flags share exit code 3."""

    def error(self, message):
        raise ConfigError(message)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON config document")
    p.add_argument("--scenario", help="builtin scenario name (see 'scenario list')")
    p.add_argument("--out", type=Path, help="output root directory")
    p.add_argument("--n", type=int, help="particle cell count")
    p.add_argument("--cells", type=int, help="finite-volume cell count")
    p.add_argument("--t-end", type=float, dest="t_end", help="final time")
    p.add_argument(
        "--seedless",
        nargs="?",
        const=_SEEDLESS,
        default=_SEEDLESS,
        help="reserved; every run is deterministic and the flag rejects any value",
    )


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "seedless", _SEEDLESS) != _SEEDLESS:
        raise ConfigError("--seedless takes no value: there is no RNG to seed, runs are deterministic")
    data: dict = {}
    if args.config is not None:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
    if args.scenario is not None:
        data["scenario"] = args.scenario
    if args.n is not None:
        data["n_cells"] = args.n
    if args.cells is not None:
        data["fv_cells"] = args.cells
    if args.t_end is not None:
        data["t_end"] = args.t_end
        data.setdefault("output_times", None)
    if args.out is not None:
        data["out_dir"] = str(args.out)
    if "scenario" not in data and data.get("profile") is None:
        raise ConfigError("give --scenario NAME or --config with a profile")
    return ScenarioConfig.from_dict(data)


def _parse_floats(text: str, flag: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated numbers: {exc}") from exc


def _parse_ints(text: str, flag: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{flag} expects comma-separated integers: {exc}") from exc


def _cmd_particles(args) -> int:
    config = _load_config(args)
    run = run_particles(config)
    d = emit_method_run(run)
    final = run.trajectory.final
    print(f"particles: t={final.time:g} mass={final.total_mass:g} min_gap={run.trajectory.min_gap_seen:.3e} -> {d}")
    return 0


def _cmd_godunov(args) -> int:
    config = _load_config(args)
    run = run_godunov(config)
    d = emit_method_run(run)
    drift = run.fv.masses[-1] - run.fv.masses[0]
    print(f"godunov: t={run.times[-1]:g} steps={run.fv.steps} mass_drift={drift:.3e} -> {d}")
    return 0


def _cmd_compare(args) -> int:
    config = _load_config(args)
    result = run_compare(config)
    d = emit_compare(result)
    t, l1, w1 = result.rows[-1]
    print(f"compare: t={t:g} l1={l1:.6g} w1={w1:.6g} -> {d}")
    return 0


def _cmd_converge(args) -> int:
    config = _load_config(args)
    n_list = _parse_ints(args.n_list, "--n-list")
    result = run_convergence(config, n_list, args.j_ref)
    d = emit_convergence(result)
    for k, n in enumerate(result.n_list):
        ratio = f" ratio_to_next={result.ratios[k]:.3f}" if k < len(result.ratios) else ""
        print(f"N={n}: e={result.errors[k]:.6g}{ratio}")
    print(f"converge: j_ref={result.j_ref} -> {d}")
    return 0


def _cmd_entropy_audit(args) -> int:
    config = _load_config(args)
    c_list = _parse_floats(args.c_list, "--c-list") if args.c_list else None
    phi = (default_test_function(config, frozen=args.frozen, horizon=args.horizon),)
    reports = run_entropy_audit(
        config,
        c_list=c_list,
        phi_specs=phi,
        method=args.method,
        frozen=args.frozen,
        n_space=args.n_space,
        horizon=args.horizon,
    )
    label = f"{args.method}-frozen" if args.frozen else args.method
    d = emit_entropy(config, reports, label)
    flagged = [r for r in reports if r.violation]
    print(f"entropy-audit: {len(reports)} residuals, {len(flagged)} flagged -> {d}")
    for r in flagged:
        print(
            f"  VIOLATION c={r.c:g} residual={r.residual:.6g} est_error={r.est_error:.3g} guard={r.guard:.3g} phi={r.phi}"
        )
    # a report is flagged when residual + guard < 0
    tight = min(reports, key=lambda r: r.residual + r.guard)
    print(f"  smallest margin residual+guard={tight.residual + tight.guard:.6g} at c={tight.c:g} phi={tight.phi}")
    return 0


def _cmd_scenario(args) -> int:
    if args.action != "list":
        raise ConfigError(f"unknown scenario action {args.action!r}; try 'scenario list'")
    for name in builtin_names():
        print(f"{name}: {builtin_description(name)}")
    return 0


def main(argv=None) -> int:
    parser = _Parser(prog="nlftl", description="Nonlocal follow-the-leader transport: solvers and diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("particles", help="run the particle scheme")
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_particles)

    p = sub.add_parser("godunov", help="run the finite-volume scheme")
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_godunov)

    p = sub.add_parser("compare", help="run both schemes and tabulate their distances")
    _add_run_flags(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("converge", help="particle-count sweep against a fine finite-volume reference")
    _add_run_flags(p)
    p.add_argument("--n-list", default="75,150,300,600", help="comma-separated particle counts")
    p.add_argument("--j-ref", type=int, default=None, help="reference cell count (default 4*max)")
    p.set_defaults(fn=_cmd_converge)

    p = sub.add_parser("entropy-audit", help="Kruzkov residual sweep over (c, test function)")
    _add_run_flags(p)
    p.add_argument("--method", choices=("particles", "godunov"), default="particles")
    p.add_argument("--frozen", action="store_true", help="evaluate on the time-constant initial profile")
    p.add_argument("--c-list", default=None, help="comma-separated constants (default 0..cap in 11 steps)")
    p.add_argument("--horizon", type=float, default=None, help="temporal plateau length T")
    p.add_argument("--n-space", type=int, default=256, help="spatial quadrature cells")
    p.set_defaults(fn=_cmd_entropy_audit)

    p = sub.add_parser("scenario", help="inspect builtin scenarios")
    p.add_argument("action", help="'list'")
    p.set_defaults(fn=_cmd_scenario)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
