"""Kruzkov residual audits: flag the non-entropic split block, clear a converged run.

Part 1 freezes the split-block profile (a weak steady state) and sweeps the
temporal plateau length until the residual against c=1/2 drops below the
guard band: the configuration fails the entropy test even though it is an
exact weak solution.  Part 2 audits an actual solver trajectory over a grid
of constants; a convergent scheme should produce no flags.

Usage: python3 scripts/entropy_audit_demo.py [--method particles|godunov] [--out OUT]
"""

import argparse

from nlftl import builtin_scenario, first_violation_horizon, run_entropy_audit
from nlftl.scenarios import ScenarioConfig, emit_entropy


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--method", choices=("particles", "godunov"), default="particles")
    ap.add_argument("--scenario", default="single-step", help="scenario for the evolving audit")
    ap.add_argument("--out", default="out")
    args = ap.parse_args()

    frozen_cfg = builtin_scenario("stationary-weak")
    horizons = (1, 2, 4, 8, 16, 32)
    T, report = first_violation_horizon(frozen_cfg, horizons, c=0.5)
    if T is None:
        print(f"split block: no violation found for plateau horizons {horizons}")
    else:
        print(f"split block: flagged at plateau horizon T={T:g} "
              f"(c=0.5, residual {report.residual:.4f}, resolution {report.resolution})")

    cfg = ScenarioConfig.from_dict({"scenario": args.scenario, "t_end": 2.0, "out_dir": args.out})
    reports = run_entropy_audit(cfg, method=args.method)
    flagged = [r for r in reports if r.violation]
    print(f"{args.scenario} via {args.method}: {len(reports)} residuals, {len(flagged)} flagged, "
          f"min residual {min(r.residual for r in reports):+.2e}")
    for r in flagged:
        print(f"  VIOLATION c={r.c:g} residual={r.residual:.6g}")
    print(f"-> {emit_entropy(cfg, reports, f'{args.method}-audit')}")


if __name__ == "__main__":
    main()
