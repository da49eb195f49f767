"""Scenario configuration, runner plumbing, file emission, and the CLI contract."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from nlftl.cli import main
from nlftl.entropy import bump_pair
from nlftl.errors import ConfigError, InvariantViolation
from nlftl.godunov import Grid
from nlftl.scenarios import (
    ScenarioConfig,
    build_profile,
    builtin_description,
    builtin_names,
    builtin_scenario,
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

BUILTIN_MASS = {
    "single-step": 0.6,
    "parabola": 1.0,
    "two-step-0206": 0.4,
    "two-step-11": 1.0,
    "stationary-weak": 1.0,
}


def small_config(**overrides) -> ScenarioConfig:
    data = {"scenario": "single-step", "n_cells": 12, "fv_cells": 60, "t_end": 0.1}
    data.update(overrides)
    return ScenarioConfig.from_dict(data)


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, [line.split(",") for line in rows]


def tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# --- configuration ----------------------------------------------------------


def test_config_round_trips_through_dict_and_json():
    cfg = small_config(output_times=(0.0, 0.05, 0.1), out_dir="elsewhere")
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg
    assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ScenarioConfig.from_dict({"scenario": "single-step", "n_particles": 10})


@pytest.mark.parametrize("name", sorted(BUILTIN_MASS))
def test_builtin_profile_masses(name):
    cfg = builtin_scenario(name)
    assert build_profile(cfg).mass == pytest.approx(BUILTIN_MASS[name], abs=1e-10)


def test_builtin_listing_and_descriptions():
    assert builtin_names() == sorted(BUILTIN_MASS)
    for name in builtin_names():
        text = builtin_description(name)
        assert isinstance(text, str) and text


def test_unknown_builtin_rejected():
    with pytest.raises(ConfigError, match="unknown scenario"):
        builtin_scenario("freeway")


def test_builtin_overlay_keeps_profile_and_applies_overrides():
    cfg = ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 40})
    assert cfg.n_cells == 40
    assert cfg.fv_cells == 1200
    assert cfg.profile == builtin_scenario("single-step").profile


@pytest.mark.parametrize(
    "data",
    [
        {"scenario": "x", "profile": {"kind": "uniform-step", "left": -1, "right": 1, "height": 1.2}},
        {"scenario": "x", "profile": {"kind": "uniform-step", "left": -4, "right": -3, "height": 0.3}},
        {"scenario": "single-step", "output_times": [0.0, 2.0]},
        {"scenario": "single-step", "cfl": 1.5},
        {"scenario": "single-step", "fv_cells": 1},
        {"scenario": "single-step", "n_cells": 0},
        {"scenario": "single-step", "t_end": -1.0},
        {"scenario": "x", "profile": {"kind": "two-step", "segments": [[0, 1, 0.1], [2, 3, 0.1], [4, 5, 0.1]]}},
        {"scenario": "x", "profile": {"left": -1, "right": 1}},
        {"scenario": "x", "profile": {"kind": "pyramid"}},
    ],
)
def test_invalid_configs_rejected(data):
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(data)


# --- runner output layout ---------------------------------------------------


def test_particle_emission_layout(tmp_path):
    cfg = small_config()
    run = run_particles(cfg)
    d = emit_method_run(run, tmp_path)
    assert d == tmp_path / "single-step" / "particles"

    header, rows = read_csv(d / "density.csv")
    assert header == "t,x_left,x_right,rho"
    assert len(rows) == 11 * cfg.n_cells
    first = rows[: cfg.n_cells]
    p0 = run.profiles[0]
    assert np.array_equal([float(r[1]) for r in first], p0.breakpoints[:-1])
    assert np.array_equal([float(r[3]) for r in first], p0.values)

    header, rows = read_csv(d / "metrics.csv")
    assert header == "t,mass,tv,min_gap,w1_to_reference"
    assert len(rows) == 11
    assert all(math.isfinite(float(r[3])) for r in rows)
    assert float(rows[0][4]) == 0.0

    header, rows = read_csv(d / "trajectory.csv")
    assert header == "t,i,x"
    assert len(rows) == 11 * (cfg.n_cells + 1)

    meta = json.loads((d / "meta.json").read_text())
    assert ScenarioConfig.from_dict(meta["config"]) == cfg
    assert {"nlftl", "numpy", "scipy", "python"} <= set(meta["versions"])
    assert meta["method"] == "particles"
    assert math.isfinite(meta["min_gap_seen"])


def test_godunov_emission_layout(tmp_path):
    cfg = small_config()
    run = run_godunov(cfg)
    d = emit_method_run(run, tmp_path)
    assert d == tmp_path / "single-step" / "godunov"
    assert not (d / "trajectory.csv").exists()

    _, rows = read_csv(d / "metrics.csv")
    assert all(math.isnan(float(r[3])) for r in rows)

    meta = json.loads((d / "meta.json").read_text())
    assert meta["method"] == "godunov"
    assert meta["steps"] == run.fv.steps > 0
    assert meta["clamped_mass"] == 0.0
    assert meta["clamp_warnings"] == 0
    assert meta["mass_drift"] == pytest.approx(run.fv.masses[-1] - run.fv.masses[0], abs=0.0)


def test_compare_emission_layout(tmp_path):
    result = run_compare(small_config())
    d = emit_compare(result, tmp_path)
    assert d == tmp_path / "single-step" / "compare"
    for sibling in ("particles", "godunov", "compare"):
        assert (tmp_path / "single-step" / sibling / "meta.json").exists()

    header, rows = read_csv(d / "distances.csv")
    assert header == "t,l1,w1"
    assert len(rows) == 11
    for row in rows:
        t, l1, w1 = (float(v) for v in row)
        assert 0.0 <= t <= 0.1
        assert math.isfinite(l1) and l1 >= 0.0
        assert math.isfinite(w1) and w1 >= 0.0


def test_jam_block_compare_distances_constant_in_time():
    # saturated block with edges taken from the grid so both solvers hold it still
    grid = Grid(-2.5, 2.5, 240)
    spec = {"kind": "cells", "breakpoints": [float(grid.edges[96]), float(grid.edges[144])], "values": [1.0]}
    cfg = ScenarioConfig.from_dict(
        {"scenario": "jam-block", "profile": spec, "n_cells": 25, "fv_cells": 240, "t_end": 0.2}
    )
    result = run_compare(cfg)
    rows = np.asarray(result.rows)
    assert rows.shape == (11, 3)
    assert np.max(np.abs(rows[:, 1] - rows[0, 1])) <= 1e-12
    assert np.max(np.abs(rows[:, 2] - rows[0, 2])) <= 1e-12


def test_convergence_result_and_emission(tmp_path):
    cfg = small_config()
    result = run_convergence(cfg, [8, 16], j_ref=64)
    assert result.n_list == (8, 16) and result.j_ref == 64
    assert all(e > 0.0 for e in result.errors)
    assert len(result.ratios) == 1

    d = emit_convergence(result, tmp_path)
    header, rows = read_csv(d / "convergence.csv")
    assert header == "n,l1_error,ratio_to_next"
    assert [int(r[0]) for r in rows] == [8, 16]
    assert float(rows[0][2]) == pytest.approx(result.ratios[0])
    assert math.isnan(float(rows[1][2]))
    meta = json.loads((d / "meta.json").read_text())
    assert meta["j_ref"] == 64 and meta["n_list"] == [8, 16]


def test_convergence_validation():
    cfg = small_config()
    with pytest.raises(ConfigError, match="strictly increasing"):
        run_convergence(cfg, [16, 8])
    with pytest.raises(ConfigError, match="j_ref"):
        run_convergence(cfg, [8, 16], j_ref=32)


def test_entropy_audit_emission(tmp_path):
    cfg = builtin_scenario("stationary-weak")
    reports = run_entropy_audit(cfg, c_list=(0.0, 0.5), phi_specs=(bump_pair(1.0),), frozen=True, n_space=64)
    assert len(reports) == 2

    d = emit_entropy(cfg, reports, "particles-frozen", tmp_path)
    assert d == tmp_path / "stationary-weak" / "particles-frozen"
    lines = (d / "entropy.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "c", "phi", "residual", "resolution", "residual_coarse", "est_error", "guard", "violation",
        }
    meta = json.loads((d / "meta.json").read_text())
    assert meta["method"] == "particles-frozen"
    assert meta["flags"] == sum(1 for r in reports if r.violation)


# --- command line -----------------------------------------------------------


def test_cli_method_runs_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["particles", "--scenario", "single-step", "--n", "12", "--t-end", "0.1", "--out", out]) == 0
    assert main(["godunov", "--scenario", "single-step", "--cells", "60", "--t-end", "0.1", "--out", out]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("particles: ")
    assert "godunov: " in captured.out
    assert (tmp_path / "out" / "single-step" / "particles" / "density.csv").exists()
    assert (tmp_path / "out" / "single-step" / "godunov" / "density.csv").exists()


def test_cli_seedless_flag_takes_no_value(tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["particles", "--scenario", "single-step", "--n", "12", "--t-end", "0.1", "--out", out, "--seedless", "7"])
    assert rc == 3
    assert "config error:" in capsys.readouterr().err
    rc = main(["particles", "--scenario", "single-step", "--n", "8", "--t-end", "0.05", "--out", out, "--seedless"])
    assert rc == 0


def test_cli_config_errors_exit_three(tmp_path, capsys):
    assert main(["particles"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "single-step", "wheels": 4}))
    assert main(["particles", "--config", str(bad)]) == 3
    assert main(["particles", "--config", str(tmp_path / "missing.json")]) == 3
    assert main(["converge", "--scenario", "single-step", "--n-list", "a,b"]) == 3
    err = capsys.readouterr().err
    assert err.count("config error:") == 4


def test_cli_invariant_violation_exit_two(monkeypatch, capsys):
    def boom(config):
        raise InvariantViolation("gap collapsed")

    monkeypatch.setattr("nlftl.cli.run_particles", boom)
    assert main(["particles", "--scenario", "single-step"]) == 2
    assert "invariant violation: gap collapsed" in capsys.readouterr().err


def test_cli_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in BUILTIN_MASS:
        assert name in out


def test_cli_entropy_audit_frozen(tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = [
        "entropy-audit", "--scenario", "stationary-weak", "--method", "particles", "--frozen",
        "--horizon", "1", "--c-list", "0.5", "--n-space", "64", "--out", out,
    ]
    assert main(argv) == 0
    assert "entropy-audit: 1 residuals" in capsys.readouterr().out
    path = tmp_path / "out" / "stationary-weak" / "particles-frozen" / "entropy.jsonl"
    assert len(path.read_text().splitlines()) == 1


def test_cli_entropy_audit_explains_flags(tmp_path, capsys):
    out = str(tmp_path / "out")
    argv = [
        "entropy-audit", "--scenario", "stationary-weak", "--frozen",
        "--horizon", "2", "--c-list", "0.5,0.0", "--n-space", "64", "--out", out,
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    path = tmp_path / "out" / "stationary-weak" / "particles-frozen" / "entropy.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    flagged = [r for r in records if r["violation"]]
    assert [r["c"] for r in flagged] == [0.5]
    (violation,) = [line for line in lines if "VIOLATION" in line]
    assert f"est_error={flagged[0]['est_error']:.3g} guard={flagged[0]['guard']:.3g}" in violation
    margin = min(r["residual"] + r["guard"] for r in records)
    assert lines[-1].startswith(f"  smallest margin residual+guard={margin:.6g} at c=0.5 ")


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["compare", "--scenario", "single-step", "--n", "10", "--cells", "60", "--t-end", "0.1", "--out", str(out)]
    assert main(argv) == 0
    first = tree_bytes(out)
    assert main(argv) == 0
    capsys.readouterr()
    assert first.keys() == tree_bytes(out).keys()
    assert first == tree_bytes(out)
