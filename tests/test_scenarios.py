"""Scenario configuration, runner plumbing, file emission, and the CLI contract."""

from __future__ import annotations

import json
import math
import runpy
import shutil
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from nlftl import __version__, entropy, gauss_sums, godunov, scenarios
from nlftl.cli import main
from nlftl.errors import ConfigError, InvariantViolation
from nlftl.godunov import Grid
from nlftl.metrics import l1_distance
from nlftl.particles import ParticleState, reconstruct_density
from nlftl.profiles import DensityProfile, snapshot_schedule
from nlftl.scenarios import (
    MAX_CELLS,
    MAX_SNAPSHOT_CELLS,
    ScenarioConfig,
    build_kernel,
    build_profile,
    builtin_description,
    builtin_names,
    builtin_scenario,
    default_test_function,
    emit_compare,
    emit_convergence,
    emit_entropy,
    emit_method_run,
    min_margins,
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


def test_explicit_null_profile_of_a_builtin_takes_its_profile():
    assert ScenarioConfig.from_dict({"scenario": "single-step", "profile": None}) == builtin_scenario("single-step")
    with pytest.raises(ConfigError, match="not builtin"):
        ScenarioConfig.from_dict({"scenario": "freeway", "profile": None})


# config scalars no number conversion may accept: each once failed with a
# traceback instead of a ConfigError, or (the booleans) was read as 1
MALFORMED_SCALARS = [
    {"scenario": "single-step", "n_cells": math.nan},
    {"scenario": "single-step", "n_cells": math.inf},
    *({"scenario": "single-step", name: "x"} for name in ("amplitude", "inv_width", "cap", "v_max", "t_end")),
    {"scenario": "single-step", "output_times": ["a"]},
    {"scenario": "single-step", "output_times": [0.5, None]},
    {"scenario": "single-step", "output_times": 5},
    {"scenario": "single-step", "n_cells": True},
    {"scenario": "single-step", "t_end": True},
    # the profile spec's own scalars: a parabola of true (1 cell), of 2.7 cells
    # (2), above the cell bound, or with a string scale, and string or boolean
    # segment numbers
    *({"scenario": "x", "profile": {"kind": "parabola", **spec}} for spec in (
        {"cells": True},
        {"cells": 2.7},
        {"cells": MAX_CELLS + 1},
        {"scale": "0.75"},
    )),
    {"scenario": "x", "profile": {"kind": "uniform-step", "left": "-1", "right": 1.0, "height": 0.3}},
    {"scenario": "x", "profile": {"kind": "uniform-step", "left": -1.0, "right": True, "height": 0.3}},
    {"scenario": "x", "profile": {"kind": "two-step", "segments": [[-0.5, 0.0, "0.2"], [0.5, 1.0, 0.6]]}},
    {"scenario": "x", "profile": {"kind": "cells", "breakpoints": [0.0, True, 2.0], "values": [0.1, 0.2]}},
    # counts one above the cell bound: 4 GB arrays per particle run at 5e8
    {"scenario": "single-step", "n_cells": MAX_CELLS + 1},
    {"scenario": "single-step", "fv_cells": MAX_CELLS + 1},
]

# initial profiles that carry no mass: nothing to run, and no support to place particles on
MASSLESS_PROFILES = [
    {"scenario": "x", "profile": {"kind": "parabola", "scale": 0.0}},
    {"scenario": "x", "profile": {"kind": "uniform-step", "left": -1.0, "right": 1.0, "height": 0.0}},
    {"scenario": "x", "profile": {"kind": "cells", "breakpoints": [-1.0, 0.0, 1.0], "values": [0.0, 0.0]}},
]


@pytest.mark.parametrize(
    "data",
    [
        {"scenario": "x", "profile": {"kind": "uniform-step", "left": -1, "right": 1, "height": 1.2}},
        {"scenario": "x", "profile": {"kind": "uniform-step", "left": -4, "right": -3, "height": 0.3}},
        {"scenario": "single-step", "output_times": [0.0, 2.0]},
        {"scenario": "single-step", "cfl": 1.5},
        {"scenario": "single-step", "rtol": 1e-8},
        {"scenario": "single-step", "fv_cells": 1},
        {"scenario": "single-step", "n_cells": 0},
        {"scenario": "single-step", "t_end": -1.0},
        {"scenario": "x", "profile": {"kind": "two-step", "segments": [[0, 1, 0.1], [2, 3, 0.1], [4, 5, 0.1]]}},
        {"scenario": "x", "profile": {"left": -1, "right": 1}},
        {"scenario": "x", "profile": {"kind": "pyramid"}},
        *({"scenario": name, "profile": {"kind": "uniform-step", "left": -1, "right": 1, "height": 0.3}}
          for name in ("../../escaped", "a/b", "a\\b", "a\0b", ".", "..")),
        *MALFORMED_SCALARS,
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
    assert set(meta["versions"]) == {"nlftl", "numpy", "python"}
    assert meta["method"] == "particles"
    assert math.isfinite(meta["min_gap_seen"])
    traj = run.trajectory
    for key in ("integrator", "settled", "steps", "min_step", "rhs_evals", "jac_evals", "lu_decompositions",
                "settle_checks", "pair_sum_terms", "min_gap_seen", "min_gap_ratio"):
        assert meta[key] == getattr(traj, key), key
    assert meta["integrator"] == "BDF" and meta["settle_checks"] == 0 and meta["steps"] > 0


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
    for key in ("min_dt", "max_dt", "cfl_limited_steps", "output_limited_steps"):
        assert meta[key] == getattr(run.fv, key), key
    assert meta["cfl_limited_steps"] + meta["output_limited_steps"] == meta["steps"]
    assert meta["clamped_mass"] == 0.0
    assert meta["clamp_warnings"] == 0
    assert meta["mass_drift"] == pytest.approx(run.fv.masses[-1] - run.fv.masses[0], abs=0.0)


# Reference writers: one repr per value, row by row.  Emission formats each
# array once and shares the strings between rows and files; these are what
# it must reproduce byte for byte.


def direct_density_csv(path, times, profiles):
    lines = ["t,x_left,x_right,rho"]
    for t, p in zip(times, profiles):
        bp = p.breakpoints
        lines += [f"{float(t)!r},{float(bp[k])!r},{float(bp[k + 1])!r},{float(v)!r}" for k, v in enumerate(p.values)]
    path.write_text("\n".join(lines) + "\n")


def direct_trajectory_csv(path, traj):
    lines = ["t,i,x"]
    for s in traj.states:
        lines += [f"{float(s.time)!r},{i},{float(x)!r}" for i, x in enumerate(s.positions)]
    path.write_text("\n".join(lines) + "\n")


def centered_run(n_cells=12):
    """A particle run whose profiles do not share the snapshot positions."""
    run = run_particles(small_config(n_cells=n_cells))
    return replace(run, profiles=[reconstruct_density(s, "centered") for s in run.trajectory.states])


def vacuum_run():
    """Finite-volume cells in the vacuum gap between two blocks."""
    run = run_godunov(small_config(scenario="two-step-0206"))
    assert all(np.count_nonzero(p.values == 0.0) > 0 for p in run.profiles)
    return run


def extreme_values_run():
    """Times, positions and values at -0.0, the smallest subnormal and 1e300;
    each profile's breakpoints are its snapshot's positions."""
    base = run_particles(small_config(n_cells=3))
    times = np.array([-0.0, 5e-324, 1e300])
    # 1e300 never sits on the cell of width 1e300, so the profile masses stay finite
    values = ([1e300, -0.0, 5e-324], [-0.0, 1e300, 5e-324], [1e300, 5e-324, -0.0])
    states, profiles = [], []
    for k, (t, vals) in enumerate(zip(times, values)):
        x = np.array([-1.0 - k, -0.0, 5e-324, 1e300])
        states.append(ParticleState(float(t), x, 0.5, 1.0))
        profiles.append(DensityProfile(x, np.array(vals)))
    traj = replace(base.trajectory, states=tuple(states))
    return replace(base, times=times, profiles=profiles, trajectory=traj)


def test_w1_renormalization_that_overflows_is_nan():
    # a 1e308 cell of width 1e-8 holds mass 1e300; scaled up to a reference
    # of mass 1e301, its value overflows
    p = DensityProfile(np.array([0.0, 1e-8]), np.array([1e308]))
    ref = DensityProfile(np.array([0.0, 1.0]), np.array([1e301]))
    assert math.isnan(scenarios._w1_renormalized(p, ref))
    # the extreme-values run's second snapshot, mass 1e-23 against 1e300,
    # scales by an infinite ratio; its metrics.csv is its own
    rows = extreme_values_run().metric_rows
    assert rows[0][4] == 0.0 and math.isnan(rows[1][4])


EMISSION_CASES = {
    "particles": lambda: run_particles(small_config()),
    "godunov": lambda: run_godunov(small_config()),
    "centered": centered_run,
    "one-cell": lambda: run_particles(small_config(n_cells=1)),
    "vacuum": vacuum_run,
    "extreme-values": extreme_values_run,
    # runs across the seams of the emitted pieces: trajectory.csv has one row
    # more than density.csv, so the two files' seams differ, and the centered
    # reconstruction's breakpoints (n_cells + 2 of them) are not the positions
    **{f"particles-chunk{d:+d}": (lambda d=d: run_particles(small_config(n_cells=scenarios._CHUNK + d)))
       for d in (-1, 0, 1)},
    "godunov-two-chunks+1": lambda: run_godunov(small_config(fv_cells=2 * scenarios._CHUNK + 1)),
    "centered-chunk": lambda: centered_run(scenarios._CHUNK),
}


@pytest.mark.parametrize("case", sorted(EMISSION_CASES))
def test_emission_matches_direct_writers_byte_for_byte(tmp_path, case):
    run = EMISSION_CASES[case]()
    assert all(text.count("\n") < scenarios._CHUNK for _, text in scenarios._snapshot_blocks(run))
    d = emit_method_run(run, tmp_path / "emitted")
    direct_density_csv(tmp_path / "density.csv", run.times, run.profiles)
    assert (d / "density.csv").read_bytes() == (tmp_path / "density.csv").read_bytes()
    if run.trajectory is None:
        assert not (d / "trajectory.csv").exists()
        return
    direct_trajectory_csv(tmp_path / "trajectory.csv", run.trajectory)
    assert (d / "trajectory.csv").read_bytes() == (tmp_path / "trajectory.csv").read_bytes()


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("case", ["particles", "godunov", "extreme-values"])
def test_emitted_floats_parse_back_to_the_run_bitwise(tmp_path, case):
    run = EMISSION_CASES[case]()
    d = emit_method_run(run, tmp_path)
    _, rows = read_csv(d / "density.csv")
    parsed = np.array([[float(v) for v in row] for row in rows])
    sizes = [p.values.size for p in run.profiles]
    assert np.array_equal(bits(parsed[:, 0]), bits(np.repeat(run.times, sizes)))
    assert np.array_equal(bits(parsed[:, 1]), bits(np.concatenate([p.breakpoints[:-1] for p in run.profiles])))
    assert np.array_equal(bits(parsed[:, 2]), bits(np.concatenate([p.breakpoints[1:] for p in run.profiles])))
    assert np.array_equal(bits(parsed[:, 3]), bits(np.concatenate([p.values for p in run.profiles])))
    if run.trajectory is None:
        return
    _, rows = read_csv(d / "trajectory.csv")
    states = run.trajectory.states
    assert [int(row[1]) for row in rows] == [i for s in states for i in range(s.positions.size)]
    times = np.array([float(row[0]) for row in rows])
    assert np.array_equal(bits(times), bits(np.repeat([s.time for s in states], [s.positions.size for s in states])))
    positions = np.array([float(row[2]) for row in rows])
    assert np.array_equal(bits(positions), bits(np.concatenate([s.positions for s in states])))


def test_emission_holds_one_snapshot_of_text_at_a_time(tmp_path):
    # the wide benchmark run: N = 2400, 11 snapshots
    run = run_particles(ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 2400}))
    first = replace(run, times=run.times[:1], profiles=run.profiles[:1],
                    trajectory=replace(run.trajectory, states=run.trajectory.states[:1]))

    def emit_peak(r):
        r.metric_rows  # computed on first access: outside the emission measured here
        tracemalloc.start()
        try:
            emit_method_run(r, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, whole = emit_peak(first), emit_peak(run)
    # measured: 0.27 MB for one snapshot, 0.29 MB for all eleven (the particle
    # indices' text is held for the whole run); a writer that keeps every
    # snapshot's text until the end peaks at 3.4 MB
    assert whole < 1.5 * one


def emission_peak(runner, out, **cells):
    """The tracemalloc peak, in bytes, of emitting a 3-snapshot run of ``runner``."""
    run = runner(small_config(t_end=0.01, output_times=(0.0, 0.005, 0.01), **cells))
    run.metric_rows  # computed on first access: outside the emission measured here
    tracemalloc.start()
    try:
        emit_method_run(run, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_particle_emission_memory_stays_flat_in_the_cell_count(tmp_path):
    narrow = emission_peak(run_particles, tmp_path, n_cells=2 * scenarios._CHUNK)
    wide = emission_peak(run_particles, tmp_path, n_cells=16 * scenarios._CHUNK)
    # measured: 267 kB at 2 chunks, 309 kB at 16 (a factor of 1.16, the held
    # index text); writers that hold a whole snapshot's text grow about 8-fold
    assert wide < 1.5 * narrow


def test_finite_volume_emission_grows_by_the_held_edge_text_alone(tmp_path):
    narrow = emission_peak(run_godunov, tmp_path, fv_cells=2 * scenarios._CHUNK)
    wide = emission_peak(run_godunov, tmp_path, fv_cells=16 * scenarios._CHUNK)
    # measured: 221 kB at 2 chunks, 370 kB at 16, or 20.7 B per added cell, of
    # which 16 B is the grid edges' held text; a ``str`` per edge takes about
    # 80 B, and a whole snapshot's text about 280 B per cell
    assert wide - narrow < 32 * 14 * scenarios._CHUNK


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
    result = run_convergence(cfg, [8, 16])
    assert result.n_list == (8, 16) and result.n_ref == 64
    assert all(e > 0.0 for e in result.errors)
    assert len(result.ratios) == 1

    d = emit_convergence(result, tmp_path)
    header, rows = read_csv(d / "convergence.csv")
    assert header == "n,l1_error,ratio_to_next"
    assert [int(r[0]) for r in rows] == [8, 16]
    assert float(rows[0][2]) == pytest.approx(result.ratios[0])
    assert math.isnan(float(rows[1][2]))
    meta = json.loads((d / "meta.json").read_text())
    assert meta["n_ref"] == 64 and meta["n_list"] == [8, 16]


def test_convergence_grades_against_particle_run_at_four_times_max_n():
    cfg = small_config()
    result = run_convergence(cfg, [8, 16])
    assert result.n_ref == 64

    def final(n):
        return run_particles(replace(cfg, n_cells=n, output_times=(cfg.t_end,))).profiles[-1]

    reference = final(64)
    for n, err in zip(result.n_list, result.errors):
        assert abs(err - l1_distance(final(n), reference)) <= 1e-15


def test_convergence_at_large_n_decays_at_first_order():
    # the reference runs at N_ref = 19,200: pair by pair this sweep takes
    # minutes, with the expansion of the pair sums a few seconds
    t0 = time.perf_counter()
    result = run_convergence(builtin_scenario("single-step"), (600, 1200, 2400, 4800))
    elapsed = time.perf_counter() - t0
    assert result.n_ref == 19_200
    assert all(a > b for a, b in zip(result.errors, result.errors[1:]))
    assert all(r >= 1.2 for r in result.ratios)
    assert elapsed <= 120.0


def test_convergence_validation():
    cfg = small_config()
    with pytest.raises(ConfigError, match="strictly increasing"):
        run_convergence(cfg, [16, 8])


@pytest.mark.parametrize("n_list", [[20.7, 40.2], [True, 2], [8, "16"], [8, math.nan]], ids=["fraction", "bool", "str", "nan"])
def test_convergence_counts_go_through_the_scalar_conversion(monkeypatch, n_list):
    # int() took 20.7 as 20, True as 1 and "16" as 16
    monkeypatch.setattr(scenarios, "run_particles", lambda config: pytest.fail("a run started"))
    with pytest.raises(ConfigError, match="n_list entry"):
        run_convergence(small_config(), n_list)


@pytest.mark.parametrize(
    "c_list, n_space",
    [((True,), 16), (("0.5",), 16), ((0.5, None), 16), ((0.5,), True), ((0.5,), "16"), ((0.5,), 16.5)],
    ids=["c-bool", "c-str", "c-none", "n_space-bool", "n_space-str", "n_space-fraction"],
)
def test_audit_inputs_go_through_the_scalar_conversion(c_list, n_space):
    # float() took True as c = 1.0 and "0.5" as 0.5; n_space=True was 1 cell
    with pytest.raises(ConfigError):
        entropy.check_audit_inputs(c_list, n_space)
    with pytest.raises(ConfigError):
        run_entropy_audit(builtin_scenario("stationary-weak"), c_list=c_list, frozen=True, n_space=n_space, horizon=1.0)


def test_audit_inputs_convert_numpy_and_integral_scalars():
    assert entropy.check_audit_inputs((np.float64(0.5), 1), np.int64(16)) == ([0.5, 1.0], 16)
    cs, n = entropy.check_audit_inputs((0,), 16.0)
    assert (cs, n) == ([0.0], 16) and type(cs[0]) is float and type(n) is int


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "solver"])
def test_entropy_audit_rejects_an_unknown_method(frozen):
    cfg = builtin_scenario("stationary-weak")
    with pytest.raises(ConfigError, match="unknown audit method 'bogus'"):
        run_entropy_audit(cfg, c_list=(0.5,), method="bogus", frozen=frozen, n_space=16, horizon=1.0)


def test_entropy_audit_emission(tmp_path):
    cfg = builtin_scenario("stationary-weak")
    reports = run_entropy_audit(cfg, c_list=(0.0, 0.5), frozen=True, n_space=64, horizon=1.0)
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
    tight = min(reports, key=lambda r: r.residual + r.guard)
    assert meta["min_margin"] == {tight.phi: {"c": tight.c, "margin": tight.residual + tight.guard}}
    assert meta["jump_sum_terms"] == {tight.phi: tight.jump_sum_terms}


def test_every_meta_records_the_package_version(tmp_path):
    # from nlftl.__version__, the string pyproject.toml reads, so a checkout
    # and an installed package record the same value
    cfg = small_config()
    emit_compare(run_compare(cfg), tmp_path)
    emit_convergence(run_convergence(cfg, [4, 8]), tmp_path)
    frozen = builtin_scenario("stationary-weak")
    emit_entropy(frozen, run_entropy_audit(frozen, c_list=(0.5,), frozen=True, n_space=64, horizon=1.0), "particles-frozen", tmp_path)
    metas = sorted(tmp_path.rglob("meta.json"))
    assert [m.parent.name for m in metas] == ["compare", "convergence", "godunov", "particles", "particles-frozen"]
    assert {p.name for p in tmp_path.rglob("*") if p.is_file()} == set(scenarios._OUT_FILES)  # what check_out_dirs checks
    for path in metas:
        assert json.loads(path.read_text())["versions"]["nlftl"] == __version__, path


def test_entropy_audit_meta_records_the_largest_jump_sum_order(tmp_path):
    cfg = ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 100, "t_end": 2.0})
    reports = run_entropy_audit(cfg, c_list=(0.0, 0.5), n_space=16)
    meta = json.loads((emit_entropy(cfg, reports, "particles", tmp_path) / "meta.json").read_text())
    run = run_particles(replace(cfg, output_times=np.linspace(0.0, cfg.t_end, 81)))
    tf = default_test_function(cfg)
    kernel = build_kernel(cfg)
    orders = []
    for profile in run.profiles:
        for n in (16, 32):
            x, _, _ = entropy._quad_grid(profile, *tf.x_support, n)
            orders.append(entropy._convolutions(kernel, profile, x)[2])
    assert meta["jump_sum_terms"] == {tf.label: max(orders)}
    assert 0 < max(orders) <= gauss_sums.MAX_ORDER
    assert all(r.jump_sum_terms == max(orders) for r in reports)


def test_entropy_audit_computes_no_metric_rows(monkeypatch):
    # a run's metrics time series is taken on first access: emission reads
    # it, an audit never does
    def no_metric_rows(*args):
        raise AssertionError("metric rows computed")

    monkeypatch.setattr(scenarios, "_metric_rows", no_metric_rows)
    cfg = small_config(t_end=2.0)
    for method in ("particles", "godunov"):
        assert len(run_entropy_audit(cfg, c_list=(0.0, 0.5), method=method, n_space=16)) == 2
    with pytest.raises(AssertionError, match="metric rows"):
        run_particles(cfg).metric_rows


def test_harnesses_keep_their_own_snapshot_grid():
    # the audit marches on 81 snapshots and the sweep grades the t_end
    # profile, whatever snapshot times the config asks for
    cfg = ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 20, "t_end": 3.0})
    sparse = replace(cfg, output_times=(0.0, 2.0))
    reports = run_entropy_audit(sparse, c_list=(0.0, 0.5), n_space=16)
    assert [r.resolution for r in reports] == ["space=32x3gauss;snapshots=81"] * 2
    assert reports == run_entropy_audit(cfg, c_list=(0.0, 0.5), n_space=16)
    graded = run_convergence(sparse, [8, 16])
    assert graded == replace(run_convergence(cfg, [8, 16]), config=sparse)


def test_min_margins_per_test_function():
    cfg = builtin_scenario("stationary-weak")
    reports = []
    for horizon in (1.0, 2.0):  # an audit takes one test function: one audit per bump pair
        reports += run_entropy_audit(cfg, c_list=(0.0, 0.5, 1.0), frozen=True, n_space=32, horizon=horizon)
    margins = min_margins(reports)
    assert list(margins) == [r.phi for r in reports[::3]] and len(margins) == 2
    for phi, entry in margins.items():
        own = [r for r in reports if r.phi == phi]
        tight = min(own, key=lambda r: r.residual + r.guard)
        assert entry == {"c": tight.c, "margin": tight.residual + tight.guard}
        assert (entry["margin"] < 0.0) == any(r.violation for r in own)


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


def test_cli_config_errors_exit_three(tmp_path, capsys, monkeypatch):
    assert main(["particles"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "single-step", "wheels": 4}))
    assert main(["particles", "--config", str(bad)]) == 3
    assert main(["particles", "--config", str(tmp_path / "missing.json")]) == 3
    assert main(["converge", "--scenario", "single-step", "--n-list", "a,b"]) == 3

    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran before the audit inputs were checked")

    monkeypatch.setattr("nlftl.scenarios.run_particles", no_solver)
    audit = ["entropy-audit", "--scenario", "single-step", "--t-end", "2", "--out", str(tmp_path / "out")]
    for extra in (["--c-list", "-1"], ["--c-list", "nan"], ["--n-space", "-5"], ["--n-space", "0"]):
        assert main(audit + extra) == 3
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count("config error:") == 8


@pytest.mark.parametrize(
    "doc",
    [
        {"scenario": "two-step-11", "rtol": 0.01},
        {"scenario": "single-step", "cfl": 0.45},
        {"scenario": "../../escaped", "profile": {"kind": "uniform-step", "left": -1, "right": 1, "height": 0.3}},
        *MALFORMED_SCALARS,
        *MASSLESS_PROFILES,
    ],
)
def test_cli_rejected_documents_write_nothing(tmp_path, capsys, doc):
    # tolerances are not config keys, a scenario name is one directory
    # ("../../escaped" under --out tmp_path/out would write beside tmp_path),
    # and a profile without mass has nothing to run
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    for command in ("particles", "godunov", "compare"):
        assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    assert not (tmp_path.parent / "escaped").exists()
    assert capsys.readouterr().err.count("config error:") == 3


def test_cli_counts_above_their_bounds_exit_three_and_write_nothing(tmp_path, capsys, monkeypatch):
    # one above each bound; no runner may start, so no large array is built
    def no_solver(*args, **kwargs):
        raise AssertionError("a run started before its counts were checked")

    for name in ("init_particles", "gd_run", "entropy_residuals"):
        monkeypatch.setattr(f"nlftl.scenarios.{name}", no_solver)
    out = ["--out", str(tmp_path / "out")]
    above = str(MAX_CELLS + 1)
    argvs = [
        ["particles", "--scenario", "single-step", "--n", above],
        ["compare", "--scenario", "single-step", "--n", above],
        ["godunov", "--scenario", "single-step", "--cells", above],
        ["compare", "--scenario", "single-step", "--cells", above],
        ["converge", "--scenario", "single-step", "--n-list", f"10,{MAX_CELLS // 4 + 1}"],
        ["entropy-audit", "--scenario", "stationary-weak", "--frozen", "--n-space", str(entropy.MAX_N_SPACE + 1)],
    ]
    for argv in argvs:
        assert main(argv + out) == 3, argv
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count("config error:") == len(argvs)
    assert err.count(f"[1, {MAX_CELLS}]") == 4
    assert f"4*max(n) = {4 * (MAX_CELLS // 4 + 1)}" in err
    assert f"[1, {entropy.MAX_N_SPACE}]" in err


def test_cli_snapshot_cells_above_their_bound_exit_three_and_write_nothing(tmp_path, capsys, monkeypatch):
    # 2,001 output times at MAX_CELLS would hold about 48 GB of snapshots, and
    # an audit's 81 snapshots one cell above MAX_SNAPSHOT_CELLS // 81 are one
    # snapshot cell too many; no runner may start, so nothing large is built
    def no_solver(*args, **kwargs):
        raise AssertionError("a run started before its snapshot count was checked")

    for name in ("init_particles", "gd_run", "entropy_residuals"):
        monkeypatch.setattr(f"nlftl.scenarios.{name}", no_solver)
    config = tmp_path / "config.json"
    times = [float(t) for t in np.linspace(0.0, 1.0, 2001)]
    config.write_text(json.dumps({"scenario": "single-step", "n_cells": MAX_CELLS, "output_times": times}))
    out = ["--out", str(tmp_path / "out")]
    argvs = [[command, "--config", str(config)] for command in ("particles", "godunov", "compare")]
    argvs.append(["entropy-audit", "--scenario", "single-step", "--t-end", "2", "--n", str(MAX_SNAPSHOT_CELLS // 81 + 1)])
    for argv in argvs:
        assert main(argv + out) == 3, argv
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count("config error:") == len(argvs)
    assert err.count(f"2001 snapshots x {MAX_CELLS} cells") == 3
    assert f"81 snapshots x {MAX_SNAPSHOT_CELLS // 81 + 1} cells" in err
    assert err.count(f"snapshot cells, above {MAX_SNAPSHOT_CELLS}") == len(argvs)


def test_cli_snapshot_bound_counts_the_initial_and_final_snapshots(tmp_path, capsys, monkeypatch):
    # 16 times strictly inside (0, 1) at MAX_CELLS: a run holds them plus
    # t = 0 and t_end, 18 snapshots, 12.5% above the bound; the same count of
    # times with 0 and t_end among them is 16 snapshots, at the bound
    def no_solver(*args, **kwargs):
        raise AssertionError("a run started before its snapshot count was checked")

    for name in ("init_particles", "gd_run"):
        monkeypatch.setattr(f"nlftl.scenarios.{name}", no_solver)
    count = MAX_SNAPSHOT_CELLS // MAX_CELLS
    inner = [float(t) for t in np.linspace(0.0, 1.0, count + 2)[1:-1]]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"scenario": "single-step", "n_cells": MAX_CELLS, "output_times": inner}))
    out = ["--out", str(tmp_path / "out")]
    for command in ("particles", "godunov", "compare"):
        assert main([command, "--config", str(config), *out]) == 3, command
    assert not (tmp_path / "out").exists()
    err = capsys.readouterr().err
    assert err.count(f"{count + 2} snapshots x {MAX_CELLS} cells") == 3
    ends = [float(t) for t in np.linspace(0.0, 1.0, count)]
    cfg = ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": MAX_CELLS, "output_times": ends})
    assert len(cfg.output_times) == count


def test_solvers_hold_the_initial_snapshot_and_one_per_scheduled_time():
    # the count the snapshot bound takes: t = 0 plus every distinct time in
    # (0, t_end], t_end included whether listed or not
    assert snapshot_schedule(0.0, 1.0) == [1.0]
    assert snapshot_schedule(0.0, 1.0, [0.5, 0.0, 0.5, 0.25]) == [0.25, 0.5, 1.0]
    assert snapshot_schedule(0.25, 1.0, np.array([1.0, 0.25, 0.5])) == [0.5, 1.0]
    cfg = small_config(n_cells=20, output_times=[0.05])
    for run in (run_particles(cfg), run_godunov(cfg)):
        assert run.times.tolist() == [0.0, 0.05, 0.1], run.method


def test_counts_at_their_bounds_are_accepted():
    cfg = ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": MAX_CELLS, "fv_cells": MAX_CELLS})
    assert (cfg.n_cells, cfg.fv_cells) == (MAX_CELLS, MAX_CELLS)
    assert len(cfg.output_times) == 11  # the default snapshots pass at the largest count
    times = np.linspace(0.0, 1.0, MAX_SNAPSHOT_CELLS // MAX_CELLS)
    assert len(replace(cfg, output_times=np.concatenate((times, times))).output_times) == 2 * times.size  # distinct times count
    audit = replace(cfg, n_cells=MAX_SNAPSHOT_CELLS // 81, fv_cells=1200, t_end=2.0)
    assert len(replace(audit, output_times=np.linspace(0.0, 2.0, 81)).output_times) == 81
    assert entropy.check_audit_inputs((0.5,), entropy.MAX_N_SPACE) == ([0.5], entropy.MAX_N_SPACE)


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "stationary-weak", "--frozen", "--horizon", "nan"],
        ["--scenario", "stationary-weak", "--frozen", "--horizon", "inf"],
        ["--scenario", "single-step", "--t-end", "2", "--horizon", "nan"],
        ["--scenario", "stationary-weak", "--frozen", "--horizon", "1e300"],
    ],
    ids=["frozen-nan", "frozen-inf", "solver-nan", "frozen-above-bound"],
)
def test_cli_non_finite_horizon_exits_three_and_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(["entropy-audit", *argv, "--out", str(out)]) == 3
    assert not out.exists()
    assert "horizon" in capsys.readouterr().err


def test_cli_invariant_violation_exit_two(monkeypatch, capsys):
    def boom(config):
        raise InvariantViolation("gap collapsed")

    monkeypatch.setattr("nlftl.cli.run_particles", boom)
    assert main(["particles", "--scenario", "single-step"]) == 2
    assert "invariant violation: gap collapsed" in capsys.readouterr().err


def test_cli_overflowing_starting_step_exits_two(tmp_path, capsys):
    # the first right-hand side is finite (up to 1.8e299), but its norm over
    # the error scale overflows, so the integrator's trial step is 0
    config = tmp_path / "amplitude.json"
    config.write_text(json.dumps({"scenario": "single-step", "amplitude": 1e300}))
    out = tmp_path / "out"
    assert main(["particles", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert "invariant violation: integrator failed at the start: step 0.0" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_cli_godunov_overflowing_update_exits_two(tmp_path, capsys):
    # a block of height 1e300 under a cap of 1e301: K f overflows on the
    # first step, and inf - inf in the flux gives nan, so the window's
    # update is not finite
    config = tmp_path / "huge.json"
    profile = {"kind": "uniform-step", "left": -0.5, "right": 0.5, "height": 1e300}
    config.write_text(json.dumps({"scenario": "huge", "profile": profile, "cap": 1e301}))
    out = tmp_path / "out"
    assert main(["godunov", "--config", str(config), "--out", str(out)]) == 2
    assert not out.exists()
    assert "invariant violation: finite-volume step at t=0 gave a value that is not finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "settings, flags",
    [({"scenario": "single-step", "amplitude": 1e300}, []), ({"scenario": "single-step"}, ["--t-end", "1e6"])],
    ids=["amplitude-1e300", "t-end-1e6"],
)
def test_cli_godunov_past_its_step_bound_exits_three_after_one_step(tmp_path, capsys, monkeypatch, settings, flags):
    # the first Courant step of the 1e300 amplitude is 7.2e-303, and t_end = 1e6
    # takes about 7.7e7 steps: both ran for hours; the bound stops them after
    # the one step that checks the update is finite
    steps = []
    step = godunov.gd_step
    monkeypatch.setattr(godunov, "gd_step", lambda *args: steps.append(args) or step(*args))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "out"
    assert main(["godunov", "--config", str(config), *flags, "--out", str(out)]) == 3
    assert len(steps) == 1 and not out.exists()
    assert f"steps, above {godunov.MAX_STEPS}" in capsys.readouterr().err


@pytest.mark.parametrize("command, label", [
    ("particles", "particles"),
    ("godunov", "godunov"),
    ("compare", "compare"),
    ("converge", "convergence"),
    ("entropy-audit", "particles-audit"),
])
def test_cli_unusable_out_exits_three_before_the_solver(tmp_path, capsys, monkeypatch, command, label):
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran before the output directory was checked")

    for name in ("run_particles", "run_godunov", "run_compare", "run_convergence", "run_entropy_audit"):
        monkeypatch.setattr(f"nlftl.cli.{name}", no_solver)
    # a regular file as the out root, above it, and in place of the run's own directory
    (tmp_path / "tree" / "single-step").mkdir(parents=True)
    files = [tmp_path / "file", tmp_path / "file", tmp_path / "tree" / "single-step" / label]
    outs = [files[0], files[0] / "below", tmp_path / "tree"]
    for in_the_way, out in zip(files, outs):
        in_the_way.write_text("kept\n")
        assert main([command, "--scenario", "single-step", "--t-end", "2", "--out", str(out)]) == 3
        assert in_the_way.read_text() == "kept\n"
        assert f"config error: cannot write output under {out}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(["file", "tree", "single-step", label])


@pytest.mark.parametrize("name", ["density.csv", "metrics.csv", "meta.json"])
def test_cli_directory_in_place_of_an_output_file_exits_three_before_the_solver(tmp_path, capsys, monkeypatch, name):
    # a directory where the run writes a file used to let the whole run march
    # and then die on IsADirectoryError, exit 1, with the files before it written
    def no_solver(*args, **kwargs):
        raise AssertionError("solver ran before the output files were checked")

    monkeypatch.setattr("nlftl.cli.run_godunov", no_solver)
    run_dir = tmp_path / "out" / "single-step" / "godunov"
    (run_dir / name).mkdir(parents=True)
    argv = ["godunov", "--scenario", "single-step", "--t-end", "0.01", "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"config error: cannot write output under {run_dir}: {run_dir / name} is not a writable file" in captured.err
    assert captured.out == ""
    assert [p.name for p in run_dir.iterdir()] == [name]


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
    meta = json.loads((path.parent / "meta.json").read_text())
    ((phi, entry),) = meta["min_margin"].items()
    assert lines[-1] == f"  smallest margin residual+guard={entry['margin']:.6g} at c={entry['c']:g} phi={phi}"


@pytest.mark.parametrize("method", ["particles", "godunov"])
def test_cli_entropy_audit_keeps_the_run_meta_of_the_same_out(tmp_path, capsys, method):
    # the audit writes into <method>-audit/, beside the compare run's
    # <method>/ directory, whose meta.json keeps the run's counters
    out = ["--out", str(tmp_path / "out")]
    sizes = ["--scenario", "single-step", "--n", "10", "--cells", "60", "--t-end", "2"]
    assert main(["compare", *sizes, *out]) == 0
    run_dir = tmp_path / "out" / "single-step" / method
    before = (run_dir / "meta.json").read_bytes()
    assert main(["entropy-audit", *sizes, "--method", method, "--c-list", "0.5", "--n-space", "16", *out]) == 0
    assert f"-> {tmp_path / 'out' / 'single-step' / f'{method}-audit'}" in capsys.readouterr().out
    assert (run_dir / "meta.json").read_bytes() == before
    meta = json.loads(before)
    counters = ("steps", "rhs_evals", "settle_checks") if method == "particles" else ("steps", "min_dt", "cfl_limited_steps")
    assert all(key in meta for key in counters) and "flags" not in meta
    audit = json.loads((run_dir.parent / f"{method}-audit" / "meta.json").read_text())
    assert audit["method"] == f"{method}-audit" and "flags" in audit and "steps" not in audit
    assert len((run_dir.parent / f"{method}-audit" / "entropy.jsonl").read_text().splitlines()) == 1


def test_cli_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["compare", "--scenario", "single-step", "--n", "10", "--cells", "60", "--t-end", "0.1", "--out", str(out)]
    assert main(argv) == 0
    first = tree_bytes(out)
    assert main(argv) == 0
    capsys.readouterr()
    assert first.keys() == tree_bytes(out).keys()
    assert first == tree_bytes(out)


# --- scripts ----------------------------------------------------------------


def test_emit_manifest_repeats_on_the_same_tree(tmp_path, capsys):
    script = Path(__file__).resolve().parents[1] / "scripts" / "emit_manifest.py"
    ns = runpy.run_path(str(script))
    # the canonical set at reduced size: each later flag overrides its default
    smaller = {
        "compare": ("--n", "10", "--cells", "60", "--t-end", "0.1"),
        "entropy-audit": ("--n", "10", "--cells", "60", "--n-space", "16", "--c-list", "0.5"),
        "converge": ("--n-list", "5,10"),
    }
    commands = [(*argv, *smaller[argv[0]]) for argv in ns["CANONICAL"]]
    out = tmp_path / "out"
    first = ns["manifest"](out, commands)
    shutil.rmtree(out)
    assert ns["manifest"](out, commands) == first
    assert capsys.readouterr().out == ""
    assert len(first["stdout"]) == len(commands) == 10
    # per builtin, compare's three trees; two files per audit; the convergence pair
    assert len(first["files"]) == 5 * (4 + 3 + 2) + 4 * 2 + 2
