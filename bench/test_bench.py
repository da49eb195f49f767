"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nlftl as nl
from nlftl import particles, scenarios

import child
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_passes_the_builtin_unchanged(workload):
    doc = workloads.config_dict(workload, 0)
    assert "profile" not in doc
    cfg = nl.ScenarioConfig.from_dict(doc)
    assert cfg.profile == nl.builtin_scenario(cfg.scenario).profile


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seeds_perturb_within_the_profile_family(workload):
    base = nl.builtin_scenario(workloads.WORKLOADS[workload]["scenario"]).profile
    b0 = scenarios.build_profile(nl.builtin_scenario(workloads.WORKLOADS[workload]["scenario"]))
    for seed in (1, 2, 17):
        doc = workloads.config_dict(workload, seed)
        assert doc == workloads.config_dict(workload, seed)
        assert doc["profile"]["kind"] == base["kind"] and doc["profile"] != base
        p = scenarios.build_profile(nl.ScenarioConfig.from_dict(doc))
        assert p.breakpoints.size == b0.breakpoints.size
        span = b0.breakpoints[-1] - b0.breakpoints[0]
        assert np.all(np.abs(p.breakpoints - b0.breakpoints) <= workloads.ENDPOINT_JITTER * span)
        charged = b0.values > 0.0
        assert np.all(np.abs(p.values[charged] / b0.values[charged] - 1.0) <= workloads.HEIGHT_JITTER)
    assert workloads.config_dict(workload, 1) != workloads.config_dict(workload, 2)


def test_tracer_restores_attributes_and_reports_missing_names():
    targets = spans.TARGETS + (spans.Target("nlftl.particles", "no_such_function", "ghost"),)
    before = {(t.module, t.attr): getattr(sys.modules[t.module], t.attr, None) for t in targets}
    with spans.Tracer(targets) as tr:
        assert particles._velocities is not before[("nlftl.particles", "_velocities")]
    after = {(t.module, t.attr): getattr(sys.modules[t.module], t.attr, None) for t in targets}
    assert after == before
    assert not hasattr(particles, "no_such_function")
    assert "ghost" in tr.missing


def test_tracer_restores_attributes_when_the_run_raises():
    original = particles._velocities
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert particles._velocities is original


def small_particle_run(tmp_path, targets=spans.TARGETS):
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 30, "t_end": 0.2})
    with spans.Tracer(targets) as tr:
        with tr.phase("setup"):
            scenarios.init_particles(scenarios.build_profile(cfg), cfg.n_cells, scenarios.build_mobility(cfg))
        with tr.phase("run"):
            out = scenarios.emit_method_run(scenarios.run_particles(cfg), tmp_path)
    return tr, cfg, out


def test_layer_metrics_count_particle_work(tmp_path):
    tr, cfg, out = small_particle_run(tmp_path)
    layers = child.layer_metrics(tr, cfg, out)
    assert set(layers) | {"trace_overhead"} == set(spans.LAYER_UNITS)
    value = {k: v for k, (v, _) in layers.items()}
    assert value["particles.rhs_calls"] > 0
    assert value["particles.pair_evals"] == value["particles.rhs_calls"] * (cfg.n_cells + 1) ** 2
    assert value["particles.settle_t"] == cfg.t_end
    assert value["godunov.steps"] == 0 and value["entropy.conv_calls"] == 0  # bypassed layers
    assert value["scenarios.emit_bytes"] == sum(p.stat().st_size for p in out.iterdir())
    assert value["profiles.init_s"] > 0.0 and value["particles.rhs_temp_mb"] > 0.0
    assert value["mass_drift_rel"] < 1e-12


def test_missing_name_reads_null_with_a_reason(tmp_path):
    targets = tuple(
        dataclasses.replace(t, attr="_velocities_renamed") if t.span == "particles.rhs" else t for t in spans.TARGETS
    )
    tr, cfg, out = small_particle_run(tmp_path, targets)
    layers = child.layer_metrics(tr, cfg, out)
    for name in ("particles.rhs_calls", "particles.rhs_s", "particles.integrate_self_s", "particles.pair_evals"):
        value, reason = layers[name]
        assert value is None and "_velocities_renamed" in reason
    assert layers["particles.settle_t"][0] == cfg.t_end


def test_every_metric_name_is_valid_and_declared():
    bench = benchmark_json()
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == spans.LAYER_UNITS
    for name in [*e2e, *layers, *(w["name"] for w in bench["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert bench["paths"] == ["bench"]


def fake_settle(settled: bool, profile) -> SimpleNamespace:
    return SimpleNamespace(trajectory=SimpleNamespace(settled=settled), profiles=[profile])


def test_settle_check_rejects_broken_outputs():
    cfg = nl.builtin_scenario("single-step")
    block = nl.uniform_profile(-0.3, 0.3, 1.0)
    assert workloads.check("settle", cfg, fake_settle(True, block), None) == []
    assert workloads.check("settle", cfg, fake_settle(False, block), None)
    assert workloads.check("settle", cfg, fake_settle(True, nl.uniform_profile(-0.6, 0.6, 0.5)), None)


def test_wide_check_rejects_broken_outputs(tmp_path):
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 30, "t_end": 0.1})
    result = scenarios.run_particles(cfg)
    out = scenarios.emit_method_run(result, tmp_path)
    assert workloads.check("wide", cfg, result, out) == []
    short = dataclasses.replace(result, profiles=result.profiles[:-1])
    assert workloads.check("wide", cfg, short, out)
    p = result.profiles[3]
    heavy = dataclasses.replace(result, profiles=[*result.profiles[:3], nl.DensityProfile(p.breakpoints, p.values * (1 + 1e-9)), *result.profiles[4:]])
    assert workloads.check("wide", cfg, heavy, out)
    density = out / "density.csv"
    lines = density.read_text().splitlines()
    last_t = lines[-1].split(",", 1)[0]
    density.write_text("\n".join(l for l in lines if not l.startswith(last_t + ",")) + "\n")
    assert workloads.check("wide", cfg, result, out)


def test_fv_march_check_rejects_broken_outputs(tmp_path):
    cfg = nl.ScenarioConfig.from_dict({"scenario": "two-step-0206", "fv_cells": 200, "t_end": 0.1})
    result = scenarios.run_godunov(cfg)
    out = scenarios.emit_method_run(result, tmp_path)
    assert workloads.check("fv-march", cfg, result, out) == []
    warned = dataclasses.replace(result, fv=dataclasses.replace(result.fv, clamp_warnings=1))
    assert workloads.check("fv-march", cfg, warned, out)
    last = result.fv.final
    over = nl.FVState(last.time, np.where(last.values > 0.0, cfg.cap + 5e-11, 0.0), cfg.cap)
    overshoot = dataclasses.replace(result, fv=dataclasses.replace(result.fv, states=(*result.fv.states[:-1], over)))
    assert workloads.check("fv-march", cfg, overshoot, out)


def test_audit_check_rejects_broken_outputs(tmp_path):
    cfg = nl.ScenarioConfig.from_dict({"scenario": "single-step", "n_cells": 20, "t_end": 2.0})
    reports = scenarios.run_entropy_audit(cfg, c_list=workloads.AUDIT_CONSTANTS, n_space=16)
    out = scenarios.emit_entropy(cfg, reports, "particles", tmp_path)
    assert workloads.check("audit", cfg, reports, out) == []
    assert workloads.check("audit", cfg, reports[:-1], out)
    flagged = [dataclasses.replace(reports[0], violation=True), *reports[1:]]
    assert workloads.check("audit", cfg, flagged, out)
    jsonl = out / "entropy.jsonl"
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    records[1]["residual"] = float("nan")
    jsonl.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    assert workloads.check("audit", cfg, reports, out)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "settle", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
