"""Nonlocal follow-the-leader transport: particle and finite-volume solvers
with mass/TV/Wasserstein diagnostics and a Kruzkov entropy residual."""

__version__ = "0.1.0"  # read by pyproject.toml and, as the package loads, by scenarios

from .entropy import (
    EntropyReport,
    SpatialBump,
    TestFunction,
    bump_pair,
    entropy_residual,
    entropy_residuals,
    single_bump,
)
from .errors import ConfigError, InvariantViolation
from .godunov import FVState, GodunovRun, Grid, cell_averages, gd_run, gd_step, state_profile
from .metrics import l1_distance, total_variation, wasserstein1
from .model import GAUSSIAN_AMPLITUDE, Kernel, Mobility
from .particles import (
    ParticleState,
    Trajectory,
    empirical_measure,
    init_particles,
    integrate,
    jam_state,
    reconstruct_density,
    rhs,
)
from .profiles import AtomicMeasure, DensityProfile, step_profile, uniform_profile
from .scenarios import (
    CompareResult,
    ConvergenceResult,
    MethodRun,
    ScenarioConfig,
    builtin_names,
    builtin_scenario,
    build_kernel,
    build_mobility,
    build_profile,
    default_test_function,
    first_violation_horizon,
    frozen_snapshots,
    run_compare,
    run_convergence,
    run_entropy_audit,
    run_godunov,
    run_particles,
)
