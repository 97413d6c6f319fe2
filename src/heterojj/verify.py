"""Self-verification suite: every closed form against an independent check.

Each check compares a closed-form quantity to its numerical oracle and
records computed value, reference, tolerance, and pass/fail.  Exceptions
inside a check mark it failed rather than aborting the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import dynamics, escape, model, oracle
from .model import JunctionParams, derive

__all__ = ["CheckResult", "run_checks", "format_table"]

GRADIENT_GRID_POINTS = 50
GRADIENT_FD_STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: float
    reference: float
    tolerance: float
    passed: bool
    note: str = ""


def _relerr(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _check(results: List[CheckResult], name: str, tolerance: float, func) -> None:
    try:
        computed, reference = func()
        deviation = _relerr(computed, reference) if reference != 0.0 else abs(computed)
        results.append(CheckResult(name=name, computed=computed, reference=reference,
                                   tolerance=tolerance, passed=deviation <= tolerance))
    except Exception as exc:  # a failing oracle is a failed check, not a crash
        results.append(CheckResult(name=name, computed=math.nan, reference=math.nan,
                                   tolerance=tolerance, passed=False,
                                   note=f"{type(exc).__name__}: {exc}"))


def _once(compute):
    """Memoize a zero-argument oracle call for the rows that share it.

    The outcome is kept whether it is a value or an exception, so a failing
    oracle runs once and fails every row that depends on it.
    """
    outcome: list = []

    def get():
        if not outcome:
            try:
                outcome.append((compute(), None))
            except Exception as exc:  # re-raised in each dependent row
                outcome.append((None, exc))
        value, exc = outcome[0]
        if exc is not None:
            raise exc
        return value

    return get


def run_checks(params: JunctionParams, spectrum_points: int = 2000,
               spectrum_levels: int = 7, bounce_tol: float = 1e-10,
               drift_dt: float = 1e-3, drift_steps: int = 10000,
               inject: Optional[str] = None) -> List[CheckResult]:
    """Run the full oracle suite against one parameter set.

    The barrier checks need 0 < bias < 1 - eps; with an unsuitable bias they
    report as failed.  ``inject='gplus-sign'`` flips the sign of g_plus in
    the dual-form check (fault-injection hook for self-tests).
    """
    results: List[CheckResult] = []
    scales = derive(params)
    fluct = escape.epsilon(params)

    def dual_form():
        g_plus = scales.g_plus * (-1.0 if inject == "gplus-sign" else 1.0)
        direct = g_plus * fluct.psi_variance
        return direct, fluct.epsilon_from_ratio

    _check(results, "epsilon-dual-form", 1e-12, dual_form)

    get_spectrum = _once(lambda: oracle.harmonic_spectrum(
        params, n_points=spectrum_points, n_levels=spectrum_levels))

    def ladder():
        spec = get_spectrum()
        gaps = np.diff(spec.eigenvalues)[:5]
        worst_gap = float(gaps[np.argmax(np.abs(gaps - scales.omega_jl))])
        return worst_gap, scales.omega_jl

    _check(results, "spectrum-ladder", 5e-3, ladder)

    def ground_energy():
        spec = get_spectrum()
        return float(spec.eigenvalues[0]), scales.omega_jl / 2.0

    _check(results, "spectrum-ground-energy", 1e-3, ground_energy)

    def ground_variance():
        spec = get_spectrum()
        return spec.ground_psi_variance, escape.zero_point_variance(params)

    _check(results, "spectrum-ground-variance", 1e-3, ground_variance)

    def resolution():
        spec = get_spectrum()
        return spec.resolution_shift, 0.0

    _check(results, "spectrum-resolution", oracle.RESOLUTION_SHIFT_LIMIT, resolution)

    # the three barrier rows share one cubic fit and one closed-form geometry
    get_fit = _once(lambda: (oracle.cubic_fit(params, fluct.epsilon),
                             escape.barrier_params(params, fluct.epsilon)))

    def bounce():
        fit, (_theta0, omega_p_i, v0) = get_fit()
        closed = 36.0 * v0 / (5.0 * omega_p_i)
        result = oracle.bounce_action(fit.profile(), scales.m_cm, fit.theta_min,
                                      tol=bounce_tol)
        return result.action_b, closed

    _check(results, "bounce-vs-closed-form", 1e-8, bounce)

    def cubic_barrier():
        fit, (_theta0, _omega_p_i, v0) = get_fit()
        return fit.barrier_height, v0

    _check(results, "cubic-barrier-height", 1e-10, cubic_barrier)

    def cubic_curvature():
        fit, (_theta0, omega_p_i, _v0) = get_fit()
        return fit.quad_coeff, scales.m_cm * omega_p_i * omega_p_i

    _check(results, "cubic-curvature", 1e-10, cubic_curvature)

    def gradient_fd():
        return _max_gradient_deviation(params), 0.0

    _check(results, "gradient-vs-fd", 1e-6, gradient_fd)

    def energy_drift():
        p0 = params.replace(bias=0.0)
        traj = dynamics.integrate(dynamics.PhaseState(0.01, 0.0, 0.0, 0.0),
                                  drift_dt, drift_steps, p0)
        return traj.energy_drift(), 0.0

    _check(results, "energy-drift", 1e-8, energy_drift)

    return results


def _max_gradient_deviation(params: JunctionParams, step: float = GRADIENT_FD_STEP) -> float:
    """Worst normalized deviation of the analytic gradient from central
    finite differences on a grid over [-pi, pi]^2.

    Deviations are divided by max(1, |finite difference|) so that points
    where the gradient vanishes compare on the E_C scale instead of blowing
    up.
    """
    grid = np.linspace(-math.pi, math.pi, GRADIENT_GRID_POINTS)
    theta, psi = np.meshgrid(grid, grid, indexing="ij")
    at, ap = model.potential_gradient(theta, psi, params)
    ft = (model.potential(theta + step, psi, params)
          - model.potential(theta - step, psi, params)) / (2.0 * step)
    fp = (model.potential(theta, psi + step, params)
          - model.potential(theta, psi - step, params)) / (2.0 * step)
    return float(max(np.max(np.abs(at - ft) / np.maximum(1.0, np.abs(ft))),
                     np.max(np.abs(ap - fp) / np.maximum(1.0, np.abs(fp)))))


def format_table(results: List[CheckResult]) -> str:
    """Fixed-width pass/fail table, one row per check."""
    lines = [f"{'check':<26} {'computed':>22} {'reference':>22} "
             f"{'tolerance':>10} status"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = f"  [{r.note}]" if r.note else ""
        lines.append(f"{r.name:<26} {r.computed:>22.15g} {r.reference:>22.15g} "
                     f"{r.tolerance:>10.1e} {status}{note}")
    return "\n".join(lines)
