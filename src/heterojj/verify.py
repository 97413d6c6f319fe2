"""Self-verification suite: the closed forms against numerical checks.

Each check compares a value the escape chain ships with a numpy oracle (a
sinc-DVR spectrum, a Gauss-Legendre bounce, central differences, an RK4
run) and records computed value, reference, tolerance, and pass/fail.
Rows that share an oracle call form a group; an exception inside the group
marks all of its rows failed rather than aborting the suite.

Only two rows check something independent of the code under test:
``gradient-vs-fd`` (the analytic gradient of the exact potential against
central differences of it) and ``energy-drift`` (energy conservation of an
RK4 run).  The other eight check the chain against itself or its own
model: ``epsilon-dual-form`` compares two spellings of one expression in
:func:`heterojj.escape.epsilon`; the four ``spectrum-*`` rows quantize the
harmonic spring (1/2) E_in psi^2 that defines omega_JL, so they confirm
the oscillator, not the junction; ``cubic-barrier-height`` and
``cubic-curvature`` compare identities of the cubic expansion, exact up to
rounding, whose theta0 comes from the rate itself; and
``bounce-vs-closed-form`` integrates the cubic barrier that the rate
formula was derived from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import dynamics, escape, model, oracle
from .model import JunctionParams, derive

__all__ = ["CheckResult", "run_checks", "format_table"]

GRADIENT_GRID_POINTS = 50
GRADIENT_FD_STEP = 1e-5
# perfbench/workloads.py derives verify's documented exits from this exact run
DRIFT_DT = 1e-3
DRIFT_STEPS = 10_000


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


def _check(results: List[CheckResult], rows, compute) -> None:
    """Append one row per ``(name, tolerance)`` in ``rows``.

    ``compute()`` makes the group's oracle calls and returns one
    ``(computed, reference)`` pair per row; an exception inside it fails
    every row of the group with the same note.
    """
    note = ""
    try:
        with np.errstate(all="ignore"):  # a non-finite value fails the row itself
            values = compute()
    except Exception as exc:  # a failing oracle is a failed check, not a crash
        values = [(math.nan, math.nan)] * len(rows)
        note = f"{type(exc).__name__}: {exc}"
    for (name, tolerance), (computed, reference) in zip(rows, values):
        deviation = _relerr(computed, reference) if reference != 0.0 else abs(computed)
        results.append(CheckResult(name=name, computed=computed, reference=reference,
                                   tolerance=tolerance, passed=deviation <= tolerance,
                                   note=note))


def run_checks(params: JunctionParams) -> List[CheckResult]:
    """Run the full oracle suite against one parameter set.

    Each row compares an oracle with the value the escape chain ships.  The
    barrier checks need 0 < bias < 1 - eps; with an unsuitable bias they
    report as failed.
    """
    results: List[CheckResult] = []
    scales = derive(params)
    fluct = escape.epsilon(params)

    _check(results, [("epsilon-dual-form", 1e-12)],
           lambda: [(fluct.epsilon, fluct.epsilon_from_ratio)])

    def spectrum():
        spec = oracle.harmonic_spectrum(params)
        gaps = np.diff(spec.eigenvalues)[:5]
        worst_gap = float(gaps[np.argmax(np.abs(gaps - scales.omega_jl))])
        return [(worst_gap, scales.omega_jl),
                (float(spec.eigenvalues[0]), scales.omega_jl / 2.0),
                (spec.ground_psi_variance, fluct.psi_variance),
                (spec.resolution_shift, 0.0)]

    _check(results, [("spectrum-ladder", 5e-3), ("spectrum-ground-energy", 1e-3),
                     ("spectrum-ground-variance", 1e-3),
                     ("spectrum-resolution", oracle.RESOLUTION_SHIFT_LIMIT)], spectrum)

    def barrier():
        fit = oracle.cubic_fit(params, fluct.epsilon)
        rate = escape.escape_rate_ln(params, fluct.epsilon)
        bounce = oracle.bounce_action(fit.profile(), scales.m_cm, fit.theta_min)
        return [(bounce.action_b, rate.exponent_b),
                (fit.barrier_height, rate.v0),
                (fit.quad_coeff, scales.m_cm * rate.omega_p_i * rate.omega_p_i)]

    _check(results, [("bounce-vs-closed-form", 1e-8), ("cubic-barrier-height", 1e-10),
                     ("cubic-curvature", 1e-10)], barrier)

    _check(results, [("gradient-vs-fd", 1e-6)],
           lambda: [(_max_gradient_deviation(params), 0.0)])

    def energy_drift():
        traj = dynamics.integrate(dynamics.PhaseState(0.01, 0.0, 0.0, 0.0),
                                  DRIFT_DT, DRIFT_STEPS, params.replace(bias=0.0))
        return [(traj.energy_drift(), 0.0)]

    _check(results, [("energy-drift", 1e-8)], energy_drift)

    return results


def _max_gradient_deviation(params: JunctionParams) -> float:
    """Worst normalized deviation of the analytic gradient from central
    finite differences on a grid over [-pi, pi]^2.

    Deviations are divided by max(1, |finite difference|) so that points
    where the gradient vanishes compare on the E_C scale instead of blowing
    up.
    """
    grid = np.linspace(-math.pi, math.pi, GRADIENT_GRID_POINTS)
    theta, psi = np.meshgrid(grid, grid, indexing="ij")
    at, ap = model.potential_gradient(theta, psi, params)
    step = GRADIENT_FD_STEP
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
