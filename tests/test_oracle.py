import dataclasses
import math

import numpy as np
import pytest

from heterojj import (ConvergenceError, InvalidParameterError, JunctionParams,
                      NoBarrierError, bounce_action, cubic_fit, derive, epsilon,
                      escape_rate_ln, harmonic_spectrum, zero_point_variance)
from heterojj.oracle import _fd_levels

REF_POINT = JunctionParams.from_ratios(100.0, 2.0, 1.0, 0.1, 0.1, 1, 0.95)


# ------------------------------------------------------------- FD spectrum

def test_ladder_is_harmonic():
    spec = harmonic_spectrum(REF_POINT)
    omega_jl = derive(REF_POINT).omega_jl
    gaps = np.diff(spec.eigenvalues)[:5]
    assert np.max(np.abs(gaps - omega_jl)) / omega_jl < 5e-3


def test_ground_energy_is_half_quantum():
    spec = harmonic_spectrum(REF_POINT)
    omega_jl = derive(REF_POINT).omega_jl
    assert abs(spec.eigenvalues[0] - omega_jl / 2) / (omega_jl / 2) < 1e-3


def test_ground_variance_matches_closed_form():
    spec = harmonic_spectrum(REF_POINT)
    analytic = zero_point_variance(REF_POINT)
    assert abs(spec.ground_psi_variance - analytic) / analytic < 1e-3


def test_spectrum_resolution_shift_small():
    spec = harmonic_spectrum(REF_POINT)
    assert spec.resolution_shift < 1e-3


def test_spectrum_preconditions():
    with pytest.raises(InvalidParameterError):
        harmonic_spectrum(REF_POINT, n_points=500)
    sigma = math.sqrt(zero_point_variance(REF_POINT))
    with pytest.raises(InvalidParameterError):
        harmonic_spectrum(REF_POINT, half_width=5.0 * sigma)
    with pytest.raises(InvalidParameterError):
        harmonic_spectrum(REF_POINT, n_levels=1)


def test_spectrum_convergence_check_fires_on_coarse_grid():
    # A very wide box at the minimum point count makes h too coarse; the
    # N -> 2N spacing comparison must catch it.
    sigma = math.sqrt(zero_point_variance(REF_POINT))
    with pytest.raises(ConvergenceError):
        harmonic_spectrum(REF_POINT, half_width=40.0 * sigma, n_points=1000)


def test_fd_discretization_is_second_order():
    scales = derive(REF_POINT)
    sigma = math.sqrt(zero_point_variance(REF_POINT))
    errors = []
    for n in (500, 1000, 2000):
        levels, _ = _fd_levels(scales.m_rlt, REF_POINT.ein, 10.0 * sigma, n, 3)
        errors.append(abs(levels[0] - scales.omega_jl / 2))
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 1.8 < order < 2.2


# ------------------------------------------------------------ bounce action

def test_bounce_matches_closed_form_on_fitted_cubic():
    fit = cubic_fit(REF_POINT, 0.0)
    rate = escape_rate_ln(REF_POINT, 0.0)
    omega_i, v0 = rate.omega_p_i, rate.v0
    closed = 36.0 * v0 / (5.0 * omega_i)
    result = bounce_action(fit.profile(), 0.5, fit.theta_min)
    assert abs(result.action_b - closed) / closed < 1e-10
    assert result.theta_a < result.theta_b
    assert result.quad_error < 1e-8


def test_bounce_scales_as_sqrt_mass():
    fit = cubic_fit(REF_POINT, 0.0)
    b1 = bounce_action(fit.profile(), 0.5, fit.theta_min).action_b
    b2 = bounce_action(fit.profile(), 1.0, fit.theta_min).action_b
    assert b2 / b1 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_bounce_rejects_pure_quadratic_well():
    with pytest.raises(NoBarrierError):
        bounce_action(lambda t: 0.5 * 30.0 * t * t, 0.5, 0.0)


def test_bounce_rejects_monotone_descent():
    with pytest.raises(NoBarrierError):
        bounce_action(lambda t: -3.0 * t, 0.5, 0.0)


def test_bounce_tolerance_plateau():
    fit = cubic_fit(REF_POINT, 0.0)
    loose = bounce_action(fit.profile(), 0.5, fit.theta_min, tol=1e-10).action_b
    tight = bounce_action(fit.profile(), 0.5, fit.theta_min, tol=1e-12).action_b
    assert abs(loose - tight) / tight < 1e-9


def test_bounce_argument_validation():
    fit = cubic_fit(REF_POINT, 0.0)
    with pytest.raises(InvalidParameterError):
        bounce_action(fit.profile(), -1.0, fit.theta_min)
    with pytest.raises(InvalidParameterError):
        bounce_action(fit.profile(), 0.5, fit.theta_min, tol=0.0)


def test_full_washboard_vs_cubic_fit_gap():
    # Cubic-approximation error of the exact washboard bounce at bias 0.95:
    # measured at 6.4%, kept pinned as a regression band.
    rate = escape_rate_ln(REF_POINT, 0.0)
    theta0, omega_i, v0 = rate.theta0, rate.omega_p_i, rate.v0

    def washboard(theta):
        return -100.0 * (math.cos(theta) + 0.95 * theta)

    full = bounce_action(washboard, 0.5, theta0).action_b
    cubic = 36.0 * v0 / (5.0 * omega_i)
    gap = abs(full - cubic) / full
    assert 0.05 < gap < 0.075


# ---------------------------------------------------------------- cubic fit

def test_cubic_barrier_height_matches_closed_form():
    for bias in np.linspace(0.9, 0.98, 5):
        for eps in (0.0, 0.01, 0.03):
            p = REF_POINT.replace(bias=float(bias))
            if bias >= 1 - eps:
                continue
            fit = cubic_fit(p, eps)
            v0 = escape_rate_ln(p, eps).v0
            assert abs(fit.barrier_height - v0) / v0 < 1e-10


def test_cubic_curvature_identity():
    fit = cubic_fit(REF_POINT, 0.0)
    omega_i = escape_rate_ln(REF_POINT, 0.0).omega_p_i
    assert abs(fit.quad_coeff - 0.5 * omega_i ** 2) / (0.5 * omega_i ** 2) < 1e-10


def test_cubic_profile_returns_to_well_energy_at_exit():
    fit = cubic_fit(REF_POINT, 0.0)
    profile = fit.profile()
    assert profile(fit.theta_min) == 0.0
    assert abs(profile(fit.theta_exit)) < 1e-10 * fit.barrier_height


def test_cubic_coefficients_at_barrier_death():
    eps = 0.02
    p = REF_POINT.replace(bias=(1 - eps) * (1 - 1e-6))
    fit = cubic_fit(p, eps)
    ej_sum = 100.0
    assert abs(fit.cubic_coeff) == pytest.approx(ej_sum * (1 - eps), rel=1e-4)
    assert fit.quad_coeff < 0.01 * abs(fit.cubic_coeff)


def test_cubic_fit_propagates_no_barrier():
    with pytest.raises(NoBarrierError):
        cubic_fit(REF_POINT.replace(bias=0.999), 0.01)



# ------------------------------------------------------------ verify suite

BARRIER_ROWS = ("bounce-vs-closed-form", "cubic-barrier-height", "cubic-curvature")
SPECTRUM_ROWS = ("spectrum-ladder", "spectrum-ground-energy",
                 "spectrum-ground-variance", "spectrum-resolution")


def _run_counted(monkeypatch, params):
    from heterojj import oracle, verify

    calls = {"cubic_fit": 0, "harmonic_spectrum": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    rows = {r.name: r for r in verify.run_checks(params)}
    return rows, calls


@pytest.mark.parametrize("bias", [0.95, 0.999])
def test_verify_barrier_rows_share_one_fit(monkeypatch, bias):
    rows, calls = _run_counted(monkeypatch, REF_POINT.replace(bias=bias))
    assert calls == {"cubic_fit": 1, "harmonic_spectrum": 1}
    eps = epsilon(REF_POINT).epsilon
    below = bias < 1.0 - eps
    # above the critical tilt each row still fails on its own, with the cause
    note = "" if below else (f"NoBarrierError: no barrier: bias={bias} >= 1 - eps = "
                             f"{1.0 - eps} (classical running state)")
    for name in BARRIER_ROWS:
        assert rows[name].passed is below
        assert rows[name].note == note

def test_verify_failing_spectrum_runs_once(monkeypatch):
    from heterojj import verify

    monkeypatch.setattr(verify, "SPECTRUM_POINTS", 500)
    rows, calls = _run_counted(monkeypatch, REF_POINT)
    assert calls == {"cubic_fit": 1, "harmonic_spectrum": 1}
    for name in SPECTRUM_ROWS:
        assert not rows[name].passed
        assert rows[name].note.startswith("InvalidParameterError: n_points=500")
    assert all(rows[name].passed for name in BARRIER_ROWS)


def _rows(params):
    from heterojj import verify

    return {r.name: r for r in verify.run_checks(params)}


def test_verify_bounce_row_reads_the_shipped_exponent(monkeypatch):
    # an exponent_b off by 0.1 % in the chain must fail the bounce row, not
    # pass against a re-typed copy of 36 v0 / (5 omega_p_i)
    from heterojj import escape

    instanton = escape._instanton

    def skewed(*args):
        result = instanton(*args)
        return dataclasses.replace(result, exponent_b=result.exponent_b * 1.001)

    monkeypatch.setattr(escape, "_instanton", skewed)
    rows = _rows(REF_POINT)
    assert not rows["bounce-vs-closed-form"].passed
    assert rows["cubic-barrier-height"].passed and rows["cubic-curvature"].passed


def test_verify_dual_form_row_reads_the_shipped_epsilon(monkeypatch):
    # an eps off by 0.1 % in the chain must fail the dual-form row, not pass
    # against a re-typed copy of g_plus <psi^2>
    from heterojj import escape

    shipped = escape.epsilon

    def skewed(params):
        fluct = shipped(params)
        return dataclasses.replace(fluct, epsilon=fluct.epsilon * 1.001)

    monkeypatch.setattr(escape, "epsilon", skewed)
    rows = _rows(REF_POINT)
    assert not rows["epsilon-dual-form"].passed
    assert rows["bounce-vs-closed-form"].passed
