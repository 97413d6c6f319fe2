import dataclasses
import json
import math

import numpy as np
import pytest

from heterojj import (InvalidParameterError, JunctionParams, derive, epsilon,
                      potential, potential_gradient, potential_hessian,
                      split_phases)
from helpers import random_params

SYMMETRIC = JunctionParams(ej1=50.0, ej2=50.0, ein=125.0, alpha1=0.1, alpha2=0.1)


# ---------------------------------------------------------------- parameters

def test_invalid_params_rejected():
    with pytest.raises(InvalidParameterError):
        JunctionParams(ej1=-1.0, ej2=50.0, ein=125.0)
    with pytest.raises(InvalidParameterError):
        JunctionParams(ej1=50.0, ej2=0.0, ein=125.0)
    with pytest.raises(InvalidParameterError):
        JunctionParams(ej1=50.0, ej2=50.0, ein=125.0, alpha1=0.0)
    with pytest.raises(InvalidParameterError):
        JunctionParams(ej1=50.0, ej2=50.0, ein=125.0, kappa=0)
    with pytest.raises(InvalidParameterError):
        JunctionParams(ej1=50.0, ej2=50.0, ein=125.0, bias=-0.1)
    with pytest.raises(InvalidParameterError):
        JunctionParams(ej1=math.nan, ej2=50.0, ein=125.0)


@pytest.mark.parametrize("field,scalar,value", [("ej1", np.int64, 50), ("ej1", np.float32, 50.5),
                                                ("alpha1", np.int64, 1), ("alpha1", np.float32, 0.1),
                                                ("bias", np.int64, 0), ("bias", np.float32, 0.95)])
def test_numpy_scalars_accepted_as_floats(field, scalar, value):
    value = scalar(value)
    p = SYMMETRIC.replace(**{field: value})
    stored = getattr(p, field)
    # held as the Python float of the value given, so derived scales are
    # computed in double precision, exactly as from that float
    assert type(stored) is float and stored == float(value)
    assert derive(p) == derive(SYMMETRIC.replace(**{field: float(value)}))


@pytest.mark.parametrize("field", ["ej1", "alpha1", "bias", "kappa"])
def test_bool_rejected(field):
    for flag in (True, np.True_):
        with pytest.raises(InvalidParameterError, match=field):
            SYMMETRIC.replace(**{field: flag})


@pytest.mark.parametrize("kappa", [np.int64(-1), 1.0, np.float64(-1.0), np.int32(1)])
def test_kappa_stored_as_int(kappa):
    p = SYMMETRIC.replace(kappa=kappa)
    assert type(p.kappa) is int and p.kappa == kappa
    assert json.loads(json.dumps(dataclasses.asdict(p)))["kappa"] == kappa


def test_from_ratios_reproduces_ratios():
    p = JunctionParams.from_ratios(100.0, 2.0, 1.0, 0.1, 0.1, 1, 0.95)
    scales = derive(p)
    assert p.ej1 + p.ej2 == pytest.approx(100.0, rel=1e-15)
    assert p.ej1 == p.ej2
    assert scales.omega_p / scales.omega_jl == pytest.approx(2.0, rel=1e-14)
    asym = JunctionParams.from_ratios(90.0, 3.0, j_ratio=2.0)
    assert asym.ej1 / asym.ej2 == pytest.approx(2.0, rel=1e-14)
    with pytest.raises(InvalidParameterError):
        JunctionParams.from_ratios(100.0, 0.0)
    with pytest.raises(InvalidParameterError):
        JunctionParams.from_ratios(-5.0, 2.0)


# ------------------------------------------------------------ derived scales

def test_lambda_example():
    scales = derive(SYMMETRIC)
    assert scales.lambda_cap == pytest.approx(1.05, abs=1e-12)


def test_plasma_frequency_example():
    scales = derive(SYMMETRIC)
    assert scales.omega_p == pytest.approx(math.sqrt(200.0), rel=1e-15)
    assert scales.omega_p1 == pytest.approx(10.0, rel=1e-15)


@pytest.mark.parametrize("ej,alpha", [(50.0, 0.1), (12.5, 0.3), (7.0, 0.05), (1.0, 1.0)])
def test_symmetric_couplings_exact(ej, alpha):
    # x/(4x) and alpha/(2 alpha) are exact in IEEE, so the symmetric values
    # come out bit-exact, not merely close.
    scales = derive(JunctionParams(ej1=ej, ej2=ej, ein=10.0, alpha1=alpha, alpha2=alpha))
    assert scales.g_minus == 0.0
    assert scales.g_plus == 0.125


def test_g_minus_vanishes_iff_balanced():
    # ej1*alpha1 = ej2*alpha2 kills the linear coupling.
    p = JunctionParams(ej1=30.0, ej2=60.0, ein=10.0, alpha1=0.2, alpha2=0.1)
    assert abs(derive(p).g_minus) < 1e-15
    p = JunctionParams(ej1=30.0, ej2=60.0, ein=10.0, alpha1=0.2, alpha2=0.15)
    assert abs(derive(p).g_minus) > 1e-3


def test_g_plus_survives_ej_sum_near_overflow():
    # 2 E_J overflows above ~9e307; g_plus and eps must not fall to 0 there
    p = JunctionParams.from_ratios(1e308, 2.0, 1.0, 0.1, 0.1, 1, 0.9)
    assert derive(p).g_plus == 0.125
    fluct = epsilon(p)
    assert fluct.epsilon == 0.125 * fluct.psi_variance


def test_derived_scale_invariants_random():
    rng = np.random.default_rng(20240811)
    for _ in range(300):
        p = random_params(rng, kappa_choices=(1, -1))
        s = derive(p)
        assert s.lambda_cap >= 1.0
        assert s.omega_p > 0 and s.omega_p1 > 0 and s.omega_p2 > 0 and s.omega_jl > 0
        assert 0.0 < s.g_plus <= 0.5
        assert abs(s.g_minus) < 1.0
        assert s.m_cm == 0.5
        assert s.m_rlt == pytest.approx(1.0 / (2.0 * (p.alpha1 + p.alpha2)), rel=1e-15)
        assert s.ej_sum == p.ej1 + p.ej2
        if p.kappa == 1:
            assert s.ej_tilt == s.ej_sum


# --------------------------------------------------------- phase coordinates

def test_split_phases_examples():
    t1, t2 = split_phases(0.3, 0.0, SYMMETRIC)
    assert (t1, t2) == (0.3, 0.3)
    t1, t2 = split_phases(0.0, 1.0, SYMMETRIC)
    assert t1 == pytest.approx(0.5, abs=1e-15)
    assert t2 == pytest.approx(-0.5, abs=1e-15)


def test_split_combine_round_trip_1000_draws():
    rng = np.random.default_rng(123)
    for _ in range(1000):
        p = random_params(rng)
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        psi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        theta1, theta2 = split_phases(theta, psi, p)
        # the inverse map: theta = a2 theta1 + a1 theta2, psi = theta1 - theta2
        a1, a2 = p.alpha1 / (p.alpha1 + p.alpha2), p.alpha2 / (p.alpha1 + p.alpha2)
        back_theta, back_psi = a2 * theta1 + a1 * theta2, theta1 - theta2
        assert abs(back_theta - theta) < 1e-14 * max(1.0, abs(theta))
        assert abs(back_psi - psi) < 1e-14 * max(1.0, abs(psi))


# ------------------------------------------------------------------ potential

def test_potential_at_origin():
    p = SYMMETRIC
    assert potential(0.0, 0.0, p) == pytest.approx(-(50.0 + 50.0 + 125.0), rel=1e-15)
    flipped = p.replace(kappa=-1)
    assert potential(0.0, 0.0, flipped) == pytest.approx(-(50.0 + 50.0 - 125.0), rel=1e-15)


def test_potential_at_pi():
    assert potential(math.pi, 0.0, SYMMETRIC) == pytest.approx(100.0 - 125.0, rel=1e-12)


def test_tilt_slope_at_origin():
    p = SYMMETRIC.replace(bias=0.5)
    h = 1e-6
    fd = (potential(h, 0.0, p) - potential(-h, 0.0, p)) / (2 * h)
    scales = derive(p)
    assert fd == pytest.approx(-scales.ej_tilt * 0.5, rel=1e-9)
    assert potential_gradient(0.0, 0.0, p)[0] == pytest.approx(-scales.ej_tilt * 0.5, rel=1e-15)


def test_gradient_zero_at_minimum():
    assert potential_gradient(0.0, 0.0, SYMMETRIC) == (0.0, 0.0)


def _fd_gradient(theta, psi, p, h=1e-5):
    dtheta = (potential(theta + h, psi, p) - potential(theta - h, psi, p)) / (2 * h)
    dpsi = (potential(theta, psi + h, p) - potential(theta, psi - h, p)) / (2 * h)
    return dtheta, dpsi


def test_gradient_matches_finite_differences_on_grid():
    # Deviations are normalized by max(1, |fd|): points where the gradient
    # vanishes compare on the E_C scale instead of dividing by ~0.
    p = JunctionParams(ej1=70.0, ej2=30.0, ein=80.0, alpha1=0.15, alpha2=0.07,
                       kappa=1, bias=0.4)
    grid = np.linspace(-math.pi, math.pi, 50)
    theta, psi = np.meshgrid(grid, grid, indexing="ij")
    at, ap = potential_gradient(theta, psi, p)
    ft, fp = _fd_gradient(theta, psi, p)
    err_t = np.abs(at - ft) / np.maximum(1.0, np.abs(ft))
    err_p = np.abs(ap - fp) / np.maximum(1.0, np.abs(fp))
    assert float(err_t.max()) < 1e-6
    assert float(err_p.max()) < 1e-6


def test_gradient_point_example():
    p = SYMMETRIC
    at, ap = potential_gradient(0.2, 0.1, p)
    ft, fp = _fd_gradient(0.2, 0.1, p)
    assert at == pytest.approx(ft, rel=1e-6)
    assert ap == pytest.approx(fp, rel=1e-6)


def test_symmetric_psi_gradient_vanishes_on_axis():
    thetas = np.linspace(-math.pi, math.pi, 101)
    _, dpsi = potential_gradient(thetas, np.zeros_like(thetas), SYMMETRIC)
    assert np.all(dpsi == 0.0)


def test_global_minimum_at_origin_grid_scan():
    grid = np.linspace(-math.pi, math.pi, 201)
    theta, psi = np.meshgrid(grid, grid, indexing="ij")
    values = potential(theta, psi, SYMMETRIC)
    i, j = np.unravel_index(np.argmin(values), values.shape)
    assert abs(grid[i]) < 1e-9  # the grid midpoint is 0 up to linspace rounding
    assert abs(grid[j]) < 1e-9


def test_hessian_matches_finite_differences():
    p = JunctionParams(ej1=70.0, ej2=30.0, ein=80.0, alpha1=0.15, alpha2=0.07,
                       kappa=-1, bias=0.2)
    h = 1e-5
    for theta, psi in [(0.3, -0.4), (1.2, 0.7), (-2.0, 0.05)]:
        hess = potential_hessian(theta, psi, p)
        gt_p, gp_p = potential_gradient(theta + h, psi, p)
        gt_m, gp_m = potential_gradient(theta - h, psi, p)
        assert hess[0, 0] == pytest.approx((gt_p - gt_m) / (2 * h), rel=1e-6, abs=1e-6)
        assert hess[1, 0] == pytest.approx((gp_p - gp_m) / (2 * h), rel=1e-6, abs=1e-6)
        gt_p, gp_p = potential_gradient(theta, psi + h, p)
        gt_m, gp_m = potential_gradient(theta, psi - h, p)
        assert hess[0, 1] == pytest.approx((gt_p - gt_m) / (2 * h), rel=1e-6, abs=1e-6)
        assert hess[1, 1] == pytest.approx((gp_p - gp_m) / (2 * h), rel=1e-6, abs=1e-6)
