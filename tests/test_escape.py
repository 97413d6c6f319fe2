import itertools
import math

import numpy as np
import pytest

from heterojj import (AxisSpec, InvalidAxisError, InvalidParameterError,
                      JunctionParams, NoBarrierError, derive, effective_potential,
                      enhancement_ratio_ln, epsilon, escape_rate_ln, sweep_grid,
                      zero_point_variance)
from helpers import random_params

REF_POINT = JunctionParams.from_ratios(100.0, 2.0, 1.0, 0.1, 0.1, 1, 0.95)

# Frozen closed-form chain at (E_J = 100, bias = 0.95, eps = 0), checked
# against the independent bounce quadrature in test_oracle.py.
THETA0_95 = 1.253235897503375
OMEGA_I_95 = 7.902529973621358
V0_95 = 2.248891245960645
EXPONENT_95 = 2.048966220307369

# Regression pins for the enhancement at bias = 0.95 (first computation).
LN_RATIO_RATIO5 = 0.2771882764586242
LN_RATIO_RATIO05 = 0.030307942362441942


def ref_point_at(bias, ratio):
    return JunctionParams.from_ratios(100.0, ratio, 1.0, 0.1, 0.1, 1, bias)


# ------------------------------------------------------- zero-point variance

def test_zero_point_variance_value():
    expected = 0.2 / math.sqrt(2.0 * 0.2 * 125.0)
    assert zero_point_variance(REF_POINT) == pytest.approx(expected, rel=1e-14)


def test_variance_scales_inverse_sqrt_ein():
    base = zero_point_variance(REF_POINT)
    doubled = zero_point_variance(REF_POINT.replace(ein=250.0))
    assert doubled == pytest.approx(base / math.sqrt(2.0), rel=1e-12)


# ------------------------------------------------------------------- epsilon

def test_epsilon_reference_value():
    fluct = epsilon(REF_POINT)
    assert fluct.epsilon == pytest.approx(3.5355339059327377e-3, rel=1e-12)
    assert fluct.valid and not fluct.strained


def test_epsilon_dual_forms_agree_over_draws():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        p = random_params(rng, kappa_choices=(1, -1))
        fluct = epsilon(p)
        assert fluct.epsilon == pytest.approx(fluct.epsilon_from_ratio, rel=1e-12)
        assert fluct.epsilon > 0
        assert fluct.psi_variance > 0


def test_epsilon_vanishes_for_stiff_leggett_mode():
    stiff = REF_POINT.replace(ein=1e9)
    assert epsilon(stiff).epsilon < 1e-5


def test_epsilon_flags():
    strained = JunctionParams(ej1=50.0, ej2=50.0, ein=0.03)
    fluct = epsilon(strained)
    assert fluct.strained and fluct.valid
    wiped = JunctionParams(ej1=50.0, ej2=50.0, ein=0.001)
    fluct = epsilon(wiped)
    assert not fluct.valid


# ------------------------------------------------------- effective potential

def test_effective_potential_values():
    p = REF_POINT.replace(bias=0.0)
    assert effective_potential(0.0, p, 0.0) == pytest.approx(-100.0, rel=1e-15)
    assert effective_potential(math.pi, p, 0.1) == pytest.approx(90.0, rel=1e-12)


def test_effective_potential_matches_bare_washboard():
    p = REF_POINT.replace(bias=0.4)
    theta = np.linspace(-1.0, 7.0, 200)
    bare = -100.0 * (np.cos(theta) + 0.4 * theta)
    assert np.allclose(effective_potential(theta, p, 0.0), bare, rtol=1e-14)


def test_effective_potential_domain():
    with pytest.raises(InvalidParameterError):
        effective_potential(0.0, REF_POINT, 1.0)
    with pytest.raises(InvalidParameterError):
        effective_potential(0.0, REF_POINT, -0.01)


def test_barrier_shrinks_monotonically_with_eps():
    p = REF_POINT.replace(bias=0.5)
    heights = []
    for eps in np.linspace(0.0, 0.3, 7):
        theta = np.linspace(0.0, 2.0 * math.pi, 4000)
        profile = effective_potential(theta, p, float(eps))
        well = np.min(profile[theta < math.pi])
        top = np.max(profile)
        heights.append(top - well)
    assert all(a > b for a, b in zip(heights, heights[1:]))


# -------------------------------------------------------------- barrier chain

def test_barrier_chain_frozen_values():
    p = REF_POINT
    rate = escape_rate_ln(p, 0.0)
    theta0, omega_i, v0 = rate.theta0, rate.omega_p_i, rate.v0
    assert theta0 == pytest.approx(THETA0_95, rel=1e-12)
    assert omega_i == pytest.approx(OMEGA_I_95, rel=1e-12)
    assert v0 == pytest.approx(V0_95, rel=1e-12)
    # independent arithmetic over the same closed forms
    assert theta0 == pytest.approx(math.asin(0.95), rel=1e-14)
    assert omega_i == pytest.approx(math.sqrt(200.0) * (1 - 0.95 ** 2) ** 0.25, rel=1e-14)
    assert v0 == pytest.approx(omega_i ** 2 / math.tan(theta0) ** 2 / 3.0, rel=1e-13)


def test_barrier_vanishes_at_critical_tilt():
    eps = 0.02
    p = REF_POINT.replace(bias=(1 - eps) * (1 - 1e-10))
    rate = escape_rate_ln(p, eps)
    theta0, omega_i, v0 = rate.theta0, rate.omega_p_i, rate.v0
    assert v0 < 1e-12
    assert omega_i < 0.01 * derive(p).omega_p
    assert theta0 == pytest.approx(math.pi / 2, abs=1e-4)


def test_no_barrier_error_at_and_above_boundary():
    with pytest.raises(NoBarrierError):
        escape_rate_ln(REF_POINT.replace(bias=0.96), 0.05)
    with pytest.raises(NoBarrierError):
        escape_rate_ln(REF_POINT.replace(bias=0.95), 0.05)
    with pytest.raises(NoBarrierError):
        escape_rate_ln(REF_POINT.replace(bias=1.2), 0.0)


def test_barrier_requires_positive_bias_and_valid_eps():
    with pytest.raises(InvalidParameterError):
        escape_rate_ln(REF_POINT.replace(bias=0.0), 0.0)
    with pytest.raises(InvalidParameterError):
        escape_rate_ln(REF_POINT, 1.1)


# ----------------------------------------------------------------- ln(Gamma)

def test_exponent_frozen_value():
    result = escape_rate_ln(REF_POINT, 0.0)
    assert result.exponent_b == pytest.approx(EXPONENT_95, rel=1e-12)
    expected_ln = (math.log(12.0) + math.log(OMEGA_I_95)
                   + 0.5 * math.log(3.0 * V0_95 / (2.0 * math.pi * OMEGA_I_95))
                   - EXPONENT_95)
    assert result.ln_gamma == pytest.approx(expected_ln, rel=1e-12)
    assert 0.0 < result.theta0 < math.pi / 2


def test_exponent_scales_as_sqrt_ej():
    small = JunctionParams.from_ratios(100.0, 2.0, 1.0, 0.1, 0.1, 1, 0.9)
    large = JunctionParams.from_ratios(400.0, 2.0, 1.0, 0.1, 0.1, 1, 0.9)
    b_small = escape_rate_ln(small, 0.01).exponent_b
    b_large = escape_rate_ln(large, 0.01).exponent_b
    assert b_large / b_small == pytest.approx(2.0, rel=1e-10)


def test_renormalization_raises_rate_in_semiclassical_regime():
    # The enhancement peaks where B_eps = 7/10 (eps ~ 0.0285 here) and falls
    # beyond it, but the rate stays above the bare rate up to eps ~ 0.044;
    # the loop ends at eps = 0.04 (B_eps ~ 0.27), inside that window.  The
    # sign flip near barrier death is pinned below.
    bare = escape_rate_ln(REF_POINT, 0.0).ln_gamma
    for eps in np.linspace(1e-4, 0.04, 12):
        assert escape_rate_ln(REF_POINT, float(eps)).ln_gamma > bare


def test_rate_ratio_flips_sign_near_barrier_death():
    # Exact instanton formula: the omega(I)-dependent prefactor collapses
    # faster than the exponent gains once the barrier is nearly gone.
    ln_ratio = escape_rate_ln(REF_POINT, 0.045).ln_gamma - escape_rate_ln(REF_POINT, 0.0).ln_gamma
    assert ln_ratio == pytest.approx(-0.09813245415012073, rel=1e-9)


def test_corrected_quantities_continuous_at_vanishing_eps():
    tiny = escape_rate_ln(REF_POINT, 1e-10)
    bare = escape_rate_ln(REF_POINT, 0.0)
    assert tiny.theta0 == pytest.approx(bare.theta0, rel=1e-9)
    assert tiny.omega_p_i == pytest.approx(bare.omega_p_i, rel=1e-9)
    assert tiny.v0 == pytest.approx(bare.v0, rel=1e-8)
    assert tiny.ln_gamma == pytest.approx(bare.ln_gamma, rel=1e-8)
    assert enhancement_ratio_ln(REF_POINT, eps_override=1e-10) == pytest.approx(0.0, abs=1e-7)


def test_barrier_ratio_decreases_with_eps():
    # V0 / omega(I) shrinks under renormalization at fixed bias.
    for bias in np.linspace(0.9, 0.98, 5):
        p = REF_POINT.replace(bias=float(bias))
        bare = escape_rate_ln(p, 0.0)
        r0 = bare.v0 / bare.omega_p_i
        for eps in np.linspace(0.001, min(0.2, 1 - bias - 1e-6), 8):
            corrected = escape_rate_ln(p, float(eps))
            assert corrected.v0 / corrected.omega_p_i < r0


# -------------------------------------------------------------- enhancement

def test_enhancement_zero_for_forced_bare():
    assert enhancement_ratio_ln(REF_POINT, eps_override=0.0) == 0.0


def test_enhancement_reference_point():
    value = enhancement_ratio_ln(REF_POINT)
    assert value > 0.0
    assert value == pytest.approx(0.1179546117095216, rel=1e-10)


def test_enhancement_pins_at_bias_095():
    assert enhancement_ratio_ln(ref_point_at(0.95, 5.0)) == pytest.approx(
        LN_RATIO_RATIO5, rel=1e-9)
    assert enhancement_ratio_ln(ref_point_at(0.95, 0.5)) == pytest.approx(
        LN_RATIO_RATIO05, rel=1e-9)


def test_enhancement_monotone_in_frequency_ratio_at_bias_095():
    values = [enhancement_ratio_ln(ref_point_at(0.95, float(r)))
              for r in np.linspace(0.5, 5.0, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_enhancement_negative_cell_near_critical_pinned():
    # The high-bias corner of the reference grid, far past the turnover
    # (B_eps ~ 0.017 < 7/10), where the exact rate formula gives a negative
    # enhancement.
    assert enhancement_ratio_ln(ref_point_at(0.99, 5.0)) == pytest.approx(
        -1.6465235989751281, rel=1e-9)


# -------------------------------------------------------------------- sweeps

def test_axis_spec_validation():
    with pytest.raises(InvalidAxisError):
        AxisSpec("bogus", 0.0, 1.0, 5)
    with pytest.raises(InvalidAxisError):
        AxisSpec("bias", 0.9, 0.5, 5)
    with pytest.raises(InvalidAxisError):
        AxisSpec("bias", 0.5, 0.9, 1)
    with pytest.raises(InvalidAxisError):
        AxisSpec("bias", math.nan, 0.9, 5)
    with pytest.raises(InvalidAxisError):  # finite ends, overflowing span
        AxisSpec("bias", -1e308, 1e308, 5)


def test_sweep_rejects_duplicate_axes():
    with pytest.raises(InvalidAxisError):
        sweep_grid(REF_POINT, AxisSpec("bias", 0.9, 0.95, 3), AxisSpec("bias", 0.9, 0.95, 3))


@pytest.mark.parametrize("override", [math.nan, math.inf, -math.inf])
def test_sweep_rejects_non_finite_eps_override(override):
    with pytest.raises(InvalidParameterError, match="override must be finite"):
        sweep_grid(REF_POINT, AxisSpec("bias", 0.9, 0.95, 3),
                   AxisSpec("omega_ratio", 1.0, 2.0, 3), eps_override=override)


def test_sweep_forced_bare_is_identically_zero():
    grid = sweep_grid(REF_POINT, AxisSpec("bias", 0.91, 0.94, 2),
                      AxisSpec("omega_ratio", 1.0, 2.0, 2), eps_override=0.0)
    assert grid.valid.all()
    assert np.all(grid.values == 0.0)


def test_sweep_positive_and_row_monotone_in_semiclassical_regime():
    grid = sweep_grid(REF_POINT, AxisSpec("bias", 0.90, 0.96, 12),
                      AxisSpec("omega_ratio", 0.5, 5.0, 12))
    assert grid.valid.all()
    assert np.all(grid.values > 0.0)
    assert np.all(np.diff(grid.values, axis=1) >= 0.0)


def test_sweep_flags_no_barrier_cells_without_fatal_error():
    grid = sweep_grid(REF_POINT, AxisSpec("bias", 0.985, 0.995, 3),
                      AxisSpec("omega_ratio", 5.0, 7.0, 3))
    vals1 = grid.axis1.values()
    vals2 = grid.axis2.values()
    for i, bias in enumerate(vals1):
        for j, ratio in enumerate(vals2):
            eps = epsilon(ref_point_at(float(bias), float(ratio))).epsilon
            expected_valid = bias < 1.0 - eps
            assert grid.valid[i, j] == expected_valid
            if expected_valid:
                assert np.isfinite(grid.values[i, j])
            else:
                assert np.isnan(grid.values[i, j])
    assert grid.valid.any() and not grid.valid.all()


def test_sweep_axis_semantics():
    base = JunctionParams.from_ratios(100.0, 2.0, 2.0, 0.1, 0.1, 1, 0.93)
    grid = sweep_grid(base, AxisSpec("alpha", 0.05, 0.2, 2),
                      AxisSpec("omega_ratio", 1.0, 3.0, 2))
    assert grid.valid.all()
    # alpha sets both alphas; omega_ratio then solves ein from the final
    # alpha, so the cell honors the requested ratio and keeps the E_J split.
    cell = base.replace(alpha1=0.2, alpha2=0.2,
                        ein=(base.ej1 + base.ej2) / (0.4 * 3.0 * 3.0))
    scales = derive(cell)
    assert scales.omega_p / scales.omega_jl == pytest.approx(3.0, rel=1e-12)
    assert cell.ej1 / cell.ej2 == pytest.approx(2.0, rel=1e-12)
    assert grid.values[1, 1] == pytest.approx(enhancement_ratio_ln(cell), rel=1e-12)
    # ein solved before alpha is applied would miss the ratio and the value
    ratio_first = base.replace(ein=(base.ej1 + base.ej2) / (0.2 * 3.0 * 3.0),
                               alpha1=0.2, alpha2=0.2)
    assert abs(enhancement_ratio_ln(ratio_first) - grid.values[1, 1]) > 1e-3

    # With unequal alphas the value depends on the E_J split, so the cells
    # show that ej_over_ec keeps the asymmetry, sets the sum and leaves ein
    # alone, and that bias is set.
    base = JunctionParams.from_ratios(100.0, 2.0, 2.0, 0.05, 0.2, 1, 0.93)
    grid = sweep_grid(base, AxisSpec("ej_over_ec", 100.0, 400.0, 2),
                      AxisSpec("bias", 0.85, 0.9, 2))
    assert grid.valid.all()
    for j, bias in enumerate((0.85, 0.9)):
        cell = base.replace(ej1=400.0 * 2.0 / 3.0, ej2=400.0 / 3.0, bias=bias)
        assert grid.values[1, j] == pytest.approx(enhancement_ratio_ln(cell), rel=1e-12)
    assert grid.values[1, 0] != pytest.approx(grid.values[1, 1], rel=1e-3)
    cell = base.replace(ej1=400.0 * 2.0 / 3.0, ej2=400.0 / 3.0, bias=0.9)
    for wrong in (cell.replace(ej1=200.0, ej2=200.0), cell.replace(ein=4.0 * base.ein)):
        assert enhancement_ratio_ln(wrong) != pytest.approx(grid.values[1, 1], rel=1e-3)


def test_sweep_flags_non_positive_omega_ratio():
    grid = sweep_grid(REF_POINT, AxisSpec("bias", 0.9, 0.95, 2),
                      AxisSpec("omega_ratio", -1.0, 1.0, 3))
    assert not grid.valid[:, :2].any()
    assert np.isnan(grid.values[:, :2]).all()
    assert grid.valid[:, 2].all()
    assert grid.values[1, 2] == pytest.approx(
        enhancement_ratio_ln(ref_point_at(0.95, 1.0)), rel=1e-12)


def test_sweep_past_tilt_at_fixed_bias_and_eps_stays_real():
    # neither axis moves bias or eps, so (1-eps)^2 - bias^2 < 0 is one number
    # for the whole grid; its fourth root must not turn the grid complex
    grid = sweep_grid(REF_POINT, AxisSpec("alpha", 0.05, 0.2, 3),
                      AxisSpec("ej_over_ec", 50.0, 150.0, 3), eps_override=0.1)
    assert grid.values.dtype == np.float64
    assert not grid.valid.any() and np.isnan(grid.values).all()
    below = sweep_grid(REF_POINT, AxisSpec("alpha", 0.05, 0.2, 3),
                       AxisSpec("ej_over_ec", 50.0, 150.0, 3), eps_override=0.02)
    assert below.valid.all()
    assert below.values[1, 1] == enhancement_ratio_ln(
        REF_POINT.replace(alpha1=0.125, alpha2=0.125), eps_override=0.02)


def _reference_cell(base, assignments):
    """One sweep cell built as explicit JunctionParams, omega_ratio last."""
    p = base
    for name, value in sorted(assignments, key=lambda kv: kv[0] == "omega_ratio"):
        if name == "bias":
            p = p.replace(bias=value)
        elif name == "alpha":
            p = p.replace(alpha1=value, alpha2=value)
        elif name == "ej_over_ec":
            ej_sum = p.ej1 + p.ej2
            p = p.replace(ej1=value * (p.ej1 / ej_sum), ej2=value * (p.ej2 / ej_sum))
        else:
            if not value > 0.0:
                raise InvalidParameterError(f"omega_ratio must be positive, got {value}")
            p = p.replace(ein=(p.ej1 + p.ej2) / ((p.alpha1 + p.alpha2) * value * value))
    return p


# Every range crosses into invalid cells: alpha <= 0, bias <= 0 and
# bias >= 1 - eps, omega_ratio through 0, ej_over_ec <= 0.
REFERENCE_AXES = (AxisSpec("bias", -0.1, 0.995, 12), AxisSpec("omega_ratio", -1.0, 5.0, 13),
                  AxisSpec("ej_over_ec", -50.0, 400.0, 10), AxisSpec("alpha", -0.05, 0.3, 8))


@pytest.mark.parametrize("axis1,axis2", list(itertools.combinations(REFERENCE_AXES, 2)),
                         ids=lambda a: a.name)
def test_sweep_matches_per_cell_reference_loop(axis1, axis2):
    base = JunctionParams.from_ratios(100.0, 2.0, 2.0, 0.08, 0.15, 1, 0.93)
    for eps_override in (None, 0.0, 0.02, -0.1, 1.5):
        grid = sweep_grid(base, axis1, axis2, eps_override=eps_override)
        valid = np.zeros_like(grid.valid)
        for i, v1 in enumerate(axis1.values()):
            for j, v2 in enumerate(axis2.values()):
                try:
                    cell = _reference_cell(base, ((axis1.name, float(v1)),
                                                  (axis2.name, float(v2))))
                    expected = enhancement_ratio_ln(cell, eps_override)
                    bare = escape_rate_ln(cell, 0.0)
                except (InvalidParameterError, NoBarrierError):
                    continue
                valid[i, j] = True
                tol = 1e-12 * (abs(bare.ln_prefactor) + abs(bare.exponent_b))
                assert abs(grid.values[i, j] - expected) <= tol, (i, j, eps_override)
        assert np.array_equal(grid.valid, valid), eps_override
        assert np.isnan(grid.values[~valid]).all()
        if eps_override is None:
            assert valid.any() and not valid.all()
        if eps_override in (-0.1, 1.5):
            assert not valid.any()


def test_sweep_deterministic():
    a1 = AxisSpec("bias", 0.90, 0.97, 6)
    a2 = AxisSpec("omega_ratio", 0.5, 4.0, 6)
    g1 = sweep_grid(REF_POINT, a1, a2)
    g2 = sweep_grid(REF_POINT, a1, a2)
    assert np.array_equal(g1.values, g2.values, equal_nan=True)
    assert np.array_equal(g1.valid, g2.valid)
