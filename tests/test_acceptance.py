"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Timed criteria exclude
the one-time JIT warmup of the integrator kernel (a fixture compiles it
before the clock starts).
"""

import time

import numpy as np
import pytest

from heterojj import (AxisSpec, JunctionParams, NoBarrierError, PhaseState,
                      bounce_action, cubic_fit, derive, enhancement_ratio_ln,
                      epsilon, escape_rate_ln, integrate, harmonic_spectrum,
                      small_oscillation_frequencies, sweep_grid)
from heterojj.cli import main
from helpers import dominant_angular_frequency, random_params

REF_POINT = JunctionParams.from_ratios(100.0, 2.0, 1.0, 0.1, 0.1, 1, 0.95)

# Regression pins, frozen from the first computation (criterion 6).
PIN_LN_RATIO_HI = 0.2771882764586242    # bias 0.95, omega_P/omega_JL = 5
PIN_LN_RATIO_LO = 0.030307942362441942  # bias 0.95, omega_P/omega_JL = 0.5

# Criterion 6 thresholds on the corrected bounce exponent B_eps.  At fixed
# bias let u = (1 - eps)^2 - bias^2.  The cubic-instanton rate is
# ln Gamma = const + (7/8) ln u - B_eps with B_eps proportional to u^(5/4),
# so d ln(Gamma/Gamma0)/d eps has the sign of (5/4) B_eps - 7/8: the
# enhancement rises with eps (and with omega_P/omega_JL) while B_eps > 7/10,
# peaks at B_eps = 7/10, falls beyond it and only then turns negative.  The
# rate itself is semiclassical only for B >> 1 (Caldeira & Leggett,
# Ann. Phys. 149, 374 (1983)); B >= 1 is the edge of that domain.
B_SEMICLASSICAL = 1.0
B_TURNOVER = 7.0 / 10.0


def report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def warm_kernel():
    integrate(PhaseState(0.01, 0.0, 0.0, 0.0), 1e-3, 2,
              REF_POINT.replace(bias=0.0))


def test_criterion_1_epsilon_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    for _ in range(1000):
        p = random_params(rng, kappa_choices=(1, -1))
        fluct = epsilon(p)
        assert abs(fluct.epsilon - fluct.epsilon_from_ratio) \
            <= 1e-12 * abs(fluct.epsilon_from_ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, "epsilon identity, 1000 draws")


def test_criterion_2_quantization_oracle():
    start = time.perf_counter()
    scales = derive(REF_POINT)
    spec = harmonic_spectrum(REF_POINT)
    ground_reference = scales.omega_jl / 2.0
    assert abs(spec.eigenvalues[0] - ground_reference) / ground_reference < 1e-3
    analytic_variance = epsilon(REF_POINT).psi_variance
    assert abs(spec.ground_psi_variance - analytic_variance) / analytic_variance < 1e-3
    gaps = np.diff(spec.eigenvalues)[:5]
    assert np.max(np.abs(gaps - scales.omega_jl)) / scales.omega_jl < 5e-3
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, "sinc-DVR quantization oracle")


def test_criterion_3_instanton_exponent():
    start = time.perf_counter()
    for bias in np.linspace(0.90, 0.98, 5):
        for eps in np.linspace(0.0, 0.05, 5):
            p = REF_POINT.replace(bias=float(bias))
            eps = float(eps)
            if bias >= 1.0 - eps:
                with pytest.raises(NoBarrierError):
                    escape_rate_ln(p, eps)
                continue
            fit = cubic_fit(p, eps)
            rate = escape_rate_ln(p, eps)
            omega_i, v0 = rate.omega_p_i, rate.v0
            closed_form = 36.0 * v0 / (5.0 * omega_i)
            numeric = bounce_action(fit.profile(), 0.5, fit.theta_min).action_b
            assert abs(numeric - closed_form) / closed_form < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, "instanton exponent vs bounce quadrature, 5x5 grid")


def test_criterion_4_symmetric_couplings():
    for ej, alpha in ((50.0, 0.1), (200.0, 0.1), (12.5, 0.35), (3.0, 0.02)):
        scales = derive(JunctionParams(ej1=ej, ej2=ej, ein=10.0,
                                       alpha1=alpha, alpha2=alpha))
        assert scales.g_minus == 0.0
        assert scales.g_plus == 0.125
    report(4, "symmetric couplings exact")


def test_criterion_5_dynamics_conservation(warm_kernel):
    start = time.perf_counter()
    p = REF_POINT.replace(bias=0.0)

    traj = integrate(PhaseState(0.1, 0.0, 0.0, 0.0), 1e-3, 10000, p)
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-8
    assert np.max(np.abs(traj.psi)) < 1e-10

    f_low, f_high = small_oscillation_frequencies(p)
    n, dt = 2 ** 17, 1e-3
    theta_run = integrate(PhaseState(1e-3, 0.0, 0.0, 0.0), dt, n, p)
    psi_run = integrate(PhaseState(0.0, 1e-3, 0.0, 0.0), dt, n, p)
    measured_high = dominant_angular_frequency(theta_run.theta, dt)
    measured_low = dominant_angular_frequency(psi_run.psi, dt)
    assert abs(measured_high - f_high) / f_high < 0.01
    assert abs(measured_low - f_low) / f_low < 0.01

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, "energy drift, symmetric subspace, FFT vs linearization")


def test_criterion_6_enhancement_properties():
    start = time.perf_counter()
    grid = sweep_grid(REF_POINT, AxisSpec("bias", 0.90, 0.99, 50),
                      AxisSpec("omega_ratio", 0.5, 5.0, 50))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0

    # Regression pins and the factor-5 spread at bias = 0.95.
    hi = enhancement_ratio_ln(
        JunctionParams.from_ratios(100.0, 5.0, 1.0, 0.1, 0.1, 1, 0.95))
    lo = enhancement_ratio_ln(
        JunctionParams.from_ratios(100.0, 0.5, 1.0, 0.1, 0.1, 1, 0.95))
    assert hi == pytest.approx(PIN_LN_RATIO_HI, rel=1e-9)
    assert lo == pytest.approx(PIN_LN_RATIO_LO, rel=1e-9)
    assert hi >= 5.0 * lo

    biases = grid.axis1.values()
    ratios = grid.axis2.values()
    assert grid.valid.all()
    exponent = np.empty_like(grid.values)
    for i, bias in enumerate(biases):
        for j, ratio in enumerate(ratios):
            cell = JunctionParams.from_ratios(100.0, float(ratio), 1.0, 0.1,
                                              0.1, 1, float(bias))
            assert enhancement_ratio_ln(cell) == pytest.approx(
                grid.values[i, j], rel=1e-12)
            exponent[i, j] = escape_rate_ln(cell, epsilon(cell).epsilon).exponent_b

    def cell_text(i, j):
        return (f"(bias={biases[i]:.4f}, omega_ratio={ratios[j]:.4f}): "
                f"ln(Gamma/Gamma0)={grid.values[i, j]:.6g}, "
                f"B_eps={exponent[i, j]:.4f}")

    steps = np.diff(grid.values, axis=1)
    problems = []

    # (a) Where the instanton rate is semiclassical the enhancement is
    # positive and grows with omega_P/omega_JL.  The pins' row lies wholly
    # inside this domain, so the check cannot become empty.
    semiclassical = exponent >= B_SEMICLASSICAL
    assert semiclassical[int(np.argmin(np.abs(biases - 0.95)))].all()
    for i, j in zip(*np.nonzero(semiclassical & (grid.values <= 0.0))):
        problems.append("semiclassical cell not positive " + cell_text(i, j))
    both = semiclassical[:, :-1] & semiclassical[:, 1:]
    for i, j in zip(*np.nonzero(both & (steps < 0.0))):
        problems.append("semiclassical row falls into " + cell_text(i, j + 1))

    # (b) The turnover, over every cell: rising (and positive) while
    # B_eps >= 7/10, strictly falling once B_eps <= 7/10.
    rising = exponent >= B_TURNOVER
    for i, j in zip(*np.nonzero(rising & (grid.values <= 0.0))):
        problems.append("cell before the turnover not positive " + cell_text(i, j))
    for i, j in zip(*np.nonzero(rising[:, 1:] & (steps < 0.0))):
        problems.append("row falls before the turnover into " + cell_text(i, j + 1))
    for i, j in zip(*np.nonzero((exponent[:, :-1] <= B_TURNOVER) & (steps >= 0.0))):
        problems.append("row does not fall after the turnover into "
                        + cell_text(i, j + 1))

    assert not problems, (f"{len(problems)} violations; first: "
                          + "; ".join(problems[:5]))
    report(6, "enhancement grid: semiclassical domain and turnover at B = 7/10")


def test_criterion_7_barrier_consistency():
    start = time.perf_counter()
    for eps in np.linspace(0.005, 0.2, 14):
        eps = float(eps)
        if 1.0 - eps - 1e-6 <= 0.9:
            continue  # bias window [0.9, 1 - eps) is empty for eps > 0.1
        for bias in np.linspace(0.9, 1.0 - eps - 1e-6, 10):
            p = REF_POINT.replace(bias=float(bias))
            fit = cubic_fit(p, eps)
            rate = escape_rate_ln(p, eps)
            omega_i, v0 = rate.omega_p_i, rate.v0
            assert abs(fit.barrier_height - v0) / v0 < 1e-10
            bare = escape_rate_ln(p, 0.0)
            assert v0 / omega_i < bare.v0 / bare.omega_p_i
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(7, "barrier height consistency and R(eps) < R(0)")


def test_criterion_8_sweep_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref.cfg").write_text(
        "[junction]\nej_over_ec = 100\nomega_ratio = 2\nbias = 0.95\n")
    assert main(["sweep", "--config", "ref.cfg", "--out", "first"]) == 0
    assert main(["sweep", "--config", "ref.cfg", "--out", "second"]) == 0
    capsys.readouterr()
    assert (tmp_path / "first.csv").read_bytes() == (tmp_path / "second.csv").read_bytes()
    assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
    report(8, "byte-identical sweep outputs")
