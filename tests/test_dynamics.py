import math

import numpy as np
import pytest

from heterojj import (InvalidParameterError, JunctionParams, NoEquilibriumError,
                      NonFiniteStateError, PhaseState, acceleration, derive,
                      detect_switching, equilibrium, integrate, potential,
                      potential_gradient, potential_hessian, reduced_voltage,
                      small_oscillation_frequencies)
from heterojj import _kernels, dynamics
from helpers import dominant_angular_frequency, random_params

SYMMETRIC = JunctionParams(ej1=50.0, ej2=50.0, ein=125.0, alpha1=0.1, alpha2=0.1)


# --------------------------------------------------------------- acceleration

def test_acceleration_at_rest_no_bias():
    assert acceleration(PhaseState(0.0, 0.0, 0.0, 0.0), SYMMETRIC) == (0.0, 0.0)


def test_acceleration_at_origin_with_bias():
    p = SYMMETRIC.replace(bias=0.5)
    scales = derive(p)
    tdd, pdd = acceleration(PhaseState(0.0, 0.0, 0.0, 0.0), p)
    assert tdd == pytest.approx(scales.lambda_cap * scales.omega_p ** 2 * 0.5, rel=1e-14)
    assert pdd == 0.0


def test_acceleration_matches_channel_frequency_form():
    # Independent re-derivation: Lambda*(2 ej_tilt b - w1^2 sin t1 - w2^2 sin t2)
    # and -kappa w_JL^2 sin psi - a1 w1^2 sin t1 + a2 w2^2 sin t2.
    rng = np.random.default_rng(99)
    for _ in range(25):
        p = random_params(rng, bias_range=(0.0, 0.9), kappa_choices=(1, -1))
        s = derive(p)
        theta = float(rng.uniform(-3, 3))
        psi = float(rng.uniform(-3, 3))
        state = PhaseState(theta, psi, 0.0, 0.0)
        asum = p.alpha1 + p.alpha2
        t1 = theta + (p.alpha1 / asum) * psi
        t2 = theta - (p.alpha2 / asum) * psi
        expected_tdd = s.lambda_cap * (2.0 * s.ej_tilt * p.bias
                                       - s.omega_p1 ** 2 * math.sin(t1)
                                       - s.omega_p2 ** 2 * math.sin(t2))
        expected_pdd = (-p.kappa * s.omega_jl ** 2 * math.sin(psi)
                        - p.alpha1 * s.omega_p1 ** 2 * math.sin(t1)
                        + p.alpha2 * s.omega_p2 ** 2 * math.sin(t2))
        tdd, pdd = acceleration(state, p)
        assert tdd == pytest.approx(expected_tdd, rel=1e-12, abs=1e-10)
        assert pdd == pytest.approx(expected_pdd, rel=1e-12, abs=1e-10)


# ----------------------------------------------------------------- integrate

def test_integrate_argument_validation():
    state = PhaseState(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(InvalidParameterError):
        integrate(state, 0.0, 10, SYMMETRIC)
    with pytest.raises(InvalidParameterError):
        integrate(state, 1e-3, 0, SYMMETRIC)
    with pytest.raises(InvalidParameterError):
        integrate(state, 1e-3, 10, SYMMETRIC, stride=0)
    # a count is an integer, numpy's included; a float or a bool is refused
    # by name
    for n_steps, stride, name in ((100.0, 1, "n_steps"), (10, 2.5, "stride"),
                                  (True, 1, "n_steps"), (10, np.True_, "stride")):
        with pytest.raises(InvalidParameterError, match=f"^{name} must be an integer"):
            integrate(state, 1e-3, n_steps, SYMMETRIC, stride=stride)
    assert integrate(state, 1e-3, np.int64(10), SYMMETRIC, stride=np.int32(5)).tau.size == 3
    # numpy refuses a 2**60-row output buffer before allocating any of it
    with pytest.raises(InvalidParameterError, match=r"n_steps=\d+ at stride=1 "):
        integrate(state, 1e-3, 2**60, SYMMETRIC)


def test_phase_state_rejects_non_finite():
    with pytest.raises(InvalidParameterError):
        PhaseState(math.inf, 0.0, 0.0, 0.0)


def test_energy_conservation_small_oscillation():
    traj = integrate(PhaseState(0.1, 0.0, 0.0, 0.0), 1e-3, 10000, SYMMETRIC)
    drift = np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0])
    assert drift < 1e-8


def test_symmetric_subspace_stays_on_axis():
    traj = integrate(PhaseState(0.3, 0.0, 0.0, 0.0), 1e-3, 20000, SYMMETRIC)
    assert np.max(np.abs(traj.psi)) < 1e-10
    assert np.max(np.abs(traj.psi_dot)) < 1e-10


def test_trajectory_sampling_uniform_and_increasing():
    traj = integrate(PhaseState(0.05, 0.02, 0.0, 0.0), 1e-3, 1000, SYMMETRIC, stride=7)
    steps = np.diff(traj.tau)
    assert np.all(steps > 0)
    assert np.max(np.abs(steps - 7e-3)) < 1e-12
    assert len(traj) == 1000 // 7 + 1


def test_stride_thins_the_same_run():
    # 1003 steps leave an unstored tail; a stride past n_steps stores the start only
    start = PhaseState(0.05, 0.02, 0.3, -0.2)
    for n_steps, strides in ((1000, (10,)), (1003, (7, 10, 2000))):
        full = integrate(start, 1e-3, n_steps, SYMMETRIC)
        for stride in strides:
            thin = integrate(start, 1e-3, n_steps, SYMMETRIC, stride=stride)
            assert len(thin) == n_steps // stride + 1
            for name in ("theta", "psi", "theta_dot", "psi_dot"):
                assert np.array_equal(getattr(thin, name), getattr(full, name)[::stride])


def test_trajectory_state_accessor():
    traj = integrate(PhaseState(0.05, 0.0, 0.0, 0.0), 1e-3, 100, SYMMETRIC)
    state = traj.state(3)
    assert state.tau == pytest.approx(3e-3, rel=1e-12)
    assert state.theta == traj.theta[3]


def test_non_finite_abort_reports_step():
    # Kernel coefficients overflow (2*ej1 -> inf), so step 1 is non-finite.
    p = JunctionParams(ej1=1e308, ej2=1e308, ein=1.0)
    with pytest.raises(NonFiniteStateError) as info:
        integrate(PhaseState(0.1, 0.0, 0.0, 0.0), 1e-3, 100, p)
    assert info.value.step == 1


def _kernel_bad_step(tilt_force, n_steps, stride):
    out = np.empty((n_steps // stride + 1, 4))
    with pytest.raises(NonFiniteStateError) as info:
        _kernels.rk4_step_loop(0.0, 0.0, 0.0, 0.0, 1.0, n_steps, stride,
                               1.0, 1.0, 1.0, tilt_force, 1.0, 0.5, 0.5, 1.0, 1.0, out)
    return info.value.step


# theta_dot grows by ~tilt_force per step until it overflows: at 1e307 a
# step ends non-finite, at 1e306 a stage first meets sin(inf)
@pytest.mark.parametrize("tilt_force", [1e307, 1e306])
def test_kernel_overflow_step_does_not_depend_on_stride(tilt_force):
    bad = _kernel_bad_step(tilt_force, 40, 1)
    assert 1 < bad < 40
    assert _kernel_bad_step(tilt_force, 40, 3) == bad
    # the last stored row is step bad - 1; bad falls in the unstored tail
    assert _kernel_bad_step(tilt_force, bad + 1, bad - 1) == bad


# the stage sums overflow, so one velocity ends step 1 infinite while both
# phases, which move by about dt^2 times the accelerations, stay finite
@pytest.mark.parametrize("tilt_force,c1", [(1.7e308, 1.0), (0.0, 1.7e308)])
def test_kernel_stops_on_a_velocity_alone(tilt_force, c1):
    out = np.empty((11, 4))
    with pytest.raises(NonFiniteStateError) as info:
        _kernels.rk4_step_loop(1.0, 0.0, 0.0, 0.0, 1e-3, 10, 1, 1.0, 1.0, 1.0,
                               tilt_force, 1.0, 0.5, 0.5, c1, 1.0, out)
    assert info.value.step == 1


def test_fourth_order_convergence():
    p = SYMMETRIC.replace(bias=0.3)
    state = PhaseState(0.4, 0.1, 0.0, 0.0)

    def end_state(dt, n):
        t = integrate(state, dt, n, p)
        return np.array([t.theta[-1], t.psi[-1], t.theta_dot[-1], t.psi_dot[-1]])

    reference = end_state(1.25e-4, 16000)
    errors = [float(np.linalg.norm(end_state(dt, n) - reference))
              for dt, n in ((4e-3, 500), (2e-3, 1000), (1e-3, 2000))]
    for coarse, fine in zip(errors, errors[1:]):
        order = math.log2(coarse / fine)
        assert 3.5 < order < 4.5


def test_backend_name_says_what_runs():
    # the kernel is plain Python; it uses no numpy
    assert _kernels.active_backend() == "python"


# ------------------------------------------------------------------ equilibria

def test_equilibrium_zero_bias():
    theta, psi = equilibrium(SYMMETRIC)
    assert theta == 0.0
    assert psi == 0.0


def test_equilibrium_symmetric_half_bias():
    theta, psi = equilibrium(SYMMETRIC.replace(bias=0.5))
    assert theta == pytest.approx(math.asin(0.5), rel=1e-12)
    assert psi == pytest.approx(0.0, abs=1e-13)


def test_equilibrium_asymmetric_residual():
    p = JunctionParams(ej1=70.0, ej2=30.0, ein=80.0, alpha1=0.15, alpha2=0.07,
                       kappa=1, bias=0.6)
    theta, psi = equilibrium(p)
    residual = np.linalg.norm(potential_gradient(theta, psi, p))
    assert residual < 1e-12
    assert psi != 0.0  # asymmetry pulls the relative phase off the axis


def test_equilibrium_above_critical_tilt():
    with pytest.raises(NoEquilibriumError):
        equilibrium(SYMMETRIC.replace(bias=1.2))


def test_equilibrium_leaves_the_zero_bias_saddle():
    # at zero bias the start (0, 0) is stationary, and for this kappa = -1
    # junction it is a saddle; the minimum is the one a tiny bias reaches, up
    # to the zero-bias symmetry (theta, psi) -> (-theta, -psi)
    p = JunctionParams.from_ratios(100, 2, 1.5, 0.05, 0.2, -1, 0.0)
    theta, psi = equilibrium(p)
    assert np.linalg.norm(potential_gradient(theta, psi, p)) < 1e-12
    assert np.linalg.eigvalsh(potential_hessian(theta, psi, p))[0] > 0.0
    near_theta, near_psi = equilibrium(p.replace(bias=1e-9))
    assert (abs(theta), abs(psi)) == pytest.approx((abs(near_theta), abs(near_psi)), abs=1e-8)
    assert theta * psi < 0.0
    # 2 ej_tilt bias = 120 is above the largest restoring force, ej1 + ej2 = 100
    with pytest.raises(NoEquilibriumError):
        equilibrium(p.replace(bias=3.0))


@pytest.mark.parametrize("bias", [0.0, 0.9])
def test_equilibrium_leaves_the_saddles_of_the_symmetric_axis(bias):
    # at j = 1 and kappa = -1 the tilt ej_tilt vanishes and symmetry keeps the
    # iteration on psi = 0, where V = -100 cos(theta) cos(psi/2) + 125 cos(psi)
    # has only saddles; its minimum is at cos(theta) cos(psi/2) = 0.2
    p = JunctionParams.from_ratios(100, 2, 1, 0.1, 0.1, -1, bias)
    theta, psi = equilibrium(p)
    assert np.linalg.norm(potential_gradient(theta, psi, p)) < 1e-12
    assert np.linalg.eigvalsh(potential_hessian(theta, psi, p))[0] > 0.0
    assert potential(theta, psi, p) == pytest.approx(-135.0, rel=1e-12)
    assert math.cos(theta) * math.cos(psi / 2) == pytest.approx(0.2, rel=1e-12)


def test_equilibrium_backtracks_to_the_minimum():
    # the first Newton steps here overshoot and are halved twice; full steps
    # run down the washboard
    p = JunctionParams.from_ratios(100, 2, 1.5, 0.05, 0.2, -1, 0.9)
    theta, psi = equilibrium(p)
    assert theta == pytest.approx(0.742537320445144, rel=1e-12)
    assert psi == pytest.approx(2.6958774440125413, rel=1e-12)
    assert np.linalg.norm(potential_gradient(theta, psi, p)) < 1e-12
    assert np.linalg.eigvalsh(potential_hessian(theta, psi, p)) == pytest.approx(
        [23.31, 94.94], abs=0.01)


def test_equilibrium_refuses_past_its_iteration_budget(monkeypatch):
    # this junction needs more than one Newton step to reach its minimum
    p = JunctionParams.from_ratios(100, 2, 3.0, 0.05, 0.2, 1, 0.5)
    equilibrium(p)
    monkeypatch.setattr(dynamics, "EQUILIBRIUM_MAX_ITER", 1)
    with pytest.raises(NoEquilibriumError, match="did not reach gradient norm"):
        equilibrium(p)


# ------------------------------------------------------------- normal modes

def test_mode_frequencies_symmetric_zero_bias():
    p = SYMMETRIC
    scales = derive(p)
    f_low, f_high = small_oscillation_frequencies(p)
    # decoupled modes: theta at sqrt(Lambda*2EJ), psi at the Leggett frequency
    # stiffened by the channel curvature 2(alpha1+alpha2)*2EJ*g_plus
    assert f_high == pytest.approx(math.sqrt(1.05 * 200.0), rel=1e-12)
    psi_sq = scales.omega_jl ** 2 + 2.0 * (p.alpha1 + p.alpha2) * 2.0 * scales.ej_sum * scales.g_plus
    assert f_low == pytest.approx(math.sqrt(psi_sq), rel=1e-12)


def test_mode_frequencies_positive_when_equilibrium_exists():
    # Strongly asymmetric junctions can lose their connected minimum below
    # bias = 1; wherever one exists, for either sign of kappa, both mode
    # frequencies must be positive.
    rng = np.random.default_rng(42)
    found = 0
    for _ in range(40):
        p = random_params(rng, bias_range=(0.0, 0.8), kappa_choices=(1, -1))
        try:
            f_low, f_high = small_oscillation_frequencies(p)
        except NoEquilibriumError:
            continue
        found += 1
        assert 0.0 < f_low <= f_high
    assert found >= 20


def test_mode_frequencies_propagate_no_equilibrium():
    with pytest.raises(NoEquilibriumError):
        small_oscillation_frequencies(SYMMETRIC.replace(bias=1.5))


def test_fft_matches_linearization():
    f_low, f_high = small_oscillation_frequencies(SYMMETRIC)
    n, dt = 2 ** 17, 1e-3
    theta_run = integrate(PhaseState(1e-3, 0.0, 0.0, 0.0), dt, n, SYMMETRIC)
    psi_run = integrate(PhaseState(0.0, 1e-3, 0.0, 0.0), dt, n, SYMMETRIC)
    measured_high = dominant_angular_frequency(theta_run.theta, dt)
    measured_low = dominant_angular_frequency(psi_run.psi, dt)
    assert abs(measured_high - f_high) / f_high < 0.01
    assert abs(measured_low - f_low) / f_low < 0.01


# ------------------------------------------------------------------- voltage

def test_reduced_voltage():
    assert reduced_voltage(PhaseState(0.3, 0.1, 0.0, 0.0), SYMMETRIC) == 0.0
    assert reduced_voltage(PhaseState(0.0, 0.0, 2.1, 0.0), SYMMETRIC) == pytest.approx(2.0, rel=1e-15)
    # relative-phase motion generates no junction voltage
    assert reduced_voltage(PhaseState(0.0, 1.0, 0.0, 5.0), SYMMETRIC) == 0.0


# ----------------------------------------------------------------- switching

def test_no_switching_for_trapped_oscillation():
    traj = integrate(PhaseState(0.1, 0.0, 0.0, 0.0), 1e-3, 20000, SYMMETRIC)
    assert detect_switching(traj) is None


def test_switching_above_critical_bias():
    p = SYMMETRIC.replace(bias=1.2)
    traj = integrate(PhaseState(0.0, 0.0, 0.0, 0.0), 1e-3, 20000, p)
    tau = detect_switching(traj)
    assert tau is not None
    assert 0.0 < tau < traj.tau[-1]


def test_switching_counts_a_backward_slip():
    # a kick against a small tilt slips theta back by more than 2 pi before
    # the tilt turns it round; the window is |theta - theta0|, not an advance
    p = SYMMETRIC.replace(bias=0.1)
    traj = integrate(PhaseState(0.0, 0.0, -40.0, 0.0), 1e-3, 1000, p)
    tau = detect_switching(traj)
    assert tau is not None
    k = int(np.nonzero(traj.tau == tau)[0][0])
    assert traj.theta[k] < -dynamics.SWITCH_WINDOW
    assert np.all(traj.theta[:k + 1] <= 0.0)


def test_switching_time_decreases_with_bias():
    taus = []
    for bias in (1.05, 1.1, 1.2, 1.4):
        p = SYMMETRIC.replace(bias=bias)
        traj = integrate(PhaseState(0.0, 0.0, 0.0, 0.0), 1e-3, 40000, p)
        tau = detect_switching(traj)
        assert tau is not None
        taus.append(tau)
    assert all(a > b for a, b in zip(taus, taus[1:]))
