"""Classical dynamics of the coupled phases: integration, equilibria, modes.

The equations of motion follow from the junction Lagrangian with kinetic
energy T = theta_dot^2/(4 Lambda) + psi_dot^2/(4 (alpha1+alpha2)) and the
exact potential of :mod:`heterojj.model`:

    theta_ddot = Lambda * (2 ej_tilt bias - w_P1^2 sin(theta1) - w_P2^2 sin(theta2))
    psi_ddot   = -kappa w_JL^2 sin(psi) - alpha1 w_P1^2 sin(theta1)
                                        + alpha2 w_P2^2 sin(theta2)

The bias drives only theta; psi has no source term, so the junction voltage
is carried entirely by the center-of-mass phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _EXPORTS, _kernels, model
from .errors import NoEquilibriumError
from .model import JunctionParams, PhaseState

__all__ = list(_EXPORTS["dynamics"])

SWITCH_WINDOW = 2.0 * math.pi
# equilibrium's gradient-norm goal and Newton iteration budget
EQUILIBRIUM_TOL = 1e-12
EQUILIBRIUM_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled trajectory with its parameter snapshot.

    Rows are spaced by ``dt * stride``; ``energy`` holds kinetic plus
    potential energy per sample.  Arrays are not copied; treat them as
    read-only.
    """

    tau: np.ndarray
    theta: np.ndarray
    psi: np.ndarray
    theta_dot: np.ndarray
    psi_dot: np.ndarray
    energy: np.ndarray
    params: JunctionParams
    dt: float
    stride: int = 1

    def __len__(self) -> int:
        return self.tau.size

    def state(self, i: int) -> PhaseState:
        """The i-th sample as a :class:`PhaseState`."""
        return PhaseState(self.theta[i], self.psi[i], self.theta_dot[i], self.psi_dot[i],
                          self.tau[i])

    def energy_drift(self) -> float:
        """Largest |energy - energy[0]| over the samples, relative to
        |energy[0]| (absolute when the initial energy is 0)."""
        drift = float(np.max(np.abs(self.energy - self.energy[0])))
        return drift / (abs(self.energy[0]) or 1.0)


def _inverse_mass(params: JunctionParams) -> Tuple[float, float]:
    """Diagonal inverse mass matrix (2 Lambda, 2 (alpha1+alpha2)) of (theta, psi)."""
    # theta's mass 1/(2 Lambda) differs from the escape chain's m_cm = 1/2
    return 2.0 * model.lambda_cap(params), 2.0 * model.channel_weights(params)[0]


def acceleration(state: PhaseState, params: JunctionParams) -> Tuple[float, float]:
    """Angular accelerations (theta_ddot, psi_ddot) at a state.

    Computed from the analytic potential gradient and the diagonal mass
    matrix, which is algebraically identical to the explicit sine form used
    inside the integration kernel.
    """
    dv_dtheta, dv_dpsi = model.potential_gradient(state.theta, state.psi, params)
    inv_theta, inv_psi = _inverse_mass(params)
    return -inv_theta * dv_dtheta, -inv_psi * dv_dpsi


def integrate(initial: PhaseState, dt: float, n_steps: int,
              params: JunctionParams, stride: int = 1) -> Trajectory:
    """Fixed-step 4th-order integration of the coupled phase equations.

    Runs the kernel :func:`heterojj._kernels.rk4_step_loop` as
    :func:`heterojj._kernels.rk4_setup` sets it up, as ``simulate`` does.

    Parameters
    ----------
    initial : PhaseState
        Starting state; its ``tau`` offsets the output time axis.
    dt : float
        Time step (units hbar/E_C).  Plasma periods are O(1) in reduced
        units, so dt = 1e-3 resolves them comfortably.
    n_steps : int
        Number of steps to take.
    stride : int
        Store every ``stride``-th step (the initial state is always stored).

    Raises
    ------
    InvalidParameterError
        If ``dt`` is not a finite positive number (a bool is not one),
        ``n_steps`` or ``stride`` is not an integer or is below 1,
        ``stride`` is too large for ``dt * stride`` to be a float, the
        output buffer for ``n_steps // stride + 1`` rows cannot be allocated,
        or ``n_steps`` is above ``heterojj._kernels.MAX_STEPS``.
    NonFiniteStateError
        If any step produces a non-finite state or meets an infinite phase
        inside a stage (reports the step index).
    """
    args = _kernels.rk4_setup(initial, dt, n_steps, stride, params)
    _kernels.rk4_step_loop(*args)
    return _trajectory(initial.tau, dt, stride, params, args[-1])


def _trajectory(tau0: float, dt: float, stride: int, params: JunctionParams, out) -> Trajectory:
    """The :class:`Trajectory` of the rows a clean kernel run wrote into
    ``out``; a run that went non-finite raised in the kernel instead."""
    theta, psi, theta_dot, psi_dot = np.frombuffer(out).reshape(-1, 4).T
    inv_theta, inv_psi = _inverse_mass(params)
    # every stored state is finite, but its time or energy may still overflow
    with np.errstate(over="ignore", invalid="ignore"):
        tau = tau0 + dt * stride * np.arange(theta.size)
        kinetic = theta_dot ** 2 / (2.0 * inv_theta) + psi_dot ** 2 / (2.0 * inv_psi)
        energy = kinetic + model.potential(theta, psi, params)
    return Trajectory(tau=tau, theta=theta, psi=psi, theta_dot=theta_dot,
                      psi_dot=psi_dot, energy=energy, params=params,
                      dt=dt, stride=stride)


def equilibrium(params: JunctionParams) -> Tuple[float, float]:
    """Static minimum (theta*, psi*) of the exact potential.

    Safeguarded Newton iteration on the analytic gradient starting from
    (asin(min(bias, 1)), 0): indefinite Hessians are shifted positive
    definite for the step and the step length is backtracked until the
    potential decreases, so strongly asymmetric junctions cannot trap the
    iteration in a cycle.  Near the solution this is plain Newton and the
    gradient norm is polished below ``EQUILIBRIUM_TOL`` (widened to the
    rounding floor of the energy scale, which only matters above
    E_J ~ 10^3 E_C) within ``EQUILIBRIUM_MAX_ITER`` iterations.  A
    stationary point that is not a minimum is left downhill along its
    negative-curvature direction, so the iteration ends only at a minimum.

    Raises :class:`NoEquilibriumError` when the iteration runs off the
    washboard, stalls, or does not converge - the signatures of a bias at
    or above the classical critical tilt.
    """
    energy_scale = params.ej1 + params.ej2 + params.ein
    floor = 8.0 * np.finfo(float).eps * energy_scale * max(1.0, params.bias)
    goal = max(EQUILIBRIUM_TOL, floor)
    theta_start = math.asin(min(params.bias, 1.0))
    x = np.array([theta_start, 0.0])
    value = float(model.potential(x[0], x[1], params))
    for _ in range(EQUILIBRIUM_MAX_ITER):
        grad = np.array(model.potential_gradient(x[0], x[1], params))
        hess = model.potential_hessian(x[0], x[1], params)
        lam_min = float(np.linalg.eigvalsh(hess)[0])
        if np.linalg.norm(grad) < goal:
            if lam_min > 0.0:
                break
            # a saddle, such as the start at zero bias for kappa = -1: leave it
            # downhill along the direction of negative curvature
            grad = goal * np.linalg.eigh(hess)[1][:, 0]
        if lam_min <= 0.0:
            hess = hess + (abs(lam_min) + 1e-9 * energy_scale) * np.eye(2)
        step = np.linalg.solve(hess, -grad)
        # The tilt makes V unbounded below in +theta, so an uncapped step from
        # a near-flat Hessian could leap down the washboard and still pass the
        # decrease test; one period per iteration keeps the descent local.
        step_norm = float(np.linalg.norm(step))
        if step_norm > math.pi:
            step = step * (math.pi / step_norm)
        slope = float(grad @ step)
        scale = 1.0
        # A predicted decrease below the rounding resolution of V means the
        # quadratic basin: polish with full Newton steps.
        if abs(slope) > 1e-12 * max(abs(value), 1.0):
            while scale > 1e-12:
                trial = x + scale * step
                trial_value = float(model.potential(trial[0], trial[1], params))
                if trial_value <= value + 1e-4 * scale * slope:
                    break
                scale *= 0.5
            else:
                raise NoEquilibriumError(
                    f"descent stalled at bias={params.bias} before reaching "
                    f"gradient norm {goal}")
        x = x + scale * step
        value = float(model.potential(x[0], x[1], params))
        # theta running away means the tilt has no local minimum left; psi may
        # legitimately travel far (its landscape has wavelength ~2 pi/alpha_i).
        if not np.all(np.isfinite(x)) or abs(x[0] - theta_start) > 6.0 * math.pi:
            raise NoEquilibriumError(
                f"iteration ran down the washboard at bias={params.bias} "
                "(no static solution below the critical tilt)")
    else:
        raise NoEquilibriumError(
            f"Newton iteration did not reach gradient norm {goal} at bias={params.bias}")
    return float(x[0]), float(x[1])


def small_oscillation_frequencies(params: JunctionParams) -> Tuple[float, float]:
    """Normal-mode angular frequencies about the equilibrium, ascending.

    Solves the generalized eigenproblem H v = w^2 M v with H the potential
    Hessian and the diagonal M = diag(1/(2 Lambda), 1/(2 (alpha1+alpha2))),
    as the symmetric eigenproblem of D H D with D = M^(-1/2).  For a
    symmetric junction at zero bias the modes decouple into a pure
    center-of-mass (plasma) mode and a pure relative-phase (Leggett) mode.
    """
    theta_star, psi_star = equilibrium(params)
    hess = model.potential_hessian(theta_star, psi_star, params)
    d = np.sqrt(_inverse_mass(params))
    w2 = np.linalg.eigvalsh(hess * np.outer(d, d))
    if w2[0] <= 0.0:
        raise NoEquilibriumError("equilibrium is not stable (negative mode)")
    return float(math.sqrt(w2[0])), float(math.sqrt(w2[1]))


def reduced_voltage(state: PhaseState, params: JunctionParams) -> float:
    """Reduced junction voltage 2 e v / hbar = theta_dot / Lambda.

    Only the center-of-mass phase couples to the voltage; relative-phase
    motion contributes nothing.  A :class:`Trajectory` as ``state`` gives
    the voltage of every sample as an array.
    """
    return state.theta_dot / model.lambda_cap(params)


def detect_switching(trajectory: Trajectory) -> Optional[float]:
    """Earliest tau at which theta is more than ``SWITCH_WINDOW`` (one
    washboard period) from its starting value, in either direction, or None
    if the phase stays trapped."""
    advance = np.abs(trajectory.theta - trajectory.theta[0])
    hits = np.nonzero(advance > SWITCH_WINDOW)[0]
    if hits.size == 0:
        return None
    return float(trajectory.tau[hits[0]])
