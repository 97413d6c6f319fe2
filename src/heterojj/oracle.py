"""Numerical verifiers for the closed-form escape chain.

Three cross-checks that compute numerically what the closed forms state:

* a sinc-DVR eigensolver for the relative-phase harmonic well (level
  ladder and ground-state variance),
* a Gauss-Legendre bounce action for the instanton exponent,
* a cubic Taylor fit of the renormalized washboard bridging the exact
  potential and the cubic-barrier formulas.

None is independent of the chain's model: the DVR quantizes the harmonic
spring that defines omega_JL, the bounce integrates the cubic barrier the
rate formula was derived from, and the cubic fit takes theta0 from
:func:`heterojj.escape.escape_rate_ln`.  They check the algebra and the
numerics of the closed forms, not the physics those approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import _EXPORTS, escape
from .errors import ConvergenceError, InvalidParameterError, NoBarrierError
from .model import JunctionParams, derive, is_number, shown

__all__ = list(_EXPORTS["oracle"])

# The DVR grid: points, levels returned, and the box half-width in
# ground-state sigmas, which keeps the wavefunction tails below 1e-12
SPECTRUM_POINTS = 64
SPECTRUM_LEVELS = 7
SPECTRUM_HALFWIDTH_SIGMAS = 10.0
RESOLUTION_SHIFT_LIMIT = 1e-3
# The bounce quadrature's Gauss-Legendre nodes and its turning-point scan's reach
BOUNCE_NODES = 64
BOUNCE_SEARCH_WIDTH = 2.0 * math.pi
TURNING_SCAN_POINTS = 4096


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Low-lying spectrum of the quantized relative-phase well.

    ``resolution_shift`` is the largest relative change of any level spacing
    when the grid is refined from N to 2N points (the self-check that guards
    the discretization).
    """

    eigenvalues: np.ndarray
    ground_psi_variance: float
    resolution_shift: float


@dataclass(frozen=True)
class BounceResult:
    """Euclidean bounce action and the turning points that bound it."""

    action_b: float
    theta_a: float
    theta_b: float
    quad_error: float


@dataclass(frozen=True)
class CubicFit:
    """Cubic Taylor expansion of the renormalized washboard at its minimum.

    The local model is V(theta_min + x) - V(theta_min)
    = quad_coeff x^2 / 2 + cubic_coeff x^3 / 6 with quad_coeff the second
    and cubic_coeff the (negative) third derivative.
    """

    quad_coeff: float
    cubic_coeff: float
    barrier_height: float
    theta_exit: float
    theta_min: float

    def profile(self) -> Callable:
        """The fitted cubic as a plain callable with minimum value 0."""
        a, c, t0 = self.quad_coeff, self.cubic_coeff, self.theta_min

        def cubic(theta):
            x = theta - t0
            return 0.5 * a * x * x + c * x * x * x / 6.0

        return cubic


def _dvr_levels(mass: float, spring: float, half_width: float, n_points: int,
                n_levels: int) -> Tuple[np.ndarray, float]:
    # Sinc DVR (Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)) of
    # H = -(1/2m) d^2/dpsi^2 + (1/2) spring psi^2 on n points inside [-L, L]:
    # T_ij = (-1)^(i-j) / (2 m h^2) * (pi^2/3 if i = j else 2/(i-j)^2).
    h = 2.0 * half_width / (n_points + 1)
    x = -half_width + h * np.arange(1, n_points + 1)
    d = np.subtract.outer(np.arange(n_points), np.arange(n_points))
    kinetic = np.where(d == 0, math.pi ** 2 / 3.0, 2.0 / np.maximum(d * d, 1))
    hamiltonian = np.where(d % 2, -kinetic, kinetic) / (2.0 * mass * h * h)
    w, v = np.linalg.eigh(hamiltonian + np.diag(0.5 * spring * x * x))
    ground = v[:, 0]
    variance = float(np.sum(x * x * ground * ground) / np.sum(ground * ground))
    return w[:n_levels], variance


def harmonic_spectrum(params: JunctionParams) -> SpectrumResult:
    """Sinc-DVR spectrum of the relative-phase harmonic well.

    Quantizes H = -(1/(2 m_rlt)) d^2/dpsi^2 + (1/2) E_in psi^2 on
    SPECTRUM_POINTS evenly spaced points inside [-L, L], L being
    SPECTRUM_HALFWIDTH_SIGMAS ground-state standard deviations, and returns
    the lowest SPECTRUM_LEVELS levels.  They form the Leggett-mode ladder:
    spacing omega_JL, ground energy omega_JL/2, ground variance
    (alpha1+alpha2)/omega_JL.

    Raises
    ------
    InvalidParameterError
        If the box is not finite (<psi^2> overflows, for one at a tiny E_in):
        eigh would return NaN levels without raising.
    ConvergenceError
        If any level spacing changes by more than 0.1% when the grid is
        refined from N to 2N points.
    """
    half_width = SPECTRUM_HALFWIDTH_SIGMAS * math.sqrt(escape.epsilon(params).psi_variance)
    if not math.isfinite(half_width):
        raise InvalidParameterError(
            f"the DVR psi box half-width is not finite ({half_width!r}): "
            "<psi^2> overflows double precision")
    mass = derive(params).m_rlt
    levels, variance = _dvr_levels(mass, params.ein, half_width, SPECTRUM_POINTS,
                                   SPECTRUM_LEVELS)
    levels_fine, _ = _dvr_levels(mass, params.ein, half_width, 2 * SPECTRUM_POINTS,
                                 SPECTRUM_LEVELS)
    gaps = np.diff(levels)
    shift = float(np.max(np.abs(np.diff(levels_fine) - gaps) / gaps))
    if shift > RESOLUTION_SHIFT_LIMIT:
        raise ConvergenceError(
            f"level spacings shift by {shift:.3e} (> {RESOLUTION_SHIFT_LIMIT:.0e}) "
            f"when refining {SPECTRUM_POINTS} -> {2 * SPECTRUM_POINTS} points; "
            "increase SPECTRUM_POINTS or reduce SPECTRUM_HALFWIDTH_SIGMAS")
    return SpectrumResult(eigenvalues=levels, ground_psi_variance=variance,
                          resolution_shift=shift)


def bounce_action(potential_profile: Callable, mass: float,
                  theta_min: float) -> BounceResult:
    """Zero-temperature bounce action of a one-dimensional metastable well.

    Evaluates B = 2 * integral of sqrt(2 m [V(theta) - V(theta_min)]) from
    the well minimum to the outer turning point theta_b (Caldeira & Leggett,
    Ann. Phys. 149, 374 (1983)) by Gauss-Legendre quadrature on
    BOUNCE_NODES and 2 * BOUNCE_NODES nodes.  The integrand has a
    square-root zero at theta_b; substituting
    theta = theta_min + L (1 - (1 - t)^2), L = theta_b - theta_min, makes it
    smooth at both ends.  ``quad_error`` is the change from n to 2n nodes.

    Parameters
    ----------
    potential_profile : callable
        Potential V(theta), called with a float or a numpy array; must have a
        local minimum at ``theta_min`` and a finite barrier within
        ``BOUNCE_SEARCH_WIDTH`` beyond it.  Barriers narrower than about
        BOUNCE_SEARCH_WIDTH/4000 would evade the turning-point scan.
    mass : float
        Inertia of the coordinate (B scales as sqrt(mass)).

    Raises
    ------
    InvalidParameterError
        If ``mass`` is not a positive number or ``theta_min`` is not a
        number, by the rule of :func:`heterojj.model.is_number`.
    NoBarrierError
        If no barrier rises above the minimum, or the potential never
        returns to the minimum level within one washboard period.
    ConvergenceError
        If the action or its quadrature error is not finite: for one, where
        2 m [V(theta) - V(theta_min)] overflows at a huge mass.
    """
    if not (is_number(mass) and mass > 0):
        raise InvalidParameterError(f"mass must be positive, got {shown(mass)}")
    if not is_number(theta_min):
        raise InvalidParameterError(f"theta_min must be finite, got {shown(theta_min)}")
    theta_min = float(theta_min)  # what the profile is called with: a float
    v_min = float(potential_profile(theta_min))
    grid = theta_min + np.linspace(0.0, BOUNCE_SEARCH_WIDTH, TURNING_SCAN_POINTS + 1)[1:]
    vals = potential_profile(grid) - v_min
    top = int(np.argmax(vals))
    if vals[top] <= 0.0:
        raise NoBarrierError("no barrier rises above the well minimum")
    crossings = np.nonzero(vals[top:] <= 0.0)[0]
    if crossings.size == 0:
        raise NoBarrierError(
            "no outer turning point within one washboard period "
            f"(searched up to theta_min + {BOUNCE_SEARCH_WIDTH:.6g})")
    k = top + int(crossings[0])
    inner, outer = float(grid[k - 1]), float(grid[k])
    # bisect down to adjacent doubles, keeping V(inner) > v_min
    while inner < (mid := 0.5 * (inner + outer)) < outer:
        inner, outer = (mid, outer) if potential_profile(mid) > v_min else (inner, mid)
    span = inner - theta_min

    def action(n_nodes: int) -> float:
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        u = 0.5 * (1.0 - x)  # 1 - t, with t = (x + 1) / 2 on [0, 1]
        excess = potential_profile(theta_min + span * (1.0 - u * u)) - v_min
        with np.errstate(over="ignore"):  # an infinite action is refused below
            root = np.sqrt(np.maximum(2.0 * mass * excess, 0.0))
        # 2 * (1/2 of the [-1, 1] weights) * sqrt(2 m excess) * dtheta/dt
        return float(np.sum(w * root * 2.0 * span * u))

    coarse, fine = action(BOUNCE_NODES), action(2 * BOUNCE_NODES)
    if not math.isfinite(fine - coarse):  # both actions are >= 0
        raise ConvergenceError(f"bounce action {fine!r} or its quadrature error is not finite")
    return BounceResult(action_b=fine, theta_a=theta_min, theta_b=inner,
                        quad_error=abs(fine - coarse))


def cubic_fit(params: JunctionParams, eps: float) -> CubicFit:
    """Cubic expansion of the renormalized washboard at its well minimum.

    Uses the analytic second and third derivatives of the effective
    potential.  Its barrier height (2/3) quad^3 / cubic^2 reproduces the
    closed-form v0 of :func:`heterojj.escape.escape_rate_ln`, and its
    curvature equals m_cm * omega_p_i^2; both identities are exact up to
    rounding.
    """
    theta0 = escape.escape_rate_ln(params, eps).theta0
    ej_sum = derive(params).ej_sum
    quad_coeff = ej_sum * (1.0 - eps) * math.cos(theta0)
    cubic_coeff = -ej_sum * (1.0 - eps) * math.sin(theta0)
    barrier_height = (2.0 / 3.0) * quad_coeff ** 3 / (cubic_coeff * cubic_coeff)
    theta_exit = theta0 + 3.0 * quad_coeff / abs(cubic_coeff)
    return CubicFit(quad_coeff=quad_coeff, cubic_coeff=cubic_coeff,
                    barrier_height=barrier_height, theta_exit=theta_exit,
                    theta_min=theta0)
