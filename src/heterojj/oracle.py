"""Independent numerical verifiers for the closed-form escape chain.

Three cross-checks that deliberately avoid the closed forms they test:

* a finite-difference eigensolver for the relative-phase harmonic well
  (level ladder and ground-state variance),
* an adaptive-quadrature bounce action for the instanton exponent,
* a cubic Taylor fit of the renormalized washboard bridging the exact
  potential and the cubic-barrier formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import escape
from .errors import ConvergenceError, InvalidParameterError, NoBarrierError
from .model import JunctionParams, derive

__all__ = [
    "SpectrumResult",
    "BounceResult",
    "CubicFit",
    "harmonic_spectrum",
    "bounce_action",
    "cubic_fit",
]

MIN_GRID_POINTS = 1000
MIN_HALFWIDTH_SIGMAS = 8.0
DEFAULT_HALFWIDTH_SIGMAS = 10.0
RESOLUTION_SHIFT_LIMIT = 1e-3
TURNING_SCAN_POINTS = 4096


@dataclass(frozen=True)
class SpectrumResult:
    """Low-lying spectrum of the quantized relative-phase well.

    ``resolution_shift`` is the largest relative change of any level spacing
    when the grid is refined from N to 2N points (the self-check that guards
    the discretization).
    """

    eigenvalues: np.ndarray
    ground_psi_variance: float
    half_width: float
    n_points: int
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

    def profile(self) -> Callable[[float], float]:
        """The fitted cubic as a plain callable with minimum value 0."""
        a, c, t0 = self.quad_coeff, self.cubic_coeff, self.theta_min

        def cubic(theta: float) -> float:
            x = theta - t0
            return 0.5 * a * x * x + c * x * x * x / 6.0

        return cubic


def _fd_levels(mass: float, spring: float, half_width: float, n_points: int,
               n_levels: int) -> Tuple[np.ndarray, float]:
    from scipy.linalg import eigh_tridiagonal

    # Central-difference Laplacian with Dirichlet ends on [-L, L]:
    # H = -(1/2m) d^2/dpsi^2 + (1/2) spring psi^2 over n interior points.
    h = 2.0 * half_width / (n_points + 1)
    x = -half_width + h * np.arange(1, n_points + 1)
    diag = 1.0 / (mass * h * h) + 0.5 * spring * x * x
    off = np.full(n_points - 1, -0.5 / (mass * h * h))
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, n_levels - 1))
    ground = v[:, 0]
    variance = float(np.sum(x * x * ground * ground) / np.sum(ground * ground))
    return w, variance


def harmonic_spectrum(params: JunctionParams, half_width: float | None = None,
                      n_points: int = 2000, n_levels: int = 7) -> SpectrumResult:
    """Finite-difference spectrum of the relative-phase harmonic well.

    Quantizes H = -(1/(2 m_rlt)) d^2/dpsi^2 + (1/2) E_in psi^2 on a Dirichlet
    interval [-L, L].  The levels form the Leggett-mode ladder: spacing
    omega_JL, ground energy omega_JL/2, ground variance
    (alpha1+alpha2)/omega_JL.

    Parameters
    ----------
    half_width : float, optional
        Interval half-width L.  Defaults to 10 ground-state standard
        deviations, which keeps Dirichlet leakage below 1e-12; at least 8
        are required.
    n_points : int
        Interior grid points (>= 1000).
    n_levels : int
        Number of eigenvalues to return (>= 2).

    Raises
    ------
    ConvergenceError
        If any level spacing changes by more than 0.1% when the grid is
        refined from N to 2N points.
    """
    sigma = math.sqrt(escape.zero_point_variance(params))
    if half_width is None:
        half_width = DEFAULT_HALFWIDTH_SIGMAS * sigma
    if half_width < MIN_HALFWIDTH_SIGMAS * sigma:
        raise InvalidParameterError(
            f"half_width={half_width:.6g} is below {MIN_HALFWIDTH_SIGMAS} "
            f"ground-state sigmas ({MIN_HALFWIDTH_SIGMAS * sigma:.6g}); the hard "
            "wall would distort the ladder")
    if n_points < MIN_GRID_POINTS:
        raise InvalidParameterError(
            f"n_points={n_points} is too coarse; need at least {MIN_GRID_POINTS}")
    if n_levels < 2:
        raise InvalidParameterError(f"n_levels must be >= 2, got {n_levels}")
    mass = derive(params).m_rlt
    levels, variance = _fd_levels(mass, params.ein, half_width, n_points, n_levels)
    levels_fine, _ = _fd_levels(mass, params.ein, half_width, 2 * n_points, n_levels)
    gaps = np.diff(levels)
    shift = float(np.max(np.abs(np.diff(levels_fine) - gaps) / gaps))
    if shift > RESOLUTION_SHIFT_LIMIT:
        raise ConvergenceError(
            f"level spacings shift by {shift:.3e} (> {RESOLUTION_SHIFT_LIMIT:.0e}) "
            f"when refining {n_points} -> {2 * n_points} points; increase n_points "
            "or reduce half_width")
    return SpectrumResult(eigenvalues=levels, ground_psi_variance=variance,
                          half_width=half_width, n_points=n_points,
                          resolution_shift=shift)


def bounce_action(potential_profile: Callable[[float], float], mass: float,
                  theta_min: float, tol: float = 1e-10,
                  search_width: float = 2.0 * math.pi) -> BounceResult:
    """Zero-temperature bounce action of a one-dimensional metastable well.

    Evaluates B = 2 * integral of sqrt(2 m [V(theta) - V(theta_min)]) from
    the well minimum to the outer turning point.  The integrand has a
    square-root zero at the turning point; substituting
    theta = theta_b - s^2 there makes it smooth, restoring fast quadrature
    convergence.

    Parameters
    ----------
    potential_profile : callable
        Potential V(theta); must have a local minimum at ``theta_min`` and a
        finite barrier within ``search_width`` beyond it.  Barriers narrower
        than about search_width/4000 would evade the turning-point scan.
    mass : float
        Inertia of the coordinate (B scales as sqrt(mass)).
    tol : float
        Absolute and relative quadrature tolerance.

    Raises
    ------
    NoBarrierError
        If no barrier rises above the minimum, or the potential never
        returns to the minimum level within one washboard period.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    if not (mass > 0 and math.isfinite(mass)):
        raise InvalidParameterError(f"mass must be positive, got {mass!r}")
    if not (tol > 0):
        raise InvalidParameterError(f"tol must be positive, got {tol!r}")
    v_min = float(potential_profile(theta_min))

    def excess(theta: float) -> float:
        return float(potential_profile(theta)) - v_min

    grid = theta_min + np.linspace(0.0, search_width, TURNING_SCAN_POINTS + 1)[1:]
    vals = np.array([excess(t) for t in grid])
    top = int(np.argmax(vals))
    if vals[top] <= 0.0:
        raise NoBarrierError("no barrier rises above the well minimum")
    crossings = np.nonzero(vals[top:] <= 0.0)[0]
    if crossings.size == 0:
        raise NoBarrierError(
            "no outer turning point within one washboard period "
            f"(searched up to theta_min + {search_width:.6g})")
    k = top + int(crossings[0])
    theta_b = brentq(excess, grid[k - 1], grid[k], xtol=1e-15, rtol=8.9e-16)

    def integrand(theta: float) -> float:
        return math.sqrt(max(2.0 * mass * excess(theta), 0.0))

    mid = theta_min + 0.5 * (theta_b - theta_min)
    part1, err1 = quad(integrand, theta_min, mid, epsabs=tol, epsrel=tol, limit=200)
    s_max = math.sqrt(theta_b - mid)
    part2, err2 = quad(lambda s: integrand(theta_b - s * s) * 2.0 * s,
                       0.0, s_max, epsabs=tol, epsrel=tol, limit=200)
    return BounceResult(action_b=2.0 * (part1 + part2), theta_a=theta_min,
                        theta_b=float(theta_b), quad_error=2.0 * (err1 + err2))


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
