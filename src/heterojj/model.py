"""Junction parameters, derived scales, and the exact two-phase potential.

The junction parameters are defined, without numpy, in :mod:`heterojj.inputs`.
The derived scales of a :class:`JunctionParams` are computed on Python
floats with :mod:`math`, and only array fields and the potential functions
import numpy.

Reduced units are used throughout the package: hbar = 1 and the charging
energy E_C = 1, so energies are in units of E_C, frequencies in E_C/hbar,
time in hbar/E_C, and phases in radians.

The junction has two tunneling channels with phases theta1, theta2.  The
dynamical coordinates are the center-of-mass phase ``theta`` (the weighted
average that couples to voltage and bias) and the relative phase ``psi``
(the out-of-phase combination that hosts the Josephson-Leggett mode).
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import _EXPORTS
from .inputs import JunctionParams, channel_weights, lambda_cap

if TYPE_CHECKING:
    import numpy as np

__all__ = list(_EXPORTS["model"])


@dataclass(frozen=True)
class DerivedScales:
    """Secondary quantities computed once from :class:`JunctionParams`.

    ``ej_sum`` (= E_J1 + E_J2) sets the plasma frequency and all escape-rate
    formulas; ``ej_tilt`` (= |E_J1 + kappa E_J2|) scales only the bias tilt of
    the exact potential.  The two coincide for kappa = +1.
    """

    lambda_cap: float
    ej_sum: float
    ej_tilt: float
    omega_p: float
    omega_p1: float
    omega_p2: float
    omega_jl: float
    m_cm: float
    m_rlt: float
    g_plus: float
    g_minus: float


# The numpy functions the closed forms call, on Python floats: a point
# evaluates without numpy, and where Python raises it gives numpy's answer
# (log 0 = -inf; x / 0 = inf of x's sign times 0's, NaN for 0 / 0), so a
# non-finite result is refused by its field as for an array.
_POINT_OPS = SimpleNamespace(
    sqrt=math.sqrt, arcsin=math.asin, nan=math.nan, where=lambda c, x, y: x if c else y,
    log=lambda x: math.log(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan,
    divide=lambda a, b: a / b if b else a * math.copysign(math.inf, b),
    errstate=lambda **_: nullcontext())


def ops(params: JunctionParams):
    """The functions a closed form evaluates ``params`` with: math on the
    Python floats of a :class:`JunctionParams`, numpy on array fields."""
    return _POINT_OPS if isinstance(params, JunctionParams) else __import__("numpy")


def derive(params: JunctionParams) -> DerivedScales:
    """Compute all derived scales for a parameter set.

    The couplings of the quadratic relative-phase expansion are

        g_plus  = (E_J1/2E_J) a1^2 + (E_J2/2E_J) a2^2,
        g_minus = (E_J1/E_J) a1 - (E_J2/E_J) a2,

    with a_i = alpha_i/(alpha1+alpha2) and E_J = E_J1 + E_J2.  For a
    symmetric junction (ej1 = ej2, alpha1 = alpha2) these evaluate exactly
    to 1/8 and 0 in IEEE arithmetic.

    ``params`` may also be any object with the same fields holding
    broadcastable numpy arrays (as :func:`heterojj.escape.sweep_grid` builds
    them); every scale is then an array.  A :class:`JunctionParams` gives
    Python floats, computed without numpy.
    """
    xp = ops(params)
    s, a1, a2, ej_tilt = channel_weights(params)
    ej_sum = params.ej1 + params.ej2
    # halved last: 2 * ej_sum would overflow for ej_sum above ~9e307
    g_plus = 0.5 * ((params.ej1 / ej_sum) * a1 * a1 + (params.ej2 / ej_sum) * a2 * a2)
    g_minus = (params.ej1 / ej_sum) * a1 - (params.ej2 / ej_sum) * a2
    return DerivedScales(
        lambda_cap=lambda_cap(params),
        ej_sum=ej_sum,
        ej_tilt=ej_tilt,
        omega_p=xp.sqrt(2.0 * ej_sum),
        omega_p1=xp.sqrt(2.0 * params.ej1),
        omega_p2=xp.sqrt(2.0 * params.ej2),
        omega_jl=xp.sqrt(2.0 * s * params.ein),
        m_cm=0.5,
        m_rlt=1.0 / (2.0 * s),
        g_plus=g_plus,
        g_minus=g_minus,
    )


def split_phases(theta, psi, params: JunctionParams):
    """Map (theta, psi) to the per-channel phases (theta1, theta2)."""
    _, a1, a2, _ = channel_weights(params)
    return theta + a1 * psi, theta - a2 * psi


def potential(theta, psi, params: JunctionParams):
    """Exact tilted two-phase potential V(theta, psi).

    V = -E_J1 cos(theta1) - E_J2 cos(theta2) - kappa E_in cos(psi)
        - ej_tilt * bias * theta

    Accepts scalars or numpy arrays (broadcasting).  Angles are never
    wrapped; theta may grow without bound.
    """
    import numpy as np
    theta1, theta2 = split_phases(theta, psi, params)
    ej_tilt = channel_weights(params)[3]
    return (-params.ej1 * np.cos(theta1)
            - params.ej2 * np.cos(theta2)
            - params.kappa * params.ein * np.cos(psi)
            - ej_tilt * params.bias * theta)


def potential_gradient(theta, psi, params: JunctionParams):
    """Analytic partials (dV/dtheta, dV/dpsi) of :func:`potential`."""
    import numpy as np
    _, a1, a2, ej_tilt = channel_weights(params)
    s1 = np.sin(theta + a1 * psi)
    s2 = np.sin(theta - a2 * psi)
    dv_dtheta = params.ej1 * s1 + params.ej2 * s2 - ej_tilt * params.bias
    dv_dpsi = params.ej1 * a1 * s1 - params.ej2 * a2 * s2 + params.kappa * params.ein * np.sin(psi)
    return dv_dtheta, dv_dpsi


def potential_hessian(theta, psi, params: JunctionParams) -> np.ndarray:
    """Analytic Hessian of :func:`potential`: 2x2 at a point, (2, 2, *shape) on arrays."""
    import numpy as np
    _, a1, a2, _ = channel_weights(params)
    c1 = np.cos(theta + a1 * psi)
    c2 = np.cos(theta - a2 * psi)
    vtt = params.ej1 * c1 + params.ej2 * c2
    vtp = params.ej1 * a1 * c1 - params.ej2 * a2 * c2
    vpp = (params.ej1 * a1 * a1 * c1 + params.ej2 * a2 * a2 * c2
           + params.kappa * params.ein * np.cos(psi))
    return np.array([[vtt, vtp], [vtp, vpp]])
