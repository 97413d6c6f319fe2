"""Junction parameters, sweep axes, phase states, their derived scales,
and the exact two-phase potential.

The inputs of every command are checked here without numpy, so that a bad
one is refused before numpy loads.  Every numeric input of the package is
checked by one rule, :func:`is_number`, and every count by
:func:`is_integer`; a refused value is shown in its error message by
:func:`shown`.  The derived scales of a :class:`JunctionParams` are
computed on Python floats with :mod:`math`; only array fields,
:meth:`AxisSpec.values` and the potential functions import numpy.

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
import numbers
from contextlib import nullcontext
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import _EXPORTS
from .errors import InvalidAxisError, InvalidParameterError

if TYPE_CHECKING:
    import numpy as np

__all__ = list(_EXPORTS["model"])

AXIS_NAMES = ("bias", "omega_ratio", "ej_over_ec", "alpha")


def is_number(v) -> bool:
    """Whether ``v`` is a valid number: a real number, numpy scalars
    included, that is not a bool (a flag, not a value) and whose float value
    is finite, so an int beyond the float range is not one."""
    try:
        return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def is_integer(v) -> bool:
    """Whether ``v`` is an integer, numpy's included; a bool is not one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def shown(v, form=repr) -> str:
    """``form(v)``, ``repr`` by default, for an error message; it does not
    fail where ``repr`` and ``str`` refuse an int past Python's limit on
    int-to-str digits, but shows such an int by its size."""
    try:
        return form(v)
    except ValueError:  # the digit limit
        return f"an int of {v.bit_length()} bits"


@dataclass(frozen=True)
class JunctionParams:
    """Physical parameters of a two-channel Josephson junction.

    Parameters
    ----------
    ej1, ej2 : float
        Josephson coupling energies of the two tunneling channels (units E_C).
    ein : float
        Magnitude of the inter-band coupling energy inside the two-gap
        electrode (units E_C).
    alpha1, alpha2 : float
        Dimensionless charge-screening parameters of the two bands.
    kappa : int
        Sign of the inter-band coupling, +1 or -1 (gap symmetry).
    bias : float
        External bias current over the critical current, I_ex/I_c.
    """

    ej1: float
    ej2: float
    ein: float
    alpha1: float = 0.1
    alpha2: float = 0.1
    kappa: int = 1
    bias: float = 0.0

    def __post_init__(self):
        for name in ("ej1", "ej2", "ein"):
            if not (is_number(v := getattr(self, name)) and v > 0):
                raise InvalidParameterError(
                    f"{name} must be a finite positive energy, got {shown(v)}")
        for name in ("alpha1", "alpha2"):
            if not (is_number(v := getattr(self, name)) and v > 0):
                raise InvalidParameterError(f"{name} must be finite and positive, got {shown(v)}")
        if not (is_number(self.kappa) and self.kappa in (1, -1)):
            raise InvalidParameterError(f"kappa must be +1 or -1 exactly, got {shown(self.kappa)}")
        if not (is_number(self.bias) and self.bias >= 0):
            raise InvalidParameterError(f"bias must be finite and >= 0, got {shown(self.bias)}")
        # numpy scalars (float32 above all) would otherwise carry their own
        # precision into every derived scale
        for name in ("ej1", "ej2", "ein", "alpha1", "alpha2", "bias"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "kappa", int(self.kappa))

    @classmethod
    def from_ratios(cls, ej_over_ec: float, omega_ratio: float, j_ratio: float = 1.0,
                    alpha1: float = 0.1, alpha2: float = 0.1, kappa: int = 1,
                    bias: float = 0.0) -> "JunctionParams":
        """Build parameters from the sweep-style ratios.

        ``ej_over_ec`` is the total Josephson energy E_J1 + E_J2, ``j_ratio``
        the channel asymmetry j1/j2, and ``omega_ratio`` the plasma-to-Leggett
        frequency ratio omega_P/omega_JL, from which the inter-band coupling
        is solved.
        """
        # alpha1 + alpha2 divides below, so the alphas are checked here too;
        # all five are then taken as floats, so the arithmetic below is in
        # double precision whatever numeric type they came as
        values = (ej_over_ec, omega_ratio, j_ratio, alpha1, alpha2)
        for name, v in zip(("ej_over_ec", "omega_ratio", "j_ratio", "alpha1", "alpha2"), values):
            if not (is_number(v) and v > 0):
                raise InvalidParameterError(
                    f"{name} must be a positive real number, got {shown(v)}")
        ej_over_ec, omega_ratio, j_ratio, alpha1, alpha2 = map(float, values)
        ej1 = ej_over_ec * j_ratio / (1.0 + j_ratio)
        ej2 = ej_over_ec / (1.0 + j_ratio)
        # omega_JL = omega_P / ratio with omega_P^2 = 2(ej1+ej2)
        denominator = (alpha1 + alpha2) * omega_ratio * omega_ratio
        if denominator == 0.0:
            raise InvalidParameterError(
                f"omega_ratio={omega_ratio!r} is too small: (alpha1 + alpha2) "
                "omega_ratio^2 underflows to 0, so ein cannot be solved")
        ein = ej_over_ec / denominator
        return cls(ej1=ej1, ej2=ej2, ein=ein, alpha1=alpha1, alpha2=alpha2,
                   kappa=kappa, bias=bias)

    def replace(self, **changes) -> "JunctionParams":
        """Return a copy with the given fields replaced (revalidated)."""
        return replace(self, **changes)


def channel_weights(params: JunctionParams) -> tuple:
    """(alpha1 + alpha2, a1, a2, ej_tilt) of a parameter set.

    The weights a_i = alpha_i/(alpha1+alpha2) carry psi into the channel
    phases, theta1 = theta + a1 psi and theta2 = theta - a2 psi;
    ej_tilt = |E_J1 + kappa E_J2| scales the bias tilt.  Broadcasts over
    array-valued fields, as :func:`derive` does.
    """
    s = params.alpha1 + params.alpha2
    return s, params.alpha1 / s, params.alpha2 / s, abs(params.ej1 + params.kappa * params.ej2)


def lambda_cap(params: JunctionParams):
    """Capacitive renormalization Lambda = 1 + alpha1 alpha2/(alpha1+alpha2)
    of the center-of-mass phase.  Broadcasts as :func:`channel_weights` does."""
    return 1.0 + params.alpha1 * params.alpha2 / (params.alpha1 + params.alpha2)


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: parameter name and an inclusive linear range."""

    name: str
    start: float
    stop: float
    count: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise InvalidAxisError(
                f"unknown axis name {shown(self.name)}; expected one of {AXIS_NAMES}")
        if not is_integer(self.count):
            raise InvalidAxisError(
                f"axis {self.name!r} count must be an integer, got {shown(self.count)}")
        if self.count < 2:
            raise InvalidAxisError(
                f"axis {self.name!r} needs count >= 2, got {shown(self.count, str)}")
        # stop - start is what np.linspace steps by: it must not overflow
        if not (is_number(self.start) and is_number(self.stop)
                and is_number(float(self.stop) - float(self.start))):
            raise InvalidAxisError(
                f"axis {self.name!r} range and its span must be finite: "
                f"[{shown(self.start, str)}, {shown(self.stop, str)}]")
        # as floats: numpy compares a float and a float32 in float32, which can overflow
        if not (float(self.start) < float(self.stop)):
            raise InvalidAxisError(
                f"axis {self.name!r} range is inverted or empty: "
                f"[{shown(self.start, str)}, {shown(self.stop, str)}]")

    def values(self):
        import numpy as np
        return np.linspace(float(self.start), float(self.stop), self.count)


@dataclass(frozen=True)
class PhaseState:
    """Instantaneous classical state (theta, psi, velocities, time), each
    held as a float."""

    theta: float
    psi: float
    theta_dot: float
    psi_dot: float
    tau: float = 0.0

    def __post_init__(self):
        for name in ("theta", "psi", "theta_dot", "psi_dot", "tau"):
            if not is_number(v := getattr(self, name)):
                raise InvalidParameterError(f"PhaseState.{name} must be finite")
            object.__setattr__(self, name, float(v))


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
