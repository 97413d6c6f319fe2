"""Junction parameters, sweep axes, and the channel weights and Lambda the
time-stepping kernel needs: the inputs of every command, checked without
numpy, so that a bad one is refused before numpy loads.  :mod:`heterojj.model`
and :mod:`heterojj.escape` export these names.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

from .errors import InvalidAxisError, InvalidParameterError

AXIS_NAMES = ("bias", "omega_ratio", "ej_over_ec", "alpha")


def _is_real(v) -> bool:
    """A real number, numpy integer and floating scalars included; a bool is
    a flag, not a parameter value."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


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
            v = getattr(self, name)
            if not (_is_real(v) and math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be a finite positive energy, got {v!r}")
        for name in ("alpha1", "alpha2"):
            v = getattr(self, name)
            if not (_is_real(v) and math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be finite and positive, got {v!r}")
        if not (_is_real(self.kappa) and self.kappa in (1, -1)):
            raise InvalidParameterError(f"kappa must be +1 or -1 exactly, got {self.kappa!r}")
        if not (_is_real(self.bias) and math.isfinite(self.bias) and self.bias >= 0):
            raise InvalidParameterError(f"bias must be finite and >= 0, got {self.bias!r}")
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
        # alpha1 + alpha2 divides below, so the alphas are checked here too
        for name, v in (("ej_over_ec", ej_over_ec), ("omega_ratio", omega_ratio),
                        ("j_ratio", j_ratio), ("alpha1", alpha1), ("alpha2", alpha2)):
            if not (math.isfinite(v) and v > 0):
                raise InvalidParameterError(f"{name} must be positive, got {v!r}")
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
    array-valued fields, as :func:`heterojj.model.derive` does.
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
                f"unknown axis name {self.name!r}; expected one of {AXIS_NAMES}")
        if self.count < 2:
            raise InvalidAxisError(f"axis {self.name!r} needs count >= 2, got {self.count}")
        # stop - start is what np.linspace steps by: it must not overflow
        if not math.isfinite(self.stop - self.start):
            raise InvalidAxisError(
                f"axis {self.name!r} range and its span must be finite: "
                f"[{self.start}, {self.stop}]")
        if not (self.start < self.stop):
            raise InvalidAxisError(
                f"axis {self.name!r} range is inverted or empty: "
                f"[{self.start}, {self.stop}]")

    def values(self):
        import numpy as np  # the only numpy use of this module
        return np.linspace(self.start, self.stop, self.count)
