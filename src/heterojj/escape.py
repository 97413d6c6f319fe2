"""Zero-point renormalization of the washboard barrier and escape rates.

At zero temperature the quantized relative-phase (Josephson-Leggett) mode
has ground-state variance <psi^2> = (alpha1+alpha2)/omega_JL.  Treating the
quadratic coupling g_plus E_J psi^2 cos(theta) in mean field renormalizes
the center-of-mass washboard to

    V_eff(theta) = -E_J [ (1 - eps) cos(theta) + bias * theta ],
    eps = g_plus <psi^2>,

which lowers the barrier and enhances the tunneling escape rate.  The rate
is evaluated in the cubic-barrier instanton approximation,

    Gamma = 12 w(I) sqrt(3 V0 / (2 pi w(I))) exp(-36 V0 / (5 w(I))),

with w(I) = omega_P [(1-eps)^2 - I^2]^(1/4), (1-eps) sin(theta0) = I and
V0 = w(I)^2 cot^2(theta0) / 3.  All rates are carried as natural logs to
stay overflow-safe at large E_J/E_C.

The formula is semiclassical: it holds for a bounce exponent B >> 1
(Caldeira & Leggett, Ann. Phys. 149, 374 (1983)).  At fixed bias, with
u = (1-eps)^2 - I^2, the prefactor scales as u^(7/8) and the exponent as
B_eps ~ u^(5/4), so d ln(Gamma/Gamma0)/d eps has the sign of
(5/4) B_eps - 7/8.  The enhancement therefore grows with eps while
B_eps > 7/10, peaks at B_eps = 7/10 and falls beyond it, turning negative
only further on.  Cells with B of order 1 or below, the turnover included,
are evaluated exactly but lie outside the formula's domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Tuple

import numpy as np

from . import _EXPORTS
from .errors import InvalidAxisError, InvalidParameterError, NoBarrierError
from .inputs import AXIS_NAMES, AxisSpec, JunctionParams  # AXIS_NAMES: exported here
from .model import channel_weights, derive, record

__all__ = list(_EXPORTS["escape"])

# Above this value the psi^2 truncation of the interaction is itself suspect.
EPSILON_STRAIN_THRESHOLD = 0.2


@dataclass(frozen=True)
class FluctuationRenorm:
    """Zero-point variance of the relative phase and the barrier shift eps.

    ``epsilon`` is g_plus * <psi^2>; ``epsilon_from_ratio`` is the
    equivalent frequency-ratio form (g_plus/sqrt(2)) (alpha1+alpha2)
    (omega_P/omega_JL) sqrt(1/E_J) - the two are algebraically identical and
    both are kept as a cross-check.  ``valid`` is False once eps >= 1 (the
    renormalization wipes out the barrier); ``strained`` marks eps > 0.2
    where the small-psi expansion is stretched.
    """

    psi_variance: float
    epsilon: float
    epsilon_from_ratio: float
    valid: bool
    strained: bool


@dataclass(frozen=True)
class EscapeResult:
    """Barrier geometry and log escape rate for one parameter point."""

    omega_p_i: float
    theta0: float
    v0: float
    exponent_b: float
    ln_prefactor: float
    ln_gamma: float
    eps: float


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular grid of ln(Gamma/Gamma0) over two parameter axes.

    ``values[i, j]`` corresponds to axis1 value i, axis2 value j (row-major).
    Cells without a barrier (bias >= 1 - eps) or with invalid parameters are
    NaN with ``valid[i, j]`` False; neighbors are unaffected.  ``valid``
    means "barrier exists and parameters are valid", not "the rate is
    semiclassical": a valid cell may have B_eps below 1 or past the
    turnover at B_eps = 7/10 (see the module docstring).
    """

    axis1: AxisSpec
    axis2: AxisSpec
    values: np.ndarray
    valid: np.ndarray
    base: JunctionParams


def zero_point_variance(params: JunctionParams) -> float:
    """Ground-state variance <psi^2> of the relative phase at T = 0.

    Equals (alpha1+alpha2)/omega_JL in reduced units, i.e.
    1/(2 m_rlt omega_JL) for the harmonic Leggett well.  The mean <psi>
    vanishes at T = 0.  Broadcasts like :func:`heterojj.model.derive`.
    """
    return epsilon(params).psi_variance


def epsilon(params: JunctionParams) -> FluctuationRenorm:
    """Barrier renormalization eps = g_plus <psi^2>, with its dual form.

    Broadcasts like :func:`heterojj.model.derive`: array fields give array
    fields, a :class:`JunctionParams` gives Python floats and bools.
    """
    scales = derive(params)
    s = channel_weights(params)[0]
    with np.errstate(all="ignore"):
        # np.divide, not /: an omega_JL that underflows to 0 gives inf here
        # instead of a ZeroDivisionError from Python floats
        var = np.divide(s, scales.omega_jl)
        eps = scales.g_plus * var
        eps_ratio = (scales.g_plus / math.sqrt(2.0)) * s \
            * np.divide(scales.omega_p, scales.omega_jl) * np.sqrt(1.0 / scales.ej_sum)
    return record(FluctuationRenorm, psi_variance=var, epsilon=eps,
                  epsilon_from_ratio=eps_ratio, valid=eps < 1.0,
                  strained=eps > EPSILON_STRAIN_THRESHOLD)


def _instanton(omega_p, bias, eps) -> EscapeResult:
    """Cubic-barrier geometry and ln(Gamma), broadcast over array arguments.

    theta0 solves (1-eps) sin(theta0) = bias; omega_p_i is the bias- and
    eps-softened plasma frequency omega_P [(1-eps)^2 - bias^2]^(1/4); v0
    is the barrier height omega_p_i^2 cot^2(theta0)/3 (here evaluated as
    omega_p_i^2 u / (3 bias^2) with u = (1-eps)^2 - bias^2, the same closed
    form without re-entering trig functions).  No domain checks: outside
    0 < bias < 1 - eps the fields are NaN or meaningless, and a result that
    overflows double precision is inf or NaN.
    """
    theta0 = np.arcsin(bias / (1.0 - eps))
    # factored form of (1-eps)^2 - bias^2: no cancellation near critical tilt
    u = (1.0 - eps - bias) * (1.0 - eps + bias)
    omega_p_i = omega_p * u ** 0.25
    with np.errstate(all="ignore"):
        # np.divide, not /: a bias whose square underflows to 0 gives inf
        # here instead of a ZeroDivisionError from Python floats
        v0 = np.divide(omega_p_i * omega_p_i * u, 3.0 * bias * bias)
        exponent_b = 36.0 * v0 / (5.0 * omega_p_i)
        ln_prefactor = (math.log(12.0) + np.log(omega_p_i)
                        + 0.5 * np.log(3.0 * v0 / (2.0 * math.pi * omega_p_i)))
        return record(EscapeResult, omega_p_i=omega_p_i, theta0=theta0, v0=v0,
                      exponent_b=exponent_b, ln_prefactor=ln_prefactor,
                      ln_gamma=ln_prefactor - exponent_b, eps=eps)


def escape_rate_ln(params: JunctionParams, eps: float) -> EscapeResult:
    """Log escape rate ln(Gamma) of the cubic-barrier instanton formula.

    Assembled entirely in log space,

        ln(Gamma) = ln 12 + ln w(I) + (1/2) ln(3 V0 / (2 pi w(I)))
                    - 36 V0 / (5 w(I)),

    so the bare exponent is never exponentiated (rates at large E_J/E_C
    would overflow a double).  In u = (1-eps)^2 - bias^2 the prefactor
    scales as u^(7/8) and ``exponent_b`` as u^(5/4); the formula holds for
    exponent_b >> 1 and is returned as computed outside that domain.

    Raises NoBarrierError when bias >= 1 - eps (classical running state),
    an eps >= 1 that wipes the barrier out included.  The chain requires
    eps >= 0, and bias > 0: the cubic expansion degenerates in the
    untilted well.
    """
    if not eps >= 0.0:  # a NaN fails this too
        raise InvalidParameterError(f"eps must satisfy eps >= 0, got {eps!r}")
    if params.bias <= 0.0:
        raise InvalidParameterError(
            "the cubic-barrier chain requires bias > 0 (the untilted well has no "
            "cubic exit path)")
    if params.bias >= 1.0 - eps:
        raise NoBarrierError(
            f"no barrier: bias={params.bias} >= 1 - eps = {1.0 - eps} "
            "(classical running state)")
    return _instanton(derive(params).omega_p, params.bias, eps)


def enhancement_ratio_ln(params: JunctionParams) -> float:
    """ln(Gamma/Gamma0): corrected minus bare log escape rate.

    Gamma uses eps computed from the parameters by :func:`epsilon`; Gamma0
    uses the same parameters with eps forced to zero.  For a chosen eps,
    take the difference of two :func:`escape_rate_ln` results.

    At fixed bias the ratio rises with eps while the corrected exponent
    B_eps > 7/10, peaks at B_eps = 7/10 and falls beyond it (prefactor
    u^(7/8) against exponent u^(5/4)).  It is thus positive and grows with
    omega_P/omega_JL wherever B_eps >= 7/10, the semiclassical domain
    B_eps >> 1 included.
    """
    corrected = escape_rate_ln(params, epsilon(params).epsilon)
    bare = escape_rate_ln(params, 0.0)
    return corrected.ln_gamma - bare.ln_gamma


def sweep_grid(base: JunctionParams, axis1: AxisSpec, axis2: AxisSpec) -> SweepGrid:
    """Evaluate ln(Gamma/Gamma0) over a rectangular parameter grid.

    Axis semantics: ``alpha`` sets alpha1 = alpha2, ``ej_over_ec`` rescales
    both channels at fixed asymmetry, and ``omega_ratio`` solves ein last,
    from the cell's final E_J and alpha.  The whole grid runs through the
    same array-valued chain as the point functions.  Cells where the
    parameters are invalid (omega_ratio <= 0 included) or the barrier is
    gone are flagged invalid (NaN value) without affecting their neighbors.
    A grid too large to allocate raises InvalidAxisError.
    """
    if axis1.name == axis2.name:
        raise InvalidAxisError(f"axes must differ, both are {axis1.name!r}")
    try:
        if axis1.count * axis2.count > np.iinfo(np.intp).max // 8:
            # numpy refuses such an array with a ValueError, not a MemoryError
            raise MemoryError("more bytes than an array can index")
        values, valid = _sweep_cells(base, axis1, axis2)
    except MemoryError as exc:
        raise InvalidAxisError(
            f"axis counts {axis1.count} x {axis2.count} need a sweep grid that "
            f"cannot be allocated ({exc})") from exc
    return SweepGrid(axis1=axis1, axis2=axis2, values=values, valid=valid, base=base)


def _sweep_cells(base: JunctionParams, axis1: AxisSpec,
                 axis2: AxisSpec) -> Tuple[np.ndarray, np.ndarray]:
    """The ``values`` and ``valid`` arrays of :func:`sweep_grid`."""
    axes = {axis1.name: axis1.values()[:, None], axis2.name: axis2.values()[None, :]}
    # a fixed bias is a numpy scalar: past the tilt the bare instanton's
    # fourth root of 1 - bias^2 is then NaN, where a Python float's would be complex
    cell = SimpleNamespace(ej1=base.ej1, ej2=base.ej2, ein=base.ein,
                           alpha1=base.alpha1, alpha2=base.alpha2, kappa=base.kappa,
                           bias=axes.get("bias", np.float64(base.bias)))
    with np.errstate(all="ignore"):
        if "alpha" in axes:
            cell.alpha1 = cell.alpha2 = axes["alpha"]
        if "ej_over_ec" in axes:
            ej_sum = base.ej1 + base.ej2
            cell.ej1 = axes["ej_over_ec"] * (base.ej1 / ej_sum)
            cell.ej2 = axes["ej_over_ec"] * (base.ej2 / ej_sum)
        if "omega_ratio" in axes:
            ratio = axes["omega_ratio"]
            # no positive ein solves a ratio <= 0; NaN marks those cells invalid
            cell.ein = np.where(ratio > 0.0, (cell.ej1 + cell.ej2)
                                / (channel_weights(cell)[0] * ratio * ratio), np.nan)
        eps = epsilon(cell).epsilon
        omega_p = derive(cell).omega_p
        ln_ratio = (_instanton(omega_p, cell.bias, eps).ln_gamma
                    - _instanton(omega_p, cell.bias, 0.0).ln_gamma)
        valid = ((0.0 <= eps) & (0.0 < cell.bias) & (cell.bias < 1.0 - eps)
                 & np.isfinite(ln_ratio))
        for v in (cell.ej1, cell.ej2, cell.ein, cell.alpha1, cell.alpha2):
            valid = valid & np.isfinite(v) & (v > 0.0)
    valid = np.broadcast_to(valid, (axis1.count, axis2.count)).copy()
    return np.where(valid, ln_ratio, np.nan), valid
