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
stay overflow-safe at large E_J/E_C.  Only :func:`escape_rate_ln` states
the formula and its barrier rule, eps >= 0 and 0 < bias < 1 - eps: a
point outside the rule raises, an array cell outside it is NaN, and
:func:`sweep_grid` makes one call of :func:`enhancement_ratio_ln` per
block of rows.

The formula is semiclassical: it needs a bounce exponent B >> 1
(Caldeira & Leggett, Ann. Phys. 149, 374 (1983)), but B >> 1 is not
sufficient.  The cubic barrier is the leading order of the washboard in
the distance to the critical tilt, 1 - bias/(1 - eps) << 1, and far from
the tilt the formula fails at any B.  At E_J/E_C = 100 and bias 0.5 it
gives ln Gamma = -88.78 where the exact rate is -32.19 (its B is 94.8, the
washboard's 37.7); at bias 0.9 it is off by +0.045.  At fixed bias, with
u = (1-eps)^2 - I^2, the prefactor scales as u^(7/8) and the exponent as
B_eps ~ u^(5/4), so d ln(Gamma/Gamma0)/d eps has the sign of
(5/4) B_eps - 7/8.  The enhancement therefore grows with eps while
B_eps > 7/10, peaks at B_eps = 7/10 and falls beyond it, turning negative
only further on.  Cells with B of order 1 or below, the turnover included,
are evaluated exactly but lie outside the formula's domain.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from . import _EXPORTS
from .errors import InvalidAxisError, InvalidParameterError, NoBarrierError
from .model import AxisSpec, JunctionParams, channel_weights, derive, is_number, ops, shown

if TYPE_CHECKING:
    import numpy as np

__all__ = list(_EXPORTS["escape"])

# Above this value the psi^2 truncation of the interaction is itself suspect.
EPSILON_STRAIN_THRESHOLD = 0.2
# Cells per call of enhancement_ratio_ln in sweep_grid: a block of whole
# axis-1 rows, at least one, so the call's temporaries stay this size
# however large the grid is.
SWEEP_BLOCK_CELLS = 2048


@dataclass(frozen=True)
class FluctuationRenorm:
    """Zero-point variance of the relative phase and the barrier shift eps.

    ``epsilon`` is g_plus * <psi^2>; ``epsilon_from_ratio`` is the
    equivalent frequency-ratio form (g_plus/sqrt(2)) (alpha1+alpha2)
    (omega_P/omega_JL) sqrt(1/E_J) - the two are algebraically identical and
    both are kept as a cross-check.  ``epsilon_valid`` is False once eps >= 1
    (the renormalization wipes out the barrier); ``epsilon_strained`` marks
    eps > 0.2 where the small-psi expansion is stretched.
    """

    psi_variance: float
    epsilon: float
    epsilon_from_ratio: float
    epsilon_valid: bool
    epsilon_strained: bool


@dataclass(frozen=True)
class EscapeResult:
    """Barrier geometry and log escape rate for one parameter point."""

    theta0: float
    omega_p_i: float
    v0: float
    exponent_b: float
    ln_prefactor: float
    ln_gamma: float


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Rectangular grid of ln(Gamma/Gamma0) over two parameter axes.

    ``values[i, j]`` corresponds to axis1 value i, axis2 value j (row-major).
    Cells outside the barrier rule of :func:`escape_rate_ln` or with invalid
    parameters are NaN; neighbors are unaffected.  ``valid`` is
    ``np.isfinite(values)``, computed on each access.  It means "barrier
    exists and parameters are valid", not "the rate is semiclassical": a
    valid cell may have B_eps below 1 or past the turnover at B_eps = 7/10
    (see the module docstring).
    """

    axis1: AxisSpec
    axis2: AxisSpec
    values: np.ndarray
    base: JunctionParams

    @property
    def valid(self) -> np.ndarray:
        import numpy as np
        return np.isfinite(self.values)


def epsilon(params: JunctionParams) -> FluctuationRenorm:
    """Barrier renormalization eps = g_plus <psi^2>, with its dual form.

    Broadcasts like :func:`heterojj.model.derive`: array fields give array
    fields, a :class:`JunctionParams` gives Python floats and bools.
    """
    xp = ops(params)
    scales = derive(params)
    s = channel_weights(params)[0]
    with xp.errstate(all="ignore"):
        # divide, not /: an omega_JL that underflows to 0 gives inf here,
        # for a point as for an array, not a ZeroDivisionError
        var = xp.divide(s, scales.omega_jl)
        eps = scales.g_plus * var
        eps_ratio = (scales.g_plus / math.sqrt(2.0)) * s \
            * xp.divide(scales.omega_p, scales.omega_jl) * xp.sqrt(1.0 / scales.ej_sum)
    return FluctuationRenorm(var, eps, eps_ratio, eps < 1.0, eps > EPSILON_STRAIN_THRESHOLD)


def escape_rate_ln(params: JunctionParams, eps: float) -> EscapeResult:
    """Log escape rate ln(Gamma) of the cubic-barrier instanton formula.

    Assembled entirely in log space,

        ln(Gamma) = ln 12 + ln w(I) + (1/2) ln(3 V0 / (2 pi w(I)))
                    - 36 V0 / (5 w(I)),

    so the bare exponent is never exponentiated (rates at large E_J/E_C
    would overflow a double).  V0 is evaluated as w(I)^2 u / (3 bias^2)
    with u = (1-eps)^2 - bias^2, without re-entering trig functions.  The
    prefactor scales as u^(7/8) and ``exponent_b`` as u^(5/4).  The formula
    needs exponent_b >> 1, but that is not sufficient: it is the leading
    order in the distance to the critical tilt, 1 - bias/(1 - eps) << 1
    (at E_J/E_C = 100 and bias 0.5, ln Gamma is -88.78 against an exact
    -32.19).  It is returned as computed outside that domain (an overflow
    as inf or NaN).

    The barrier rule is eps >= 0 and 0 < bias < 1 - eps: the cubic
    expansion degenerates in the untilted well, and past the tilt (an
    eps >= 1 included) the phase runs freely.  A :class:`JunctionParams`
    outside it raises InvalidParameterError, or NoBarrierError past the
    tilt.  Any other object with the same fields broadcasts as
    :func:`heterojj.model.derive` does, NaN in the cells outside the rule.

    A point and the same junction as a one-cell array may differ in the
    last bits, because a point calls :mod:`math` and an array numpy, whose
    results differ in the last bit for three of the functions used here:
    ``u ** 0.25`` (pow, up to 2 ulp apart), ``asin`` (so theta0 may
    differ, with no pow in it) and ``log`` (so ln_prefactor may differ
    where omega_p_i and v0 agree bit for bit).  Their ln_gamma differ by up
    to 8 ulp of the sum of the terms it adds, ln 12 + |ln omega_p_i| +
    |ln_prefactor| + exponent_b, and their :func:`enhancement_ratio_ln` by
    up to 6 ulp of the larger of the corrected and bare sums (measured on
    3 * 10**5 random junctions).  ln_gamma itself may cancel to near 0, so
    these are not ulp of ln_gamma.  ``sqrt(sqrt(u))``, on which math and
    numpy agree, would not make the two paths agree: asin and log remain.
    """
    xp = ops(params)
    bias = params.bias
    if isinstance(params, JunctionParams):
        # +inf is a number here: an omega_JL that underflows to 0 gives it,
        # and it leaves no barrier
        infinite = isinstance(eps, numbers.Real) and eps == math.inf
        if not (is_number(eps) or infinite) or not eps >= 0.0:
            raise InvalidParameterError(
                f"eps must be a real number with eps >= 0, got {shown(eps)}")
        if bias <= 0.0:
            raise InvalidParameterError(
                "the cubic-barrier chain requires bias > 0 (the untilted well has no "
                "cubic exit path)")
        if bias >= 1.0 - eps:
            raise NoBarrierError(
                f"no barrier: bias={bias} >= 1 - eps = {1.0 - eps} "
                "(classical running state)")
    # an array cell outside the rule is NaN: past the tilt u < 0, whose
    # fourth root would be complex for a Python float
    bias = xp.where((eps >= 0.0) & (bias > 0.0) & (bias < 1.0 - eps), bias, xp.nan)
    theta0 = xp.arcsin(bias / (1.0 - eps))
    # factored form of (1-eps)^2 - bias^2: no cancellation near critical tilt
    u = (1.0 - eps - bias) * (1.0 - eps + bias)
    omega_p_i = derive(params).omega_p * u ** 0.25
    with xp.errstate(all="ignore"):
        # divide and log, not / and math.log: a bias whose square underflows
        # to 0 gives an infinite v0, and an omega_p_i whose square does a
        # zero v0 and a log of -inf, for a point as for an array, not a
        # ZeroDivisionError or ValueError
        v0 = xp.divide(omega_p_i * omega_p_i * u, 3.0 * bias * bias)
        exponent_b = 36.0 * v0 / (5.0 * omega_p_i)
        ln_prefactor = (math.log(12.0) + xp.log(omega_p_i)
                        + 0.5 * xp.log(3.0 * v0 / (2.0 * math.pi * omega_p_i)))
        return EscapeResult(theta0=theta0, omega_p_i=omega_p_i, v0=v0, exponent_b=exponent_b,
                            ln_prefactor=ln_prefactor, ln_gamma=ln_prefactor - exponent_b)


def enhancement_ratio_ln(params: JunctionParams) -> float:
    """ln(Gamma/Gamma0): corrected minus bare log escape rate.

    Gamma uses eps computed from the parameters by :func:`epsilon`; Gamma0
    uses the same parameters with eps forced to zero.  For a chosen eps,
    take the difference of two :func:`escape_rate_ln` results.

    At fixed bias the ratio rises with eps while the corrected exponent
    B_eps > 7/10, peaks at B_eps = 7/10 and falls beyond it (prefactor
    u^(7/8) against exponent u^(5/4)).  It is thus positive and grows with
    omega_P/omega_JL wherever B_eps >= 7/10, the semiclassical domain
    B_eps >> 1 included.  Array fields give an array, NaN where
    :func:`escape_rate_ln`'s barrier rule fails.
    """
    corrected = escape_rate_ln(params, epsilon(params).epsilon)
    bare = escape_rate_ln(params, 0.0)
    return corrected.ln_gamma - bare.ln_gamma


def sweep_grid(base: JunctionParams, axis1: AxisSpec, axis2: AxisSpec) -> SweepGrid:
    """Evaluate ln(Gamma/Gamma0) over a rectangular parameter grid.

    Axis semantics: ``alpha`` sets alpha1 = alpha2, ``ej_over_ec`` rescales
    both channels at fixed asymmetry, and ``omega_ratio`` solves ein last,
    from the cell's final E_J and alpha.  Each block of axis-1 rows, about
    SWEEP_BLOCK_CELLS cells, is one call of :func:`enhancement_ratio_ln` on
    array fields, so the temporaries take a block's memory, not the grid's,
    and a cell's value does not depend on the block it falls in.  Cells
    with invalid parameters (omega_ratio <= 0 included) or outside the
    barrier rule are NaN and invalid without affecting their neighbors.  A
    grid too large to allocate raises InvalidAxisError.
    """
    if axis1.name == axis2.name:
        raise InvalidAxisError(f"axes must differ, both are {axis1.name!r}")
    import numpy as np
    try:
        if axis1.count * axis2.count > np.iinfo(np.intp).max // 8:
            # numpy refuses such an array with a ValueError, not a MemoryError
            raise MemoryError("more bytes than an array can index")
        values = np.empty((axis1.count, axis2.count))
        values1, values2 = axis1.values()[:, None], axis2.values()[None, :]
        rows = max(1, SWEEP_BLOCK_CELLS // axis2.count)
        for lo in range(0, axis1.count, rows):
            block = slice(lo, lo + rows)
            values[block] = _sweep_block(base, {axis1.name: values1[block], axis2.name: values2})
    except MemoryError as exc:
        raise InvalidAxisError(
            f"axis counts {axis1.count} x {axis2.count} need a sweep grid that "
            f"cannot be allocated ({exc})") from exc
    return SweepGrid(axis1=axis1, axis2=axis2, values=values, base=base)


def _sweep_block(base: JunctionParams, axes: dict) -> np.ndarray:
    """ln(Gamma/Gamma0) on the cells that the axis values ``axes`` (by
    name, broadcasting to the block's shape) span, NaN in each invalid
    cell.  A cell whose fields are not all finite and positive is invalid
    even where its ln_ratio is finite: an omega_ratio of 1e-170 overflows
    its ein to inf and gives ln_ratio 0."""
    import numpy as np
    cell = SimpleNamespace(ej1=base.ej1, ej2=base.ej2, ein=base.ein,
                           alpha1=base.alpha1, alpha2=base.alpha2, kappa=base.kappa,
                           bias=axes.get("bias", base.bias))
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
        ln_ratio = enhancement_ratio_ln(cell)
        valid = np.isfinite(ln_ratio)
        for v in (cell.ej1, cell.ej2, cell.ein, cell.alpha1, cell.alpha2):
            valid = valid & np.isfinite(v) & (v > 0.0)
    return np.where(valid, ln_ratio, np.nan)
