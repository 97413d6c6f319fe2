"""Phase dynamics and quantum escape rates of two-channel Josephson junctions.

A junction between a single-gap and a two-gap superconductor carries two
tunneling channels and therefore two phase differences.  This package models
their coupled classical dynamics, the zero-point renormalization of the
washboard barrier by the relative-phase (Josephson-Leggett) mode, and the
resulting enhancement of the quantum escape rate, with built-in independent
numerical oracles for every closed form.

Reduced units throughout: hbar = 1, charging energy E_C = 1.
"""

from .dynamics import (PhaseState, Trajectory, acceleration, detect_switching,
                       equilibrium, integrate, reduced_voltage,
                       small_oscillation_frequencies)
from .errors import (ConfigError, ConvergenceError, HeterojjError,
                     InvalidAxisError, InvalidParameterError, NoBarrierError,
                     NoEquilibriumError, NonFiniteStateError)
from .escape import (AxisSpec, EscapeResult, FluctuationRenorm, SweepGrid,
                     effective_potential, enhancement_ratio_ln, epsilon,
                     escape_rate_ln, sweep_grid, zero_point_variance)
from .model import (DerivedScales, JunctionParams, combine_phases, derive,
                    potential, potential_gradient, potential_hessian,
                    split_phases)
from .oracle import (BounceResult, CubicFit, SpectrumResult, bounce_action,
                     cubic_fit, harmonic_spectrum)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "JunctionParams", "DerivedScales", "derive", "split_phases",
    "combine_phases", "potential", "potential_gradient", "potential_hessian",
    # dynamics
    "PhaseState", "Trajectory", "acceleration", "integrate", "equilibrium",
    "small_oscillation_frequencies", "reduced_voltage", "detect_switching",
    # escape
    "FluctuationRenorm", "EscapeResult", "AxisSpec", "SweepGrid",
    "zero_point_variance", "epsilon", "effective_potential", "escape_rate_ln",
    "enhancement_ratio_ln", "sweep_grid",
    # oracle
    "SpectrumResult", "BounceResult", "CubicFit", "harmonic_spectrum",
    "bounce_action", "cubic_fit",
    # errors
    "HeterojjError", "InvalidParameterError", "ConfigError",
    "NoEquilibriumError", "NoBarrierError", "NonFiniteStateError",
    "InvalidAxisError", "ConvergenceError",
]
