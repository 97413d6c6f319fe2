"""Phase dynamics and quantum escape rates of two-channel Josephson junctions.

A junction between a single-gap and a two-gap superconductor carries two
tunneling channels and therefore two phase differences.  This package models
their coupled classical dynamics, the zero-point renormalization of the
washboard barrier by the relative-phase (Josephson-Leggett) mode, and the
resulting enhancement of the quantum escape rate, with built-in numerical
cross-checks of every closed form.

Reduced units throughout: hbar = 1, charging energy E_C = 1.

The public names load with their module on first access, so a command
imports only the modules it runs.
"""

__version__ = "0.1.0"

# Each submodule and the public names it exports: its __all__, read from here.
_EXPORTS = {
    "model": ("JunctionParams", "DerivedScales", "derive", "split_phases",
              "potential", "potential_gradient", "potential_hessian"),
    "dynamics": ("PhaseState", "Trajectory", "acceleration", "integrate",
                 "equilibrium", "small_oscillation_frequencies",
                 "reduced_voltage", "detect_switching"),
    "escape": ("FluctuationRenorm", "EscapeResult", "AxisSpec", "SweepGrid",
               "epsilon", "escape_rate_ln", "enhancement_ratio_ln", "sweep_grid"),
    "oracle": ("SpectrumResult", "BounceResult", "CubicFit", "harmonic_spectrum",
               "bounce_action", "cubic_fit"),
    "errors": ("HeterojjError", "InvalidParameterError", "ConfigError",
               "NoEquilibriumError", "NoBarrierError", "NonFiniteStateError",
               "InvalidAxisError", "ConvergenceError"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def _submodule(module):
    # __import__, unlike importlib.import_module, shows in python -X importtime;
    # the import binds the submodule in this namespace
    __import__(f"{__name__}.{module}")
    return globals()[module]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_MODULE_OF[name]), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
