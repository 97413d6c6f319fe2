"""Run configuration: flat key=value files with [junction] and [run] sections.

The junction block accepts either the direct energies (ej1, ej2, ein) or the
sweep-style ratios (ej_over_ec, omega_ratio, and optionally j_ratio) -
exactly one of the two styles.  alpha1, alpha2, kappa, and bias are common
to both and default to the symmetric reference point alpha = 0.1,
kappa = +1, bias = 0.95.

Example::

    [junction]
    ej_over_ec = 100      # E_J1 + E_J2, units E_C
    omega_ratio = 2       # omega_P / omega_JL
    bias = 0.95

    [run]
    dt = 1e-3
    n_steps = 10000
    axis1 = bias:0.90:0.99:50
    axis2 = omega_ratio:0.5:5:50
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .errors import ConfigError, HeterojjError, InvalidAxisError
from .inputs import AxisSpec, JunctionParams

__all__ = ["RunConfig", "default_params", "default_config", "load_config", "parse_axis"]

_DIRECT_KEYS = ("ej1", "ej2", "ein")
_RATIO_KEYS = ("ej_over_ec", "omega_ratio", "j_ratio")
_SHARED_KEYS = ("alpha1", "alpha2", "kappa", "bias")
_SHARED_DEFAULTS = {"alpha1": 0.1, "alpha2": 0.1, "kappa": 1.0, "bias": 0.95}


def default_params() -> JunctionParams:
    """Reference point: E_J/E_C = 100, omega_P/omega_JL = 2, symmetric
    channels, alpha = 0.1, bias = 0.95."""
    return JunctionParams.from_ratios(100.0, 2.0, 1.0, 0.1, 0.1, 1, 0.95)


@dataclass(frozen=True)
class RunConfig:
    """Validated junction parameters plus command options."""

    params: JunctionParams
    dt: float = 1e-3
    n_steps: int = 10000
    stride: int = 1
    theta0: float = 0.0
    psi0: float = 0.0
    theta_dot0: float = 0.0
    psi_dot0: float = 0.0
    axis1: AxisSpec = field(default_factory=lambda: AxisSpec("bias", 0.90, 0.99, 50))
    axis2: AxisSpec = field(default_factory=lambda: AxisSpec("omega_ratio", 0.5, 5.0, 50))


def default_config() -> RunConfig:
    return RunConfig(params=default_params())


def parse_axis(text: str) -> AxisSpec:
    """Parse 'name:start:stop:count' into an :class:`AxisSpec`."""
    parts = text.split(":")
    if len(parts) != 4:
        raise InvalidAxisError(
            f"axis spec {text!r} must have the form name:start:stop:count")
    name = parts[0].strip()
    try:
        start = float(parts[1])
        stop = float(parts[2])
        count = int(parts[3])
    except ValueError as exc:
        raise InvalidAxisError(f"axis spec {text!r}: {exc}") from exc
    return AxisSpec(name, start, stop, count)


# Each [run] key and its reader, in the order the keys are read.
_RUN_READERS = {
    "dt": float, "theta0": float, "psi0": float, "theta_dot0": float,
    "psi_dot0": float, "n_steps": int, "stride": int,
    "axis1": parse_axis, "axis2": parse_axis,
}
_NOUNS = {float: "a number", int: "an integer"}


def _get(section, key: str, section_name: str, kind=float):
    """``section[key]`` read by ``kind``; a float or int that does not parse
    is a :class:`ConfigError` naming the key."""
    raw = section[key]
    try:
        return kind(raw)
    except HeterojjError:
        raise
    except ValueError as exc:
        raise ConfigError(
            f"key '{key}' in [{section_name}] is not {_NOUNS[kind]}: {raw!r}") from exc


def _junction_params(section) -> JunctionParams:
    keys = set(section.keys())
    unknown = keys - set(_DIRECT_KEYS) - set(_RATIO_KEYS) - set(_SHARED_KEYS)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in [junction]")
    direct = keys & set(_DIRECT_KEYS)
    ratio = keys & set(_RATIO_KEYS)
    if direct and ratio:
        raise ConfigError(
            "exactly one parameterization style allowed in [junction]: "
            f"found direct keys {sorted(direct)} and ratio keys {sorted(ratio)}")
    shared = dict(_SHARED_DEFAULTS)
    for key in _SHARED_KEYS:
        if key in keys:
            shared[key] = _get(section, key, "junction")
    if direct:
        for key in _DIRECT_KEYS:
            if key not in keys:
                raise ConfigError(f"missing key '{key}' in [junction] "
                                  "(direct style needs ej1, ej2, ein)")
        return JunctionParams(ej1=_get(section, "ej1", "junction"),
                              ej2=_get(section, "ej2", "junction"),
                              ein=_get(section, "ein", "junction"), **shared)
    if ratio:
        for key in ("ej_over_ec", "omega_ratio"):
            if key not in keys:
                raise ConfigError(f"missing key '{key}' in [junction] "
                                  "(ratio style needs ej_over_ec and omega_ratio)")
        j_ratio = _get(section, "j_ratio", "junction") if "j_ratio" in keys else 1.0
        return JunctionParams.from_ratios(
            _get(section, "ej_over_ec", "junction"),
            _get(section, "omega_ratio", "junction"),
            j_ratio, **shared)
    raise ConfigError("missing key 'ein' in [junction]: provide ej1/ej2/ein "
                      "or ej_over_ec/omega_ratio")


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file.

    Raises :class:`ConfigError` for unreadable or non-UTF-8 files, unknown
    sections or keys, missing keys, and non-numeric values; axis specs raise
    :class:`InvalidAxisError`.  Physical invariant violations surface later
    as :class:`InvalidParameterError` from :class:`JunctionParams`.
    """
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",),
                                       comment_prefixes=("#",),
                                       inline_comment_prefixes=("#",))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc

    unknown_sections = set(parser.sections()) - {"junction", "run"}
    if unknown_sections:
        raise ConfigError(f"unknown section [{sorted(unknown_sections)[0]}]")
    if "junction" not in parser:
        raise ConfigError("missing [junction] section")
    params = _junction_params(parser["junction"])

    run = parser["run"] if "run" in parser else {}
    unknown = set(run) - set(_RUN_READERS)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in [run]")
    options = {key: _get(run, key, "run", kind)
               for key, kind in _RUN_READERS.items() if key in run}
    return RunConfig(params=params, **options)
