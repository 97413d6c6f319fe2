"""Command-line interface: derive, simulate, escape, sweep, verify.

Every command is deterministic: identical configuration produces
byte-identical output.  Numbers are serialized with 17 significant digits
so doubles round-trip exactly.

Exit codes: 0 ok, 1 verification failure, 2 config/usage parse error,
3 parameter invariant violation, 4 numeric (non-finite) failure,
5 no barrier / no equilibrium, 6 invalid sweep axis.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from . import __version__, dynamics, escape, verify
from .config import RunConfig, default_config, load_config
from .errors import (ConfigError, InvalidAxisError, InvalidParameterError,
                     NoBarrierError, NoEquilibriumError, NonFiniteStateError)
from .model import derive

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_NUMERIC = 4
EXIT_NO_BARRIER = 5
EXIT_AXIS = 6


# Each exception class the commands raise on bad input, and its exit code;
# the first class the exception is an instance of decides.
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    InvalidAxisError: EXIT_AXIS,
    InvalidParameterError: EXIT_INVARIANT,
    NonFiniteStateError: EXIT_NUMERIC,
    NoBarrierError: EXIT_NO_BARRIER,
    NoEquilibriumError: EXIT_NO_BARRIER,
}

# Rows of CSV text formatted and written at a time.
CSV_CHUNK_ROWS = 4096

# The EscapeResult fields of the escape report, in report order.
_ESCAPE_FIELDS = ("theta0", "omega_p_i", "v0", "exponent_b", "ln_prefactor",
                  "ln_gamma")


def _load(args) -> RunConfig:
    if args.config is None:
        return default_config()
    return load_config(args.config)


def _derive_report(cfg: RunConfig) -> dict:
    fluct = escape.epsilon(cfg.params)
    return {**asdict(cfg.params), **asdict(derive(cfg.params)),
            "psi_variance": fluct.psi_variance, "epsilon": fluct.epsilon,
            "epsilon_from_ratio": fluct.epsilon_from_ratio,
            "epsilon_valid": fluct.valid, "epsilon_strained": fluct.strained}


def _print_flat(report: dict, stream) -> None:
    for key, value in report.items():
        spec = "d" if isinstance(value, int) else ".17g"  # bools print as 1/0
        stream.write(f"{key}={value:{spec}}\n")


def _refuse(key: str, value: float, what: str) -> int:
    """Name a non-finite output field on stderr in place of the output."""
    sys.stderr.write(f"error: {key} is not finite ({value!r}); no {what} written\n")
    return EXIT_NUMERIC


def _write_report(report: dict, as_json: bool) -> int:
    """Print a point report, or refuse one holding a non-finite number.

    A NaN or infinity (for one, from inputs so large that the chain
    overflows double precision) prints nothing: the first such field is
    named on stderr and the exit code is EXIT_NUMERIC.
    """
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            return _refuse(key, value, "report")
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        _print_flat(report, sys.stdout)
    return EXIT_OK


def _csv(columns: dict, *footer: str) -> Iterator[str]:
    """CSV text in pieces of at most CSV_CHUNK_ROWS rows: a header of the
    column names, one row per array element (floats with 17 significant
    digits, bools as 1/0) and the footer lines, each line ended by a newline.

    Only one piece of text is held at a time, so writing the pieces as they
    come keeps the text in memory bounded by the chunk, not the run.
    """
    row = ",".join("%d" if col.dtype == bool else "%.17g"
                   for col in columns.values()) + "\n"
    rows = zip(*columns.values())
    yield ",".join(columns) + "\n"
    while piece := "".join([row % cells for cells in islice(rows, CSV_CHUNK_ROWS)]):
        yield piece
    yield "".join(line + "\n" for line in footer)


def cmd_derive(args) -> int:
    return _write_report(_derive_report(_load(args)), args.json)


def _simulate(cfg: RunConfig, stride: int):
    """The trajectory's CSV columns and its footer values, by name."""
    initial = dynamics.PhaseState(cfg.theta0, cfg.psi0,
                                  cfg.theta_dot0, cfg.psi_dot0)
    traj = dynamics.integrate(initial, cfg.dt, cfg.n_steps, cfg.params,
                              stride=stride)
    columns = {name: getattr(traj, name) for name in
               ("tau", "theta", "psi", "theta_dot", "psi_dot", "energy")}
    columns["reduced_voltage"] = dynamics.reduced_voltage(traj, cfg.params)
    with np.errstate(all="ignore"):  # an inf or NaN is refused by the caller
        footer = {"max_energy_drift": traj.energy_drift()}
        switch_tau = dynamics.detect_switching(traj, cfg.window)
    if switch_tau is not None:
        footer["switch_tau"] = switch_tau
    return columns, footer


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces to ``path`` in order, as they come."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    """Write the trajectory CSV, or refuse one holding a non-finite number:
    the first such column or footer value is named on stderr and the exit
    code is EXIT_NUMERIC, as for a point report."""
    cfg = _load(args)
    stride = args.stride if args.stride is not None else cfg.stride
    columns, footer = _simulate(cfg, stride)
    for name, values in {**columns, **footer}.items():
        finite = np.isfinite(values)
        if not finite.all():
            return _refuse(name, float(np.extract(~finite, values)[0]), "CSV")
    pieces = _csv(columns, *(f"# {name}={value:.17g}" for name, value in footer.items()))
    out = args.out or cfg.out
    if out:
        _write_text(out, pieces)
    else:
        sys.stdout.writelines(pieces)
    return EXIT_OK


def _escape_report(cfg: RunConfig) -> dict:
    fluct = escape.epsilon(cfg.params)
    eps = cfg.epsilon_override if cfg.epsilon_override is not None else fluct.epsilon
    corrected = escape.escape_rate_ln(cfg.params, eps)
    bare = escape.escape_rate_ln(cfg.params, 0.0)
    report = {"epsilon": eps, "psi_variance": fluct.psi_variance}
    for label, result in (("corrected", corrected), ("bare", bare)):
        report.update((f"{label}_{name}", getattr(result, name))
                      for name in _ESCAPE_FIELDS)
    ln_ratio = corrected.ln_gamma - bare.ln_gamma
    report["ln_ratio"] = ln_ratio
    if abs(ln_ratio) < 700.0:
        report["ratio"] = math.exp(ln_ratio)
    return report


def cmd_escape(args) -> int:
    return _write_report(_escape_report(_load(args)), args.json)


def _axis_json(axis: escape.AxisSpec) -> dict:
    return {"name": axis.name, "min": axis.start, "max": axis.stop,
            "count": axis.count}


def cmd_sweep(args) -> int:
    cfg = _load(args)
    grid = escape.sweep_grid(cfg.params, cfg.axis1, cfg.axis2,
                             eps_override=cfg.epsilon_override)
    stem = args.out or cfg.out or "sweep"
    csv_path = stem + ".csv"
    json_path = stem + ".json"
    _write_text(csv_path, _csv({
        grid.axis1.name: np.repeat(grid.axis1.values(), grid.axis2.count),
        grid.axis2.name: np.tile(grid.axis2.values(), grid.axis1.count),
        "ln_ratio": grid.values.ravel(),
        "valid": grid.valid.ravel(),
    }))
    document = {
        "axis1": _axis_json(grid.axis1),
        "axis2": _axis_json(grid.axis2),
        "base_params": asdict(grid.base),
        "epsilon_override": cfg.epsilon_override,
        "quantity": "ln_gamma_ratio",
        "ln_ratio": np.where(grid.valid, grid.values, None).tolist(),
        "valid": grid.valid.tolist(),
    }
    _write_text(json_path, [json.dumps(document, indent=2), "\n"])
    if not grid.valid.any():
        sys.stderr.write("warning: no valid cells in the requested grid\n")
    sys.stdout.write(f"wrote {csv_path} and {json_path}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks(_load(args).params)
    sys.stdout.write(verify.format_table(results) + "\n")
    if all(r.passed for r in results):
        return EXIT_OK
    return EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heterojj",
        description="Phase dynamics and quantum escape rates for two-channel "
                    "Josephson junctions (reduced units: hbar = E_C = 1).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", metavar="PATH",
                       help="key=value config file ([junction], [run])")
        p.add_argument("--seedless", action="store_true",
                       help="reserved flag; this tool uses no randomness "
                            "and rejects it")

    p = sub.add_parser("derive", help="print derived scales, psi variance, epsilon")
    add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of key=value")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("simulate", help="integrate the phase equations to CSV")
    add_common(p)
    p.add_argument("--out", metavar="PATH", help="CSV output path (default stdout)")
    p.add_argument("--stride", type=int, metavar="N",
                   help="store every N-th step (overrides config)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("escape", help="corrected and bare escape rates at one point")
    add_common(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of key=value")
    p.set_defaults(func=cmd_escape)

    p = sub.add_parser("sweep", help="ln(Gamma/Gamma0) over a parameter grid")
    add_common(p)
    p.add_argument("--out", metavar="STEM",
                   help="output stem; writes STEM.csv and STEM.json (default 'sweep')")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle suite, nonzero exit on failure")
    add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.seedless:
        sys.stderr.write("error: --seedless is reserved; this tool uses no "
                         "randomness anywhere\n")
        return EXIT_CONFIG
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
