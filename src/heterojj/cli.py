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
from typing import Optional

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


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _load(args) -> RunConfig:
    if args.config is None:
        return default_config()
    return load_config(args.config)


def _derive_report(cfg: RunConfig) -> dict:
    scales = derive(cfg.params)
    fluct = escape.epsilon(cfg.params)
    report = {
        "ej1": cfg.params.ej1, "ej2": cfg.params.ej2, "ein": cfg.params.ein,
        "alpha1": cfg.params.alpha1, "alpha2": cfg.params.alpha2,
        "kappa": cfg.params.kappa, "bias": cfg.params.bias,
        "lambda_cap": scales.lambda_cap, "ej_sum": scales.ej_sum,
        "ej_tilt": scales.ej_tilt, "omega_p": scales.omega_p,
        "omega_p1": scales.omega_p1, "omega_p2": scales.omega_p2,
        "omega_jl": scales.omega_jl, "m_cm": scales.m_cm,
        "m_rlt": scales.m_rlt, "g_plus": scales.g_plus,
        "g_minus": scales.g_minus, "psi_variance": fluct.psi_variance,
        "epsilon": fluct.epsilon, "epsilon_from_ratio": fluct.epsilon_from_ratio,
        "epsilon_valid": fluct.valid, "epsilon_strained": fluct.strained,
    }
    return report


def _print_flat(report: dict, stream) -> None:
    for key, value in report.items():
        if isinstance(value, bool):
            stream.write(f"{key}={int(value)}\n")
        elif isinstance(value, int):
            stream.write(f"{key}={value}\n")
        else:
            stream.write(f"{key}={_fmt(value)}\n")


def _write_report(report: dict, as_json: bool) -> int:
    """Print a point report, or refuse one holding a non-finite number.

    A NaN or infinity (for one, from inputs so large that the chain
    overflows double precision) prints nothing: the first such field is
    named on stderr and the exit code is EXIT_NUMERIC.
    """
    for key, value in report.items():
        if isinstance(value, float) and not math.isfinite(value):
            sys.stderr.write(f"error: {key} is not finite ({value!r}); "
                             "no report written\n")
            return EXIT_NUMERIC
    if as_json:
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        _print_flat(report, sys.stdout)
    return EXIT_OK


def cmd_derive(args) -> int:
    return _write_report(_derive_report(_load(args)), args.json)


def _simulate_csv(cfg: RunConfig, stride: int):
    initial = dynamics.PhaseState(cfg.theta0, cfg.psi0,
                                  cfg.theta_dot0, cfg.psi_dot0)
    traj = dynamics.integrate(initial, cfg.dt, cfg.n_steps, cfg.params,
                              stride=stride)
    scales = derive(cfg.params)
    voltage = traj.theta_dot / scales.lambda_cap
    lines = ["tau,theta,psi,theta_dot,psi_dot,energy,reduced_voltage"]
    for i in range(len(traj)):
        lines.append(",".join((_fmt(traj.tau[i]), _fmt(traj.theta[i]),
                               _fmt(traj.psi[i]), _fmt(traj.theta_dot[i]),
                               _fmt(traj.psi_dot[i]), _fmt(traj.energy[i]),
                               _fmt(voltage[i]))))
    scale = abs(traj.energy[0]) or 1.0
    drift = float(np.max(np.abs(traj.energy - traj.energy[0]))) / scale
    lines.append(f"# max_energy_drift={_fmt(drift)}")
    switch_tau = dynamics.detect_switching(traj, cfg.window)
    if switch_tau is not None:
        lines.append(f"# switch_tau={_fmt(switch_tau)}")
    return "\n".join(lines) + "\n"


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path!r}: {exc}") from exc


def cmd_simulate(args) -> int:
    cfg = _load(args)
    stride = args.stride if args.stride is not None else cfg.stride
    text = _simulate_csv(cfg, stride)
    out = args.out or cfg.out
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _escape_report(cfg: RunConfig) -> dict:
    fluct = escape.epsilon(cfg.params)
    eps = cfg.epsilon_override if cfg.epsilon_override is not None else fluct.epsilon
    corrected = escape.escape_rate_ln(cfg.params, eps)
    bare = escape.escape_rate_ln(cfg.params, 0.0)
    ln_ratio = corrected.ln_gamma - bare.ln_gamma
    report = {
        "epsilon": eps,
        "psi_variance": fluct.psi_variance,
        "corrected_theta0": corrected.theta0,
        "corrected_omega_p_i": corrected.omega_p_i,
        "corrected_v0": corrected.v0,
        "corrected_exponent_b": corrected.exponent_b,
        "corrected_ln_prefactor": corrected.ln_prefactor,
        "corrected_ln_gamma": corrected.ln_gamma,
        "bare_theta0": bare.theta0,
        "bare_omega_p_i": bare.omega_p_i,
        "bare_v0": bare.v0,
        "bare_exponent_b": bare.exponent_b,
        "bare_ln_prefactor": bare.ln_prefactor,
        "bare_ln_gamma": bare.ln_gamma,
        "ln_ratio": ln_ratio,
    }
    if abs(ln_ratio) < 700.0:
        report["ratio"] = math.exp(ln_ratio)
    return report


def cmd_escape(args) -> int:
    return _write_report(_escape_report(_load(args)), args.json)


def _sweep_json_document(grid: escape.SweepGrid, eps_override) -> dict:
    def axis_meta(axis):
        return {"name": axis.name, "min": axis.start, "max": axis.stop,
                "count": axis.count}

    def cell(value, ok):
        return float(value) if ok else None

    values = [[cell(grid.values[i, j], grid.valid[i, j])
               for j in range(grid.axis2.count)]
              for i in range(grid.axis1.count)]
    return {
        "axis1": axis_meta(grid.axis1),
        "axis2": axis_meta(grid.axis2),
        "base_params": {
            "ej1": grid.base.ej1, "ej2": grid.base.ej2, "ein": grid.base.ein,
            "alpha1": grid.base.alpha1, "alpha2": grid.base.alpha2,
            "kappa": grid.base.kappa, "bias": grid.base.bias,
        },
        "epsilon_override": eps_override,
        "quantity": "ln_gamma_ratio",
        "ln_ratio": values,
        "valid": [[bool(v) for v in row] for row in grid.valid],
    }


def cmd_sweep(args) -> int:
    cfg = _load(args)
    grid = escape.sweep_grid(cfg.params, cfg.axis1, cfg.axis2,
                             eps_override=cfg.epsilon_override)
    stem = args.out or cfg.out or "sweep"
    vals1 = cfg.axis1.values()
    vals2 = cfg.axis2.values()
    lines = [f"{cfg.axis1.name},{cfg.axis2.name},ln_ratio,valid"]
    for i in range(cfg.axis1.count):
        for j in range(cfg.axis2.count):
            lines.append(",".join((_fmt(vals1[i]), _fmt(vals2[j]),
                                   _fmt(grid.values[i, j]),
                                   str(int(grid.valid[i, j])))))
    csv_path = stem + ".csv"
    json_path = stem + ".json"
    _write_text(csv_path, "\n".join(lines) + "\n")
    document = json.dumps(_sweep_json_document(grid, cfg.epsilon_override), indent=2)
    _write_text(json_path, document + "\n")
    if not grid.valid.any():
        sys.stderr.write("warning: no valid cells in the requested grid\n")
    sys.stdout.write(f"wrote {csv_path} and {json_path}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    spectrum_points = args.spectrum_n if args.spectrum_n is not None \
        else cfg.spectrum_points
    results = verify.run_checks(cfg.params,
                                spectrum_points=spectrum_points,
                                spectrum_levels=cfg.spectrum_levels,
                                bounce_tol=cfg.bounce_tol,
                                inject=args.inject)
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
    p.add_argument("--spectrum-n", type=int, metavar="N",
                   help="grid points for the spectrum checks (overrides config)")
    p.add_argument("--inject", choices=("gplus-sign",),
                   help="fault-injection hook for self-tests")
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
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG
    except InvalidAxisError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_AXIS
    except InvalidParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT
    except NonFiniteStateError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (NoBarrierError, NoEquilibriumError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NO_BARRIER


if __name__ == "__main__":
    sys.exit(main())
