"""Command-line interface: derive, simulate, escape, sweep, verify.

Every command is deterministic: identical configuration produces
byte-identical output.  Numbers are serialized with 17 significant digits
so doubles round-trip exactly.

Exit codes: 0 ok, 1 verification failure, 2 config/usage parse error,
3 parameter invariant violation, 4 numeric (non-finite) failure,
5 no barrier / no equilibrium, 6 invalid sweep axis.

Importing this module loads no numpy: each command imports what it runs
once its input has been read and checked.  ``derive`` and ``escape``
never load it: they evaluate their point on Python floats.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from contextlib import closing, contextmanager, nullcontext, suppress
from dataclasses import asdict
from typing import Callable, Iterable, Iterator, Optional

from . import __version__
from .config import RunConfig, default_config, load_config
from .errors import (ConfigError, InvalidAxisError, InvalidParameterError,
                     NoBarrierError, NoEquilibriumError, NonFiniteStateError)
from .model import AxisSpec, PhaseState, derive

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

# Rows of CSV text formatted and written at a time: about 60 KB of text
# for a sweep's rows and 100-150 KB for a simulate's.
CSV_CHUNK_ROWS = 1024
# Longer CSV tables are formatted half by a forked helper process.  Forking
# and reading the helper's text back cost more than they save on a sweep's
# ~10**4 rows; a stride-1 simulate's 10**5 rows gain.
CSV_SPLIT_ROWS = 16 * CSV_CHUNK_ROWS
# Characters of the helper's (ASCII) text read back at a time: 16 for each
# row of a chunk, so a piece holds no more rows than a chunk wherever the
# rows are 16 characters or longer.
READ_BACK_CHARS = 16 * CSV_CHUNK_ROWS


def _stderr(line: str) -> None:
    """Write an ``error:`` or ``warning:`` line to stderr, if it can be
    written: a process started with stderr closed has ``sys.stderr = None``,
    and a pipe may have lost its reader.  The exit code still tells."""
    try:
        if sys.stderr is not None:
            sys.stderr.write(line + "\n")
    except OSError:
        pass


def _load(args) -> RunConfig:
    if args.config is None:
        return default_config()
    return load_config(args.config)


def _derive_report(cfg: RunConfig) -> dict:
    from . import escape
    return {**asdict(cfg.params), **asdict(derive(cfg.params)),
            **asdict(escape.epsilon(cfg.params))}


def _print_flat(report: dict, stream) -> None:
    for key, value in report.items():
        spec = "d" if isinstance(value, int) else ".17g"  # bools print as 1/0
        stream.write(f"{key}={value:{spec}}\n")


def _stdout():
    """sys.stdout, or the OSError a write to a closed stdout raises: a
    process started with stdout closed has ``sys.stdout = None``."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _out(args, what: str) -> Optional[str]:
    """The --out value, None without one; an empty one names no file."""
    if args.out == "":
        raise ConfigError(f"empty --out {what} ''")
    return args.out


def _refuse(key: str, value: float, what: str) -> int:
    """Name a non-finite output field on stderr in place of the output."""
    _stderr(f"error: {key} is not finite ({value!r}); no {what} written")
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
        _stdout().write(json.dumps(report, indent=2) + "\n")
    else:
        _print_flat(report, _stdout())
    return EXIT_OK


def _csv_rows(chunk: Callable[[int, int], str], start: int, stop: int) -> Iterator[str]:
    """Rows ``[start, stop)`` as CSV text, ``chunk(lo, hi)`` for each piece
    ``[lo, hi)`` of at most CSV_CHUNK_ROWS rows."""
    for lo in range(start, stop, CSV_CHUNK_ROWS):
        yield chunk(lo, min(lo + CSV_CHUNK_ROWS, stop))


def _second_cpu() -> bool:
    """Whether this process can fork a helper that runs on another CPU."""
    if not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) > 1
    return (os.cpu_count() or 1) > 1


@contextmanager
def _helper(work, wanted: bool):
    """A forked helper that runs ``work()`` beside the ``with`` body, where
    ``wanted`` holds; a caller wants one only where :func:`_second_cpu` is
    True.  The body gets ``done()``: it waits for the helper, and is True
    only if the helper ran ``work()`` to the end; False if none started, or
    it raised or was killed.  What the helper did not do, the caller does
    itself.  The helper ends through os._exit (1 if ``work`` raised), so it
    never returns into the parent's code, flushes its buffers or prints.
    One still running when the body leaves is killed and reaped."""
    pid = None
    if wanted:
        with suppress(OSError):  # no helper
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                work()
                code = 0
            finally:
                os._exit(code)

    def done() -> bool:
        nonlocal pid
        if pid is None:
            return False
        code, pid = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), None
        return code == 0
    try:
        yield done
    finally:
        if pid is not None:  # the body left early, or raised
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _csv(names: Iterable[str], n: int, chunk: Callable[[int, int], str],
         *footer: str) -> Iterator[str]:
    """CSV text in pieces: a header of the column ``names``, the ``n``
    rows and the footer lines, each line ended by a newline.  The caller
    formats the rows: ``chunk(lo, hi)`` is the text of rows ``[lo, hi)``,
    each ended by a newline, for any ``0 <= lo < hi <= n``.

    Rows come at most CSV_CHUNK_ROWS at a time, or READ_BACK_CHARS
    characters at a time for those a helper formatted.  Only one piece of
    text is held at a time, so writing the pieces as they come keeps the
    text in memory bounded by the chunk, not the run.  A helper formats the
    second half of a table of more than CSV_SPLIT_ROWS rows into a temporary
    file, where a second CPU is at hand and the file can be made.
    """
    yield ",".join(names) + "\n"
    half = n // 2 if n > CSV_SPLIT_ROWS and _second_cpu() else n
    tmp = None
    if half < n:
        import tempfile  # only a split table needs it
        with suppress(OSError):  # no helper
            tmp = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")

    def format_second_half():
        tmp.writelines(_csv_rows(chunk, half, n))
        tmp.flush()
    with tmp or nullcontext(), _helper(format_second_half, tmp is not None) as done:
        yield from _csv_rows(chunk, 0, half)
        if done():
            tmp.seek(0)
            while piece := tmp.read(READ_BACK_CHARS):
                yield piece
        else:
            yield from _csv_rows(chunk, half, n)
    yield "".join(line + "\n" for line in footer)


def cmd_derive(args) -> int:
    return _write_report(_derive_report(_load(args)), args.json)


def _trajectory(cfg: RunConfig, stride: int):
    """The run's dynamics.Trajectory.  The run is checked and set up without
    numpy; where numpy is not loaded yet, a helper runs the kernel while
    this process imports numpy.  Without a helper that ran a clean run to
    the end, this process integrates the run itself."""
    from . import _kernels
    state = PhaseState(cfg.theta0, cfg.psi0, cfg.theta_dot0, cfg.psi_dot0)
    args = _kernels.rk4_setup(state, cfg.dt, cfg.n_steps, stride, cfg.params)
    # the kernel fills the shared buffer args[-1]
    with _helper(lambda: _kernels.rk4_step_loop(*args),
                 "numpy" not in sys.modules and _second_cpu()) as done:
        from . import dynamics  # numpy loads here, beside the helper
        if done():
            return dynamics._trajectory(state.tau, cfg.dt, stride, cfg.params, args[-1])
    # as a library caller does; it sets the run up again, in microseconds
    return dynamics.integrate(state, cfg.dt, cfg.n_steps, cfg.params, stride=stride)


def _simulate(cfg: RunConfig, stride: int):
    """The trajectory's CSV columns and its footer values, by name."""
    traj = _trajectory(cfg, stride)
    import numpy as np  # both loaded by _trajectory, after the run's checks
    from . import dynamics
    columns = {name: getattr(traj, name) for name in
               ("tau", "theta", "psi", "theta_dot", "psi_dot", "energy")}
    columns["reduced_voltage"] = dynamics.reduced_voltage(traj, cfg.params)
    with np.errstate(all="ignore"):  # an inf or NaN is refused by the caller
        footer = {"max_energy_drift": traj.energy_drift()}
        switch_tau = dynamics.detect_switching(traj)
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
    out = _out(args, "path")
    cfg = _load(args)
    stride = args.stride if args.stride is not None else cfg.stride
    columns, footer = _simulate(cfg, stride)
    import numpy as np  # loaded by _simulate
    for name, values in {**columns, **footer}.items():
        finite = np.isfinite(values)
        if not finite.all():
            return _refuse(name, float(np.extract(~finite, values)[0]), "CSV")
    row = ",".join(["%.17g"] * len(columns)) + "\n"

    def rows(lo, hi):
        # the numpy scalars zip makes format faster than a chunk of Python floats
        return "".join([row % cells for cells in zip(*(col[lo:hi] for col in columns.values()))])
    # closing stops a helper process at once if a write fails
    with closing(_csv(columns, len(columns["tau"]), rows,
                      *(f"# {name}={value:.17g}" for name, value in footer.items()))) as pieces:
        if out is None:
            _stdout().writelines(pieces)
        else:
            _write_text(out, pieces)
    return EXIT_OK


def _escape_report(cfg: RunConfig) -> dict:
    from . import escape
    fluct = escape.epsilon(cfg.params)
    corrected = escape.escape_rate_ln(cfg.params, fluct.epsilon)
    bare = escape.escape_rate_ln(cfg.params, 0.0)
    report = {"epsilon": fluct.epsilon, "psi_variance": fluct.psi_variance}
    for label, result in (("corrected", corrected), ("bare", bare)):
        report.update((f"{label}_{name}", value) for name, value in asdict(result).items())
    ln_ratio = corrected.ln_gamma - bare.ln_gamma
    report["ln_ratio"] = ln_ratio
    if abs(ln_ratio) < 700.0:
        report["ratio"] = math.exp(ln_ratio)
    return report


def cmd_escape(args) -> int:
    return _write_report(_escape_report(_load(args)), args.json)


def _axis_json(axis: AxisSpec) -> dict:
    return {"name": axis.name, "min": axis.start, "max": axis.stop,
            "count": axis.count}


def _sweep_json(head: dict, grid) -> Iterator[str]:
    """``json.dumps(document, indent=2) + "\n"`` in pieces, one grid row at
    a time, for the document ``head`` followed by the sweep grid's
    ``ln_ratio`` (its values, None where a cell is invalid) and ``valid``
    grids, each row's flags taken from that row's values.  Each row is
    written by the C encoder, which json.dumps uses only without indent."""
    import numpy as np  # loaded by the grid
    yield json.dumps(head, indent=2)[:-2]  # without its closing "\n}"
    grids = {"ln_ratio": ([value if ok else None for value, ok in zip(row.tolist(), np.isfinite(row).tolist())]
                          for row in grid.values),
             "valid": (np.isfinite(row).tolist() for row in grid.values)}
    for key, rows in grids.items():
        opening = f",\n  {json.dumps(key)}: [\n"
        for row in rows:
            # separators that put one cell per line at the grid cells' depth
            yield (opening + "    [\n      " + json.dumps(row, separators=(",\n      ", ": "))[1:-1]
                   + "\n    ]")
            opening = ",\n"
        yield "\n  ]"
    yield "\n}\n"


def cmd_sweep(args) -> int:
    stem = _out(args, "stem")
    # 'd/', '.' and '..' would write the hidden d/.csv, ..csv and ...csv
    if os.path.basename(stem) in ("", ".", ".."):
        raise ConfigError(f"--out stem {stem!r} has no file name")
    cfg = _load(args)
    from . import escape
    grid = escape.sweep_grid(cfg.params, cfg.axis1, cfg.axis2)
    csv_path = stem + ".csv"
    json_path = stem + ".json"
    # each axis value formatted once, not once per row
    labels1, labels2 = (["%.17g" % value for value in axis.values()]
                        for axis in (grid.axis1, grid.axis2))
    n2 = len(labels2)
    values = grid.values.ravel()

    # row k is grid cell divmod(k, n2), valid where its value is finite
    def rows(lo, hi):
        return "".join(["%s,%s,%.17g,%d\n" % (labels1[k // n2], labels2[k % n2], value, math.isfinite(value))
                        for k, value in zip(range(lo, hi), values[lo:hi])])
    with closing(_csv((grid.axis1.name, grid.axis2.name, "ln_ratio", "valid"), values.size, rows)) as pieces:
        _write_text(csv_path, pieces)
    head = {
        "axis1": _axis_json(grid.axis1),
        "axis2": _axis_json(grid.axis2),
        "base_params": asdict(grid.base),
        "quantity": "ln_gamma_ratio",
    }
    _write_text(json_path, _sweep_json(head, grid))
    if not any(math.isfinite(value) for row in grid.values for value in row.tolist()):
        _stderr("warning: no valid cells in the requested grid")
    _stdout().write(f"wrote {csv_path} and {json_path}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # only verify loads the oracles
    results = verify.run_checks(_load(args).params)
    _stdout().write(verify.format_table(results) + "\n")
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
    p.add_argument("--out", metavar="STEM", default="sweep",
                   help="output stem; writes STEM.csv and STEM.json (default %(default)r)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the oracle suite, nonzero exit on failure")
    add_common(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except OSError as exc:
        # Files the commands open turn an OSError into a ConfigError, so this
        # one is stdout's (a closed pipe, a full device, a closed stdout).
        # An interpreter that exits normally after main flushes stdout
        # again: send that flush to nowhere.
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _stderr(f"error: cannot write to stdout: {exc}")
        return EXIT_CONFIG
    except tuple(_EXIT_CODES) as exc:
        _stderr(f"error: {exc}")
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def run() -> None:
    """The process entry of ``heterojj`` and ``python -m heterojj``: run
    ``main()`` on ``sys.argv``, flush stdout and stderr, and end the process
    with ``os._exit``, skipping the interpreter's teardown (about 30 ms once
    numpy is loaded, with nothing left to write).  ``atexit`` handlers do not
    run.  A usage error, ``--help``, ``--version`` and an uncaught exception
    leave through the normal exit instead, as they raise out of ``main``.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):  # keep the exit code main chose
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
