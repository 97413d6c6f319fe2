"""Shared test utilities."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np


def dominant_angular_frequency(series, dt):
    """Angular frequency of the strongest spectral peak of a real series.

    Hann window plus parabolic interpolation of log-magnitude around the
    peak bin; good to ~1e-4 relative for a few hundred cycles.
    """
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    window = np.hanning(x.size)
    spectrum = np.abs(np.fft.rfft(x * window))
    k = int(np.argmax(spectrum[1:])) + 1
    if 1 <= k < spectrum.size - 1 and spectrum[k - 1] > 0 and spectrum[k + 1] > 0:
        lm = math.log(spectrum[k - 1])
        l0 = math.log(spectrum[k])
        lp = math.log(spectrum[k + 1])
        delta = 0.5 * (lm - lp) / (lm - 2.0 * l0 + lp)
    else:
        delta = 0.0
    return 2.0 * math.pi * (k + delta) / (x.size * dt)


def random_params(rng, bias_range=(0.0, 0.0), kappa_choices=(1,)):
    """One random valid JunctionParams draw (a seeded property-test sample)."""
    from heterojj import JunctionParams

    return JunctionParams(
        ej1=float(10.0 ** rng.uniform(0.0, 3.0)),
        ej2=float(10.0 ** rng.uniform(0.0, 3.0)),
        ein=float(10.0 ** rng.uniform(-1.0, 3.0)),
        alpha1=float(rng.uniform(0.01, 1.0)),
        alpha2=float(rng.uniform(0.01, 1.0)),
        kappa=int(rng.choice(kappa_choices)),
        bias=float(rng.uniform(*bias_range)),
    )


def run_cli(argv, workdir):
    """Exit code, stdout and stderr of ``heterojj.cli.main(argv)`` run with
    ``workdir`` as the working directory.  The code of a SystemExit that
    argparse raises (a usage error, ``--help``, ``--version``) is the exit
    code."""
    from heterojj.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def run_in_process(argv, workdir):
    """run_cli with stdout and stderr as bytes, as run_process gives them."""
    code, out, err = run_cli(argv, workdir)
    return code, out.encode(), err.encode()


SRC = Path(__file__).resolve().parents[1] / "src"


def process_env():
    """The environment of a heterojj process under test: this package on the
    path, and stdout and stderr buffered as by default, so that a missing
    flush loses text."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_process(argv, workdir, entry=("-m", "heterojj")):
    """Exit code, stdout and stderr (bytes) of ``python -m heterojj *argv``
    (``python *entry *argv``) run in a new session with ``workdir`` as the
    working directory, after checking that the command left no process of
    its session running."""
    with subprocess.Popen([sys.executable, *entry, *argv], cwd=workdir, env=process_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as proc:
        out, err = proc.communicate(timeout=120)
    # the session's process group has the command's pid as its id; a helper
    # the command forked and left behind would still be in it
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass
    else:
        raise AssertionError(f"heterojj {argv} left a process running")
    return proc.returncode, out, err
