"""Shared test utilities."""

import contextlib
import io
import math
import os

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
    ``workdir`` as the working directory."""
    from heterojj.cli import main

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()
