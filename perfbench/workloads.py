"""Seeded job streams for the three benchmark workloads.

A job is one cold ``heterojj`` command: a config file, the command's
arguments, the exit code the program documents for that input, and the
amount of work it stands for.  The seed only picks parameter points; the
program receives nothing but the generated config file and arguments.

Each workload is an endless stream of fixed-pattern blocks.  The pattern
(which kind of job sits at which position) is the same for every seed and
the parameters are drawn per block, so a run that stops part-way through a
block still holds about the same mix of kinds on every seed; only the
points move.  The last job of each block repeats an earlier job of the block
byte for byte (always the same position, so the mix stays fixed), which is
how the benchmark checks that output is deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional

import reference

# Exit codes documented by the CLI.
EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NO_BARRIER = 5

# The energy-drift check of `verify`: (initial state, dt, steps) and tolerance.
VERIFY_DRIFT_RUN = ((0.01, 0.0, 0.0, 0.0), 1e-3, 10_000)
VERIFY_DRIFT_TOL = 1e-8

SWEEP_CELLS = 10_000
TRAJECTORY_STEPS = 100_000
LARGE_STRIDES = (500, 1000, 2000, 5000)
AXIS_PAIRS = tuple(itertools.combinations(("bias", "omega_ratio", "ej_over_ec", "alpha"), 2))


@dataclass(frozen=True)
class Job:
    """One cold CLI invocation and what its output must satisfy."""

    id: str
    command: str                 # derive | escape | verify | sweep | simulate
    config: str                  # text of the config file passed with --config
    args: tuple                  # arguments after the config
    params: dict                 # junction as direct energies (reference form)
    expect_exit: tuple           # exit codes the CLI documents for this input
    work: float                  # cells, integrator steps, or 1 job
    run: dict = field(default_factory=dict)   # [run] values the checks need
    repeat_of: Optional[str] = None


def _config_text(junction: dict, run: dict) -> str:
    # repr() of a float round-trips, so the program parses the exact double
    # the reference is evaluated at.
    lines = ["[junction]"] + [f"{k} = {v!r}" for k, v in junction.items()]
    if run:
        lines += ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    return "\n".join(lines) + "\n"


def _j_ratio(rng: random.Random, kappa: int) -> float:
    # kappa = -1 tilts with |E_J1 - E_J2|, which vanishes for equal channels;
    # keep the asymmetry away from 1 so every junction has a finite tilt.
    if kappa == 1 and rng.random() < 0.3:
        return 1.0
    return rng.uniform(0.4, 0.8) if rng.random() < 0.5 else rng.uniform(1.25, 2.5)


def _ratios(rng: random.Random, ej=(50.0, 200.0), omega=(1.0, 4.0)) -> dict:
    kappa = rng.choice((1, -1))
    return {"ej_over_ec": rng.uniform(*ej), "omega_ratio": rng.uniform(*omega),
            "j_ratio": _j_ratio(rng, kappa), "alpha1": rng.uniform(0.05, 0.3),
            "alpha2": rng.uniform(0.05, 0.3), "kappa": kappa}


# escape_map ---------------------------------------------------------------

_AXIS_RANGES = {
    "bias": ((0.80, 0.90), (1.00, 1.04)),       # past 1 - eps: no-barrier cells
    "omega_ratio": ((0.5, 1.5), (4.0, 6.0)),
    "ej_over_ec": ((20.0, 60.0), (150.0, 400.0)),
    "alpha": ((0.02, 0.08), (0.3, 1.0)),
}


def _sweep_job(rng: random.Random, axes: tuple, scale: float, job_id: str) -> Job:
    junction = _ratios(rng)
    junction["bias"] = rng.uniform(0.90, 0.98)
    cells = max(4.0, SWEEP_CELLS * scale)
    n1 = max(2, round(cells ** 0.5 * rng.uniform(0.8, 1.25)))
    n2 = max(2, round(cells / n1))
    specs = []
    for name, count in zip(axes, (n1, n2)):
        (lo_a, lo_b), (hi_a, hi_b) = _AXIS_RANGES[name]
        specs.append((name, rng.uniform(lo_a, lo_b), rng.uniform(hi_a, hi_b), count))
    run = {f"axis{i + 1}": f"{n}:{a!r}:{b!r}:{c}" for i, (n, a, b, c) in enumerate(specs)}
    return Job(id=job_id, command="sweep", config=_config_text(junction, run),
               args=("--out", "out"), params=reference.junction(**junction), expect_exit=(EXIT_OK,),
               work=float(n1 * n2), run={"axes": specs})


def _escape_map_block(rng: random.Random, scale: float, block: int) -> list:
    return [_sweep_job(rng, axes, scale, f"{block}.{i}") for i, axes in enumerate(AXIS_PAIRS)]


# trajectories ---------------------------------------------------------------

# S: stride 1, writer-bound; L: large stride, kernel-bound.  Upper case
# starts below the critical tilt, lower case above it.  With the repeat of
# an L job, 2 of 8 jobs are stride 1, so that the median job time sits
# inside the large-stride cluster rather than on its edge.
_TRAJECTORY_PATTERN = ("S", "l", "L", "L", "s", "L", "l")


def _simulate_job(rng: random.Random, kind: str, scale: float, job_id: str) -> Job:
    junction = _ratios(rng)
    direct = reference.junction(bias=0.0, **junction)
    # Classical critical tilt of the untilted-psi washboard: E_tilt I = E_J.
    critical = (direct["ej1"] + direct["ej2"]) / abs(direct["ej1"] + junction["kappa"] * direct["ej2"])
    above = kind.islower()
    junction["bias"] = critical * (rng.uniform(1.1, 1.4) if above else rng.uniform(0.3, 0.85))
    steps = max(10, round(TRAJECTORY_STEPS * scale * rng.uniform(0.95, 1.05)))
    stride = 1 if kind.upper() == "S" else rng.choice(LARGE_STRIDES)
    run = {"dt": rng.uniform(5e-4, 1e-3), "n_steps": steps, "stride": stride,
           "theta0": rng.uniform(-0.5, 0.5), "psi0": rng.uniform(-0.3, 0.3),
           "theta_dot0": rng.uniform(-1.0, 1.0), "psi_dot0": rng.uniform(-1.0, 1.0)}
    config = _config_text(junction, {k: repr(v) for k, v in run.items()})
    return Job(id=job_id, command="simulate", config=config, args=("--out", "out.csv"),
               params=reference.junction(**junction), expect_exit=(EXIT_OK,),
               work=float(steps), run=run)


def _trajectories_block(rng: random.Random, scale: float, block: int) -> list:
    return [_simulate_job(rng, kind, scale, f"{block}.{i}")
            for i, kind in enumerate(_TRAJECTORY_PATTERN)]


# point_checks ---------------------------------------------------------------

# (command, above the critical tilt 1 - eps)
_POINT_PATTERN = (("escape", False), ("derive", False), ("verify", False),
                  ("escape", True), ("derive", True), ("verify", True), ("escape", False))


def _point_job(rng: random.Random, command: str, above: bool, job_id: str) -> Job:
    junction = _ratios(rng, ej=(30.0, 300.0), omega=(0.7, 5.0))
    eps = reference.scales(reference.junction(bias=0.0, **junction))["epsilon"]
    junction["bias"] = (1.0 - eps) * (rng.uniform(1.01, 1.2) if above else rng.uniform(0.5, 0.97))
    params = reference.junction(**junction)
    expect = (EXIT_OK,)
    if above and command == "escape":
        expect = (EXIT_NO_BARRIER,)
    elif command == "verify":
        # The energy-drift row integrates at zero bias with a fixed step and
        # rightly FAILs where the fastest mode is too stiff for that step.
        # Close to its tolerance, and where the start sits on an unstable
        # psi mode, no second implementation can predict the row's status,
        # so both exits are documented there.
        drift = reference.energy_drift(dict(params, bias=0.0), *VERIFY_DRIFT_RUN)
        if above or drift > 10.0 * VERIFY_DRIFT_TOL:
            expect = (EXIT_VERIFY_FAILED,)
        elif drift > 0.1 * VERIFY_DRIFT_TOL:
            expect = (EXIT_OK, EXIT_VERIFY_FAILED)
    args = ("--json",) if command in ("derive", "escape") else ()
    return Job(id=job_id, command=command, config=_config_text(junction, {}), args=args,
               params=params, expect_exit=expect, work=1.0)


def _point_checks_block(rng: random.Random, scale: float, block: int) -> list:
    return [_point_job(rng, command, above, f"{block}.{i}")
            for i, (command, above) in enumerate(_POINT_PATTERN)]


# (block maker, index of the block's job that the last job repeats)
BLOCKS = {
    "escape_map": (_escape_map_block, 0),
    "trajectories": (_trajectories_block, 2),
    "point_checks": (_point_checks_block, 2),
}

WORK_UNITS = {"escape_map": "cells", "trajectories": "steps", "point_checks": "jobs"}


def jobs(workload: str, seed: int, scale: float = 1.0) -> Iterator[Job]:
    """Endless job stream; job k depends only on (workload, seed, k)."""
    make_block, repeat = BLOCKS[workload]
    for block in itertools.count():
        fresh = make_block(random.Random(f"{workload}:{seed}:{block}"), scale, block)
        yield from fresh
        original = fresh[repeat]
        yield replace(original, id=f"{block}.{len(fresh)}", repeat_of=original.id)
