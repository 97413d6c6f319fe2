"""Output checks: each job's exit code and numbers against the reference.

A check returns a list of problems; an empty list means the job's output
is correct.  Only the first few problems of a job are kept.
"""

from __future__ import annotations

import json
import math
import os

import reference
from reference import close
from workloads import VERIFY_DRIFT_TOL, Job

MAX_PROBLEMS = 5
# The integrator is compared step by step with the reference RK4 over this
# many leading steps, short enough that an unstable psi mode cannot amplify
# rounding differences past the tolerance; the rest of a trajectory is
# checked for consistency.
RK4_CHECK_STEPS = 200
VERIFY_CHECKS = ("epsilon-dual-form", "spectrum-ladder", "spectrum-ground-energy",
                 "spectrum-ground-variance", "spectrum-resolution", "bounce-vs-closed-form",
                 "cubic-barrier-height", "cubic-curvature", "gradient-vs-fd", "energy-drift")


class Problems(list):
    def add(self, text: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(text)


def _read(workdir: str, name: str) -> str:
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return fh.read()


def _compare(problems: Problems, what: str, value, expected, scale: float = 0.0) -> None:
    if not close(value, expected, scale):
        problems.add(f"{what}: got {value!r}, reference {expected!r}")


def check_derive(job: Job, exit_code: int, stdout: str, workdir: str,
                 problems: Problems) -> None:
    report = json.loads(stdout)
    expected = dict(job.params)
    expected.update(reference.scales(job.params))
    if set(report) != set(expected):
        problems.add(f"derive keys differ: {sorted(set(report) ^ set(expected))}")
        return
    for key, ref in expected.items():
        _compare(problems, key, float(report[key]), float(ref))


def check_escape(job: Job, exit_code: int, stdout: str, workdir: str,
                 problems: Problems) -> None:
    expected = reference.escape_report(job.params)
    if expected is None:
        if stdout:
            problems.add("no-barrier point printed a report")
        return
    report = json.loads(stdout)
    if set(report) != set(expected):
        problems.add(f"escape keys differ: {sorted(set(report) ^ set(expected))}")
        return
    scale = reference.ln_gamma_scale(job.params)
    for key, ref in expected.items():
        _compare(problems, key, report[key], ref, scale if key.startswith("ln") else 0.0)


def check_verify(job: Job, exit_code: int, stdout: str, workdir: str,
                 problems: Problems) -> None:
    rows = {}
    for line in stdout.splitlines()[1:]:
        fields = line.split()
        rows[fields[0]] = (float(fields[1]), float(fields[2]), fields[4])
    if tuple(rows) != VERIFY_CHECKS:
        problems.add(f"verify rows differ: {list(rows)}")
        return
    failed = [name for name, (_, _, status) in rows.items() if status != "PASS"]
    if (exit_code != 0) != bool(failed):
        problems.add(f"exit code {exit_code} does not match the failed checks {failed}")
    drift, _, drift_status = rows["energy-drift"]
    if drift_status != ("PASS" if drift <= VERIFY_DRIFT_TOL else "FAIL"):
        problems.add(f"energy-drift is {drift_status} at a drift of {drift!r}")
    sc = reference.scales(job.params)
    barrier = reference.has_barrier(job.params, sc["epsilon"])
    if barrier and set(failed) - {"energy-drift"}:
        problems.add(f"checks not PASS below the critical tilt: {failed}")
    elif not barrier and not failed:
        problems.add("no check failed above the critical tilt")
    # The closed-form references printed in the table (15 significant digits).
    expected = {"epsilon-dual-form": sc["epsilon_from_ratio"],
                "spectrum-ladder": sc["omega_jl"],
                "spectrum-ground-energy": sc["omega_jl"] / 2.0,
                "spectrum-ground-variance": sc["psi_variance"]}
    if barrier:
        r = reference.rate(job.params, sc["epsilon"])
        expected.update({"bounce-vs-closed-form": r["exponent_b"],
                         "cubic-barrier-height": r["v0"],
                         "cubic-curvature": 0.5 * r["omega_p_i"] ** 2})
    for name, ref in expected.items():
        _compare(problems, f"{name} reference", rows[name][1], ref)


def check_sweep(job: Job, exit_code: int, stdout: str, workdir: str,
                problems: Problems) -> None:
    (name1, _, _, n1), (name2, _, _, n2) = job.run["axes"]
    lines = _read(workdir, "out.csv").splitlines()
    if lines[0] != f"{name1},{name2},ln_ratio,valid":
        problems.add(f"sweep header {lines[0]!r}")
        return
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != n1 * n2:
        problems.add(f"sweep has {len(rows)} rows, expected {n1 * n2}")
        return
    document = json.loads(_read(workdir, "out.json"))
    json_values = [v for row in document["ln_ratio"] for v in row]
    json_valid = [v for row in document["valid"] for v in row]
    for k, (v1, v2, value, valid) in enumerate(rows):
        cell = reference.sweep_cell(job.params, ((name1, v1), (name2, v2)))
        expected = reference.sweep_value(cell)
        where = f"cell {k} ({name1}={v1!r}, {name2}={v2!r})"
        if bool(valid) != (not math.isnan(expected)):
            problems.add(f"{where}: valid={int(valid)}, reference value {expected!r}")
            continue
        if valid:
            _compare(problems, where, value, expected, reference.ln_gamma_scale(cell))
        elif not math.isnan(value):
            problems.add(f"{where}: invalid cell carries {value!r}")
        if json_valid[k] != bool(valid) or (valid and json_values[k] != value):
            problems.add(f"{where}: JSON matrix disagrees with the CSV")


def check_simulate(job: Job, exit_code: int, stdout: str, workdir: str,
                   problems: Problems) -> None:
    run, p = job.run, job.params
    stride, dt = run["stride"], run["dt"]
    initial = (run["theta0"], run["psi0"], run["theta_dot0"], run["psi_dot0"])
    expected_states = reference.rk4(p, initial, dt, min(run["n_steps"], RK4_CHECK_STEPS))[::stride]
    energy_of = reference.energy_function(p)
    lam = reference.scales(p)["lambda_cap"]
    tau_step, tol = dt * stride, reference.REL_TOL
    footers, rows, drift, switch_tau = [], 0, 0.0, None
    # Streamed: a stride-1 trajectory is 10^5 rows, and the client's memory
    # must stay below a child's, whose peak RSS is a metric.
    with open(os.path.join(workdir, "out.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != "tau,theta,psi,theta_dot,psi_dot,energy,reduced_voltage":
            problems.add(f"simulate header {header!r}")
            return
        for line in fh:
            if line.startswith("#"):
                footers.append(line.rstrip("\n"))
                continue
            tau, theta, psi, theta_dot, psi_dot, energy, voltage = map(float, line.split(","))
            state = (theta, psi, theta_dot, psi_dot)
            if rows == 0:
                theta_first, energy_first = theta, energy
                if state != initial:
                    problems.add(f"first row {state} is not the initial state {initial}")
            if rows < len(expected_states):
                for name, value, ref in zip(("theta", "psi", "theta_dot", "psi_dot"),
                                            state, expected_states[rows]):
                    _compare(problems, f"row {rows} {name} vs reference RK4", value, ref, 1.0)
            e_ref, e_size = energy_of(theta, psi, theta_dot, psi_dot)
            t_ref, v_ref = tau_step * rows, theta_dot / lam
            # Inline form of close(): this loop sees 10^5 rows per job.
            if (abs(energy - e_ref) > tol * e_size or abs(tau - t_ref) > tol * (t_ref + 1e-3)
                    or abs(voltage - v_ref) > tol * (abs(v_ref) + 1e-3)):
                _compare(problems, f"row {rows} energy", energy, e_ref, e_size)
                _compare(problems, f"row {rows} tau", tau, t_ref)
                _compare(problems, f"row {rows} reduced_voltage", voltage, v_ref)
            if abs(energy - energy_first) > drift:
                drift = abs(energy - energy_first)
            if switch_tau is None and abs(theta - theta_first) > 2.0 * math.pi:
                switch_tau = tau
            rows += 1
    if rows != run["n_steps"] // stride + 1:
        problems.add(f"simulate has {rows} rows, expected {run['n_steps'] // stride + 1}")
        return
    expected_footers = [f"# max_energy_drift={drift / (abs(energy_first) or 1.0)!r}"]
    if switch_tau is not None:
        expected_footers.append(f"# switch_tau={switch_tau!r}")
    parsed = [f"{f.split('=')[0]}={float(f.split('=')[1])!r}" for f in footers]
    if parsed != expected_footers:
        problems.add(f"footers {footers}, expected {expected_footers}")


CHECKS = {"derive": check_derive, "escape": check_escape, "verify": check_verify,
          "sweep": check_sweep, "simulate": check_simulate}


def check(job: Job, exit_code: int, stdout: str, workdir: str) -> list:
    """Problems with one job's result; an empty list means it is correct."""
    problems = Problems()
    if exit_code not in job.expect_exit:
        problems.add(f"exit code {exit_code}, documented {job.expect_exit}")
        return problems
    try:
        CHECKS[job.command](job, exit_code, stdout, workdir, problems)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.add(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
