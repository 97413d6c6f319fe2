#!/usr/bin/env python3
"""heterojj benchmark: cold CLI jobs in a closed loop, checked and timed.

    python3 perfbench/run.py --workload escape_map --seed 1 --seconds 38 --trace 0

One client runs one cold ``python -m heterojj ...`` child at a time and
starts the next when the previous one has exited, until ``--seconds`` have
passed.  Every job's exit code and output are checked against references
computed by the benchmark itself (see reference.py and checks.py).

``--trace 0`` reports the end-to-end metrics: set-up time (cold import of
``heterojj.cli``, sampled five times spread over the run), throughput,
median job wall time and peak child memory.  The times are scaled to a
reference machine speed by a calibration child timed next to each of them
(see CALIBRATION).
``--trace 1`` runs every job twice, untraced and traced, and reports the
per-layer metrics of tracing.py.  ``--workload all`` runs the three
workloads in turn.

The human-readable report goes to standard output; its last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (environment, every job, every failure) is written to
``.perfbench_run/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import tracing
import workloads
from traced_child import SPAWN_ENV

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"

SETUP_SAMPLES = 5
# A cold import of the libraries heterojj builds on, never of heterojj
# itself.  Its wall time follows the speed of the machine, which on a shared
# host moves by tens of percent over seconds to minutes, and no change to
# the program can move it.  Each job and set-up sample is timed next to one.
CALIBRATION = "import numpy, scipy.integrate, scipy.linalg, scipy.optimize"
# End-to-end times are scaled to a machine on which CALIBRATION takes this long.
REFERENCE_CALIBRATION_S = 0.75
JOB_TIMEOUT_S = 120.0
PROBE = ("import importlib.util, json, heterojj.cli, heterojj._kernels as k, numpy, scipy; "
         "spec = importlib.util.find_spec('numba'); "
         "print(json.dumps({'heterojj': heterojj.__version__, 'numpy': numpy.__version__, "
         "'scipy': scipy.__version__, 'backend': k.active_backend(), "
         "'numba': 'present' if spec else 'unavailable'}))")

END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "job_p50_s": "s", "peak_rss_mb": "MB"}


class Child:
    """One finished child process: exit code, wall time and its own peak RSS."""

    def __init__(self, argv, cwd, timeout=JOB_TIMEOUT_S):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(os.path.join(cwd, "stdout"), "wb") as out, \
                open(os.path.join(cwd, "stderr"), "wb") as err:
            self.spawn_ns = time.perf_counter_ns()
            env[SPAWN_ENV] = str(self.spawn_ns)
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            lock = threading.Lock()
            reaped = False

            def kill():
                with lock:
                    if not reaped:
                        proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage, unlike RUSAGE_CHILDREN.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                with lock:
                    reaped = True
                timer.cancel()
            self.reap_ns = time.perf_counter_ns()
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.wall_s = (self.reap_ns - self.spawn_ns) * 1e-9
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        with open(os.path.join(cwd, "stdout"), "rb") as fh:
            self.stdout = fh.read()
        with open(os.path.join(cwd, "stderr"), "rb") as fh:
            self.stderr = fh.read()


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def prepare(workdir: str) -> dict:
    """Warm the interpreter's caches and describe the environment."""
    probe = Child([sys.executable, "-c", PROBE], workdir)
    if probe.exit_code != 0:
        raise RuntimeError("cannot import heterojj: " + probe.stderr.decode(errors="replace"))
    env = json.loads(probe.stdout)
    env.update({"python": platform.python_version(), "nproc": os.cpu_count(),
                "commit": git_commit(ROOT)})
    return env


def measure_import(workdir: str, code: str = "import heterojj.cli") -> float:
    """Wall time of one cold import in a fresh interpreter."""
    return Child([sys.executable, "-c", code], workdir).wall_s


def client_peak_rss_mb() -> float:
    """This process's own peak RSS.

    A child's ru_maxrss starts from its parent's peak at spawn time, so the
    children's peak RSS is only measured above this floor.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def clear(workdir: str) -> None:
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))


def run_job(job: workloads.Job, workdir: str, traced: bool):
    """Run one job cold; returns the child, its output digest and bytes.

    The outputs stay in ``workdir`` until the next job starts.
    """
    clear(workdir)
    with open(os.path.join(workdir, "job.cfg"), "w", encoding="utf-8") as fh:
        fh.write(job.config)
    cli_args = [job.command, "--config", "job.cfg", *job.args]
    if traced:
        argv = [sys.executable, "-X", "importtime", str(HERE / "traced_child.py"),
                "spans.json", job.id, *cli_args]
    else:
        argv = [sys.executable, "-m", "heterojj", *cli_args]
    child = Child(argv, workdir)
    digest = hashlib.sha256(child.stdout)
    size = len(child.stdout)
    for name in sorted(os.listdir(workdir)):
        if name.startswith("out"):
            with open(os.path.join(workdir, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + data)
            size += len(data)
    return child, digest.hexdigest(), size


def traced_layers(child, size, workdir) -> dict:
    """Per-layer totals of a traced job, from the spans it left in ``workdir``."""
    with open(os.path.join(workdir, "spans.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    names = record["names"]
    spans = [[names[s[0]]] + s[1:] for s in record["spans"]]
    # From the child's last span to its reaping: writing spans and exiting.
    spans.append(["job.exit", max(s[2] for s in spans), child.reap_ns, -1, None, None])
    layers = tracing.job_layers(spans)
    layers.update(tracing.import_times(child.stderr.decode(errors="replace")))
    layers.update({"cli.bytes_out": size, "trace.wall_s": child.wall_s})
    return layers


def run_traced(job: workloads.Job, workdir: str):
    """Run one job traced; returns the child, its output digest and its layers."""
    child, digest, size = run_job(job, workdir, traced=True)
    try:
        return child, digest, traced_layers(child, size, workdir)
    except (OSError, ValueError):
        return child, digest, None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: float,
                 workdir: str) -> dict:
    env = prepare(workdir)
    env["seed"] = seed
    setup, records, layers, digests = [], [], [], {}
    start = time.perf_counter()
    for k, job in enumerate(workloads.jobs(workload, seed, scale)):
        elapsed = time.perf_counter() - start
        if k and elapsed >= seconds:
            break
        if not trace:
            calibration = measure_import(workdir, CALIBRATION)
            if elapsed >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append((measure_import(workdir), calibration))
        if trace and k % 2:
            # Alternate which run goes first so that neither gets a warmer cache.
            traced = run_traced(job, workdir)
        child, digest, size = run_job(job, workdir, traced=False)
        problems = checks.check(job, child.exit_code, child.stdout.decode(), workdir)
        if trace:
            if k % 2 == 0:
                traced = run_traced(job, workdir)
            traced_child, traced_digest, job_layers = traced
            if (traced_child.exit_code, traced_digest) != (child.exit_code, digest):
                problems.append("traced run's exit code or output differs from the untraced run's")
            if job_layers is None:
                problems.append("traced run left no readable spans")
            else:
                job_layers["trace.untraced_wall_s"] = child.wall_s
                layers.append(dict(job_layers, id=job.id, command=job.command))
        original = digests.setdefault(job.repeat_of or job.id, digest)
        if original != digest:
            problems.append(f"output differs from job {job.repeat_of}, which it repeats")
        records.append({"id": job.id, "command": job.command, "work": job.work,
                        "exit_code": child.exit_code, "expect_exit": job.expect_exit,
                        "wall_s": child.wall_s, "calibration_s": None if trace else calibration,
                        "maxrss_mb": child.maxrss_mb, "bytes_out": size, "problems": problems, "config": job.config})
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append((measure_import(workdir), measure_import(workdir, CALIBRATION)))
    result = {"workload": workload, "environment": env, "seconds": seconds, "scale": scale,
              "trace": trace, "work_unit": workloads.WORK_UNITS[workload],
              "setup_samples_s": setup, "jobs": records,
              "failed": [r for r in records if r["problems"]]}
    if trace:
        result["metrics"] = tracing.summarize(layers) if layers else {}
        result["layers"] = layers
    else:
        # Each time is scaled by the calibration taken next to it.
        walls = [r["wall_s"] * REFERENCE_CALIBRATION_S / r["calibration_s"] for r in records]
        result["metrics"] = {
            "setup_s": statistics.median(s * REFERENCE_CALIBRATION_S / c for s, c in setup),
            "work_per_s": sum(r["work"] for r in records) / sum(walls),
            "job_p50_s": statistics.median(walls),
            "peak_rss_mb": max(r["maxrss_mb"] for r in records),
        }
        result["raw_job_p50_s"] = statistics.median(r["wall_s"] for r in records)
        result["calibration_p50_s"] = statistics.median(r["calibration_s"] for r in records)
    result["failed_ratio"] = len(result["failed"]) / len(records)
    result["client_peak_rss_mb"] = client_peak_rss_mb()
    return result


def tail_percentile(values: list) -> tuple:
    """The highest percentile with at least ten samples above it, if any."""
    ordered = sorted(values)
    if len(ordered) < 20:
        return None
    rank = len(ordered) - 11
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def report(result: dict, out=sys.stdout) -> None:
    env = result["environment"]
    w = result["workload"]
    print(f"== {w}: seed {env['seed']}, {len(result['jobs'])} jobs in a closed loop "
          f"of one client, {'traced' if result['trace'] else 'untraced'}", file=out)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()), file=out)
    units = tracing.LAYER_METRICS if result["trace"] else END_TO_END
    for name, value in result["metrics"].items():
        note = f" ({result['work_unit']}/s)" if name == "work_per_s" else ""
        print(f"  {name:<26} {value:>16.6g} {units[name]}{note}", file=out)
    print(f"  {'failed_ratio':<26} {result['failed_ratio']:>16.6g} ratio "
          f"({len(result['failed'])} of {len(result['jobs'])} jobs)", file=out)
    if not result["trace"]:
        tail = tail_percentile([r["wall_s"] for r in result["jobs"]])
        if tail:
            print(f"  {'job_wall_p%.0f_s' % tail[0]:<26} {tail[1]:>16.6g} s (unscaled)", file=out)
        print(f"  {'job_wall_p50_s':<26} {result['raw_job_p50_s']:>16.6g} s (unscaled)", file=out)
        print(f"  {'calibration_p50_s':<26} {result['calibration_p50_s']:>16.6g} s "
              f"(times above are scaled to {REFERENCE_CALIBRATION_S} s)", file=out)
        if result["metrics"]["peak_rss_mb"] <= result["client_peak_rss_mb"]:
            print(f"  warning: peak_rss_mb is at the client's own peak of "
                  f"{result['client_peak_rss_mb']:.1f} MB and measures the client", file=out)
    else:
        m = result["metrics"]
        if m:
            gap = abs(m["trace.top_level_s"] - m["trace.untraced_wall_s"])
            verdict = "within" if gap <= abs(m["trace.overhead_s"]) else "NOT within"
            print(f"  top-level spans vs untraced wall: {gap:.6g} s apart, {verdict} the "
                  f"tracing overhead of {m['trace.overhead_s']:.6g} s per job", file=out)
    for record in result["failed"]:
        print(f"  FAILED job {record['id']} ({record['command']}, exit {record['exit_code']}): "
              + "; ".join(record["problems"]), file=out)


def write_record(result: dict, seed: int) -> None:
    results = RUN_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{result['workload']}-seed{seed}-trace{int(result['trace'])}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.BLOCKS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="work per job relative to the benchmark's sizes (tests use less)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an interrupt so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "heterojj" / "cli.py").is_file():
        print(f"error: no heterojj sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.BLOCKS) if args.workload == "all" else [args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                  args.scale, str(workdir))
            write_record(result, args.seed)
            report(result)
            units = tracing.LAYER_METRICS if args.trace else END_TO_END
            prefix = f"{name}." if args.workload == "all" else ""
            summary["attempted"] += len(result["jobs"])
            summary["failed"] += len(result["failed"])
            summary["metrics"].update({prefix + k: {"value": v, "unit": units[k]}
                                       for k, v in result["metrics"].items()})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
