"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def first_jobs(workload, seed, n=16):
    return list(itertools.islice(workloads.jobs(workload, seed), n))


@pytest.mark.parametrize("workload", workloads.BLOCKS)
def test_generator_is_a_function_of_the_seed(workload):
    assert first_jobs(workload, 7) == first_jobs(workload, 7)
    assert [j.config for j in first_jobs(workload, 7)] != [j.config for j in first_jobs(workload, 8)]
    # The kind of job at each position does not depend on the seed.
    assert [j.command for j in first_jobs(workload, 7)] == [j.command for j in first_jobs(workload, 8)]


@pytest.mark.parametrize("workload", workloads.BLOCKS)
def test_repeats_are_identical_jobs(workload):
    jobs = first_jobs(workload, 3)
    by_id = {job.id: job for job in jobs}
    repeats = [job for job in jobs if job.repeat_of]
    assert repeats
    for job in repeats:
        original = by_id[job.repeat_of]
        assert (job.command, job.config, job.args) == (original.command, original.config, original.args)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["root", 0, 100, -1, None, None],
        ["a", 10, 40, 0, None, None],
        ["b", 50, 70, 0, None, None],
        ["c", 15, 25, 1, None, None],
        ["d", 90, 120, 0, None, None],   # overhangs its parent: only 90..100 is covered
    ]
    assert tracing.self_times(spans) == [100 - 30 - 20 - 10, 30 - 10, 20, 10, 30]


def test_layers_do_not_double_count_nested_spans():
    ms = 1_000_000
    spans = [
        ["cli.main", 0, 100 * ms, -1, None, None],
        ["verify.run_checks", 10 * ms, 90 * ms, 0, 10, 9],
        ["escape.epsilon", 20 * ms, 30 * ms, 1, None, None],
        ["model.derive", 22 * ms, 24 * ms, 2, None, None],
        ["escape.escape_rate_ln", 40 * ms, 45 * ms, 1, None, None],
        ["dynamics.integrate", 50 * ms, 80 * ms, 1, 10000, None],
        ["kernels.rk4", 51 * ms, 79 * ms, 5, None, None],
    ]
    layers = tracing.job_layers(spans)
    assert layers["escape.point_s"] == pytest.approx(0.015)
    assert layers["verify.run_checks_s"] == pytest.approx(0.080)
    assert layers["verify.self_s"] == pytest.approx(0.080 - 0.010 - 0.005 - 0.030)
    assert layers["cli.self_s"] == pytest.approx(0.020)
    assert layers["model.derive_calls"] == 1
    assert layers["dynamics.steps"] == 10000
    assert (layers["verify.checks"], layers["verify.passed"]) == (10, 9)
    assert layers["trace.top_level_s"] == pytest.approx(0.100)


def test_import_times_attribute_subtrees():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:       100 |        110 |   numpy",
        "import time:        20 |         20 |       numpy.linalg",
        "import time:        30 |         50 |     scipy.linalg",
        "import time:        40 |         90 |   scipy",
        "import time:         5 |        205 | heterojj.model",
        "import time:         7 |        212 | heterojj",
        "error: unrelated stderr line",
    ])
    times = tracing.import_times(text)
    assert times["import.numpy_s"] == pytest.approx(110e-6)
    assert times["import.scipy_s"] == pytest.approx(90e-6)
    assert times["import.heterojj_self_s"] == pytest.approx(12e-6)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert all(NAME.fullmatch(name) for name in list(tracing.LAYER_METRICS) + list(run.END_TO_END))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BLOCKS)


def test_checks_catch_a_wrong_number():
    job = next(j for j in first_jobs("point_checks", 5) if j.command == "escape" and j.expect_exit == (0,))
    good = reference.escape_report(job.params)
    assert checks.check(job, 0, json.dumps(good), ".") == []
    bad = dict(good, bare_ln_gamma=good["bare_ln_gamma"] * (1 + 1e-7))
    assert checks.check(job, 0, json.dumps(bad), ".")
    assert checks.check(job, 5, "", ".")        # undocumented exit code for this point


def _verify_table(params, drift):
    sc = reference.scales(params)
    r = reference.rate(params, sc["epsilon"])
    refs = [sc["epsilon_from_ratio"], sc["omega_jl"], sc["omega_jl"] / 2, sc["psi_variance"], 0.0,
            r["exponent_b"], r["v0"], 0.5 * r["omega_p_i"] ** 2, 0.0, 0.0]
    lines = ["check computed reference tolerance status"]
    for name, ref in zip(checks.VERIFY_CHECKS, refs):
        computed = drift if name == "energy-drift" else ref
        status = "PASS" if name != "energy-drift" or drift <= 1e-8 else "FAIL"
        lines.append(f"{name} {computed:.15g} {ref:.15g} 1.0e-08 {status}")
    return "\n".join(lines)


def test_verify_check_follows_the_energy_drift_row():
    params = reference.junction(100.0, 2.0, bias=0.9)
    job = workloads.Job(id="0.0", command="verify", config="", args=(), params=params,
                        expect_exit=(0, 1), work=1.0)
    assert checks.check(job, 0, _verify_table(params, 3e-14), ".") == []
    assert checks.check(job, 1, _verify_table(params, 5e-8), ".") == []
    assert checks.check(job, 0, _verify_table(params, 5e-8), ".")   # FAIL row but exit 0
    assert checks.check(job, 1, _verify_table(params, 3e-14), ".")  # exit 1 with every row PASS
    strict = workloads.Job(id="0.0", command="verify", config="", args=(), params=params,
                           expect_exit=(0,), work=1.0)
    assert checks.check(strict, 1, _verify_table(params, 5e-8), ".")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.BLOCKS)
def test_tiny_smoke_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0", "--scale", "0.01", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = tracing.LAYER_METRICS if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "point_checks",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
