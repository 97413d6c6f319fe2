"""The package's public names: one table, resolved on first access."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heterojj


def test_every_public_name_is_its_defining_modules_object():
    assert len(heterojj.__all__) == len(set(heterojj.__all__)) == 38
    assert heterojj.JunctionParams is heterojj.model.JunctionParams
    for name in set(heterojj.__all__) - {"__version__"}:
        value = getattr(heterojj, name)
        assert value.__module__.startswith("heterojj."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


@pytest.mark.parametrize("module", ["heterojj", "heterojj.model", "heterojj.dynamics",
                                    "heterojj.escape", "heterojj.oracle"])
def test_star_import_binds_exactly_all(module):
    # a submodule's __all__ is its row of the package's one name table
    expected = (heterojj.__all__ if module == "heterojj"
                else heterojj._EXPORTS[module.rpartition(".")[2]])
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(expected)
    assert importlib.import_module(module).__all__ == list(expected)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        heterojj.no_such_name
    assert not hasattr(heterojj, "rk4_step_loop")


def test_import_loads_no_submodule_until_a_name_is_used():
    # in a fresh interpreter: this one has imported every submodule already
    probe = r"""
import json, sys
import heterojj
loaded = lambda: sorted(m for m in sys.modules if m.startswith("heterojj."))
before = loaded()
spectrum_points = heterojj.oracle.SPECTRUM_POINTS
derive = heterojj.derive
print(json.dumps({"before": before, "after": loaded(), "points": spectrum_points,
                  "cached": heterojj.__dict__.get("derive") is derive}))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["before"] == []
    assert result["after"] == ["heterojj.errors", "heterojj.escape", "heterojj.model",
                               "heterojj.oracle"]
    assert result["points"] == heterojj.oracle.SPECTRUM_POINTS
    assert result["cached"]


def test_cold_cli_import_loads_only_the_numpy_free_front_end():
    # in a fresh interpreter; setup_s in perfbench times this import
    probe = r"""
import json, sys
import heterojj.cli
loaded = sorted(m for m in sys.modules if m.startswith("heterojj"))
numpy = "numpy" in sys.modules
import heterojj.model
try:
    heterojj.cli.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "numpy": numpy, "unknown": unknown,
                  "derive": heterojj.cli.derive is heterojj.model.derive}))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == ["heterojj", "heterojj.cli", "heterojj.config",
                                "heterojj.errors", "heterojj.model"]
    assert not result["numpy"]
    assert result["derive"]
    assert result["unknown"] == "module 'heterojj.cli' has no attribute 'no_such_name'"


def test_results_that_hold_arrays_compare_and_hash_by_identity():
    # field-wise == on numpy arrays would raise, and arrays cannot be hashed
    params = heterojj.JunctionParams.from_ratios(100.0, 2.0, bias=0.95)
    axes = (heterojj.AxisSpec("bias", 0.9, 0.99, 3), heterojj.AxisSpec("omega_ratio", 1, 3, 4))
    state = heterojj.PhaseState(0.01, 0.0, 0.0, 0.0)
    for make in (lambda: heterojj.sweep_grid(params, *axes),
                 lambda: heterojj.integrate(state, 1e-3, 10, params),
                 lambda: heterojj.harmonic_spectrum(params)):
        first, second = make(), make()
        assert first == first and first != second
        assert first in [first] and second not in [first]
        assert {first: 1}[first] == 1 and hash(first) != hash(second)
