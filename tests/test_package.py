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
    assert len(heterojj.__all__) == len(set(heterojj.__all__)) == 39
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
    assert result["after"] == ["heterojj.errors", "heterojj.escape", "heterojj.inputs",
                               "heterojj.model", "heterojj.oracle"]
    assert result["points"] == heterojj.oracle.SPECTRUM_POINTS
    assert result["cached"]
