"""Byte-for-byte comparison of CLI output with committed golden files.

Each case runs ``main(argv)`` in an empty working directory and collects
its exit code, stdout, stderr and every file it writes.  A subset of the
cases also runs as ``python -m heterojj``, which ends through
``heterojj.cli.run``.  The golden files
under ``tests/data/golden/`` are named ``<case>.<stream>`` (``stdout``,
``stderr`` or the name of the written file); empty streams have none.

The golden files change only with a deliberate change of the output
format or of the numbers.  Regenerate them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff before committing it.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from helpers import run_in_process, run_process

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# (case, argv, exit code); "@name" is the config file GOLDEN / name
CASES = [
    ("derive-default", ["derive"], 0),
    ("derive-default-json", ["derive", "--json"], 0),
    ("escape-default", ["escape"], 0),
    ("escape-default-json", ["escape", "--json"], 0),
    ("derive-asym", ["derive", "--config", "@asym.cfg"], 0),
    ("derive-asym-json", ["derive", "--json", "--config", "@asym.cfg"], 0),
    ("escape-asym", ["escape", "--config", "@asym.cfg"], 0),
    ("escape-asym-json", ["escape", "--json", "--config", "@asym.cfg"], 0),
    ("escape-critical", ["escape", "--config", "@critical.cfg"], 5),
    ("derive-overflow", ["derive", "--config", "@overflow.cfg"], 4),
    ("simulate-ref-stride1", ["simulate", "--config", "@ref.cfg"], 0),
    ("simulate-ref-stride7", ["simulate", "--config", "@ref.cfg", "--stride", "7"], 0),
    ("simulate-asym-stride1", ["simulate", "--config", "@asym.cfg"], 0),
    ("simulate-asym-stride7", ["simulate", "--config", "@asym.cfg", "--stride", "7"], 0),
    ("simulate-tilt", ["simulate", "--config", "@tilt.cfg", "--out", "run.csv"], 0),
    ("simulate-overflow", ["simulate", "--config", "@overflow.cfg"], 4),
    ("sweep-ref", ["sweep", "--config", "@ref.cfg", "--out", "grid"], 0),
    ("sweep-asym", ["sweep", "--config", "@asym.cfg", "--out", "grid"], 0),
]


# The cases also run through the process entry: at least one of each
# command, each stream and each written file
PROCESS_CASES = [c for c in CASES if c[0] in {
    "derive-default", "derive-asym-json", "derive-overflow", "escape-default",
    "escape-critical", "simulate-ref-stride1", "simulate-asym-stride7", "simulate-tilt",
    "simulate-overflow", "sweep-ref"}]


def run_case(argv, workdir, run=run_in_process):
    """Exit code and {stream: bytes} of ``main(argv)``, or of another
    ``run`` of the argv, run inside ``workdir``."""
    argv = [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, err = run(argv, workdir)
    streams = {"stdout": out, "stderr": err}
    streams.update((p.name, p.read_bytes()) for p in Path(workdir).iterdir())
    return code, {name: data for name, data in streams.items() if data}


def golden_streams(case):
    return {p.name[len(case) + 1:]: p.read_bytes()
            for p in GOLDEN.glob(f"{case}.*")}


@pytest.mark.parametrize("case,argv,code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(tmp_path, case, argv, code):
    assert_matches_golden(case, code, *run_case(argv, tmp_path))


@pytest.mark.parametrize("case,argv,code", PROCESS_CASES, ids=[c[0] for c in PROCESS_CASES])
def test_process_output_matches_golden(tmp_path, case, argv, code):
    assert_matches_golden(case, code, *run_case(argv, tmp_path, run_process))


def assert_matches_golden(case, code, got_code, streams):
    assert got_code == code
    expected = golden_streams(case)
    assert sorted(streams) == sorted(expected)
    for name, data in expected.items():
        assert streams[name] == data, f"{case}.{name} differs from the golden file"


def test_every_golden_file_has_a_case():
    # regenerate() rewrites only the listed cases: a file no case owns
    # would go stale unseen
    owned = {a[1:] for _, argv, _ in CASES for a in argv if a.startswith("@")}
    owned.update(f"{case}.{name}" for case, _, _ in CASES for name in golden_streams(case))
    orphans = sorted({p.name for p in GOLDEN.iterdir()} - owned)
    assert not orphans, f"golden files that no case owns: {orphans}"


def regenerate():
    for case, argv, code in CASES:
        for stale in golden_streams(case):
            (GOLDEN / f"{case}.{stale}").unlink()
        with tempfile.TemporaryDirectory() as workdir:
            got_code, streams = run_case(argv, workdir)
        if got_code != code:
            sys.exit(f"{case}: exit {got_code}, expected {code}")
        for name, data in streams.items():
            (GOLDEN / f"{case}.{name}").write_bytes(data)


if __name__ == "__main__":
    regenerate()
