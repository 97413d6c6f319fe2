"""The process entry: ``python -m heterojj`` (like the ``heterojj`` script)
ends through ``heterojj.cli.run``, which flushes stdout and stderr and
leaves with ``os._exit``.  Each command run that way gives the exit code,
stdout, stderr and written files of the same ``main(argv)`` run in-process,
and leaves no process behind."""

import subprocess
import sys
from pathlib import Path

import pytest

from heterojj import cli
from helpers import process_env, run_in_process, run_process

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

# "@name" is the file name in the test's directory, which holds CONFIGS
# (and no missing.cfg)
CONFIGS = {
    "kappa0.cfg": "[junction]\nej1 = 50\nej2 = 50\nein = 125\nkappa = 0\n",
    "axis.cfg": "[junction]\nej_over_ec = 100\nomega_ratio = 2\n\n[run]\naxis1 = bogus:0:1:5\n",
    # long enough for the split with a helper process
    "long.cfg": "[junction]\nej_over_ec = 100\nomega_ratio = 2\nbias = 0.5\n\n[run]\n"
                f"n_steps = {2 * cli.CSV_SPLIT_ROWS + 1}\npsi0 = 0.01\n",
}

# (id, argv, exit code): every documented exit code, both from main's return
# and from a SystemExit that argparse raises
CASES = [
    ("derive", ["derive"], 0),
    ("verify", ["verify"], 0),
    ("version", ["--version"], 0),
    ("help", ["sweep", "--help"], 0),
    ("simulate-split", ["simulate", "--config", "@long.cfg", "--stride", "1"], 0),
    ("simulate-split-out", ["simulate", "--config", "@long.cfg", "--stride", "1",
                            "--out", "run.csv"], 0),
    ("verify-fails", ["verify", "--config", str(GOLDEN / "overflow.cfg")], 1),
    ("unreadable-config", ["derive", "--config", "@missing.cfg"], 2),
    ("usage", ["derive", "--bogus"], 2),
    ("empty-out-path", ["simulate", "--out", ""], 2),
    ("empty-out-stem", ["sweep", "--out", ""], 2),
    ("invariant", ["derive", "--config", "@kappa0.cfg"], 3),
    ("numeric", ["derive", "--config", str(GOLDEN / "overflow.cfg")], 4),
    ("no-barrier", ["escape", "--config", str(GOLDEN / "critical.cfg")], 5),
    ("axis", ["sweep", "--config", "@axis.cfg"], 6),
]


def outputs(run, argv, workdir):
    """Exit code, stdout, stderr and {name: bytes} of the files written, of
    the argv run by ``run`` in the new directory ``workdir``."""
    workdir.mkdir()
    code, out, err = run(argv, workdir)
    return code, out, err, {p.name: p.read_bytes() for p in workdir.iterdir()}


@pytest.mark.parametrize("argv,code", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_process_gives_mains_code_and_bytes(tmp_path, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    expected = outputs(run_in_process, argv, tmp_path / "main")
    assert expected[0] == code
    assert outputs(run_process, argv, tmp_path / "process") == expected


# run() on a stand-in for main: sys.argv[1] is its body
RUN_PROBE = r"""
import sys
from heterojj import cli
exec("def main():\n" + sys.argv[1], vars(cli))
cli.run()
"""


@pytest.mark.parametrize("body,code,out,err", [
    # text still buffered when main returns is written; main's code is kept
    ("  sys.stdout.write('unflushed'); sys.stderr.write('partial'); return 3",
     3, b"unflushed", b"partial"),
    # an exception main does not handle leaves through the normal exit
    ("  raise RuntimeError('boom')", 1, b"", b"RuntimeError: boom\n"),
], ids=["flushes", "traceback"])
def test_run_flushes_and_keeps_the_exit_code(body, code, out, err):
    proc = subprocess.run([sys.executable, "-c", RUN_PROBE, body], capture_output=True,
                          env=process_env(), timeout=60)
    assert proc.returncode == code
    assert proc.stdout == out
    assert proc.stderr.endswith(err)
