"""The process entry: ``python -m heterojj`` (like the ``heterojj`` script)
ends through ``heterojj.cli.run``, which flushes stdout and stderr and
leaves with ``os._exit``.  Each command run that way gives the exit code,
stdout, stderr and written files of the same ``main(argv)`` run in-process,
and leaves no process behind: so does a cold ``simulate``, whose kernel
runs in a forked helper, whether or not the helper can start or succeeds."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from heterojj import cli
from heterojj._kernels import MAX_STEPS
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
    # theta runs past the float range at step 180
    "runaway.cfg": "[junction]\nej_over_ec = 100\nomega_ratio = 2\nbias = 0.5\n\n[run]\n"
                   "dt = 1\nn_steps = 5000\ntheta_dot0 = 1e306\n",
    # each step's state is finite until step 309 overflows
    "mid-run.cfg": "[junction]\nej1 = 1e303\nej2 = 1e303\nein = 1\nbias = 0.9\n\n[run]\n"
                   "n_steps = 1000\ndt = 1\n",
    # two stored rows, but one step more than MAX_STEPS
    "max-steps.cfg": "[junction]\nej_over_ec = 100\nomega_ratio = 2\n\n[run]\n"
                     f"n_steps = {MAX_STEPS + 1}\nstride = {MAX_STEPS}\n",
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


def write_configs(tmp_path, argv):
    """Write CONFIGS into tmp_path; the argv with each "@name" resolved."""
    for name, text in CONFIGS.items():
        (tmp_path / name).write_text(text)
    return [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]


@pytest.mark.parametrize("argv,code", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_process_gives_mains_code_and_bytes(tmp_path, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help text to
    argv = write_configs(tmp_path, argv)
    expected = outputs(run_in_process, argv, tmp_path / "main")
    assert expected[0] == code
    assert outputs(run_process, argv, tmp_path / "process") == expected


def start_no_helper():
    raise AssertionError("a helper process was started")


# The process entry with os.fork wrapped: sys.argv[1] is the mode, and each
# call appends it to the file sys.argv[2].  "count" forks as usual; "raise"
# starts no process; "exit1" starts one that exits 1 at once; "kill" one
# that kills itself with SIGKILL at once.
FORK_PROBE = r"""
import errno, os, signal, sys
from heterojj import cli
mode, log = sys.argv[1:3]
del sys.argv[1:3]
fork = os.fork


def wrapped():
    with open(log, "a") as fh:
        fh.write(mode + "\n")
    if mode == "raise":
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    pid = fork()
    if pid == 0 and mode == "exit1":
        os._exit(1)
    if pid == 0 and mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    return pid


os.fork = wrapped
cli.run()
"""

# (id, argv, exit code, whether the run forks a kernel helper where it can):
# a cold simulate, which has not loaded numpy, integrates in a forked helper
# while it imports numpy; main(argv) here, with numpy loaded, never does
HELPER_CASES = [
    ("stride-5000", ["simulate", "--config", "@long.cfg", "--stride", "5000"], 0, True),
    ("non-finite", ["simulate", "--config", "@runaway.cfg"], 4, True),
    ("mid-run-non-finite", ["simulate", "--config", "@mid-run.cfg"], 4, True),
    ("full-out", ["simulate", "--config", "@long.cfg", "--stride", "5000",
                  "--out", "/dev/full"], 2, True),
    ("above-max-steps", ["simulate", "--config", "@max-steps.cfg"], 3, False),
]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("mode", ["count", "raise", "exit1", "kill"])
@pytest.mark.parametrize("argv,code,forks", [c[1:] for c in HELPER_CASES],
                         ids=[c[0] for c in HELPER_CASES])
def test_kernel_helper_gives_mains_code_and_bytes(tmp_path, monkeypatch, mode, argv, code, forks):
    if argv[-1] == "/dev/full" and not os.path.exists("/dev/full"):
        pytest.skip("needs the /dev/full device")
    argv = write_configs(tmp_path, argv)
    with monkeypatch.context() as patch:
        patch.setattr(os, "fork", start_no_helper)
        expected = outputs(run_in_process, argv, tmp_path / "main")
    assert expected[0] == code
    log = tmp_path / "forks"
    log.touch()
    assert outputs(lambda *a: run_process(*a, entry=("-c", FORK_PROBE, mode, str(log))),
                   argv, tmp_path / "process") == expected
    tries = 1 if forks and cli._second_cpu() else 0
    assert log.read_text() == (mode + "\n") * tries


# python -m heterojj forks the kernel helper where it can; the helper's
# kernel raises at step 309 and the command integrates again, to the same
# error.  main(argv) here, with numpy loaded, integrates in-process only.
@pytest.mark.parametrize("run", ["process", "main"])
def test_mid_run_non_finite_names_its_step(tmp_path, monkeypatch, run):
    argv = write_configs(tmp_path, ["simulate", "--config", "@mid-run.cfg", "--out", "run.csv"])
    if run == "main":
        monkeypatch.setattr(os, "fork", start_no_helper)
    result = outputs(run_process if run == "process" else run_in_process, argv,
                     tmp_path / run)
    assert result == (4, b"", b"error: non-finite state at step 309\n", {})


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
