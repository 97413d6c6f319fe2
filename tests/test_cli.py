import dataclasses
import errno
import gc
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from heterojj import AxisSpec, cli, escape, oracle
from heterojj.cli import main
from heterojj.config import default_params, load_config
from helpers import process_env, random_params

REF_CONFIG = """
[junction]
ej_over_ec = 100
omega_ratio = 2
j_ratio = 1
alpha1 = 0.1
alpha2 = 0.1
kappa = +1
bias = 0.95
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_flat(text):
    out = {}
    for line in text.strip().splitlines():
        if line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key] = value
    return out


# -------------------------------------------------------------------- derive

def test_derive_defaults_match_reference_point(capsys):
    assert main(["derive"]) == 0
    report = parse_flat(capsys.readouterr().out)
    assert float(report["lambda_cap"]) == pytest.approx(1.05, abs=1e-12)
    assert float(report["epsilon"]) == pytest.approx(3.5355339059327377e-3, rel=1e-12)
    assert float(report["g_plus"]) == 0.125
    assert float(report["g_minus"]) == 0.0
    assert report["epsilon_valid"] == "1"


def test_derive_config_and_json_agree(tmp_path, capsys):
    cfg = write(tmp_path, "ref.cfg", REF_CONFIG)
    assert main(["derive", "--config", cfg]) == 0
    flat = parse_flat(capsys.readouterr().out)
    assert main(["derive", "--config", cfg, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["epsilon"] == pytest.approx(float(flat["epsilon"]), rel=1e-15)
    assert doc["omega_jl"] == pytest.approx(math.sqrt(50.0), rel=1e-14)
    assert doc["epsilon_valid"] is True


def test_derive_output_is_stable(capsys):
    assert main(["derive"]) == 0
    first = capsys.readouterr().out
    assert main(["derive"]) == 0
    assert capsys.readouterr().out == first


def test_numbers_round_trip_exactly(capsys):
    assert main(["derive"]) == 0
    report = parse_flat(capsys.readouterr().out)
    assert float(report["omega_p"]) == math.sqrt(200.0)
    assert float(report["psi_variance"]) == 0.2 / math.sqrt(50.0)


# ------------------------------------------------------------- config errors

def test_missing_ein_names_the_key(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[junction]\nej1 = 50\nej2 = 50\n")
    assert main(["derive", "--config", cfg]) == 2
    assert "ein" in capsys.readouterr().err


def test_kappa_zero_cites_constraint(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg",
                "[junction]\nej1 = 50\nej2 = 50\nein = 125\nkappa = 0\n")
    assert main(["derive", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "kappa" in err and "+1" in err


def test_ratio_style_zero_alphas_cite_alpha(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[junction]\nej_over_ec = 100\nomega_ratio = 2\n"
                "alpha1 = 0\nalpha2 = 0\n")
    assert main(["derive", "--config", cfg]) == 3
    assert "alpha1" in capsys.readouterr().err


def test_mixed_parameterization_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg",
                "[junction]\nej1 = 50\nej2 = 50\nein = 125\nomega_ratio = 2\n")
    assert main(["derive", "--config", cfg]) == 2
    assert "style" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", REF_CONFIG + "banana = 1\n")
    assert main(["derive", "--config", cfg]) == 2
    assert "banana" in capsys.readouterr().err


def test_spectrum_points_key_rejected(tmp_path, capsys):
    # the DVR grid of verify's spectrum rows is oracle.SPECTRUM_POINTS, not a key
    cfg = write(tmp_path, "bad.cfg", REF_CONFIG + "\n[run]\nspectrum_points = 2000\n")
    assert main(["verify", "--config", cfg]) == 2
    assert "spectrum_points" in capsys.readouterr().err


def test_window_key_rejected(tmp_path, capsys):
    # the switching window is dynamics.SWITCH_WINDOW, not a key
    cfg = write(tmp_path, "bad.cfg", REF_CONFIG + "\n[run]\nwindow = 1\n")
    assert main(["simulate", "--config", cfg]) == 2
    assert "'window'" in capsys.readouterr().err


@pytest.mark.parametrize("text,code,message", [
    (REF_CONFIG + "\n[extra]\nx = 1\n", 2, "unknown section [extra]"),
    ("[run]\nn_steps = 10\n", 2, "missing [junction] section"),
    ("[junction]\nbias = 0.5\n", 2,
     "missing key 'ein' in [junction]: provide ej1/ej2/ein or ej_over_ec/omega_ratio"),
    ("[junction]\nej1 = 50\nej2 = 50\n", 2,
     "missing key 'ein' in [junction] (direct style needs ej1, ej2, ein)"),
    ("[junction]\nej_over_ec = 100\n", 2, "missing key 'omega_ratio' in [junction] "
     "(ratio style needs ej_over_ec and omega_ratio)"),
    (REF_CONFIG + "\n[run]\naxis1 = bias:0.9:0.99:x\n", 6, "axis spec 'bias:0.9:0.99:x': "),
    # configparser would merge a [DEFAULT] section's keys into every section
    ("[DEFAULT]\nbias = 0.5\n" + REF_CONFIG.replace("bias = 0.95\n", ""), 2,
     "unknown section [DEFAULT]"),
], ids=["extra-section", "no-junction", "no-style", "direct-no-ein", "ratio-no-omega",
        "axis-count", "default-section"])
def test_config_error_names_its_cause(tmp_path, capsys, text, code, message):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["derive", "--config", cfg]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_unreadable_config(capsys):
    assert main(["derive", "--config", "/nonexistent/nowhere.cfg"]) == 2


@pytest.mark.parametrize("command", ["derive", "escape", "sweep", "simulate", "verify"])
def test_non_utf8_config_exits_config(tmp_path, capsys, command):
    # one Latin-1 byte (a comment "# caf\xe9") is a malformed file, not a traceback
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"# caf\xe9\n" + REF_CONFIG.encode())
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: malformed config file {str(path)!r}: ")
    assert "can't decode byte 0xe9" in captured.err


def test_config_with_utf8_bom_reads_as_without(tmp_path, capsys):
    # a UTF-8 byte-order mark is UTF-8; a UTF-16 one is not
    plain = write(tmp_path, "plain.cfg", REF_CONFIG)
    bom = tmp_path / "bom.cfg"
    bom.write_bytes(b"\xef\xbb\xbf" + REF_CONFIG.encode())
    assert main(["derive", "--config", plain]) == 0
    expected = capsys.readouterr()
    assert main(["derive", "--config", str(bom)]) == 0
    assert capsys.readouterr() == expected
    bom.write_bytes(b"\xff\xfe" + REF_CONFIG.encode())
    assert main(["derive", "--config", str(bom)]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed config file {str(bom)!r}: ")


@pytest.mark.parametrize("command,what", [("simulate", "path"), ("sweep", "stem")])
def test_empty_out_exits_config(tmp_path, capsys, monkeypatch, command, what):
    # an empty path names no file: neither stdout nor a stem-less ".csv"
    monkeypatch.chdir(tmp_path)
    assert main([command, "--out", ""]) == 2
    assert capsys.readouterr() == ("", f"error: empty --out {what} ''\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stem", ["d/", "./", ".", "..", "d/."])
def test_stem_without_file_name_exits_config(tmp_path, capsys, monkeypatch, stem):
    # d/.csv, ..csv and ...csv would be hidden files, named by the extension
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    assert main(["sweep", "--out", stem]) == 2
    assert capsys.readouterr() == ("", f"error: --out stem {stem!r} has no file name\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["d"]


def test_unwritable_output_path(tmp_path, capsys):
    cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
    assert main(["simulate", "--config", cfg,
                 "--out", "/nonexistent/dir/run.csv"]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_non_numeric_value(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "[junction]\nej1 = fifty\nej2 = 50\nein = 125\n")
    assert main(["derive", "--config", cfg]) == 2
    assert "ej1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["derive", "simulate", "escape", "sweep", "verify"])
def test_seedless_rejected_everywhere(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--seedless"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# ------------------------------------------------------------------ simulate

SIM_CONFIG = """
[junction]
ej_over_ec = 100
omega_ratio = 2
bias = 0.0

[run]
dt = 1e-3
n_steps = 2000
theta0 = 0.05
"""


def test_simulate_csv_shape(tmp_path, capsys):
    cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
    assert main(["simulate", "--config", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "tau,theta,psi,theta_dot,psi_dot,energy,reduced_voltage"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    footers = [ln for ln in lines[1:] if ln.startswith("#")]
    assert len(data) == 2001
    assert any("max_energy_drift=" in ln for ln in footers)
    assert not any("switch_tau" in ln for ln in footers)
    drift = float(footers[0].split("=")[1])
    assert drift < 1e-8
    first = data[0].split(",")
    assert first[0] == "0" and float(first[1]) == 0.05


def test_simulate_stride(tmp_path, capsys):
    cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
    assert main(["simulate", "--config", cfg, "--stride", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    assert len(data) == 201
    assert float(data[1].split(",")[0]) == pytest.approx(0.01, rel=1e-12)


def test_simulate_switching_footer_and_file_output(tmp_path):
    cfg = write(tmp_path, "run.cfg", SIM_CONFIG.replace("bias = 0.0", "bias = 1.2"))
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert b"switch_tau=" in raw


def test_simulate_byte_identical(tmp_path):
    cfg = write(tmp_path, "sim.cfg", SIM_CONFIG)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_numeric_failure_exit(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg",
                "[junction]\nej1 = 1e308\nej2 = 1e308\nein = 1\nbias = 0\n"
                "\n[run]\nn_steps = 50\n")
    assert main(["simulate", "--config", cfg]) == 4
    assert "step" in capsys.readouterr().err


def test_simulate_unallocatable_buffer_exit(tmp_path, capsys):
    cfg = write(tmp_path, "huge.cfg", SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {2**60}"))
    assert main(["simulate", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "n_steps=" in err and "stride=" in err


def test_simulate_runaway_n_steps_exit(tmp_path):
    # 5 stored rows, but 2**60 steps of the kernel: refused before it runs.
    # A fresh process with a timeout, so that a program without the limit
    # fails here instead of hanging the suite.
    cfg = write(tmp_path, "long.cfg", SIM_CONFIG.replace(
        "n_steps = 2000", f"n_steps = {2**60}\nstride = {2**58}"))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "heterojj", "simulate", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "n_steps" in proc.stderr and "Traceback" not in proc.stderr


def run_module(stdout, *argv):
    """Exit code and stderr of ``python -m heterojj`` writing to ``stdout``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "heterojj", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    return proc.returncode, proc.stderr


def assert_stdout_refused(code, err):
    # one error line, no traceback and no "Exception ignored" at exit
    assert code == 2
    assert err.startswith("error: cannot write to stdout: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_closed_stdout_pipe_exits_config(tmp_path):
    # about 1 MB of CSV, and a table long enough to be split with a helper
    # process, into a pipe whose read end is already closed
    for n_steps in (8000, 2 * cli.CSV_SPLIT_ROWS + 1):
        cfg = write(tmp_path, "sim.cfg", SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {n_steps}"))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            code, err = run_module(write_end, "simulate", "--config", cfg, "--stride", "1")
        finally:
            os.close(write_end)
        assert_stdout_refused(code, err)


# `heterojj COMMAND >&-`: the process starts with sys.stdout = None.  A
# command that writes to stdout is refused as for a closed pipe; one that
# does not runs as usual.
@pytest.mark.parametrize("argv,code", [
    (["derive"], 2), (["escape"], 2), (["simulate"], 2), (["sweep"], 2), (["verify"], 2),
    (["simulate", "--out", "run.csv"], 0),
], ids=["derive", "escape", "simulate", "sweep", "verify", "simulate-out"])
def test_closed_stdout_exits_config(tmp_path, argv, code):
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "heterojj",
                           *argv], cwd=tmp_path, stderr=subprocess.PIPE, text=True, timeout=60,
                          env=process_env())
    if code:
        assert proc.stderr == f"error: cannot write to stdout: [Errno {errno.EBADF}] " \
                              f"{os.strerror(errno.EBADF)}\n"
    else:
        assert proc.stderr == ""
        assert (tmp_path / "run.csv").stat().st_size > 0
    assert proc.returncode == code


# `heterojj COMMAND 2>&-` starts the process with sys.stderr = None; a pipe
# whose read end is closed fails each write.  Either way the error or
# warning line goes nowhere, and the exit code is the documented one.
@pytest.mark.parametrize("closed", ["at-start", "pipe"])
@pytest.mark.parametrize("argv,code", [
    (["escape", "--config", "@critical.cfg"], 5),
    (["derive", "--config", "/nonexistent/heterojj.cfg"], 2),
    (["sweep", "--config", "@dead.cfg"], 0),
], ids=["no-barrier", "unreadable-config", "sweep-warning"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, argv, code, closed):
    write(tmp_path, "critical.cfg", REF_CONFIG.replace("bias = 0.95", "bias = 0.999"))
    write(tmp_path, "dead.cfg", REF_CONFIG + "\n[run]\naxis1 = bias:1.5:2.0:3\n")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    command = [sys.executable, "-m", "heterojj", *argv]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh", *command] if closed == "at-start"
                              else command, cwd=tmp_path, stdout=subprocess.PIPE,
                              stderr=write_end, text=True, timeout=60, env=process_env())
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert proc.stdout == ("wrote sweep.csv and sweep.json\n" if code == 0 else "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_stdout_device_exits_config():
    with open("/dev/full", "w") as full:
        code, err = run_module(full, "derive")
    assert_stdout_refused(code, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_output_file_stops_the_csv_helper(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_second_cpu", lambda: hasattr(os, "fork"))
    cfg = write(tmp_path, "sim.cfg",
                SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {2 * cli.CSV_SPLIT_ROWS + 1}"))
    assert main(["simulate", "--config", cfg, "--stride", "1", "--out", "/dev/full"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write output file '/dev/full': ")
    assert err.count("\n") == 1
    assert_no_child_left()


class UnwritableFile(io.StringIO):
    """A temporary file whose writes fail, as on a full disk."""

    def writelines(self, lines):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# A CSV helper whose temporary file cannot be written exits 1.  That is no
# config error: the command formats those rows itself and exits 0 with the
# output of a run without a helper, to a file or to stdout.
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_failed_csv_helper_exits_config(tmp_path, capsys, monkeypatch, to_file):
    cfg = write(tmp_path, "sim.cfg",
                SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {cli.CSV_SPLIT_ROWS}"))
    argv = ["simulate", "--config", cfg, "--stride", "1"]
    with monkeypatch.context() as mp:
        one_cpu(mp)
        assert main(argv) == 0
    expected = capsys.readouterr().out
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(cli, "_second_cpu", lambda: True)
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs: UnwritableFile())
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)] if to_file else argv) == 0
    assert forks == [1]
    assert capsys.readouterr() == (("", "") if to_file else (expected, ""))
    if to_file:
        assert out.read_bytes().decode() == expected
    assert_no_child_left()


# every state is finite, but an energy or a time overflows
@pytest.mark.parametrize("run,column,value", [
    ("bias = 0\n[run]\ntheta_dot0 = 1e200\n", "energy", "inf"),
    ("bias = 0.5\n[run]\ntheta0 = 1e307\n", "energy", "-inf"),
    ("bias = 0\n[run]\ndt = 1e308\nn_steps = 3\n", "tau", "inf"),
], ids=["energy-inf", "energy-minus-inf", "tau-inf"])
def test_simulate_non_finite_column_exits_numeric(tmp_path, capsys, run, column, value):
    cfg = write(tmp_path, "sim.cfg",
                f"[junction]\nej_over_ec = 100\nomega_ratio = 2\n{run}")
    out = tmp_path / "run.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    assert capsys.readouterr().err == (f"error: {column} is not finite ({value}); "
                                       "no CSV written\n")


HUGE_STRIDE = "1" + "0" * 400  # past the float range


# dt * stride either cannot be formed (an int past the float range) or
# overflows to inf; either way the rows have no time axis.
@pytest.mark.parametrize("dt,run,option", [
    ("1e-3", f"stride = {HUGE_STRIDE}\n", []),
    ("1e-3", "", ["--stride", HUGE_STRIDE]),
    ("10", "", ["--stride", str(10 ** 308)]),
], ids=["config", "option", "float-overflow"])
def test_simulate_huge_stride_exits_invariant(tmp_path, capsys, dt, run, option):
    text = SIM_CONFIG.replace("n_steps = 2000", "n_steps = 20").replace("dt = 1e-3", f"dt = {dt}")
    cfg = write(tmp_path, "sim.cfg", text + run)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, *option, "--out", str(out)]) == 3
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: stride is too large")


def table(n_rows):
    """The column names, row count and row formatter that ``cli._csv``
    takes for a float column, its square, a flag and a label of ``n_rows``
    rows, their footer, and their CSV text formatted here as the reference."""
    x = np.arange(n_rows) * math.pi - 1e5
    flag = np.arange(n_rows) % 3 == 0
    footer = ("# a=1", "# b=-2.5")
    rows = [f"{a:.17g},{a * a:.17g},{int(b)},r{i}"
            for i, (a, b) in enumerate(zip(x.tolist(), flag.tolist()))]
    text = "\n".join(["x,x_sq,flag,label", *rows, *footer, ""])

    def chunk(lo, hi):
        assert 0 <= lo < hi <= n_rows
        return "".join("%.17g,%.17g,%d,r%d\n" % (a, a * a, b, i) for i, a, b in
                       zip(range(lo, hi), x[lo:hi].tolist(), flag[lo:hi].tolist()))
    return ("x", "x_sq", "flag", "label"), n_rows, chunk, footer, text


# Above CSV_SPLIT_ROWS a forked helper formats the second half of the rows,
# on any machine that has os.fork
@pytest.mark.parametrize("n_rows", [1, cli.CSV_CHUNK_ROWS - 1, cli.CSV_CHUNK_ROWS,
                                    cli.CSV_CHUNK_ROWS + 1, 2 * cli.CSV_CHUNK_ROWS + 3,
                                    cli.CSV_SPLIT_ROWS - 1, cli.CSV_SPLIT_ROWS,
                                    cli.CSV_SPLIT_ROWS + 1, 2 * cli.CSV_SPLIT_ROWS + 7])
def test_csv_pieces_join_to_the_whole_text(n_rows, monkeypatch):
    monkeypatch.setattr(cli, "_second_cpu", lambda: hasattr(os, "fork"))
    *csv, footer, text = table(n_rows)
    pieces = list(cli._csv(*csv, *footer))
    assert "".join(pieces) == text
    assert max(piece.count("\n") for piece in pieces) <= cli.CSV_CHUNK_ROWS
    assert_no_child_left()


def start_no_helper():
    raise AssertionError("a helper process was started")


def refuse(*args, **kwargs):
    raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def one_cpu(mp):
    mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    mp.setattr(os, "cpu_count", lambda: 1)
    mp.setattr(os, "fork", start_no_helper, raising=False)


def no_fork(mp):
    mp.delattr(os, "fork", raising=False)


def fork_fails(mp):
    mp.setattr(cli, "_second_cpu", lambda: True)
    mp.setattr(os, "fork", refuse)


def no_temp_file(mp):
    mp.setattr(cli, "_second_cpu", lambda: True)
    mp.setattr(tempfile, "TemporaryFile", refuse)


def fork_ending(end):
    """os.fork, with the child calling ``end()`` at once."""
    fork = os.fork

    def wrapped():
        pid = fork()
        if pid == 0:
            end()
        return pid
    return wrapped


def helper_exits_1(mp):
    mp.setattr(cli, "_second_cpu", lambda: True)
    mp.setattr(os, "fork", fork_ending(lambda: os._exit(1)))


def helper_killed(mp):
    mp.setattr(cli, "_second_cpu", lambda: True)
    mp.setattr(os, "fork", fork_ending(lambda: os.kill(os.getpid(), signal.SIGKILL)))


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


# With no second CPU, no os.fork, no helper to be had, or a helper that
# fails, the rows a helper did not format are formatted in this process:
# the text, and simulate's output and exit code, are those of a run
# without a helper.
@pytest.mark.parametrize("patch", [one_cpu, no_fork, fork_fails, no_temp_file,
                                   pytest.param(helper_exits_1, marks=needs_fork),
                                   pytest.param(helper_killed, marks=needs_fork)])
def test_csv_without_a_helper_is_the_same_text(tmp_path, capsys, monkeypatch, patch):
    *csv, footer, text = table(cli.CSV_SPLIT_ROWS + 1)
    cfg = write(tmp_path, "sim.cfg",
                SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {cli.CSV_SPLIT_ROWS}"))
    argv = ["simulate", "--config", cfg, "--stride", "1"]
    with monkeypatch.context() as mp:
        one_cpu(mp)
        assert main(argv) == 0
    expected = capsys.readouterr()
    patch(monkeypatch)
    assert "".join(cli._csv(*csv, *footer)) == text
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert main([*argv, "--out", str(tmp_path / "run.csv")]) == 0
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "run.csv").read_bytes().decode() == expected.out
    assert_no_child_left()


# A sweep of more than CSV_SPLIT_ROWS cells has the second half of its CSV
# formatted by a helper; on 131 x 170 cells that half starts in the middle of
# grid row 65.  Its rows are those of the grid escape.sweep_grid evaluates,
# across the tilt and omega_ratio <= 0, with the same bytes in both files
# whether the helper formats the half, no helper is forked or it fails.
@needs_fork
def test_sweep_csv_through_the_split_is_the_grid(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "split.cfg", REF_CONFIG
                + "[run]\naxis1 = bias:0.9:1.2:131\naxis2 = omega_ratio:-1:6:170\n")
    run = load_config(cfg)
    n = run.axis1.count * run.axis2.count
    assert n > cli.CSV_SPLIT_ROWS and (n // 2) % run.axis2.count
    grid = escape.sweep_grid(run.params, run.axis1, run.axis2)
    assert grid.valid.any() and not grid.valid.all()
    rows = ["%.17g,%.17g,%.17g,%d" % (a, b, grid.values[i, j], grid.valid[i, j])
            for i, a in enumerate(run.axis1.values().tolist())
            for j, b in enumerate(run.axis2.values().tolist())]
    text = "\n".join(["bias,omega_ratio,ln_ratio,valid", *rows, ""])
    outputs = []
    for patch in (None, one_cpu, helper_exits_1):
        with monkeypatch.context() as mp:
            forks = []
            if patch is None:
                fork = os.fork
                mp.setattr(cli, "_second_cpu", lambda: True)
                mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            else:
                patch(mp)
            assert main(["sweep", "--config", cfg, "--out", "grid"]) == 0
        assert forks == ([1] if patch is None else [])
        assert_no_child_left()
        outputs.append(((tmp_path / "grid.csv").read_bytes(), (tmp_path / "grid.json").read_bytes()))
    assert outputs[0][0].decode() == text
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


# A table long enough to split opens its temporary file only where a
# helper can fork to write it.
def test_one_cpu_split_opens_no_temporary_file(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, "sim.cfg",
                SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {cli.CSV_SPLIT_ROWS}"))
    argv = ["simulate", "--config", cfg, "--stride", "1"]
    monkeypatch.setattr(cli, "_second_cpu", lambda: hasattr(os, "fork"))
    assert main(argv) == 0
    expected = capsys.readouterr()
    opened = []
    make = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile",
                        lambda *args, **kwargs: opened.append(1) or make(*args, **kwargs))
    monkeypatch.setattr(cli, "_second_cpu", lambda: False)
    assert main(argv) == 0
    assert capsys.readouterr() == expected
    assert opened == []


# A cold simulate imports numpy (with dynamics) while a helper runs the
# kernel; if that import fails, the helper is stopped and reaped.
@needs_fork
def test_failed_import_stops_the_kernel_helper(tmp_path, monkeypatch):
    import heterojj
    cfg = write(tmp_path, "sim.cfg", SIM_CONFIG.replace("n_steps = 2000", "n_steps = 1000000")
                + "stride = 1000000\n")
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(cli, "_second_cpu", lambda: True)
    # as before the first numpy import, with dynamics failing to import
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setitem(sys.modules, "heterojj.dynamics", None)
    monkeypatch.delattr(heterojj, "dynamics", raising=False)
    with pytest.raises(ImportError):
        main(["simulate", "--config", cfg])
    assert forks == [1]
    assert_no_child_left()


# The CSV text is formatted and written a chunk of rows at a time, so a long
# stride-1 run holds its arrays (about 60 B a row) and one chunk, never a
# whole copy of the text (about 140 B a row here, with psi moving).
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_simulate_text_memory_stays_below_the_csv_size(tmp_path, monkeypatch, to_file):
    # long enough for the split with a helper process wherever it can run
    n_steps = 40000
    assert n_steps > cli.CSV_SPLIT_ROWS
    forks = []
    if hasattr(os, "fork"):
        monkeypatch.setattr(cli, "_second_cpu", lambda: True)
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cfg = write(tmp_path, "sim.cfg",
                SIM_CONFIG.replace("n_steps = 2000", f"n_steps = {n_steps}") + "psi0 = 0.01\n")
    out = tmp_path / ("run.csv" if to_file else "stdout.csv")
    argv = ["simulate", "--config", cfg, "--stride", "1"]
    if to_file:
        argv += ["--out", str(out)]
    with open(tmp_path / "stdout.csv", "w", encoding="utf-8", newline="") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert forks == ([1] if hasattr(os, "fork") else [])
    assert_no_child_left()
    size = out.stat().st_size
    assert peak < size, f"traced peak {peak} B for a CSV of {size} B"


# A sweep's grid is evaluated a block of rows at a time and its CSV and JSON
# written a chunk and a row at a time, each chunk's and row's valid flags
# taken from its values, so a 300 x 300 sweep holds its grid (8 B a cell: a
# float value, NaN where the cell is invalid), its formatted axis values, a
# block and a chunk, never a whole copy of the text (about 61 B a cell of
# CSV here) nor any other array over the whole grid.
def test_sweep_memory_stays_below_the_csv_size(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_second_cpu", lambda: hasattr(os, "fork"))
    cfg = write(tmp_path, "big.cfg", REF_CONFIG
                + "[run]\naxis1 = bias:0.9:0.99:300\naxis2 = omega_ratio:0.5:5:300\n")
    tracemalloc.start()
    try:
        code = main(["sweep", "--config", cfg, "--out", "grid"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert_no_child_left()
    size = (tmp_path / "grid.csv").stat().st_size
    assert peak < size, f"traced peak {peak} B for a CSV of {size} B"
    cells = 300 * 300
    assert peak < 16 * cells, f"traced peak {peak / cells:.1f} B a cell"


# The process entry ends with os._exit, which flushes and closes no file
# object, so a command must close every file it opens before it returns.
@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("argv", [
    ["derive"], ["escape", "--json"], ["sweep", "--out", "grid"], ["verify"],
    ["simulate", "--config", "long.cfg", "--stride", "1"],
    ["simulate", "--config", "long.cfg", "--stride", "1", "--out", "run.csv"],
], ids=["derive", "escape", "sweep", "verify", "simulate-split", "simulate-split-out"])
def test_every_command_closes_its_files(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "_second_cpu", lambda: hasattr(os, "fork"))
    write(tmp_path, "long.cfg", SIM_CONFIG.replace(
        "n_steps = 2000", f"n_steps = {2 * cli.CSV_SPLIT_ROWS + 1}"))
    before = sorted(os.listdir("/dev/fd"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert main(argv) == 0
        gc.collect()  # a file object dropped unclosed warns when collected
    assert sorted(os.listdir("/dev/fd")) == before
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


# -------------------------------------------------------------------- escape

def test_escape_reference_point(capsys):
    assert main(["escape"]) == 0
    report = parse_flat(capsys.readouterr().out)
    assert float(report["ln_ratio"]) > 0.0
    assert float(report["bare_exponent_b"]) == pytest.approx(2.048966220307369, rel=1e-12)
    assert float(report["ratio"]) == pytest.approx(
        math.exp(float(report["ln_ratio"])), rel=1e-12)


def test_removed_run_keys_refused_by_name(tmp_path, capsys):
    # eps is always computed from the junction, and --out alone places the
    # output; neither is a [run] key
    for command, key, value in (("escape", "epsilon_override", "0"),
                                ("sweep", "out", "grid"), ("simulate", "out", "run.csv")):
        cfg = write(tmp_path, "removed.cfg", REF_CONFIG + f"\n[run]\n{key} = {value}\n")
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: unknown key '{key}' in [run]\n"
        assert captured.out == ""
    assert os.listdir(tmp_path) == ["removed.cfg"]


def test_escape_no_barrier_exit(tmp_path, capsys):
    cfg = write(tmp_path, "over.cfg", REF_CONFIG.replace("bias = 0.95", "bias = 1.5"))
    assert main(["escape", "--config", cfg]) == 5


def test_wiped_barrier_exits_no_barrier(tmp_path, capsys):
    # eps = 1.25: the zero-point shift leaves no barrier at any bias
    cfg = write(tmp_path, "wiped.cfg",
                "[junction]\nej1 = 50\nej2 = 50\nein = 0.001\nbias = 0.5\n")
    assert main(["escape", "--config", cfg]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no barrier: ")
    assert captured.err.count("\n") == 1


def test_escape_ln_ratio_is_the_librarys_bit_for_bit(tmp_path, capsys):
    assert main(["escape", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ln_ratio"] == \
        escape.enhancement_ratio_ln(default_params())
    rng = np.random.default_rng(1717)
    checked = 0
    while checked < 12:
        p = random_params(rng, bias_range=(0.05, 0.99), kappa_choices=(1, -1))
        if not p.bias < 1.0 - escape.epsilon(p).epsilon:
            continue
        cfg = write(tmp_path, "draw.cfg", "[junction]\n" + "".join(
            f"{key} = {value!r}\n" for key, value in dataclasses.asdict(p).items()))
        assert main(["escape", "--json", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["ln_ratio"] == \
            escape.enhancement_ratio_ln(p), p
        checked += 1


def test_escape_evaluates_its_chain_once(monkeypatch, capsys):
    calls = {"epsilon": 0, "escape_rate_ln": 0, "derive": 0}

    def counted(name):
        fn = getattr(escape, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(escape, name, wrapper)

    for name in calls:
        counted(name)
    assert main(["escape"]) == 0
    assert (calls["epsilon"], calls["escape_rate_ln"]) == (1, 2)
    calls["derive"] = 0
    escape.epsilon(default_params())
    assert calls["derive"] == 1


# E_J/E_C = 1e308 passes every parameter check, but omega_P = sqrt(2 E_J)
# overflows, and everything after it is inf or NaN.
OVERFLOW_CONFIG = REF_CONFIG.replace("ej_over_ec = 100", "ej_over_ec = 1e308") \
    .replace("bias = 0.95", "bias = 0.9")


@pytest.mark.parametrize("command,field", [("derive", "omega_p"),
                                           ("escape", "corrected_omega_p_i")])
@pytest.mark.parametrize("as_json", [False, True])
def test_non_finite_report_exits_numeric(tmp_path, capsys, command, field, as_json):
    cfg = write(tmp_path, "overflow.cfg", OVERFLOW_CONFIG)
    argv = [command, "--config", cfg] + (["--json"] if as_json else [])
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} is not finite (inf)")


# --------------------------------------------------------------------- sweep

SWEEP_CONFIG = REF_CONFIG + """
[run]
axis1 = bias:0.90:0.97:5
axis2 = omega_ratio:0.5:4:5
"""


def test_sweep_outputs_and_determinism(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "sweep.cfg", SWEEP_CONFIG)
    assert main(["sweep", "--config", cfg, "--out", "a"]) == 0
    assert main(["sweep", "--config", cfg, "--out", "b"]) == 0
    capsys.readouterr()
    a_csv = (tmp_path / "a.csv").read_bytes()
    assert a_csv == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    lines = a_csv.decode().strip().splitlines()
    assert lines[0] == "bias,omega_ratio,ln_ratio,valid"
    assert len(lines) == 1 + 25
    # row-major: axis1 value constant across the first 5 data rows
    first_bias = {ln.split(",")[0] for ln in lines[1:6]}
    assert len(first_bias) == 1
    assert all(ln.split(",")[3] == "1" for ln in lines[1:])

    doc = json.loads((tmp_path / "a.json").read_text())
    assert doc["axis1"] == {"name": "bias", "min": 0.90, "max": 0.97, "count": 5}
    assert doc["base_params"]["ej1"] == 50.0
    assert len(doc["ln_ratio"]) == 5 and len(doc["ln_ratio"][0]) == 5
    assert all(all(isinstance(v, float) for v in row) for row in doc["ln_ratio"])
    assert (tmp_path / "a.json").read_text() == json.dumps(doc, indent=2) + "\n"


def test_sweep_json_is_json_dumps_with_indent():
    # the row-by-row rendering against the stdlib's indented encoder, on
    # nulls, bools, a negative zero, the smallest subnormal and the largest
    # double, and on a head with nested objects
    head = {"axis1": {"name": "bias", "min": 0.9, "max": 1.0, "count": 2},
            "base_params": {"ej1": 50.0, "kappa": -1}, "note": None,
            "quantity": "ln_gamma_ratio"}
    valid = np.array([[False, True, True], [True, True, False]])
    grid = escape.SweepGrid(
        axis1=AxisSpec("bias", 0.9, 1.0, 2), axis2=AxisSpec("omega_ratio", 1.0, 3.0, 3),
        values=np.array([[math.nan, -0.0, 5e-324], [1.7976931348623157e308, 0.1, math.nan]]),
        base=default_params())
    document = {**head, "ln_ratio": [[None, -0.0, 5e-324], [1.7976931348623157e308, 0.1, None]],
                "valid": valid.tolist()}
    pieces = list(cli._sweep_json(head, grid))
    assert "".join(pieces) == json.dumps(document, indent=2) + "\n"
    # a grid row opens with "[" and its first cell's indent: one a piece at most
    assert max(piece.count("[\n      ") for piece in pieces) == 1


def test_sweep_all_invalid_grid_warns_but_succeeds(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "over.cfg", REF_CONFIG + """
[run]
axis1 = bias:1.5:2.0:3
axis2 = omega_ratio:1:2:3
""")
    assert main(["sweep", "--config", cfg, "--out", "dead"]) == 0
    captured = capsys.readouterr()
    assert "no valid cells" in captured.err
    lines = (tmp_path / "dead.csv").read_text().strip().splitlines()
    assert all(ln.split(",")[3] == "0" for ln in lines[1:])
    assert all(ln.split(",")[2] == "nan" for ln in lines[1:])
    doc = json.loads((tmp_path / "dead.json").read_text())
    assert all(v is None for row in doc["ln_ratio"] for v in row)


def test_sweep_non_positive_omega_ratio_cells_invalid(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "zero.cfg", REF_CONFIG + """
[run]
axis1 = bias:0.9:0.95:2
axis2 = omega_ratio:-1:1:3
""")
    assert main(["sweep", "--config", cfg, "--out", "zero"]) == 0
    rows = [ln.split(",") for ln in
            (tmp_path / "zero.csv").read_text().strip().splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        ok = float(row[1]) > 0.0
        assert row[3] == ("1" if ok else "0")
        assert (row[2] == "nan") != ok


def test_default_sweep_completes_quickly(tmp_path, capsys, monkeypatch):
    import time
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    assert main(["sweep", "--out", "full"]) == 0  # default 50x50 grid
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()
    lines = (tmp_path / "full.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2500


@pytest.mark.filterwarnings("error")
def test_sweep_invalid_axis_exit(tmp_path, capsys):
    cfg = write(tmp_path, "axis.cfg", REF_CONFIG + "\n[run]\naxis1 = bogus:0:1:5\n")
    assert main(["sweep", "--config", cfg]) == 6
    cfg = write(tmp_path, "axis2.cfg", REF_CONFIG + "\n[run]\naxis1 = bias:0.9:0.5:5\n")
    assert main(["sweep", "--config", cfg]) == 6
    cfg = write(tmp_path, "axis3.cfg", REF_CONFIG + "\n[run]\naxis1 = bias:0.9\n")
    assert main(["sweep", "--config", cfg]) == 6
    # finite ends whose span overflows
    cfg = write(tmp_path, "axis4.cfg", REF_CONFIG + "\n[run]\naxis1 = bias:-1e308:1e308:5\n")
    assert main(["sweep", "--config", cfg]) == 6
    assert "span must be finite" in capsys.readouterr().err


# counts whose arrays lie beyond the 64-bit address space: numpy refuses them
# at once, without touching memory
@pytest.mark.parametrize("count", [10**14, 10**23], ids=["memory", "size"])
def test_sweep_unallocatable_grid_exit(tmp_path, capsys, monkeypatch, count):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path, "huge.cfg", REF_CONFIG + f"\n[run]\naxis1 = bias:0.9:0.99:{count}\n")
    assert main(["sweep", "--config", cfg]) == 6
    err = capsys.readouterr().err
    assert f"{count} x 50" in err and "cannot be allocated" in err
    assert not (tmp_path / "sweep.csv").exists()


# -------------------------------------------------------------------- verify

def test_verify_default_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "epsilon-dual-form" in out
    assert "bounce-vs-closed-form" in out


def test_verify_inject_fails_dual_form(capsys, monkeypatch):
    # a sign flip of the shipped eps must fail the dual-form row
    shipped = escape.epsilon

    def flipped(params):
        fluct = shipped(params)
        return dataclasses.replace(fluct, epsilon=-fluct.epsilon)

    monkeypatch.setattr(escape, "epsilon", flipped)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "epsilon-dual-form" in out
    row = next(line for line in out.splitlines() if line.startswith("epsilon-dual-form"))
    assert row.split()[4] == "FAIL"


def test_verify_coarse_spectrum_fails(capsys, monkeypatch):
    # 16 points over 10 sigma: the N -> 2N self-check fails the grid
    monkeypatch.setattr(oracle, "SPECTRUM_POINTS", 16)
    monkeypatch.setattr(oracle, "SPECTRUM_HALFWIDTH_SIGMAS", 10.0)
    assert main(["verify"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--spectrum-n", "500"], ["--inject", "gplus-sign"]])
def test_verify_takes_no_settings(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_overflow_fails_without_warnings(tmp_path, capsys):
    # the rows compute inf and NaN; the table reports them, numpy must not
    cfg = write(tmp_path, "overflow.cfg", OVERFLOW_CONFIG)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", cfg]) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.err == ""
    # the spectrum rows quantize omega_JL = 7.07e153 and pass; the rest fail
    statuses = {line.split()[0]: line.split()[4] for line in captured.out.splitlines()[1:]}
    assert statuses == {
        "epsilon-dual-form": "FAIL", "spectrum-ladder": "PASS",
        "spectrum-ground-energy": "PASS", "spectrum-ground-variance": "PASS",
        "spectrum-resolution": "PASS", "bounce-vs-closed-form": "FAIL",
        "cubic-barrier-height": "FAIL", "cubic-curvature": "FAIL",
        "gradient-vs-fd": "FAIL", "energy-drift": "FAIL"}


def test_verify_non_finite_dvr_box_names_it(tmp_path, capsys):
    # <psi^2> overflows at the smallest E_in: the spectrum rows say so
    # instead of printing the NaN levels eigh returns without raising
    cfg = write(tmp_path, "tiny.cfg", "[junction]\nej1 = 50\nej2 = 50\nein = 5e-324\n")
    assert main(["verify", "--config", cfg]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("spectrum-")]
    assert len(rows) == 4
    assert all("FAIL  [InvalidParameterError: the DVR psi box half-width is not "
               "finite (inf)" in row for row in rows)


# ---------------------------------------------------------------- cold start

# Runs in a fresh interpreter: the pytest process has long since imported
# scipy (through the oracle tests) and every heterojj module, so only a new
# process shows what a cold command loads.  sys.argv[2] is run first: it
# blocks or imports scipy.
SCIPY_PROBE = r"""
import json, sys
exec(sys.argv[2])
from heterojj.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = {top: sorted(m for m in sys.modules if m == top or m.startswith(top + "."))
          for top in ("scipy", "heterojj")}
sys.stdout.write("\n" + json.dumps({"codes": codes, **loaded}) + "\n")
"""


def loaded_after(argvs, prelude=""):
    """Exit codes of the commands run in one fresh interpreter, and the
    scipy and heterojj modules loaded after them."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(argvs), prelude],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["codes"], result["scipy"], result["heterojj"]


def test_cold_commands_load_no_scipy(tmp_path):
    cfg = write(tmp_path, "cold.cfg", REF_CONFIG + """
[run]
n_steps = 100
axis1 = bias:0.90:0.95:3
axis2 = omega_ratio:1:2:3
""")
    stem = str(tmp_path / "cold")
    codes, loaded, _ = loaded_after([["derive", "--json", "--config", cfg],
                                     ["escape", "--config", cfg],
                                     ["sweep", "--config", cfg, "--out", stem],
                                     ["simulate", "--config", cfg],
                                     ["verify", "--config", cfg]])
    assert codes == [0, 0, 0, 0, 0]
    assert (tmp_path / "cold.csv").exists()
    assert loaded == []


def test_cold_commands_load_only_their_modules(tmp_path):
    cfg = write(tmp_path, "cold.cfg", REF_CONFIG + "[run]\nn_steps = 100\n")
    stem = str(tmp_path / "cold")
    integrator = {"heterojj.dynamics", "heterojj._kernels"}
    oracles = {"heterojj.oracle", "heterojj.verify"}
    codes, _, loaded = loaded_after([["derive", "--config", cfg],
                                     ["escape", "--config", cfg],
                                     ["sweep", "--config", cfg, "--out", stem]])
    assert codes == [0, 0, 0]
    assert loaded == ["heterojj", "heterojj.cli", "heterojj.config", "heterojj.errors",
                      "heterojj.escape", "heterojj.model"]
    codes, _, loaded = loaded_after([["simulate", "--config", cfg]])
    assert codes == [0]
    assert integrator <= set(loaded) and not (oracles | {"heterojj.escape"}) & set(loaded)
    codes, _, loaded = loaded_after([["verify", "--config", cfg]])
    assert codes == [0]
    assert integrator | oracles <= set(loaded)


# Runs in a fresh interpreter, as SCIPY_PROBE does: argv, the config file
# and the checks of each input run before a command imports numpy, so these
# commands end, each with its documented exit code, without loading it.
FRONT_END_PROBE = r"""
import json, sys
from heterojj import cli, config
codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(cli.main(argv))
    except SystemExit as exc:  # argparse's, for --version and a usage error
        codes.append(exc.code)
config.load_config(sys.argv[2])
sys.stdout.write("\n" + json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}) + "\n")
"""


def test_front_end_refuses_bad_input_without_numpy(tmp_path):
    kappa0 = write(tmp_path, "kappa0.cfg", "[junction]\nej1 = 50\nej2 = 50\nein = 125\nkappa = 0\n")
    axis = write(tmp_path, "axis.cfg", REF_CONFIG + "\n[run]\naxis1 = bogus:0:1:5\n")
    runaway = write(tmp_path, "runaway.cfg", REF_CONFIG + "\n[run]\nn_steps = 1000000001\n"
                    "stride = 1000000000\n")
    cases = [(["--version"], 0), (["derive", "--bogus"], 2),
             (["derive", "--config", str(tmp_path / "missing.cfg")], 2),
             (["derive", "--config", kappa0], 3), (["simulate", "--config", runaway], 3),
             (["sweep", "--config", axis, "--out", str(tmp_path / "grid")], 6)]
    proc = subprocess.run([sys.executable, "-c", FRONT_END_PROBE,
                           json.dumps([argv for argv, _ in cases]), write(tmp_path, "ref.cfg", REF_CONFIG)],
                          env=process_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [code for _, code in cases], "numpy": False}


# Runs in a fresh interpreter, as SCIPY_PROBE does: derive and escape
# evaluate a point on Python floats, so no exit path of theirs loads numpy.
POINT_PROBE = r"""
import json, sys
from heterojj.cli import main
runs = [[main(argv), "numpy" in sys.modules] for argv in json.loads(sys.argv[1])]
sys.stdout.write("\n" + json.dumps(runs) + "\n")
"""


def test_derive_and_escape_never_load_numpy(tmp_path):
    golden = Path(__file__).resolve().parent / "data" / "golden"
    past_tilt = write(tmp_path, "past-tilt.cfg", REF_CONFIG.replace("0.95", "0.999"))
    cases = [(["derive"], 0), (["derive", "--json"], 0), (["escape"], 0),
             (["escape", "--json"], 0), (["escape", "--config", past_tilt], 5),
             (["derive", "--config", str(golden / "overflow.cfg")], 4)]
    proc = subprocess.run([sys.executable, "-c", POINT_PROBE,
                           json.dumps([argv for argv, _ in cases])],
                          env=process_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[code, False] for _, code in cases]


def test_verify_passes_where_scipy_cannot_be_imported():
    codes, loaded, _ = loaded_after([["verify"]], 'sys.modules["scipy"] = None')
    assert codes == [0]
    assert loaded == ["scipy"]  # the blocking entry itself, never a submodule


def test_probe_sees_scipy_once_imported():
    # control: the probe does see scipy once something has imported it
    codes, loaded, _ = loaded_after([["verify"]], "import scipy.integrate")
    assert codes == [0]
    assert "scipy" in loaded and "scipy.integrate" in loaded
