"""Time-stepping kernel with optional JIT compilation.

The fixed-step integrator is the only hot inner loop in the package.  One
source function provides both execution paths: when numba can be imported
it is compiled with ``@njit`` (cached on disk), otherwise it runs as plain
Python with identical arithmetic.  numba is an optional extra
(``pip install heterojj[numba]``).
"""

import math

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


def _rk4_washboard(theta, psi, theta_dot, psi_dot, dt, n_steps, stride,
                   lam, w1sq, w2sq, tilt_force, kappa_wjl_sq, a1, a2, c1, c2,
                   out):
    """Classic 4th-order fixed-step run of the coupled phase equations.

    Coefficients: lam is the capacitive renormalization Lambda, w1sq/w2sq the
    squared per-channel plasma frequencies, tilt_force the constant drive
    2*ej_tilt*bias, kappa_wjl_sq the signed squared Leggett frequency, a1/a2
    the screening weights alpha_i/(alpha1+alpha2), and c1/c2 = 2*alpha_i*ej_i.

    Fills ``out`` (rows are [theta, psi, theta_dot, psi_dot] every ``stride``
    steps, starting with the initial state) and returns -1, or the index of
    the first step that produced a non-finite state.
    """

    def accel(th, ps):
        t1 = th + a1 * ps
        t2 = th - a2 * ps
        s1 = math.sin(t1)
        s2 = math.sin(t2)
        tdd = lam * (tilt_force - w1sq * s1 - w2sq * s2)
        pdd = -kappa_wjl_sq * math.sin(ps) - c1 * s1 + c2 * s2
        return tdd, pdd

    out[0, 0] = theta
    out[0, 1] = psi
    out[0, 2] = theta_dot
    out[0, 3] = psi_dot
    row = 0
    half = 0.5 * dt
    sixth = dt / 6.0
    for step in range(1, n_steps + 1):
        k1t, k1p = accel(theta, psi)
        th2 = theta + half * theta_dot
        ps2 = psi + half * psi_dot
        td2 = theta_dot + half * k1t
        pd2 = psi_dot + half * k1p
        k2t, k2p = accel(th2, ps2)
        th3 = theta + half * td2
        ps3 = psi + half * pd2
        td3 = theta_dot + half * k2t
        pd3 = psi_dot + half * k2p
        k3t, k3p = accel(th3, ps3)
        th4 = theta + dt * td3
        ps4 = psi + dt * pd3
        td4 = theta_dot + dt * k3t
        pd4 = psi_dot + dt * k3p
        k4t, k4p = accel(th4, ps4)
        theta = theta + sixth * (theta_dot + 2.0 * td2 + 2.0 * td3 + td4)
        psi = psi + sixth * (psi_dot + 2.0 * pd2 + 2.0 * pd3 + pd4)
        theta_dot = theta_dot + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        psi_dot = psi_dot + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        if not (math.isfinite(theta) and math.isfinite(psi)
                and math.isfinite(theta_dot) and math.isfinite(psi_dot)):
            return step
        if step % stride == 0:
            row += 1
            out[row, 0] = theta
            out[row, 1] = psi
            out[row, 2] = theta_dot
            out[row, 3] = psi_dot
    return -1


rk4_python = _rk4_washboard
rk4_numba = njit(cache=True)(_rk4_washboard) if HAVE_NUMBA else None
rk4_step_loop = rk4_numba if HAVE_NUMBA else rk4_python


def active_backend() -> str:
    """Kernel in use: "numba" for the compiled kernel, or "python" for the
    same source run by the interpreter (it uses no numpy)."""
    return "numba" if HAVE_NUMBA else "python"
