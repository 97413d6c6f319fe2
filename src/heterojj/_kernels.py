"""Time-stepping kernel of the coupled phase equations, and its set-up.

The fixed-step integrator is the only hot inner loop in the package.  It is
plain Python over scalars, and this module imports no numpy: so a cold
``simulate`` can check and set up its run (:func:`rk4_setup`) and run the
kernel in a forked helper while it imports numpy.

Without a compiler the cost of the loop is interpreter overhead, so the four
RK4 stages are written out in one flat loop instead of calling an
acceleration helper: no call per stage, coefficients in fast locals, one
finiteness test per step, no modulo per step for the stride, and stored
rows written straight into the output's buffer.  The floating-point
operations and their order are those of the textbook stages; keep them
fixed, because the golden trajectory files in ``tests/data/golden/`` pin the
output bit for bit.
"""

import math
import mmap
import numbers
from itertools import chain

from .errors import InvalidParameterError
from .inputs import channel_weights, lambda_cap

# The most steps one run takes: about 40 min of the kernel at ~2.2 us a
# step, and far beyond any run the commands need
MAX_STEPS = 10**9


def check_state(state) -> None:
    """Refuse a non-finite (theta, psi, theta_dot, psi_dot, tau), naming
    the field as :class:`heterojj.dynamics.PhaseState` does."""
    for name, value in zip(("theta", "psi", "theta_dot", "psi_dot", "tau"), state):
        if not math.isfinite(value):
            raise InvalidParameterError(f"PhaseState.{name} must be finite")


def rk4_setup(state, dt, n_steps, stride, params) -> tuple:
    """The arguments of :func:`rk4_step_loop` for a run from ``state``, as
    :func:`check_state` takes it; ``out`` is last, a new anonymous shared
    mapping that a forked process can fill.  Raises InvalidParameterError,
    in this order, for a non-finite state, a dt that is not finite and
    positive, an ``n_steps`` that is not an integer (a bool is not one) or
    is below 1, a ``stride`` likewise, a ``dt * stride`` that is not a
    finite float, a buffer that cannot be allocated and an ``n_steps``
    above MAX_STEPS."""
    check_state(state)
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidParameterError(f"dt must be finite and positive, got {dt!r}")
    for name, value in (("n_steps", n_steps), ("stride", stride)):
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise InvalidParameterError(f"{name} must be >= 1, got {value!r}")
    try:
        row_dt = dt * stride
    except OverflowError:  # an int beyond the float range
        row_dt = math.inf
    if not math.isfinite(row_dt):
        raise InvalidParameterError(
            "stride is too large: the time between stored rows, dt * stride, "
            "does not fit in a float")
    s, a1, a2, ej_tilt = channel_weights(params)
    try:
        out = mmap.mmap(-1, 32 * (n_steps // stride + 1))
    except (OSError, OverflowError) as exc:
        raise InvalidParameterError(
            f"n_steps={n_steps!r} at stride={stride!r} needs a trajectory buffer "
            f"that cannot be allocated ({exc})") from exc
    # checked after the buffer: a run whose rows cannot be stored is refused for that
    if n_steps > MAX_STEPS:
        raise InvalidParameterError(
            f"n_steps must be <= MAX_STEPS = {MAX_STEPS}, got {n_steps!r}")
    return (*state[:4], dt, n_steps, stride, lambda_cap(params), 2.0 * params.ej1,
            2.0 * params.ej2, 2.0 * ej_tilt * params.bias, params.kappa * 2.0 * s * params.ein,
            a1, a2, 2.0 * params.alpha1 * params.ej1, 2.0 * params.alpha2 * params.ej2, out)


def rk4_step_loop(theta, psi, theta_dot, psi_dot, dt, n_steps, stride,
                  lam, w1sq, w2sq, tilt_force, kappa_wjl_sq, a1, a2, c1, c2,
                  out):
    """Classic 4th-order fixed-step run of the coupled phase equations.

    Coefficients: lam is the capacitive renormalization Lambda, w1sq/w2sq the
    squared per-channel plasma frequencies, tilt_force the constant drive
    2*ej_tilt*bias, kappa_wjl_sq the signed squared Leggett frequency, a1/a2
    the screening weights alpha_i/(alpha1+alpha2), and c1/c2 = 2*alpha_i*ej_i.
    Each stage evaluates

        theta_ddot = lam * (tilt_force - w1sq sin(theta1) - w2sq sin(theta2))
        psi_ddot   = -kappa_wjl_sq sin(psi) - c1 sin(theta1) + c2 sin(theta2)

    with theta1 = theta + a1 psi and theta2 = theta - a2 psi.

    Fills ``out`` (a C-contiguous float64 buffer, ``n_steps // stride + 1``
    rows of [theta, psi, theta_dot, psi_dot] every ``stride`` steps, starting
    with the initial state) and returns -1, or the index of the first step that
    produced a non-finite state or met an infinite phase inside a stage.
    The steps after the last stored row still run and are still checked.
    """
    sin = math.sin
    neg_kappa_wjl_sq = -kappa_wjl_sq  # exact, so -k*x rounds as before
    half = 0.5 * dt
    sixth = dt / 6.0
    flat = memoryview(out).cast("B").cast("d")  # raises unless C-contiguous
    flat[0] = theta
    flat[1] = psi
    flat[2] = theta_dot
    flat[3] = psi_dot
    i = 4
    size = len(flat)
    step = 0
    try:
        # one pass per stored row; the last pass runs the unstored tail
        for stop in chain(range(stride, n_steps + 1, stride), (n_steps,)):
            for step in range(step + 1, stop + 1):
                s1 = sin(theta + a1 * psi)
                s2 = sin(theta - a2 * psi)
                k1t = lam * (tilt_force - w1sq * s1 - w2sq * s2)
                k1p = neg_kappa_wjl_sq * sin(psi) - c1 * s1 + c2 * s2
                th = theta + half * theta_dot
                ps = psi + half * psi_dot
                td2 = theta_dot + half * k1t
                pd2 = psi_dot + half * k1p
                s1 = sin(th + a1 * ps)
                s2 = sin(th - a2 * ps)
                k2t = lam * (tilt_force - w1sq * s1 - w2sq * s2)
                k2p = neg_kappa_wjl_sq * sin(ps) - c1 * s1 + c2 * s2
                th = theta + half * td2
                ps = psi + half * pd2
                td3 = theta_dot + half * k2t
                pd3 = psi_dot + half * k2p
                s1 = sin(th + a1 * ps)
                s2 = sin(th - a2 * ps)
                k3t = lam * (tilt_force - w1sq * s1 - w2sq * s2)
                k3p = neg_kappa_wjl_sq * sin(ps) - c1 * s1 + c2 * s2
                th = theta + dt * td3
                ps = psi + dt * pd3
                td4 = theta_dot + dt * k3t
                pd4 = psi_dot + dt * k3p
                s1 = sin(th + a1 * ps)
                s2 = sin(th - a2 * ps)
                k4t = lam * (tilt_force - w1sq * s1 - w2sq * s2)
                k4p = neg_kappa_wjl_sq * sin(ps) - c1 * s1 + c2 * s2
                theta = theta + sixth * (theta_dot + 2.0 * td2 + 2.0 * td3 + td4)
                psi = psi + sixth * (psi_dot + 2.0 * pd2 + 2.0 * pd3 + pd4)
                theta_dot = theta_dot + sixth * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
                psi_dot = psi_dot + sixth * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
                # x * 0.0 is NaN exactly when x is inf or NaN
                if theta * 0.0 + psi * 0.0 + theta_dot * 0.0 + psi_dot * 0.0 != 0.0:
                    return step
            if i < size:  # false only after the unstored tail
                flat[i] = theta
                flat[i + 1] = psi
                flat[i + 2] = theta_dot
                flat[i + 3] = psi_dot
                i += 4
    except ValueError:  # math.sin(inf) in a stage
        return step
    return -1


def active_backend() -> str:
    """Kernel in use: always "python", the interpreted :func:`rk4_step_loop`."""
    return "python"
