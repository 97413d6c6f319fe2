"""Property test: every input of the library ends in a value or in the
package's own error.

Each field of ``JunctionParams``, ``PhaseState`` and ``AxisSpec``, each
argument of ``JunctionParams.from_ratios``, ``integrate``'s ``dt``,
``n_steps`` and ``stride``, ``escape_rate_ln``'s ``eps`` and
``bounce_action``'s ``mass`` and ``theta_min`` is drawn from ints beyond
the float range, Python and numpy bools, strings, None, NaN, infinities, 0,
negative numbers, subnormals, any finite double and numpy ``float32`` and
``int64`` scalars.  A call must
return or raise a :class:`heterojj.errors.HeterojjError` subclass: no
``OverflowError`` or ``TypeError`` escapes, and no RuntimeWarning either
(the suite runs with RuntimeWarning as an error).  A valid ``n_steps`` is at
most 10, so that the runs stay short; an invalid one may also be above
``MAX_STEPS`` or beyond the float range.  ``bounce_action`` runs on a tilted
washboard, which itself overflows beyond |theta| ~ 1e306, so the finite
doubles drawn for ``theta_min`` stay within |theta_min| <= 1e300.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heterojj import (AxisSpec, JunctionParams, PhaseState, bounce_action,
                      escape_rate_ln, integrate)
from heterojj._kernels import MAX_STEPS, rk4_setup
from heterojj.errors import (HeterojjError, InvalidAxisError,
                             InvalidParameterError, NoBarrierError)
from heterojj.model import AXIS_NAMES

BEYOND_FLOATS = (st.integers(10**309, 10**400)
                 | st.integers(-10**400, -10**309))
NOT_NUMBERS = st.one_of(
    BEYOND_FLOATS,
    st.booleans(),
    st.sampled_from([np.True_, np.False_, None, math.nan, math.inf, -math.inf]),
    st.text(max_size=3),
)
NUMBERS = st.one_of(
    st.sampled_from([0, 0.0, -1, -1.0, 5e-324, -5e-324, 2.2e-308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-1000, 1000),
)
ANY = NOT_NUMBERS | NUMBERS
# kappa is +1 or -1 only, so those are drawn often enough to get past it
KAPPAS = ANY | st.sampled_from([1, -1, 1.0, np.int64(-1)])
# n_steps is never an integer in [11, MAX_STEPS], so that no run is long
N_STEPS = st.one_of(
    NOT_NUMBERS,
    st.floats(),
    st.floats(width=32).map(np.float32),
    st.integers(-2, 10),
    st.integers(-2, 10).map(np.int64),
    st.integers(MAX_STEPS + 1, 10**400),
    st.integers(MAX_STEPS + 1, 2**63 - 1).map(np.int64),
)
STRIDES = (ANY | st.integers(-2, 20) | st.integers(1, 10**400)
           | st.integers(1, 2**63 - 1).map(np.int64))

REFERENCE = JunctionParams.from_ratios(100.0, 2.0, bias=0.95)
HALF_BIAS = REFERENCE.replace(bias=0.5)
START = PhaseState(0.1, 0.0, 0.0, 0.0)


def washboard(theta):
    return -100.0 * (np.cos(theta) + 0.95 * theta)


def returns_or_refuses(call, *args, **kwargs):
    """Call and swallow only the package's own errors."""
    try:
        call(*args, **kwargs)
    except HeterojjError:
        pass


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ej1=ANY, ej2=ANY, ein=ANY, alpha1=ANY, alpha2=ANY, kappa=KAPPAS, bias=ANY)
@example(ej1=10**400, ej2=1, ein=1, alpha1=0.1, alpha2=0.1, kappa=1, bias=0.0)
@example(ej1=1, ej2=1, ein=1, alpha1=0.1, alpha2=0.1, kappa=1, bias=-10**400)
def test_junction_params(ej1, ej2, ein, alpha1, alpha2, kappa, bias):
    returns_or_refuses(JunctionParams, ej1, ej2, ein, alpha1, alpha2, kappa, bias)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ej_over_ec=ANY, omega_ratio=ANY, j_ratio=ANY, alpha1=ANY, alpha2=ANY,
       kappa=KAPPAS, bias=ANY)
@example(ej_over_ec=100, omega_ratio=10**400, j_ratio=1, alpha1=0.1, alpha2=0.1,
         kappa=1, bias=0.5)
@example(ej_over_ec=np.int64(2**62), omega_ratio=np.int64(1), j_ratio=np.int64(2**62),
         alpha1=np.int64(1), alpha2=np.int64(1), kappa=1, bias=0.5)
def test_from_ratios(ej_over_ec, omega_ratio, j_ratio, alpha1, alpha2, kappa, bias):
    returns_or_refuses(JunctionParams.from_ratios, ej_over_ec, omega_ratio, j_ratio,
                       alpha1, alpha2, kappa, bias)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(theta=ANY, psi=ANY, theta_dot=ANY, psi_dot=ANY, tau=ANY)
@example(theta=10**400, psi=0, theta_dot=0, psi_dot=0, tau=0)
@example(theta="x", psi=0, theta_dot=0, psi_dot=0, tau=0)
def test_phase_state(theta, psi, theta_dot, psi_dot, tau):
    returns_or_refuses(PhaseState, theta, psi, theta_dot, psi_dot, tau)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=ANY | st.sampled_from(AXIS_NAMES), start=ANY, stop=ANY,
       count=ANY | st.integers(-2, 10) | BEYOND_FLOATS)
@example(name="bias", start=0, stop=10**400, count=5)
@example(name="bias", start="a", stop="b", count=5)
@example(name="bias", start=np.int64(-2**63), stop=np.int64(2**63 - 1), count=5)
@example(name="bias", start=3.4028235677973366e+38, stop=np.float32(0.0), count=5)
def test_axis_spec(name, start, stop, count):
    returns_or_refuses(AxisSpec, name, start, stop, count)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dt=ANY, n_steps=N_STEPS, stride=STRIDES)
@example(dt=10**400, n_steps=10, stride=1)
@example(dt=np.float32(3e38), n_steps=10, stride=7)
@example(dt=1e-3, n_steps=np.int64(2**62), stride=1)
@example(dt=1e308, n_steps=10, stride=np.int64(10))
def test_integrate_arguments(dt, n_steps, stride):
    returns_or_refuses(integrate, START, dt, n_steps, REFERENCE, stride=stride)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mass=ANY | st.just(0.5),
       theta_min=(NOT_NUMBERS | st.floats(-1e300, 1e300) | st.floats(width=32).map(np.float32)
                  | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.integers(-10**300, 10**300)
                  | st.just(math.asin(0.95))))
@example(mass=True, theta_min=math.asin(0.95))
@example(mass=0.5, theta_min=10**400)
@example(mass=1e308, theta_min=math.asin(0.95))
@example(mass=5e307, theta_min=math.asin(0.95))
@example(mass=0.5, theta_min=10**20)
def test_bounce_action_arguments(mass, theta_min):
    returns_or_refuses(bounce_action, washboard, mass, theta_min)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(eps=ANY | st.floats(0.0, 0.5))
@example(eps=10**400)
@example(eps="x")
@example(eps=True)
def test_escape_rate_eps(eps):
    returns_or_refuses(escape_rate_ln, HALF_BIAS, eps)


# eps is a real number, not a bool; +inf, the eps of an omega_JL that
# underflows to 0, is one and leaves no barrier, as the CLI's exit 5 there
# shows
@pytest.mark.parametrize("eps", [10**400, -10**400, "x", None, 1j, True, np.True_, math.nan,
                                 -math.inf],
                         ids=["int-past-floats", "negative-int-past-floats", "str", "None",
                              "complex", "bool", "numpy-bool", "nan", "-inf"])
def test_escape_rate_refuses_an_eps_that_is_not_a_valid_number(eps):
    with pytest.raises(InvalidParameterError) as info:
        escape_rate_ln(HALF_BIAS, eps)
    assert str(info.value) == f"eps must be a real number with eps >= 0, got {eps!r}"


@pytest.mark.parametrize("eps", [math.inf, np.float32(math.inf)], ids=["inf", "numpy-inf"])
def test_escape_rate_reads_an_infinite_eps_as_no_barrier(eps):
    with pytest.raises(NoBarrierError):
        escape_rate_ln(HALF_BIAS, eps)


def test_phase_state_is_an_input_held_as_floats():
    import heterojj
    from heterojj import _kernels, dynamics

    # the parameter types live with the scales derived from them
    assert all(t.__module__ == "heterojj.model" for t in (JunctionParams, AxisSpec, PhaseState))
    assert heterojj.PhaseState is dynamics.PhaseState
    assert not hasattr(_kernels, "check_state")
    state = PhaseState(np.float32(0.1), np.int64(2), 0, 1, tau=np.float64(0.5))
    assert all(type(v) is float for v in (state.theta, state.psi, state.theta_dot,
                                          state.psi_dot, state.tau))
    assert state.theta == float(np.float32(0.1)) and state.psi == 2.0
    for flag in (True, np.False_):
        with pytest.raises(InvalidParameterError, match="^PhaseState.psi must be finite$"):
            PhaseState(0.0, flag, 0.0, 0.0)


# An int past Python's limit on int-to-str digits: repr and str refuse it.
HUGE = 10**5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-to-str digit limit")
@pytest.mark.parametrize("error,call", [
    (InvalidParameterError, lambda: JunctionParams(ej1=HUGE, ej2=1, ein=1)),
    (InvalidParameterError, lambda: JunctionParams(1, 1, 1, kappa=-HUGE)),
    (InvalidParameterError, lambda: JunctionParams(1, 1, 1, bias=-HUGE)),
    (InvalidParameterError, lambda: JunctionParams.from_ratios(HUGE, 2.0)),
    (InvalidAxisError, lambda: AxisSpec(HUGE, 0, 1, 5)),
    (InvalidAxisError, lambda: AxisSpec("bias", 0, HUGE, 5)),
    (InvalidAxisError, lambda: AxisSpec("bias", 0, 1, -HUGE)),
    (InvalidParameterError, lambda: rk4_setup(START, HUGE, 10, 1, REFERENCE)),
    (InvalidParameterError, lambda: rk4_setup(START, 1e-3, HUGE, 1, REFERENCE)),
    (InvalidParameterError, lambda: rk4_setup(START, 1e-3, -HUGE, 1, REFERENCE)),
    (InvalidParameterError, lambda: rk4_setup(START, 1e-3, 10, -HUGE, REFERENCE)),
    (InvalidParameterError, lambda: bounce_action(washboard, HUGE, math.asin(0.95))),
    (InvalidParameterError, lambda: bounce_action(washboard, 0.5, HUGE)),
    (InvalidParameterError, lambda: escape_rate_ln(HALF_BIAS, HUGE)),
], ids=["ej1", "kappa", "bias", "from_ratios", "axis-name", "axis-stop", "axis-count",
        "dt", "n_steps", "n_steps-negative", "stride", "mass", "theta_min", "eps"])
def test_an_int_past_the_digit_limit_is_shown_by_its_size(error, call):
    with pytest.raises(error, match=f"an int of {HUGE.bit_length()} bits"):
        call()


def test_a_phase_state_past_the_digit_limit_is_refused():
    with pytest.raises(InvalidParameterError, match="^PhaseState.theta must be finite$"):
        PhaseState(HUGE, 0, 0, 0)


@pytest.mark.parametrize("message,call", [
    ("ej1 must be a finite positive energy, got -2.5", lambda: JunctionParams(-2.5, 1, 1)),
    ("kappa must be +1 or -1 exactly, got 0", lambda: JunctionParams(1, 1, 1, kappa=0)),
    ("omega_ratio must be a positive real number, got 'x'",
     lambda: JunctionParams.from_ratios(100, "x")),
    ("axis 'bias' range and its span must be finite: [0, inf]",
     lambda: AxisSpec("bias", 0, math.inf, 5)),
    ("axis 'bias' range is inverted or empty: [1.0, 0.0]",
     lambda: AxisSpec("bias", np.float64(1.0), np.float64(0.0), 5)),
    ("axis 'bias' needs count >= 2, got 1", lambda: AxisSpec("bias", 0, 1, 1)),
    ("dt must be finite and positive, got nan",
     lambda: rk4_setup(START, math.nan, 10, 1, REFERENCE)),
    ("mass must be positive, got -1.0", lambda: bounce_action(washboard, -1.0, 1.0)),
], ids=["ej1", "kappa", "from_ratios", "axis-range", "axis-numpy-range", "axis-count", "dt",
        "mass"])
def test_an_ordinary_refused_value_is_shown_as_it_is(message, call):
    with pytest.raises(HeterojjError) as info:
        call()
    assert str(info.value) == message
