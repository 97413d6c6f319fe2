"""Independent closed forms that the benchmark checks the program against.

Written from the formulas stated in the package documentation, not by
importing the package, so a defect in the program cannot hide in its own
reference.  Pure Python and ``math`` only: the benchmark client stays small
next to the cold children it measures.

Reduced units: hbar = E_C = 1.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9


def close(value: float, reference: float, scale: float = 0.0) -> bool:
    """Relative agreement to REL_TOL.

    ``scale`` is the magnitude of the terms the reference was summed from;
    it keeps the test relative to the computation, not to a cancellation
    result that happens to sit near zero.  Values below 1e-3 (such as a
    g_minus that is 0 up to rounding) compare to 1e-12 absolute.
    """
    if math.isnan(reference):
        return math.isnan(value)
    size = max(abs(value), abs(reference), scale, 1e-3)
    return abs(value - reference) <= REL_TOL * size


def junction(ej_over_ec, omega_ratio, j_ratio=1.0, alpha1=0.1, alpha2=0.1,
             kappa=1, bias=0.95):
    """Direct energies from the ratio-style parameters."""
    ej1 = ej_over_ec * j_ratio / (1.0 + j_ratio)
    ej2 = ej_over_ec / (1.0 + j_ratio)
    ein = ej_over_ec / ((alpha1 + alpha2) * omega_ratio ** 2)
    return {"ej1": ej1, "ej2": ej2, "ein": ein, "alpha1": alpha1,
            "alpha2": alpha2, "kappa": kappa, "bias": bias}


def scales(p):
    """Derived scales of a junction (the `derive` report's fields)."""
    s = p["alpha1"] + p["alpha2"]
    a1 = p["alpha1"] / s
    a2 = p["alpha2"] / s
    ej = p["ej1"] + p["ej2"]
    omega_p = math.sqrt(2.0 * ej)
    omega_jl = math.sqrt(2.0 * s * p["ein"])
    g_plus = (p["ej1"] * a1 ** 2 + p["ej2"] * a2 ** 2) / (2.0 * ej)
    variance = s / omega_jl
    eps = g_plus * variance
    return {
        "lambda_cap": 1.0 + p["alpha1"] * p["alpha2"] / s,
        "ej_sum": ej,
        "ej_tilt": abs(p["ej1"] + p["kappa"] * p["ej2"]),
        "omega_p": omega_p,
        "omega_p1": math.sqrt(2.0 * p["ej1"]),
        "omega_p2": math.sqrt(2.0 * p["ej2"]),
        "omega_jl": omega_jl,
        "m_cm": 0.5,
        "m_rlt": 1.0 / (2.0 * s),
        "g_plus": g_plus,
        "g_minus": (p["ej1"] * a1 - p["ej2"] * a2) / ej,
        "psi_variance": variance,
        "epsilon": eps,
        "epsilon_from_ratio": g_plus / math.sqrt(2.0) * s * (omega_p / omega_jl) / math.sqrt(ej),
        "epsilon_valid": eps < 1.0,
        "epsilon_strained": eps > 0.2,
    }


def has_barrier(p, eps: float) -> bool:
    """The cubic-barrier chain applies for 0 < bias < 1 - eps."""
    return 0.0 < p["bias"] < 1.0 - eps


def rate(p, eps: float):
    """Cubic-instanton barrier geometry and ln Gamma at one point.

    Gamma = 12 w sqrt(3 V0 / (2 pi w)) exp(-36 V0 / (5 w)) with
    w = omega_P ((1-eps)^2 - I^2)^(1/4), sin(theta0) = I/(1-eps) and
    V0 = w^2 cot^2(theta0) / 3.
    """
    b = p["bias"]
    u = (1.0 - eps) ** 2 - b * b
    w = math.sqrt(2.0 * (p["ej1"] + p["ej2"])) * u ** 0.25
    theta0 = math.asin(b / (1.0 - eps))
    v0 = w * w / (3.0 * math.tan(theta0) ** 2)
    exponent = 36.0 * v0 / (5.0 * w)
    ln_prefactor = math.log(12.0 * w) + 0.5 * math.log(3.0 * v0 / (2.0 * math.pi * w))
    return {"theta0": theta0, "omega_p_i": w, "v0": v0, "exponent_b": exponent,
            "ln_prefactor": ln_prefactor, "ln_gamma": ln_prefactor - exponent}


def escape_report(p):
    """The `escape --json` report, or None where there is no barrier."""
    sc = scales(p)
    eps = sc["epsilon"]
    if not has_barrier(p, eps):
        return None
    corrected = rate(p, eps)
    bare = rate(p, 0.0)
    report = {"epsilon": eps, "psi_variance": sc["psi_variance"]}
    for prefix, values in (("corrected_", corrected), ("bare_", bare)):
        for key in ("theta0", "omega_p_i", "v0", "exponent_b", "ln_prefactor", "ln_gamma"):
            report[prefix + key] = values[key]
    report["ln_ratio"] = corrected["ln_gamma"] - bare["ln_gamma"]
    if abs(report["ln_ratio"]) < 700.0:
        report["ratio"] = math.exp(report["ln_ratio"])
    return report


def ln_gamma_scale(p) -> float:
    """Magnitude of the ln Gamma terms an enhancement ratio is the difference of."""
    bare = rate(p, 0.0)
    return abs(bare["ln_prefactor"]) + abs(bare["exponent_b"])


def sweep_cell(base, assignments):
    """Parameters of one sweep cell, or None if they are not a valid junction.

    Axis semantics of the program: ``ej_over_ec`` rescales both channels
    at fixed asymmetry, ``alpha`` sets alpha1 = alpha2, and ``ein`` stays
    at its base value unless ``omega_ratio`` is an axis, in which case it
    is solved from the cell's final E_J and alpha.
    """
    p = dict(base)
    for name, value in assignments:
        if name == "bias":
            p["bias"] = value
        elif name == "alpha":
            p["alpha1"] = p["alpha2"] = value
        elif name == "ej_over_ec":
            ej = base["ej1"] + base["ej2"]
            p["ej1"] = value * base["ej1"] / ej
            p["ej2"] = value * base["ej2"] / ej
    for name, value in assignments:
        if name == "omega_ratio":
            p["ein"] = (p["ej1"] + p["ej2"]) / ((p["alpha1"] + p["alpha2"]) * value * value)
    if min(p["ej1"], p["ej2"], p["ein"], p["alpha1"], p["alpha2"]) <= 0.0 or p["bias"] < 0.0:
        return None
    return p


def sweep_value(p):
    """ln(Gamma/Gamma0) of a cell, or NaN where the cell is invalid."""
    if p is None:
        return math.nan
    eps = scales(p)["epsilon"]
    if not has_barrier(p, eps):
        return math.nan
    return rate(p, eps)["ln_gamma"] - rate(p, 0.0)["ln_gamma"]


def energy_function(p):
    """Total energy E(theta, psi, theta_dot, psi_dot) of the phase equations.

    Kinetic theta_dot^2/(4 Lambda) + psi_dot^2/(4 (alpha1+alpha2)) plus the
    exact tilted potential
    V = -E_J1 cos(theta1) - E_J2 cos(theta2) - kappa E_in cos(psi) - E_tilt I theta.
    Returns (E, a bound on the magnitude of its terms).
    """
    s = p["alpha1"] + p["alpha2"]
    a1, a2 = p["alpha1"] / s, p["alpha2"] / s
    ej1, ej2, kein = p["ej1"], p["ej2"], p["kappa"] * p["ein"]
    tilt = abs(p["ej1"] + p["kappa"] * p["ej2"]) * p["bias"]
    k_theta = 1.0 / (4.0 * (1.0 + p["alpha1"] * p["alpha2"] / s))
    k_psi = 1.0 / (4.0 * s)
    bound = ej1 + ej2 + abs(kein)
    cos = math.cos

    def energy(theta, psi, theta_dot, psi_dot):
        kinetic = k_theta * theta_dot * theta_dot + k_psi * psi_dot * psi_dot
        potential = (-ej1 * cos(theta + a1 * psi) - ej2 * cos(theta - a2 * psi)
                     - kein * cos(psi) - tilt * theta)
        return kinetic + potential, bound + abs(tilt * theta) + kinetic

    return energy


def rk4(p, state, dt, n_steps):
    """Textbook fixed-step RK4 of the phase equations; returns every state.

    theta_ddot = Lambda (2 E_tilt I - w1^2 sin t1 - w2^2 sin t2),
    psi_ddot = -kappa w_JL^2 sin psi - alpha1 w1^2 sin t1 + alpha2 w2^2 sin t2,
    with w_i^2 = 2 E_Ji and w_JL^2 = 2 (alpha1+alpha2) E_in.
    """
    s = p["alpha1"] + p["alpha2"]
    a1, a2 = p["alpha1"] / s, p["alpha2"] / s
    lam = 1.0 + p["alpha1"] * p["alpha2"] / s
    w1, w2 = 2.0 * p["ej1"], 2.0 * p["ej2"]
    drive = 2.0 * abs(p["ej1"] + p["kappa"] * p["ej2"]) * p["bias"]
    w_jl = p["kappa"] * 2.0 * s * p["ein"]
    c1, c2 = 2.0 * p["alpha1"] * p["ej1"], 2.0 * p["alpha2"] * p["ej2"]
    sin = math.sin

    def deriv(theta, psi, theta_dot, psi_dot):
        s1, s2 = sin(theta + a1 * psi), sin(theta - a2 * psi)
        return (theta_dot, psi_dot, lam * (drive - w1 * s1 - w2 * s2),
                -w_jl * sin(psi) - c1 * s1 + c2 * s2)

    y = tuple(state)
    states = [y]
    for _ in range(n_steps):
        k1 = deriv(*y)
        k2 = deriv(*(y[i] + 0.5 * dt * k1[i] for i in range(4)))
        k3 = deriv(*(y[i] + 0.5 * dt * k2[i] for i in range(4)))
        k4 = deriv(*(y[i] + dt * k3[i] for i in range(4)))
        y = tuple(y[i] + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4))
        states.append(y)
    return states


def energy_drift(p, state, dt, n_steps):
    """max |E - E0| / |E0| over an RK4 run (over max |E - E0| when E0 = 0)."""
    energy = energy_function(p)
    energies = [energy(*y)[0] for y in rk4(p, state, dt, n_steps)]
    return max(abs(e - energies[0]) for e in energies) / (abs(energies[0]) or 1.0)
