"""Shared strategies, matrix helpers and reference loops for the test suite."""
import math

import mpmath
import numpy as np
from hypothesis import strategies as st

from dephasing_discord import (
    DomainError,
    Reservoir,
    SystemConfig,
    XStateParams,
    binary_entropy_like,
    gamma_closed,
)
from dephasing_discord import cli, correlations, dfe, evolution

LN2 = math.log(2.0)
LABELS = ("g", "e")


@st.composite
def valid_states(draw):
    """X states drawn so that all four initial eigenvalues are >= 0.

    Sampling (c3, a, g) with |a| <= 1+c3 and |g| <= 1-c3 and mapping back to
    c1 = (a+g)/2, c2 = (g-a)/2 covers exactly the physical region, since the
    eigenvalues depend on c only through c3, |c1-c2| and |c1+c2|.
    """
    c3 = draw(st.floats(-1.0, 1.0, allow_nan=False))
    a = draw(st.floats(-(1.0 + c3), 1.0 + c3, allow_nan=False))
    g = draw(st.floats(-(1.0 - c3), 1.0 - c3, allow_nan=False))
    return XStateParams((a + g) / 2.0, (g - a) / 2.0, c3)


@st.composite
def reservoirs(draw, allow_zero_temperature=True):
    eta = draw(st.floats(0.05, 2.0, allow_nan=False))
    omega_c = draw(st.floats(0.5, 3.0, allow_nan=False))
    if allow_zero_temperature and draw(st.booleans()):
        beta = math.inf
    else:
        beta = draw(st.floats(0.5, 100.0, allow_nan=False))
    return Reservoir(eta, omega_c, beta)


@st.composite
def system_configs(draw):
    return SystemConfig(
        bath_a=draw(reservoirs()),
        bath_b=draw(reservoirs()),
        state=draw(valid_states()),
    )


times = st.floats(0.0, 30.0, allow_nan=False)
# Level splittings (omega_a, omega_b) of the two qubits: the free phases of
# the lab frame, which the rotating-frame state leaves out.
splittings = st.tuples(st.floats(0.0, 10.0, allow_nan=False), st.floats(0.0, 10.0, allow_nan=False))


def to_matrix(rho):
    """Dense real 4x4 rotating-frame matrix of one XDensityMatrix in the
    product basis (gg, ge, eg, ee)."""
    c3, al, ga = rho.c3, rho.alpha, rho.gamma
    return 0.25 * np.array(
        [
            [1.0 + c3, 0.0, 0.0, al],
            [0.0, 1.0 - c3, ga, 0.0],
            [0.0, ga, 1.0 - c3, 0.0],
            [al, 0.0, 0.0, 1.0 + c3],
        ]
    )


def discord_decay(d_product):
    """Discord of the family (1, m, -m) after the crossing: f(D_A*D_B), a
    function of the decohering product alone."""
    return binary_entropy_like(d_product)


def entropy_bits(eigenvalues):
    """Von Neumann entropy from an eigenvalue array, 0*log0 = 0."""
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, 1.0)
    mask = lam > 0.0
    return float(-np.sum(lam[mask] * np.log2(lam[mask])))


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def conditional_states(rho, theta, phi):
    """Post-measurement states of qubit A for both outcomes k of a measurement on B.

    The measurement projects B on P_k = (I + (-1)^k n.sigma)/2 along the Bloch
    direction n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta), and
    outcome k leaves A in Tr_B[(I x P_k) rho (I x P_k)] / p_k, computed here
    from the 4x4 matrix alone.  theta and phi broadcast against each other;
    the result has shape (2, *broadcast shape, 2, 2).
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    n = np.stack(
        [np.sin(2.0 * theta) * np.cos(phi), np.sin(2.0 * theta) * np.sin(phi), np.cos(2.0 * theta)],
        axis=-1,
    )
    r = to_matrix(rho).reshape(2, 2, 2, 2)  # r[a, b, a', b'] = <a b|rho|a' b'>
    states = []
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sign * np.einsum("...x,xbc->...bc", n, PAULI, optimize=True))
        # sum_{b,c,d} proj[d, b] r[i, b, j, c] proj[c, d], contracted over d
        # first: proj[c, d] proj[d, b] as two outer products, then one
        # contraction with r that numpy hands to BLAS
        square = proj[..., :, :1] * proj[..., :1, :] + proj[..., :, 1:] * proj[..., 1:, :]
        unnormalized = np.einsum("...cb,ibjc->...ij", square, r, optimize=True)
        p_k = unnormalized[..., 0, 0] + unnormalized[..., 1, 1]
        states.append(unnormalized / p_k[..., None, None])
    return np.stack(states)


def measured_information(rho, theta, phi):
    """1 - (1/2) sum_k S(rho_A|k) from conditional_states and eigvalsh: the
    oracle for the closed-form spectra of the library's angle search."""
    lams = np.clip(np.linalg.eigvalsh(conditional_states(rho, theta, phi)), 0.0, 1.0)
    safe = np.where(lams > 0.0, lams, 1.0)
    entropies = -np.sum(lams * np.log2(safe), axis=-1)
    return 1.0 - 0.5 * np.sum(entropies, axis=0)


def reference_objective(c3, alpha, gamma, theta, phi):
    """The angle-search objective with each outcome's spectrum computed and
    summed in turn, np.clip clamping each eigenvalue: the reference that
    correlations._measurement_objective, which computes one spectrum for
    both outcomes, must reproduce bit for bit."""
    cos2t = np.cos(2.0 * theta)
    sin2t = np.sin(2.0 * theta)
    eps_re = (alpha + gamma) * np.cos(phi)
    eps_im = (alpha - gamma) * np.sin(phi)
    total = 0.0
    for sign in (1.0, -1.0):
        a = 0.5 * (1.0 + sign * c3 * cos2t)
        d = 0.5 * (1.0 - sign * c3 * cos2t)
        b_re = 0.25 * sign * sin2t * eps_re
        b_im = 0.25 * sign * sin2t * eps_im
        mean = 0.5 * (a + d)
        radius = np.sqrt(0.25 * (a - d) ** 2 + (b_re * b_re + b_im * b_im))
        for lam in (mean - radius, mean + radius):
            lam = np.clip(lam, 0.0, 1.0)
            total = total + -lam * np.log2(np.where(lam > 0.0, lam, 1.0))
    return 1.0 - 0.5 * total


def reference_bruteforce(rho):
    """(value, theta, phi) of classical_bruteforce's search run on
    reference_objective, its sections built by np.linspace."""
    c3, alpha, gamma = rho.c3, rho.alpha, rho.gamma
    thetas, phis = correlations._THETAS, correlations._PHIS
    grid = reference_objective(c3, alpha, gamma, thetas[:, None], phis)
    i_theta, i_phi = np.unravel_index(int(np.argmax(grid)), grid.shape)
    value, theta, phi = float(grid[i_theta, i_phi]), float(thetas[i_theta]), float(phis[i_phi])

    def section(fun, lo, hi, best_x, best_f):
        while hi - lo > 1e-10:
            xs = np.linspace(lo, hi, 65)
            values = fun(xs)
            i = int(np.argmax(values))
            if values[i] > best_f:
                best_x, best_f = float(xs[i]), float(values[i])
            lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, 64)])
        return best_x, best_f

    step_theta, step_phi = 0.5 * math.pi / 90, 2.0 * math.pi / 181
    best_theta, value = section(
        lambda u: reference_objective(c3, alpha, gamma, u, phi),
        max(0.0, theta - step_theta), min(0.5 * math.pi, theta + step_theta), theta, value,
    )
    best_phi, value = section(
        lambda u: reference_objective(c3, alpha, gamma, best_theta, u),
        phi - step_phi, phi + step_phi, phi, value,
    )
    return value, best_theta, best_phi % (2.0 * math.pi) % (2.0 * math.pi)


def partial_trace(rho, keep):
    """Trace out one qubit of a 4x4 matrix in the (gg, ge, eg, ee) basis.

    keep=0 returns the first-qubit state, keep=1 the second.
    """
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    return np.einsum("kikj->ij", r)


def assert_density_matrix(rho, atol=1e-12):
    rho = np.asarray(rho)
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho) - 1.0) <= atol
    assert np.max(np.abs(rho - rho.conj().T)) <= atol
    assert np.min(np.linalg.eigvalsh(rho)) >= -atol


def element_decay(rho0_elem, l_a, l_b, j_a, j_b, config, t):
    """General decay law for a single matrix element, the oracle for evolve.

    Returns rho0_elem * exp((delta(l_a,j_a) - 1) * Gamma_A)
                      * exp((delta(l_b,j_b) - 1) * Gamma_B),
    i.e. the rotating-frame element <l_a l_b| rho(t) |j_a j_b>: each reservoir
    whose index pair differs contributes one factor of D.
    """
    for name, label in (("l_a", l_a), ("l_b", l_b), ("j_a", j_a), ("j_b", j_b)):
        if label not in LABELS:
            raise DomainError(f"{name} must be one of {LABELS}, got {label!r}")
    value = complex(rho0_elem)
    if l_a != j_a:
        value *= math.exp(-gamma_closed(config.bath_a, t).gamma)
    if l_b != j_b:
        value *= math.exp(-gamma_closed(config.bath_b, t).gamma)
    return value


def _tail_third_derivative(u, xsq):
    # d^3/du^3 of ln(1 + xsq/u^2); negative for all u > 0.
    usq = u * u
    return -4.0 * xsq * (6.0 * usq * usq + 3.0 * usq * xsq + xsq * xsq) / (
        u**3 * (usq + xsq) ** 3
    )


def thermal_series_per_point(xsq, b, target=1e-13, cap=10**7):
    """The thermal series of one point, summed on its own: the oracle for the
    vectorized kernel in bath.  Returns (series, truncation bound)."""
    if xsq == 0.0:
        return 0.0, 0.0
    n_terms = 32
    while True:
        u_mid = 1.0 + b * (n_terms + 0.5)
        bound = (7.0 / 5760.0) * b**3 * abs(_tail_third_derivative(u_mid, xsq))
        if bound <= target or n_terms >= cap:
            break
        n_terms *= 2
    n = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(np.log1p(xsq / (1.0 + b * n) ** 2)))
    x = math.sqrt(xsq)
    integral = (2.0 * x * math.atan(x / u_mid) - u_mid * math.log1p(xsq / (u_mid * u_mid))) / b
    correction = (b / 24.0) * (-2.0 * xsq / (u_mid * (u_mid * u_mid + xsq)))
    return partial + integral + correction, bound


def gamma_per_point(reservoir, t):
    """(Gamma, D, est_error) of one time, computed point by point."""
    x = reservoir.omega_c * float(t)
    gamma = 0.5 * math.log1p(x * x)
    err = 0.0
    if not math.isinf(reservoir.beta):
        series, bound = thermal_series_per_point(x * x, reservoir.beta * reservoir.omega_c)
        gamma += series
        err = reservoir.eta * bound
    gamma *= reservoir.eta
    return gamma, math.exp(-gamma), err



def mpmath_gamma(reservoir, t):
    """Gamma of one time as an mpf, from the log-gamma identity of the thermal
    series, sum_{n>=1} ln(1 + x^2/(1+b*n)^2) = 2[ln Gamma(1 + 1/b) -
    Re ln Gamma(1 + 1/b + i*x/b)] with x = omega_c*t and b = beta*omega_c.
    The difference cancels the digits of 1/b, so the working precision is
    40 digits plus those."""
    lost = 0
    if not math.isinf(reservoir.beta):
        lost = max(0, math.ceil(-math.log10(reservoir.beta) - math.log10(reservoir.omega_c)))
    with mpmath.workdps(40 + lost):
        x = mpmath.mpf(reservoir.omega_c) * mpmath.mpf(t)
        value = mpmath.log1p(x * x) / 2
        if not math.isinf(reservoir.beta):
            inv_b = 1 / (mpmath.mpf(reservoir.beta) * mpmath.mpf(reservoir.omega_c))
            value += 2 * (mpmath.loggamma(1 + inv_b)
                          - mpmath.re(mpmath.loggamma(1 + inv_b + 1j * x * inv_b)))
        return mpmath.mpf(reservoir.eta) * value


def sweep_csv_per_case(columns, cases, t, method):
    """The CSV of cli._sweep_csv, one case at a time: each distinct
    reservoir's D from the library's own route, one column pass and one
    formatting pass per case.  The reference whose bytes and errors the
    shared-work sweep must reproduce."""
    classical_method, gamma_method = cli._METHODS[method]
    curves = {}

    def curve(reservoir):
        if reservoir not in curves:
            curves[reservoir] = evolution._decohering_factor(reservoir, t, gamma_method)
        return curves[reservoir]

    tail = "{:.17g}," * (len(cli._CSV_HEADER) - 1) + "{}"
    blocks = [",".join((*columns, *cli._CSV_HEADER))]
    for prefix, config in cases:
        row = "".join(format(float(v), ".17g") + "," for v in prefix) + tail
        *values, flags = dfe._trajectory_columns(
            config, t, curve(config.bath_a), curve(config.bath_b), classical_method
        )
        regimes = ["DFE" if flag else "DECAY" for flag in flags.tolist()]
        blocks.append("\n".join(map(row.format, *(v.tolist() for v in values), regimes)))
    return "\n".join(blocks) + "\n"
