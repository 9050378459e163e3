"""Mutual information, classical correlation (both paths), and discord."""
import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasing_discord import (
    ClassicalMethod,
    DomainError,
    MeasurementAngles,
    Reservoir,
    SystemConfig,
    XStateParams,
    binary_entropy_like,
    classical_bruteforce,
    classical_closed,
    discord,
    discord_plateau,
    evolve,
    gamma_closed,
    mutual_information,
)
from dephasing_discord.evolution import eigenvalues

from dephasing_discord.correlations import (
    _PHIS,
    _THETAS,
    _entropy_term,
    _grid_max,
    _measurement_objective,
    _multisection_max,
    _spectrum_2x2,
)

from conftest import (
    PAULI,
    conditional_states,
    discord_decay,
    entropy_bits,
    measured_information,
    partial_trace,
    reference_bruteforce,
    reference_objective,
    splittings,
    system_configs,
    times,
    to_matrix,
)

PLATEAU_04 = 0.11870910076930738  # binary_entropy_like(0.4), 53-bit value
PLATEAU_02 = 0.02904940554533136


def plateau_family_config(c3=-0.4):
    return SystemConfig(
        bath_a=Reservoir(0.2, 1.0, 5.0),
        bath_b=Reservoir(0.2, 1.0, 5.0),
        state=XStateParams(1.0, -c3, c3),
    )


def test_entropy_kernel_endpoints_and_reference_values():
    assert binary_entropy_like(0.0) == 0.0
    assert binary_entropy_like(1.0) == 1.0
    assert binary_entropy_like(0.4) == pytest.approx(PLATEAU_04, abs=1e-16)
    assert binary_entropy_like(0.2) == pytest.approx(PLATEAU_02, abs=1e-16)


def test_entropy_kernel_domain():
    with pytest.raises(DomainError):
        binary_entropy_like(-0.1)
    with pytest.raises(DomainError):
        binary_entropy_like(1.1)
    # slack below the clamp tolerance is absorbed
    assert binary_entropy_like(-1e-12) == 0.0
    assert binary_entropy_like(1.0 + 1e-12) == 1.0


@given(st.floats(0.0, 1.0, allow_nan=False), st.floats(1e-6, 1.0, allow_nan=False))
def test_entropy_kernel_is_nondecreasing(x, step):
    hi = min(1.0, x + step)
    assert binary_entropy_like(hi) >= binary_entropy_like(x) - 1e-15


@given(system_configs(), times)
@settings(max_examples=150, deadline=None)
def test_mutual_information_matches_dense_entropy_oracle(config, t):
    # maximally mixed marginals make I = S(A) + S(B) - S(AB) = 2 - S(AB)
    rho = evolve(config, t)
    dense = 2.0 - entropy_bits(np.linalg.eigvalsh(to_matrix(rho)))
    assert mutual_information(rho) == pytest.approx(dense, abs=1e-10)


def test_mutual_information_reference_value():
    rho = evolve(plateau_family_config(), 0.0)
    assert mutual_information(rho) == pytest.approx(1.1187091007693073, abs=1e-15)


def test_conditional_state_pinned_matrices():
    rho = evolve(plateau_family_config(), 0.0)
    # equatorial measurement: epsilon = alpha + gamma = 2, populations even
    m0, m1 = conditional_states(rho, math.pi / 4.0, 0.0)
    assert np.allclose(m0, np.array([[0.5, 0.5], [0.5, 0.5]]), atol=1e-15)
    assert np.allclose(m1, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15)
    # polar measurement: diagonal with populations (1 +- c3)/2 for outcome 0
    # (B found in its first level) and (1 -+ c3)/2 for outcome 1
    mz, mz1 = conditional_states(rho, 0.0, 0.0)
    assert np.allclose(mz, np.diag([0.3, 0.7]), atol=1e-15)
    assert np.allclose(mz1, np.diag([0.7, 0.3]), atol=1e-15)
    # array angles broadcast to one state pair per (theta, phi)
    grid = conditional_states(rho, np.array([[0.0], [math.pi / 4.0]]), np.zeros(3))
    assert grid.shape == (2, 2, 3, 2, 2)
    assert np.allclose(grid[:, 1, 2], [m0, m1], atol=1e-15)


@given(
    system_configs(),
    times,
    st.floats(0.0, math.pi / 2.0, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False),
    st.sampled_from([0, 1]),
)
@settings(max_examples=150, deadline=None)
def test_conditional_states_are_single_qubit_density_matrices(config, t, theta, phi, k):
    rho = evolve(config, t)
    m = conditional_states(rho, theta, phi)[k]
    assert m.shape == (2, 2)
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-12


def _exact_spectrum(a, d, b_re, b_im):
    """The spectrum of [[a, b], [conj(b), d]] in 50-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a, d, b_re, b_im = map(decimal.Decimal, (a, d, b_re, b_im))
        mean = (a + d) / 2
        radius = ((a - d) ** 2 / 4 + b_re * b_re + b_im * b_im).sqrt()
        return float(mean - radius), float(mean + radius)


unit = st.floats(0.0, 1.0, allow_nan=False)
half = st.floats(-0.5, 0.5, allow_nan=False)


@given(unit, unit, half, half, st.sampled_from(["any", "a = d", "b = 0", "rank 1"]))
@settings(max_examples=300, derandomize=True)
def test_spectrum_2x2_is_the_eigvalsh_spectrum(a, d, b_re, b_im, case):
    # Hermitian 2x2 matrices at the scale of density matrices.  LAPACK itself
    # is off by ~1e-15 on about one draw in a million, so the draws are fixed.
    if case == "a = d":
        d = a
    elif case == "b = 0":
        b_re = b_im = 0.0
    elif case == "rank 1":  # |v><v| for the unit vector v = (cos u, sin u * exp(i*p))
        u, p = 0.5 * math.pi * a, 4.0 * math.pi * b_re
        a, d = math.cos(u) ** 2, math.sin(u) ** 2
        b = math.cos(u) * math.sin(u) * complex(math.cos(p), -math.sin(p))
        b_re, b_im = b.real, b.imag
    matrix = np.array([[a, complex(b_re, b_im)], [complex(b_re, -b_im), d]])
    low, high = _spectrum_2x2(a, d, b_re * b_re + b_im * b_im)
    expected = np.linalg.eigvalsh(matrix)
    assert abs(low - expected[0]) <= 1e-15
    assert abs(high - expected[1]) <= 1e-15
    exact = _exact_spectrum(a, d, b_re, b_im)
    assert abs(low - exact[0]) <= 4.5e-16
    assert abs(high - exact[1]) <= 4.5e-16


def _library_grid():
    thetas = np.linspace(0.0, 0.5 * math.pi, 91)
    phis = np.union1d(
        np.linspace(0.0, 2.0 * math.pi, 181, endpoint=False), [0.5 * math.pi, math.pi, 1.5 * math.pi]
    )
    return thetas, phis


@given(system_configs(), times)
@settings(max_examples=60, deadline=None)
def test_grid_objective_matches_the_eigvalsh_oracle(config, t):
    rho = evolve(config, t)
    thetas, phis = _library_grid()
    fast = _measurement_objective(rho.c3, rho.alpha, rho.gamma, thetas[:, None], phis)
    oracle = measured_information(rho, thetas[:, None], phis)
    assert fast.shape == oracle.shape == (91, 184)
    assert np.max(np.abs(fast - oracle)) <= 1e-14
    # one state, plain angles
    assert abs(_measurement_objective(rho.c3, rho.alpha, rho.gamma, 0.3, 1.1)
               - measured_information(rho, 0.3, 1.1)) <= 1e-14


@given(system_configs(), times)
@settings(max_examples=60, deadline=None)
def test_refinement_stays_within_one_step_of_the_grid_argmax(config, t):
    rho = evolve(config, t)
    grid, at = _grid_max(rho)
    refined, angles = classical_bruteforce(rho)
    thetas, phis = _library_grid()
    objective = measured_information(rho, thetas[:, None], phis)
    assert grid == pytest.approx(float(np.max(objective)), abs=1e-14)
    assert refined >= grid
    assert abs(angles.theta - at.theta) <= 0.5 * math.pi / 90 + 1e-15
    turn = abs(angles.phi - at.phi)
    assert min(turn, 2.0 * math.pi - turn) <= 2.0 * math.pi / 181 + 1e-15


@given(
    system_configs(),
    times,
    st.floats(0.0, math.pi / 2.0, allow_nan=False),
    st.floats(0.0, 2.0 * math.pi, exclude_max=True, allow_nan=False),
    st.floats(1e-10, 0.5, allow_nan=False),
)
# a pure Bell state: conditional spectra of exactly 0 and 1
@example(SystemConfig(Reservoir(0.2, 1.0, math.inf), Reservoir(0.2, 1.0, math.inf),
                      XStateParams(1.0, -1.0, 1.0)), 0.0, 0.0, 0.0, 1e-10)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_objective_and_search_are_the_two_outcome_reference_bit_for_bit(config, t, theta, phi, width):
    # Outcome 1's conditional state is outcome 0's with a, d swapped and b
    # negated, all exact in floating point, so one spectrum serves both.
    rho = evolve(config, t)
    state = (rho.c3, rho.alpha, rho.gamma)
    for angles in (
        (_THETAS[:, None], _PHIS),
        (np.linspace(max(0.0, theta - width), min(0.5 * math.pi, theta + width), 65), phi),
        (theta, np.linspace(phi - width, phi + width, 65)),
        (theta, phi),
    ):
        fast, reference = _measurement_objective(*state, *angles), reference_objective(*state, *angles)
        assert np.shape(fast) == np.shape(reference) and np.array_equal(fast, reference)
    value, at = classical_bruteforce(rho)
    assert (value, at.theta, at.phi) == reference_bruteforce(rho)


@given(st.lists(st.floats(), min_size=1, max_size=16))
@settings(max_examples=100, derandomize=True)
def test_entropy_term_clamps_as_np_clip_bit_for_bit(values):
    lam = np.array(values)
    clipped = np.clip(lam, 0.0, 1.0)
    reference = -clipped * np.log2(np.where(clipped > 0.0, clipped, 1.0))
    assert _entropy_term(lam).tobytes() == reference.tobytes()
    assert _entropy_term(lam[0]).tobytes() == reference[0].tobytes()


@given(st.floats(-10.0, 10.0, allow_nan=False), st.floats(2e-10, 10.0, allow_nan=False),
       st.floats(0.0, 1.0, allow_nan=False))
@settings(max_examples=100, derandomize=True)
def test_sections_are_np_linspace_bit_for_bit(lo, width, peak):
    sections = []

    def fun(xs):
        sections.append(xs.copy())
        return -np.abs(xs - (lo + peak * width))

    _multisection_max(fun, lo, lo + width, lo, -math.inf)
    assert sections
    for xs in sections:
        assert xs.tobytes() == np.linspace(xs[0], xs[-1], 65).tobytes()


def test_measurement_angles_validate_ranges():
    MeasurementAngles(0.0, 0.0)
    MeasurementAngles(math.pi / 2.0, 6.28)
    with pytest.raises(DomainError):
        MeasurementAngles(-0.1, 0.0)
    with pytest.raises(DomainError):
        MeasurementAngles(math.pi / 2.0 + 0.1, 0.0)
    with pytest.raises(DomainError):
        MeasurementAngles(0.0, 2.0 * math.pi)


def test_classical_closed_reference_points():
    config = plateau_family_config()
    c0, chi0 = classical_closed(evolve(config, 0.0))
    assert c0 == pytest.approx(1.0, abs=1e-15)
    assert chi0 == pytest.approx(1.0, abs=1e-15)
    # far past the crossing the coherence branch has decayed below |c3|
    c_late, chi_late = classical_closed(evolve(config, 30.0))
    assert chi_late == pytest.approx(0.4, abs=1e-15)
    assert c_late == pytest.approx(PLATEAU_04, abs=1e-15)


@given(system_configs(), times)
@settings(max_examples=60, deadline=None)
def test_bruteforce_matches_closed_classical(config, t):
    rho = evolve(config, t)
    closed, _ = classical_closed(rho)
    grid, _ = _grid_max(rho)
    refined, angles = classical_bruteforce(rho)
    assert grid <= closed + 1e-9
    assert grid >= closed - 1e-4
    assert abs(refined - closed) <= 1e-6
    assert 0.0 <= angles.theta <= math.pi / 2.0
    assert 0.0 <= angles.phi < 2.0 * math.pi


def _dense_grid_classical(matrix, phi_offset=0.0):
    """max of S(A) - sum_k p_k S(A|k) over projective measurements on B along
    the Bloch directions (2*theta, phi + phi_offset) of the library's
    91 x (181 + 3 quarter turns) (theta, phi) grid, computed from the 4x4
    matrix alone."""
    theta = np.linspace(0.0, 0.5 * math.pi, 91)[:, None]
    phi = np.union1d(
        np.linspace(0.0, 2.0 * math.pi, 181, endpoint=False), [0.5 * math.pi, math.pi, 1.5 * math.pi]
    )[None, :] + phi_offset
    n = np.stack(np.broadcast_arrays(
        np.sin(2 * theta) * np.cos(phi), np.sin(2 * theta) * np.sin(phi),
        np.cos(2 * theta) + 0 * phi), axis=-1).reshape(-1, 3)
    r = np.asarray(matrix).reshape(2, 2, 2, 2)
    conditional = 0.0
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sign * np.einsum("gx,xbc->gbc", n, PAULI, optimize=True))
        unnormalized = np.einsum("gcb,ibjc->gij", proj, r, optimize=True)
        p_k = (unnormalized[:, 0, 0] + unnormalized[:, 1, 1]).real
        lams = np.clip(np.linalg.eigvalsh(unnormalized / p_k[:, None, None]), 0.0, 1.0)
        entropies = -np.sum(lams * np.log2(np.where(lams > 0.0, lams, 1.0)), axis=-1)
        conditional = conditional + p_k * entropies
    return float(np.max(entropy_bits(np.linalg.eigvalsh(partial_trace(matrix, 0))) - conditional))


@given(system_configs(), times, splittings)
@settings(max_examples=30, deadline=None)
def test_classical_correlation_is_frame_independent(config, t, omegas):
    # The state is kept in the rotating frame.  The lab-frame state carries
    # the free phases on its coherences, the local unitary
    # diag(1, exp(-i omega_a t)) x diag(1, exp(-i omega_b t)), which moves no
    # correlation: on B it turns the azimuth of every measurement by omega_b*t.
    rho = evolve(config, t)
    rotating = to_matrix(rho)
    omega_a, omega_b = omegas
    lab = rotating.astype(complex)
    lab[3, 0] *= np.exp(-1j * (omega_a + omega_b) * t)
    lab[2, 1] *= np.exp(1j * (omega_b - omega_a) * t)
    lab[0, 3], lab[1, 2] = np.conj(lab[3, 0]), np.conj(lab[2, 1])
    # the stored coherences are the real (c1 -+ c2) * D_A * D_B
    product = gamma_closed(config.bath_a, t).d * gamma_closed(config.bath_b, t).d
    assert rho.alpha == (config.state.c1 - config.state.c2) * product
    assert rho.gamma == (config.state.c1 + config.state.c2) * product
    spectrum = np.sort(np.linalg.eigvalsh(lab))
    assert np.max(np.abs(spectrum - np.sort(eigenvalues(rho)))) <= 1e-10
    assert mutual_information(rho) == pytest.approx(2.0 - entropy_bits(spectrum), abs=1e-10)
    grid = _dense_grid_classical(rotating)
    assert _dense_grid_classical(lab, -omega_b * t) == pytest.approx(grid, abs=1e-10)
    assert _grid_max(rho)[0] == pytest.approx(grid, abs=1e-10)
    assert grid <= classical_closed(rho)[0] + 1e-9


@given(system_configs(), times)
@settings(max_examples=100, deadline=None)
def test_discord_breakdown_is_consistent_and_nonnegative(config, t):
    rho = evolve(config, t)
    out = discord(rho)
    assert out.discord == pytest.approx(out.mutual_info - out.classical, abs=1e-10)
    assert out.discord >= 0.0
    assert -1e-12 <= out.classical <= out.mutual_info + 1e-10
    assert 0.0 <= classical_closed(rho)[1] <= 1.0


def test_discord_bruteforce_route_reports_angles():
    rho = evolve(plateau_family_config(), 1.0)
    value, angles = classical_bruteforce(rho)
    assert isinstance(angles, MeasurementAngles)
    out = discord(rho, method=ClassicalMethod.BRUTEFORCE)
    assert out.classical == value
    assert out.classical == pytest.approx(discord(rho).classical, abs=1e-8)


def test_plateau_and_decay_formulas():
    assert discord_plateau(-0.4) == pytest.approx(PLATEAU_04, abs=1e-16)
    assert discord_plateau(0.4) == pytest.approx(PLATEAU_04, abs=1e-16)
    assert discord_plateau(0.2) == pytest.approx(PLATEAU_02, abs=1e-16)
    assert discord_decay(1.0) == 1.0
    assert discord_decay(0.4) == pytest.approx(PLATEAU_04, abs=1e-16)
    with pytest.raises(DomainError):
        discord_plateau(1.5)
    # a product of 0 is the fully dephased pair that underflowing rows reach
    assert discord_decay(0.0) == 0.0
    with pytest.raises(DomainError):
        discord_decay(1.5)


def test_special_family_discord_follows_the_two_branch_formula():
    # c1 = 1, c2 = -c3: before the crossing the discord sits at the plateau
    # value, after it it equals the kernel of the decohering product
    from dephasing_discord import critical_time_solve

    config = plateau_family_config()
    t_p = critical_time_solve(config).t_p
    for t in (0.0, 0.5 * t_p, 0.95 * t_p):
        out = discord(evolve(config, t))
        assert out.discord == pytest.approx(PLATEAU_04, abs=1e-12)
    for t in (1.05 * t_p, 2.0 * t_p, 5.0 * t_p):
        out = discord(evolve(config, t))
        dd = gamma_closed(config.bath_a, t).d * gamma_closed(config.bath_b, t).d
        assert dd < 0.4
        assert out.discord == pytest.approx(discord_decay(dd), abs=1e-12)


def test_discord_of_classical_state_is_zero():
    # zero coherences leave a diagonal (classically correlated) state
    config = replace(plateau_family_config(), state=XStateParams(0.0, 0.0, 0.3))
    out = discord(evolve(config, 1.3))
    assert out.discord == 0.0
    assert out.classical == pytest.approx(binary_entropy_like(0.3), abs=1e-12)
    assert out.mutual_info == pytest.approx(out.classical, abs=1e-12)
