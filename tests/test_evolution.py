"""Exact dephasing evolution: element decay law, phases, spectra, marginals."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasing_discord import (
    DomainError,
    NonPhysicalState,
    Reservoir,
    SystemConfig,
    XDensityMatrix,
    XStateParams,
    evolve,
    gamma_closed,
)
from dephasing_discord.evolution import eigenvalues

from conftest import (
    LABELS,
    assert_density_matrix,
    element_decay,
    partial_trace,
    reservoirs,
    splittings,
    system_configs,
    times,
    to_matrix,
)


def plateau_family_config():
    return SystemConfig(
        bath_a=Reservoir(0.2, 1.0, 5.0),
        bath_b=Reservoir(0.2, 1.0, 5.0),
        state=XStateParams(1.0, 0.4, -0.4),
    )


def test_evolve_at_t_zero_reproduces_initial_coherences():
    rho = evolve(plateau_family_config(), 0.0)
    assert rho.alpha == pytest.approx(0.6)
    assert rho.gamma == pytest.approx(1.4)
    assert rho.c3 == -0.4
    assert rho.t == 0.0


@given(system_configs(), times)
@settings(max_examples=100, deadline=None)
def test_evolve_matches_element_decay_at_zero_splitting(config, t):
    rho = to_matrix(evolve(config, t))
    rho0 = to_matrix(evolve(config, 0.0))
    for i in range(4):
        for j in range(4):
            expected = element_decay(
                rho0[i, j], LABELS[i >> 1], LABELS[i & 1],
                LABELS[j >> 1], LABELS[j & 1], config, t,
            )
            assert abs(rho[i, j] - expected) <= 1e-12


@given(system_configs(), times, splittings)
@settings(max_examples=100, deadline=None)
def test_evolve_matches_element_decay_in_modulus(config, t, omegas):
    # evolve keeps the rotating frame; with nonzero splittings the lab-frame
    # elements add free phases exp(-i (E_i - E_j) t), so the moduli are what
    # every frame shares
    energy = np.array([0.0, omegas[1], omegas[0], omegas[0] + omegas[1]])
    phases = np.exp(-1j * np.subtract.outer(energy, energy) * t)
    lab = to_matrix(evolve(config, t)) * phases
    rho0 = to_matrix(evolve(config, 0.0))
    for i in range(4):
        for j in range(4):
            expected = element_decay(
                rho0[i, j], LABELS[i >> 1], LABELS[i & 1],
                LABELS[j >> 1], LABELS[j & 1], config, t,
            )
            assert abs(abs(lab[i, j]) - abs(expected)) <= 1e-12


@given(system_configs(), times, splittings)
@settings(max_examples=100, deadline=None)
def test_free_phases_do_not_move_coherence_moduli(config, t, omegas):
    # the lab-frame state is the rotating-frame one with the free phases
    # exp(-i (omega_a + omega_b) t) and exp(i (omega_b - omega_a) t) on its
    # two coherences
    rho = evolve(config, t)
    omega_a, omega_b = omegas
    lab = to_matrix(rho).astype(complex)
    lab[3, 0] *= np.exp(-1j * (omega_a + omega_b) * t)
    lab[2, 1] *= np.exp(1j * (omega_b - omega_a) * t)
    lab[0, 3], lab[1, 2] = np.conj(lab[3, 0]), np.conj(lab[2, 1])
    assert 4.0 * abs(lab[3, 0]) == pytest.approx(abs(rho.alpha), abs=1e-15)
    assert 4.0 * abs(lab[2, 1]) == pytest.approx(abs(rho.gamma), abs=1e-15)
    assert np.allclose(
        np.sort(np.linalg.eigvalsh(lab)), np.sort(eigenvalues(rho)), atol=1e-14
    )


@given(system_configs(), times)
@settings(max_examples=100, deadline=None)
def test_evolved_state_is_a_density_matrix_with_mixed_marginals(config, t):
    m = to_matrix(evolve(config, t))
    assert_density_matrix(m)
    for keep in (0, 1):
        reduced = partial_trace(m, keep)
        assert np.max(np.abs(reduced - np.eye(2) / 2.0)) <= 1e-12


@given(system_configs(), times)
@example(SystemConfig(Reservoir(0.2, 1.0, 5.0), Reservoir(0.6, 2.0, math.inf),
                      XStateParams(0.3, -0.5, 0.1)), 0.0)
@example(SystemConfig(Reservoir(0.2, 1.0, 5.0), Reservoir(0.2, 1.0, 5.0),
                      XStateParams(1.0, 1.0, -1.0)), 0.0)
@settings(max_examples=150, deadline=None)
def test_closed_form_eigenvalues_match_dense_solver(config, t):
    rho = evolve(config, t)
    closed = np.sort(eigenvalues(rho))
    dense = np.sort(np.linalg.eigvalsh(to_matrix(rho)))
    assert np.max(np.abs(closed - dense)) <= 1e-10
    assert math.fsum(closed) == pytest.approx(1.0, abs=1e-12)
    assert np.all(closed >= 0.0) and np.all(closed <= 1.0)


def test_eigenvalue_examples():
    rho = XDensityMatrix(c3=-0.4, alpha=0.6, gamma=1.4, t=0.0)
    assert np.sort(eigenvalues(rho)) == pytest.approx([0.0, 0.0, 0.3, 0.7], abs=1e-15)
    mixed = XDensityMatrix(c3=0.0, alpha=0.0, gamma=0.0, t=0.0)
    assert eigenvalues(mixed) == pytest.approx([0.25, 0.25, 0.25, 0.25], abs=1e-15)


@st.composite
def near_edge_states(draw):
    """(c1, c2, c3) within 1e-11 of the edge of the physical region, on
    either side, where rounding decides whether a state is valid."""
    def near(bound):
        return draw(st.sampled_from((-1.0, 1.0))) * bound + draw(st.floats(-1e-11, 1e-11))

    c3 = draw(st.one_of(st.floats(-1.0, 1.0), st.sampled_from((-1.0, 0.0, 1.0))))
    c3 += draw(st.floats(-1e-11, 1e-11))
    a, g = near(1.0 + c3), near(1.0 - c3)
    return XStateParams((a + g) / 2.0, (g - a) / 2.0, c3)


@given(near_edge_states(), reservoirs(), st.floats(0.1, 30.0))
@example(XStateParams(1.0, -3e-12, 0.0), Reservoir(0.6, 1.0, 5.0), 30.0)
@example(XStateParams(0.5, 0.5, 3e-12), Reservoir(0.6, 1.0, 5.0), 30.0)
@settings(max_examples=200, deadline=None)
def test_every_valid_configuration_evolves_to_physical_states(state, reservoir, t_max):
    # one rule decides validity: a configuration that constructs never
    # meets NonPhysicalState later, at t = 0 or anywhere on a grid
    try:
        config = SystemConfig(reservoir, reservoir, state)
    except NonPhysicalState:
        return
    for t in (0.0, np.linspace(0.0, t_max, 16)):
        spectrum = np.array(eigenvalues(evolve(config, t)))
        assert np.all(spectrum >= 0.0)


def test_diagonal_elements_are_constant_and_zero_coherences_stay_zero():
    config = plateau_family_config()
    for t in (0.0, 1.0, 10.0):
        assert element_decay(0.35, "g", "g", "g", "g", config, t) == 0.35
        assert element_decay(0.0, "g", "e", "e", "g", config, t) == 0.0
    # single-qubit coherence picks up exactly one bath's decay factor
    d_a = gamma_closed(config.bath_a, 2.0).d
    assert element_decay(1.0, "g", "g", "e", "g", config, 2.0) == pytest.approx(d_a)


def test_element_decay_rejects_bad_labels():
    config = plateau_family_config()
    with pytest.raises(DomainError):
        element_decay(1.0, "g", "g", "x", "g", config, 1.0)


def test_double_coherence_decay_equals_evolve_ratio():
    config = plateau_family_config()
    t = 3.0
    rho0 = evolve(config, 0.0)
    rho = evolve(config, t)
    ratio = abs(rho.alpha) / abs(rho0.alpha)
    decayed = element_decay(1.0, "g", "g", "e", "e", config, t)
    assert abs(decayed) == pytest.approx(ratio, rel=1e-12)


@given(system_configs(), st.lists(times, min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_evolve_over_a_time_array_is_the_column_of_single_states(config, ts):
    # the column uses numpy's ufuncs, the single states Python's math: they
    # agree to 1e-14
    column = evolve(config, np.array(ts))
    singles = [evolve(config, t) for t in ts]
    assert column.c3 == config.state.c3
    assert column.t.tolist() == ts
    for name in ("alpha", "gamma"):
        assert np.max(np.abs(getattr(column, name) - [getattr(s, name) for s in singles])) <= 1e-14
    spectra = np.array(eigenvalues(column)).T
    assert np.max(np.abs(spectra - [eigenvalues(s) for s in singles])) <= 1e-14
