"""Value-object construction and validation, physical-state rule included,
and the closed-form spectrum of the initial state."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasing_discord import (
    ConsistencyError,
    DiscordPoint,
    DomainError,
    NonPhysicalState,
    Regime,
    Reservoir,
    SystemConfig,
    XDensityMatrix,
    XStateParams,
    evolve,
)
from dephasing_discord.evolution import eigenvalues

from conftest import assert_density_matrix, to_matrix, valid_states


def initial_matrix(params):
    c1, c2, c3 = params.c1, params.c2, params.c3
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 1.0 + c3
    m[1, 1] = m[2, 2] = 1.0 - c3
    m[0, 3] = m[3, 0] = c1 - c2
    m[1, 2] = m[2, 1] = c1 + c2
    return m / 4.0


def config_with(params):
    return SystemConfig(Reservoir(0.2, 1.0, 5.0), Reservoir(0.2, 1.0, 5.0), params)


@given(valid_states())
def test_initial_eigenvalues_match_numerical_spectrum(params):
    # the t = 0 state's closed-form spectrum against eigvalsh of the matrix
    # built straight from (c1, c2, c3)
    closed = np.sort(eigenvalues(evolve(config_with(params), 0.0)))
    numeric = np.sort(np.linalg.eigvalsh(initial_matrix(params)))
    assert np.max(np.abs(closed - numeric)) <= 1e-12


@given(valid_states())
def test_sampled_states_pass_validation(params):
    config_with(params)


def test_validate_state_rejects_negative_spectrum():
    # (1, 1, 1) has |c1+c2| = 2 > 1 - c3 = 0: eigenvalue -1/2.
    with pytest.raises(NonPhysicalState):
        config_with(XStateParams(1.0, 1.0, 1.0))
    with pytest.raises(NonPhysicalState):
        config_with(XStateParams(1.0, 0.4, 0.0))
    # eigenvalue -7.5e-13: within the -1e-12 that once passed validation,
    # outside the coherence bound that every evolved state must meet
    with pytest.raises(NonPhysicalState):
        config_with(XStateParams(1.0, -3e-12, 0.0))
    with pytest.raises(NonPhysicalState):
        config_with(XStateParams(0.5, 0.5, 3e-12))


def test_validate_state_accepts_bell_state():
    # (1, 1, -1) is the Bell state (|ge> + |eg>)/sqrt(2): spectrum {1, 0, 0, 0}.
    params = XStateParams(1.0, 1.0, -1.0)
    config_with(params)
    numeric = np.sort(np.linalg.eigvalsh(initial_matrix(params)))
    assert np.max(np.abs(numeric - np.array([0.0, 0.0, 0.0, 1.0]))) <= 1e-12


def test_validate_state_accepts_maximally_mixed_and_plateau_family():
    config_with(XStateParams(0.0, 0.0, 0.0))
    config_with(XStateParams(1.0, 0.4, -0.4))


@pytest.mark.parametrize(
    "eta,omega_c,beta",
    [(0.0, 1.0, 5.0), (-0.1, 1.0, 5.0), (0.2, 0.0, 5.0), (0.2, -1.0, 5.0),
     (0.2, 1.0, 0.0), (0.2, 1.0, -2.0), (math.nan, 1.0, 5.0)],
)
def test_reservoir_rejects_nonpositive_parameters(eta, omega_c, beta):
    with pytest.raises(Exception):
        Reservoir(eta, omega_c, beta)


def test_reservoir_accepts_zero_temperature():
    assert Reservoir(0.2, 1.0, math.inf).beta == math.inf


def test_system_config_validates_state():
    with pytest.raises(NonPhysicalState):
        SystemConfig(
            bath_a=Reservoir(0.2, 1.0, 5.0),
            bath_b=Reservoir(0.2, 1.0, 5.0),
            state=XStateParams(1.0, 1.0, 1.0),
        )
    # XStateParams itself checks finiteness only
    XStateParams(1.0, 1.0, 1.0)


def test_x_density_matrix_shape_and_invariants():
    rho = XDensityMatrix(c3=-0.4, alpha=-0.3, gamma=0.5, t=1.0)
    m = to_matrix(rho)
    assert_density_matrix(m)
    # only diagonal and anti-diagonal entries may be nonzero
    x_mask = np.zeros((4, 4), dtype=bool)
    for i in range(4):
        x_mask[i, i] = x_mask[i, 3 - i] = True
    assert np.max(np.abs(m[~x_mask])) == 0.0
    # rotating frame: the coherences are real and the matrix is symmetric
    assert m[0, 3] == m[3, 0] == pytest.approx(rho.alpha / 4.0)
    assert m[1, 2] == m[2, 1] == pytest.approx(rho.gamma / 4.0)


def test_x_density_matrix_rejects_out_of_range_coherences():
    with pytest.raises(Exception):
        XDensityMatrix(c3=-0.4, alpha=0.7, gamma=0.0, t=0.0)  # |alpha| > 1+c3
    with pytest.raises(Exception):
        XDensityMatrix(c3=0.5, alpha=0.0, gamma=0.6, t=0.0)  # |gamma| > 1-c3
    with pytest.raises(Exception):
        XDensityMatrix(c3=0.0, alpha=0.0, gamma=0.0, t=-1.0)


def test_x_density_matrix_rejects_unnormalizable_coherence():
    # |alpha| = 1 + c3 + 1e-10 would give the eigenvalue -2.5e-11
    with pytest.raises(NonPhysicalState):
        XDensityMatrix(c3=-0.4, alpha=0.6 + 1e-10, gamma=1.4, t=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "gamma"])
def test_x_density_matrix_rejects_a_nonfinite_coherence_naming_its_time(name, bad):
    # a nan passes the bound checks, which are comparisons, and discord()
    # would give I = nan and D = 0 for it
    fields = {"c3": -0.4, "alpha": 0.5, "gamma": 1.0}
    with pytest.raises(DomainError, match=rf"^{name} must be finite, got .* at t = 2\.5$"):
        XDensityMatrix(**{**fields, name: bad}, t=2.5)
    t = np.linspace(0.0, 3.0, 4)
    column = np.full(4, fields[name])
    column[2] = bad
    with pytest.raises(DomainError, match=rf"^{name} must be finite, got .* at t = 2\.0$"):
        XDensityMatrix(**{**fields, name: column}, t=t)


def test_regime_labels():
    assert Regime.DFE.value == "DFE"
    assert Regime.DECAY.value == "DECAY"


def test_discord_point_enforces_additivity():
    DiscordPoint(1.0, 0.9, 0.9, 0.5, 0.3, 0.2, Regime.DFE)
    with pytest.raises(ConsistencyError):
        DiscordPoint(1.0, 0.9, 0.9, 0.5, 0.3, 0.1, Regime.DFE)


def test_discord_point_rejects_invalid_fields():
    # D = 0 is the fully dephased limit that exp(-Gamma) underflows to
    DiscordPoint(1.0, 0.0, 0.9, 0.5, 0.3, 0.2, Regime.DFE)
    DiscordPoint(1.0, 0.0, 0.0, 0.5, 0.3, 0.2, Regime.DECAY)
    with pytest.raises(Exception):
        DiscordPoint(1.0, -1e-300, 0.9, 0.5, 0.3, 0.2, Regime.DFE)  # d_a out of [0,1]
    with pytest.raises(Exception):
        DiscordPoint(1.0, 0.9, -0.5, 0.5, 0.3, 0.2, Regime.DFE)
    with pytest.raises(Exception):
        DiscordPoint(1.0, 1.0 + 1e-15, 0.9, 0.5, 0.3, 0.2, Regime.DFE)
    with pytest.raises(Exception):
        DiscordPoint(1.0, 0.9, 1.5, 0.5, 0.3, 0.2, Regime.DFE)
    with pytest.raises(Exception):
        DiscordPoint(1.0, 0.9, 0.9, 0.5, 0.3, 0.2, "DFE")  # not a Regime
    with pytest.raises(Exception):
        DiscordPoint(-1.0, 0.9, 0.9, 0.5, 0.3, 0.2, Regime.DFE)


@given(valid_states(), st.floats(0.0, 20.0, allow_nan=False))
@settings(max_examples=50)
def test_frozen_dataclasses_are_hashable_value_objects(params, t):
    assert params == XStateParams(params.c1, params.c2, params.c3)
    assert hash(params) == hash(XStateParams(params.c1, params.c2, params.c3))
    r = Reservoir(0.2, 1.0, 5.0)
    with pytest.raises(Exception):
        r.eta = 0.3
