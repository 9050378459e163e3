"""Decohering exponent: closed form against independent oracles and the
quadrature route.
"""
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import loggamma

from dephasing_discord import bath
from dephasing_discord import (
    DomainError,
    QuadratureFailure,
    Reservoir,
    gamma_closed,
    gamma_quadrature,
)

from conftest import gamma_per_point, mpmath_gamma, reservoirs

# Reference for Reservoir(0.2, 1.0, 5.0) at t = 1, from a 50-digit partial
# sum of the thermal series (10^7 terms plus integral tail).
GAMMA_REFERENCE = 0.079368644768889853915


def thermal_series_oracle(x, b):
    """sum_{n>=1} ln(1 + x^2/(1+b n)^2) via the gamma-function identity.

    Pairing the factors (1+bn+ix)(1+bn-ix) and telescoping the partial sums
    against ln Gamma gives 2[ln Gamma(1+1/b) - Re ln Gamma(1+(1+ix)/b)].
    """
    return 2.0 * (
        float(np.real(loggamma(1.0 + 1.0 / b)))
        - float(np.real(loggamma(1.0 + (1.0 + 1j * x) / b)))
    )


def test_gamma_closed_reference_value():
    out = gamma_closed(Reservoir(0.2, 1.0, 5.0), 1.0)
    assert out.gamma == pytest.approx(GAMMA_REFERENCE, abs=1e-12)
    assert out.est_error <= 1e-12
    # the thermal terms push d strictly below the zero-temperature 2**-0.1
    assert out.d == pytest.approx(0.9236993447410144, abs=1e-12)
    assert out.d < 0.9330329915368074


def test_gamma_closed_zero_temperature_is_logarithmic():
    for eta, omega_c, t in [(0.2, 1.0, 1.0), (0.9, 2.0, 3.0), (0.05, 0.5, 17.0)]:
        out = gamma_closed(Reservoir(eta, omega_c, math.inf), t)
        assert out.gamma == pytest.approx(
            0.5 * eta * math.log1p((omega_c * t) ** 2), rel=1e-15
        )
    assert gamma_closed(Reservoir(0.2, 1.0, math.inf), 1.0).gamma == pytest.approx(
        0.06931471805599453, rel=1e-15
    )


@given(
    st.floats(1e-3, 50.0, allow_nan=False),
    st.floats(0.5, 3.0, allow_nan=False),
    st.floats(0.05, 200.0, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_thermal_series_matches_loggamma_identity(t, omega_c, beta):
    eta = 0.7
    out = gamma_closed(Reservoir(eta, omega_c, beta), t)
    x = omega_c * t
    series_pkg = out.gamma / eta - 0.5 * math.log1p(x * x)
    series_ref = thermal_series_oracle(x, beta * omega_c)
    assert abs(series_pkg - series_ref) <= 1e-10 + 1e-10 * abs(series_ref)


@st.composite
def gamma_grids(draw):
    """A reservoir and a time grid starting at t = 0: mostly beta = inf or
    log-uniform on [0.05, 100] with up to 40 times, sometimes a hot bath
    (beta in [0.01, 0.05], many series terms) with a short grid."""
    eta = draw(st.floats(0.05, 1.0))
    omega_c = draw(st.floats(0.5, 3.0))
    hot = draw(st.integers(0, 7)) == 0
    if hot:
        beta = draw(st.floats(0.01, 0.05))
    elif draw(st.booleans()):
        beta = math.inf
    else:
        beta = math.exp(draw(st.floats(math.log(0.05), math.log(100.0))))
    times = draw(st.lists(st.floats(0.0, 40.0), min_size=1, max_size=3 if hot else 40))
    return Reservoir(eta, omega_c, beta), np.array([0.0, *times])


def assert_close_to_float_form(out, floats):
    """The array form of gamma_closed against its float form, element by
    element: Gamma within 2e-15 * max(1, Gamma), D within 2e-15 and the
    truncation bound within 2e-15 relative (numpy's ufuncs and Python's math
    differ in the last bit on a few percent of inputs)."""
    for i, e in enumerate(floats):
        assert abs(out.gamma[i] - e.gamma) <= 2e-15 * max(1.0, e.gamma)
        assert abs(out.d[i] - e.d) <= 2e-15
        assert abs(out.est_error[i] - e.est_error) <= 2e-15 * e.est_error


@given(gamma_grids())
@settings(max_examples=200, deadline=None)
def test_gamma_kernel_matches_the_float_form(grid):
    # the times of one grid need different term counts; each must still
    # get the value of its own one-point sum, to rounding.  The float form
    # is the per-point series' own arithmetic, so it matches it exactly.
    reservoir, t = grid
    floats = [gamma_closed(reservoir, s) for s in t.tolist()]
    assert all(isinstance(e.gamma, float) and isinstance(e.d, float) for e in floats)
    assert [(e.gamma, e.d, e.est_error) for e in floats] == [
        gamma_per_point(reservoir, s) for s in t.tolist()
    ]
    assert_close_to_float_form(gamma_closed(reservoir, t), floats)


@given(gamma_grids())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_gamma_kernel_is_within_its_certified_bound_of_mpmath(grid):
    # derandomized: the 40-digit reference is exact, the draws are fixed
    reservoir, t = grid
    out = gamma_closed(reservoir, t)
    for i, s in enumerate(t.tolist()):
        reference = float(mpmath_gamma(reservoir, s))
        assert abs(out.gamma[i] - reference) <= out.est_error[i] + 1e-15 * max(1.0, reference)


@given(
    st.floats(0.05, 1.0),
    st.floats(0.5, 2.0),
    st.one_of(st.just(math.inf), st.floats(-3.0, 3.0).map(lambda e: 10.0**e)),
    st.floats(0.0, 300.0),
)
@example(0.5, 1.0, 1e3, 0.05)
@example(0.5, 1.0, 1e3, 0.2)
@example(0.177, 1.105, 1e3, 0.5)
@example(0.376, 0.741, 0.2, 1.366)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_quadrature_is_within_its_certified_error_of_mpmath(eta, omega_c, beta, t):
    # derandomized: the 40-digit reference is exact, the draws are fixed.
    # The first three examples put the thermal bump coth(beta*w/2) - 1, of
    # width ~1/beta, far inside the first period-long panel, where both panel
    # rules can miss it together and agree on a Gamma 3e-8 off.  In the last
    # the rounding error, 1.3e-14, is ten times the panel estimates: est_error
    # bounds it through its rounding floor of 50*eps*Gamma, where a
    # 5,000-draw scan needed at most 23*eps*Gamma
    reservoir = Reservoir(eta, omega_c, beta)
    quad = gamma_quadrature(reservoir, t)
    reference = float(mpmath_gamma(reservoir, t))
    assert quad.est_error <= 1e-9
    assert abs(quad.gamma - reference) <= quad.est_error


def test_quadrature_names_the_time_of_a_panel_that_does_not_converge(monkeypatch):
    # at t = 0.5 the one panel [0, 35.25] needs halving before its two rules agree
    reservoir = Reservoir(0.6, 1.0, math.inf)
    gamma_quadrature(reservoir, 0.5)
    monkeypatch.setattr(bath, "_QUAD_MAX_DEPTH", 0)
    with pytest.raises(QuadratureFailure, match=r"did not converge in 0 halvings .* at t = 0\.5$"):
        gamma_quadrature(reservoir, 0.5)


@given(reservoirs(), st.floats(0.0, 25.0, allow_nan=False), st.floats(1e-4, 5.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_gamma_is_nonnegative_and_nondecreasing_in_time(reservoir, t, dt):
    lo = gamma_closed(reservoir, t)
    hi = gamma_closed(reservoir, t + dt)
    assert lo.gamma >= 0.0
    assert hi.gamma >= lo.gamma - 1e-12
    assert hi.d <= lo.d + 1e-12


@given(reservoirs(allow_zero_temperature=False), st.floats(0.1, 25.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_gamma_increases_with_temperature(reservoir, t):
    hotter = Reservoir(reservoir.eta, reservoir.omega_c, reservoir.beta / 2.0)
    colder = Reservoir(reservoir.eta, reservoir.omega_c, math.inf)
    g = gamma_closed(reservoir, t).gamma
    assert gamma_closed(hotter, t).gamma >= g - 1e-12
    assert gamma_closed(colder, t).gamma <= g + 1e-12


@given(reservoirs(), st.floats(0.0, 25.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_gamma_is_linear_in_coupling(reservoir, t):
    doubled = Reservoir(2.0 * reservoir.eta, reservoir.omega_c, reservoir.beta)
    g1 = gamma_closed(reservoir, t).gamma
    g2 = gamma_closed(doubled, t).gamma
    assert g2 == pytest.approx(2.0 * g1, rel=1e-12, abs=1e-15)


@given(reservoirs())
def test_gamma_vanishes_at_t_zero(reservoir):
    out = gamma_closed(reservoir, 0.0)
    assert out.gamma == 0.0
    assert out.d == 1.0
    quad = gamma_quadrature(reservoir, 0.0)
    assert quad.gamma == 0.0 and quad.d == 1.0


@given(reservoirs(), st.floats(0.0, 25.0, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_d_is_exponential_of_gamma(reservoir, t):
    out = gamma_closed(reservoir, t)
    assert out.d == math.exp(-out.gamma)
    assert 0.0 < out.d <= 1.0


def test_gamma_rejects_negative_time():
    with pytest.raises(DomainError):
        gamma_closed(Reservoir(0.2, 1.0, 5.0), -0.5)
    with pytest.raises(DomainError, match="-0.5"):
        gamma_closed(Reservoir(0.2, 1.0, 5.0), np.array([0.0, 1.0, -0.5]))
    with pytest.raises(DomainError):
        gamma_closed(Reservoir(0.2, 1.0, 5.0), np.array([0.0, math.nan]))
    with pytest.raises(DomainError):
        gamma_quadrature(Reservoir(0.2, 1.0, 5.0), -0.5)


def test_quadrature_refuses_a_panel_count_past_its_limit(monkeypatch):
    # one panel per period 2*pi/t up to omega_c*(35 + omega_c*t): at t = 1e6
    # the edge list alone would hold ~1.6e11 floats
    reservoir = Reservoir(0.6, 1.0, 5.0)
    for t in (2600.0, 1e6, 1e300, math.inf):
        with pytest.raises(QuadratureFailure, match=f"panels exceed .* at t = {re.escape(str(t))}$"):
            gamma_quadrature(reservoir, t)
    # at t = 3 the count is 38 / (2*pi/3) = 18.1, so 19 panels: a limit of 19
    # integrates as before, a limit of 18 refuses
    before = gamma_quadrature(reservoir, 3.0)
    monkeypatch.setattr(bath, "_QUAD_MAX_PANELS", 19)
    assert gamma_quadrature(reservoir, 3.0) == before
    monkeypatch.setattr(bath, "_QUAD_MAX_PANELS", 18)
    with pytest.raises(QuadratureFailure, match="18.1 panels exceed the limit of 18"):
        gamma_quadrature(reservoir, 3.0)


@pytest.mark.parametrize("x", [1e31, 1e52, 1e100, 1e154, 1e200, 1e300])
@pytest.mark.parametrize("b", [0.05, 5.0, 1e3, 1e25, 1e60])
def test_thermal_series_past_the_float_range_of_its_squares(x, b):
    # x^2 or u^2 past ~1e102 overflowed the direct form (OverflowError, or a
    # nan from x^2 = inf); the ratio form keeps the log-gamma identity
    series, bound = bath._thermal_series(x, b)
    reference = thermal_series_oracle(x, b)
    assert abs(series - reference) <= 1e-10 + 1e-12 * abs(reference)
    assert 0.0 <= bound <= 1e-13


@given(st.floats(1e-3, 1e4), st.floats(0.01, 200.0))
@settings(max_examples=200, deadline=None)
def test_wide_series_is_the_direct_series_to_rounding(x, b):
    direct, direct_bound = bath._thermal_series(x, b)
    wide, wide_bound = bath._wide_series(x, b)
    assert wide == pytest.approx(direct, rel=1e-14, abs=1e-15)
    assert wide_bound == pytest.approx(direct_bound, rel=1e-12, abs=1e-300)


def test_extreme_times_and_temperatures_give_finite_factors():
    eta = 0.6
    t = np.array([0.0, 30.0, 1e52, 1e200, 1e308])
    for beta in (5.0, 1e60, 1e308, math.inf):
        reservoir = Reservoir(eta, 1.0, beta)
        out = gamma_closed(reservoir, t)
        assert np.all(out.gamma >= 0.0) and not np.isnan(out.gamma).any()
        assert np.all(np.diff(out.gamma) >= 0.0)
        assert_close_to_float_form(out, [gamma_closed(reservoir, s) for s in t.tolist()])
    # T = 0 once x^2 overflows: D = (1 + x^2)^(-eta/2) = x^(-eta) to 1e-308
    cold = gamma_closed(Reservoir(eta, 1.0, math.inf), 1e200)
    assert cold.d == pytest.approx(1e-120, rel=1e-13)
    # an ultra-cold bath is the T = 0 bath
    assert gamma_closed(Reservoir(eta, 1.0, 1e60), 30.0).d == pytest.approx(
        gamma_closed(Reservoir(eta, 1.0, math.inf), 30.0).d, rel=1e-13)
    # a finite temperature dephases completely: Gamma ~ 2*eta*x/b
    assert gamma_closed(Reservoir(eta, 1.0, 5.0), 1e52).d == 0.0


def test_quadrature_matches_closed_form_on_seeded_draws():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        reservoir = Reservoir(
            eta=float(rng.uniform(0.05, 1.0)),
            omega_c=float(rng.uniform(0.5, 2.0)),
            beta=math.inf if rng.uniform() < 0.25 else float(rng.uniform(1.0, 50.0)),
        )
        t = float(rng.uniform(0.0, 20.0))
        quad = gamma_quadrature(reservoir, t)
        closed = gamma_closed(reservoir, t)
        assert quad.est_error <= 1e-9
        worst = max(worst, abs(quad.gamma - closed.gamma) / max(closed.gamma, 1e-3))
    assert worst <= 1e-6


def test_quadrature_survives_a_very_hot_bath():
    reservoir = Reservoir(0.3, 1.0, 1e-3)
    quad = gamma_quadrature(reservoir, 10.0)
    closed = gamma_closed(reservoir, 10.0)
    assert quad.gamma == pytest.approx(closed.gamma, rel=1e-8)
    assert math.isfinite(quad.gamma)


def test_quadrature_prefactor_8_is_a_factor_4_off():
    # negative control: the conventional prefactor-8 writing of the exponent
    # integral disagrees with the summed form by exactly 4
    reservoir = Reservoir(0.2, 1.0, 5.0)
    wrong = gamma_quadrature(reservoir, 2.0, prefactor=8.0).gamma
    right = gamma_closed(reservoir, 2.0).gamma
    assert wrong / right == pytest.approx(4.0, rel=1e-6)
