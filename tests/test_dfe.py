"""Crossing-time solver and full trajectory scans."""
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dephasing_discord import (
    ConsistencyError,
    DomainError,
    NonPhysicalState,
    NoRootInRange,
    Regime,
    Reservoir,
    SystemConfig,
    XDensityMatrix,
    XStateParams,
    binary_entropy_like,
    classical_closed,
    critical_time_closed,
    critical_time_solve,
    discord,
    discord_plateau,
    evolve,
    gamma_closed,
    scan_trajectory,
)
from dephasing_discord import cli, correlations, dfe

from conftest import gamma_per_point, mpmath_gamma, system_configs, valid_states

T_P_REFERENCE = 9.831391051117842  # sqrt(0.4**-5 - 1)


def equal_bath_config(eta=0.2, beta=math.inf, c3=-0.4, omega_c=1.0):
    return SystemConfig(
        bath_a=Reservoir(eta, omega_c, beta),
        bath_b=Reservoir(eta, omega_c, beta),
        state=XStateParams(1.0, -c3, c3),
    )


def test_zero_temperature_closed_form_value():
    assert critical_time_closed(0.2, -0.4, 1.0) == pytest.approx(
        T_P_REFERENCE, rel=1e-12
    )
    # scaling out the cutoff
    assert critical_time_closed(0.2, -0.4, 2.0) == pytest.approx(
        T_P_REFERENCE / 2.0, rel=1e-12
    )


def test_closed_form_domain():
    with pytest.raises(DomainError):
        critical_time_closed(0.0, -0.4, 1.0)
    with pytest.raises(DomainError):
        critical_time_closed(0.2, 0.0, 1.0)
    with pytest.raises(DomainError):
        critical_time_closed(0.2, 1.0, 1.0)
    with pytest.raises(DomainError):
        critical_time_closed(0.2, -0.4, 0.0)


def test_bisection_matches_zero_temperature_closed_form():
    result = critical_time_solve(equal_bath_config())
    assert result.t_p == pytest.approx(T_P_REFERENCE, rel=1e-9)
    assert result.bracket[0] <= result.t_p <= result.bracket[1]
    assert result.bracket[1] - result.bracket[0] <= 1e-11
    assert abs(result.residual) <= 1e-10


@given(
    st.floats(0.05, 1.5, allow_nan=False),
    st.floats(0.05, 0.95, allow_nan=False),
    st.floats(0.5, 3.0, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_bisection_agrees_with_closed_form_across_parameters(eta, magnitude, omega_c):
    exact = critical_time_closed(eta, -magnitude, omega_c)
    assume(exact < 1e5)  # beyond the bracket cap the solver refuses, see below
    config = equal_bath_config(eta=eta, c3=-magnitude, omega_c=omega_c)
    solved = critical_time_solve(config).t_p
    assert solved == pytest.approx(exact, rel=1e-9)


def test_crossing_beyond_bracket_cap_raises():
    # eta = 0.05, |c3| = 0.05 puts t_p near 10^13, past the doubling cap
    with pytest.raises(NoRootInRange):
        critical_time_solve(equal_bath_config(eta=0.05, c3=-0.05))


def exponent_excess(config, t):
    """Gamma_A(t) + Gamma_B(t) - ln(m/|c3|) by mpmath: negative exactly before
    the crossing, since Gamma rises with t."""
    m = max(abs(config.state.c1), abs(config.state.c2))
    with mpmath.workdps(60):
        return (mpmath_gamma(config.bath_a, t) + mpmath_gamma(config.bath_b, t)
                - mpmath.log(mpmath.mpf(m) / mpmath.mpf(abs(config.state.c3))))


def assert_crossing_within(config, t_p, rel):
    """The mpmath crossing lies within rel of t_p."""
    assert exponent_excess(config, t_p * (1.0 - rel)) < 0.0 < exponent_excess(config, t_p * (1.0 + rel))


@pytest.mark.parametrize("flags", [
    ("--beta-a", "1e-300", "--beta-b", "1e-300"),  # t_p = 8.738e-151
    ("--omega-c-a", "1e-300"),  # bath B alone sets t_p = 2.91195
    ("--omega-c-a", "1e-6"),
    ("--beta-a", "1e-9", "--beta-b", "1e-9"),
    ("--omega-c-a", "1e-310", "--omega-c-b", "1e-310"),  # 1/omega_c overflows
    ("--omega-c-a", "1e308"),  # so does beta*omega_c
])
def test_critical_time_extremes_match_mpmath(flags, capsys):
    assert cli.main(["critical-time", *flags]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    t_p, t_lo, t_hi, residual = (float(row[i]) for i in (0, 2, 3, 4))
    assert 0.0 < t_lo <= t_p <= t_hi
    assert t_hi - t_lo <= 1e-12 * t_hi
    assert abs(residual) <= 1e-12
    overrides = {flag[2:].replace("-", "_"): float(v) for flag, v in zip(flags[::2], flags[1::2])}
    config = cli._build_config({**cli._DEFAULTS, **overrides})
    assert critical_time_solve(config).t_p == t_p
    assert_crossing_within(config, t_p, 1e-11)


log_betas = st.one_of(st.just(math.inf), st.floats(-12.0, 3.0).map(lambda e: 10.0**e))
windowed_states = valid_states().filter(lambda s: 0.0 < abs(s.c3) < max(abs(s.c1), abs(s.c2)))


@given(windowed_states, st.floats(0.05, 1.5), st.floats(0.05, 1.5), st.floats(-3.0, 3.0),
       st.floats(-3.0, 3.0), log_betas, log_betas)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_critical_time_matches_mpmath_across_cutoffs_and_temperatures(
    state, eta_a, eta_b, log_omega_a, log_omega_b, beta_a, beta_b
):
    # cutoff ratios from 1e-6 to 1e6, temperatures up to 1/beta = 1e12
    config = SystemConfig(Reservoir(eta_a, 10.0**log_omega_a, beta_a),
                          Reservoir(eta_b, 10.0**log_omega_b, beta_b), state)
    try:
        result = critical_time_solve(config)
    except NoRootInRange:
        cap = 2.0**20 / max(config.bath_a.omega_c, config.bath_b.omega_c)
        assert exponent_excess(config, cap) <= 0.0
        return
    t_lo, t_hi = result.bracket
    assert t_lo <= result.t_p <= t_hi
    assert t_hi - t_lo <= 1e-12 * t_hi
    assert_crossing_within(config, result.t_p, 1e-11)


def test_crossing_time_orderings():
    # stronger coupling dephases faster
    by_eta = [critical_time_solve(equal_bath_config(eta=e, beta=5.0)).t_p
              for e in (0.2, 0.6, 0.9)]
    assert by_eta[0] > by_eta[1] > by_eta[2]
    # a larger |c3| threshold is reached sooner
    by_c3 = [critical_time_solve(equal_bath_config(beta=5.0, c3=-m)).t_p
             for m in (0.2, 0.4, 0.8)]
    assert by_c3[0] > by_c3[1] > by_c3[2]
    # colder reservoirs preserve the plateau longer
    by_beta = [critical_time_solve(equal_bath_config(beta=b)).t_p
               for b in (1.0, 2.0, 5.0, 10.0, math.inf)]
    assert all(lo < hi for lo, hi in zip(by_beta, by_beta[1:]))


def test_no_crossing_cases_return_none():
    # c3 = 0: the coherence branch always dominates, discord never freezes
    free = replace(equal_bath_config(), state=XStateParams(0.5, 0.5, 0.0))
    assert critical_time_solve(free) is None
    # coherences start at or below the threshold: no plateau window at all
    weak = replace(equal_bath_config(), state=XStateParams(0.2, 0.1, -0.9))
    assert critical_time_solve(weak) is None


def test_residual_is_a_true_gap():
    config = equal_bath_config(eta=0.7, beta=7.0)
    result = critical_time_solve(config)
    t_p = result.t_p
    gap = gamma_closed(config.bath_a, t_p).d * gamma_closed(config.bath_b, t_p).d - 0.4
    assert abs(gap) == pytest.approx(abs(result.residual), abs=1e-12)


def test_scan_trajectory_grid_and_regime_transition():
    config = equal_bath_config(beta=5.0)
    t_p = critical_time_solve(config).t_p
    points = scan_trajectory(config, 30.0, 301)
    assert len(points) == 301
    assert points[0].t == 0.0 and points[-1].t == 30.0
    flags = [p.regime for p in points]
    # single DFE -> DECAY switch, located at the solver's crossing
    switch = flags.index(Regime.DECAY)
    assert all(f is Regime.DFE for f in flags[:switch])
    assert all(f is Regime.DECAY for f in flags[switch:])
    step = points[1].t - points[0].t
    assert points[switch - 1].t <= t_p <= points[switch].t + step


def test_scan_trajectory_discord_branches():
    config = equal_bath_config(beta=5.0)
    plateau = discord_plateau(config.state.c3)
    for p in scan_trajectory(config, 30.0, 301):
        if p.regime is Regime.DFE:
            assert p.discord == pytest.approx(plateau, abs=1e-12)
        else:
            assert p.discord < plateau
        assert 0.0 < p.d_a <= 1.0 and 0.0 < p.d_b <= 1.0


def coherence_branch(config, t):
    """(|alpha| + |gamma|)/2 of the evolved state: the optimum's coherence branch."""
    rho = evolve(config, t)
    return 0.5 * (np.abs(rho.alpha) + np.abs(rho.gamma))


def test_switch_outside_the_special_family():
    # c = (0.5, 0.2, -0.3): m = max(|c1|, |c2|) = 0.5, so the optimum leaves
    # the coherence branch at D_A*D_B = 0.6 (t = 2.47), not at D_A*D_B = 0.3
    # (t = 5.54, where C has long been pinned at f(|c3|))
    config = replace(equal_bath_config(beta=5.0), state=XStateParams(0.5, 0.2, -0.3))
    result = critical_time_solve(config)
    assert 2.47 < result.t_p < 2.48
    assert float(coherence_branch(config, result.t_p)) == pytest.approx(0.3, abs=1e-12)
    pinned = binary_entropy_like(0.3)
    for p in scan_trajectory(config, 6.0, 61):
        assert (p.regime is Regime.DFE) == (p.t < result.t_p)
        if p.regime is Regime.DECAY:
            assert p.classical == pinned
        else:
            assert p.classical > pinned


@given(system_configs(), st.floats(0.5, 40.0), st.integers(2, 60))
@settings(max_examples=100, deadline=None)
def test_regime_flag_reads_the_branch_of_the_classical_optimum(config, t_max, n):
    # chi = max(|c3|, (|alpha| + |gamma|)/2): away from the switch the flag
    # reads DFE exactly when chi > |c3| (and never for c3 = 0, no window)
    mod_c3 = abs(config.state.c3)
    points = scan_trajectory(config, t_max, n)
    t = np.array([p.t for p in points])
    _, chi = classical_closed(evolve(config, t))
    for p, branch, value in zip(points, coherence_branch(config, t).tolist(), chi.tolist()):
        if abs(branch - mod_c3) > 1e-12:
            assert (p.regime is Regime.DFE) == (mod_c3 > 0.0 and value > mod_c3)


@given(valid_states(), st.floats(0.05, 1.5), st.floats(0.05, 1.5),
       st.sampled_from([0.5, 5.0, 50.0, math.inf]))
@settings(max_examples=100, deadline=None)
def test_critical_time_brackets_the_branch_switch(state, eta_a, eta_b, beta):
    config = SystemConfig(Reservoir(eta_a, 1.0, beta), Reservoir(eta_b, 1.0, beta), state)
    mod_c3 = abs(state.c3)
    has_window = mod_c3 > 0.0 and max(abs(state.c1), abs(state.c2)) > mod_c3
    try:
        result = critical_time_solve(config)
    except NoRootInRange:
        assume(False)
    assert (result is not None) == has_window
    if result is not None:
        t_lo, t_hi = result.bracket
        assert float(coherence_branch(config, t_lo)) >= mod_c3 - 1e-12
        assert float(coherence_branch(config, t_hi)) <= mod_c3 + 1e-12


def test_scan_trajectory_never_flags_dfe_without_c3():
    config = replace(equal_bath_config(), state=XStateParams(0.5, 0.5, 0.0))
    points = scan_trajectory(config, 10.0, 50)
    assert all(p.regime is Regime.DECAY for p in points)


def test_scan_trajectory_validates_grid():
    config = equal_bath_config()
    with pytest.raises(DomainError):
        scan_trajectory(config, 0.0, 10)
    with pytest.raises(DomainError):
        scan_trajectory(config, -1.0, 10)
    with pytest.raises(DomainError):
        scan_trajectory(config, math.inf, 10)
    with pytest.raises(DomainError):
        scan_trajectory(config, 10.0, 1)
    with pytest.raises(DomainError):
        scan_trajectory(config, 10.0, 2.5)


@given(system_configs(), st.floats(0.5, 40.0), st.integers(2, 60))
@settings(max_examples=60, deadline=None)
def test_scan_trajectory_columns_equal_the_point_by_point_chain(config, t_max, n):
    # reference: every point on its own, with the per-point series for Gamma
    # and the float forms of the state and correlation functions; the columns
    # use numpy's ufuncs, so the values agree to 1e-14 and the regime
    # wherever m*D_A*D_B is not within 1e-12 of |c3|
    mod_c3 = abs(config.state.c3)
    weight = max(abs(config.state.c1), abs(config.state.c2))
    points = scan_trajectory(config, t_max, n)
    assert [p.t for p in points] == np.linspace(0.0, t_max, n).tolist()
    for p in points:
        d_a = gamma_per_point(config.bath_a, p.t)[1]
        d_b = gamma_per_point(config.bath_b, p.t)[1]
        product = d_a * d_b
        c = config.state
        out = discord(XDensityMatrix(c.c3, (c.c1 - c.c2) * product, (c.c1 + c.c2) * product, p.t))
        expected = (d_a, d_b, out.mutual_info, out.classical, out.discord)
        got = (p.d_a, p.d_b, p.mutual_info, p.classical, p.discord)
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-14
        if abs(weight * product - mod_c3) > 1e-12:
            dfe = mod_c3 > 0.0 and weight * product >= mod_c3
            assert p.regime is (Regime.DFE if dfe else Regime.DECAY)


def _inject(monkeypatch, module, name, spoil):
    """Replace module.name by a function that spoils element 7 of its result."""
    real = getattr(module, name)

    def spoiled(*args):
        return spoil(real(*args), 7)

    monkeypatch.setattr(module, name, spoiled)


def _set(column, i, value):
    column = column.copy()
    column[i] = value
    return column


@pytest.mark.parametrize(
    "module, name, spoil, error",
    [
        # D > 1 makes |alpha| exceed 1 + c3
        (dfe, "_decohering_factor", lambda d, i: _set(d, i, 1.5), NonPhysicalState),
        (dfe, "_decohering_factor", lambda d, i: _set(d, i, -0.5), DomainError),
        (dfe, "_decohering_factor", lambda d, i: _set(d, i, math.nan), DomainError),
        # mutual information below the classical correlation
        (correlations, "mutual_information", lambda v, i: _set(v, i, v[i] - 1.0),
         ConsistencyError),
        # I = C + D broken by more than 1e-10
        (dfe, "discord",
         lambda out, i: replace(out, discord=_set(out.discord, i, out.discord[i] + 1e-8)),
         ConsistencyError),
    ],
    ids=["d-above-1", "d-negative", "d-nan", "information-deficit", "additivity-gap"],
)
def test_scan_trajectory_rejects_a_bad_column_naming_its_time(
    monkeypatch, module, name, spoil, error
):
    _inject(monkeypatch, module, name, spoil)
    t_bad = np.linspace(0.0, 30.0, 31).tolist()[7]
    with pytest.raises(error, match=re.escape(f"at t = {t_bad!r}") + "$"):
        scan_trajectory(equal_bath_config(beta=5.0), 30.0, 31)
