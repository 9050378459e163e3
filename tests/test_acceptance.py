"""Acceptance gate: ten end-to-end checks of the shipped behavior.

Each test prints one [PASS]/[FAIL] line (visible with -s or on failure) and
asserts the same condition, so `pytest -v` gives one verdict line per
criterion either way.
"""
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from dephasing_discord import (
    Regime,
    Reservoir,
    SystemConfig,
    XStateParams,
    classical_bruteforce,
    classical_closed,
    critical_time_solve,
    discord_plateau,
    evolve,
    gamma_closed,
    gamma_quadrature,
    scan_trajectory,
)
from dephasing_discord.cli import run_figure, run_sweep, _build_runspec, _make_parser
from dephasing_discord.correlations import _grid_max

from conftest import to_matrix

PLATEAU = 0.11870910076930738  # binary entropy kernel at 0.4, full precision
T_P_ZERO_T = 9.831391051117842  # sqrt(0.4**-5 - 1)


def report(n, description, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{verdict}] criterion {n}: {description}{suffix}")
    assert ok, f"criterion {n}: {description}{suffix}"


def equal_bath_config(eta, beta, c3=-0.4):
    return SystemConfig(
        bath_a=Reservoir(eta, 1.0, beta),
        bath_b=Reservoir(eta, 1.0, beta),
        state=XStateParams(1.0, -c3, c3),
    )


def test_criterion_01_plateau_value_and_speed():
    config = equal_bath_config(0.6, 5.0)
    t_p = critical_time_solve(config).t_p
    start = time.perf_counter()
    points = scan_trajectory(config, 2.0 * t_p, 1000)
    elapsed = time.perf_counter() - start
    pre = [p for p in points if p.t < t_p]
    worst = max(abs(p.discord - PLATEAU) for p in pre)
    report(
        1,
        "plateau discord constant at 0.11870910076930738 for t < t_p",
        len(pre) > 400 and worst <= 1e-12 and elapsed < 1.0,
        f"{len(pre)} pre-crossing samples, max dev {worst:.2e}, {elapsed:.3f} s",
    )


def test_criterion_02_zero_temperature_critical_time():
    config = equal_bath_config(0.2, math.inf)
    t_p = critical_time_solve(config).t_p
    rel = abs(t_p - T_P_ZERO_T) / T_P_ZERO_T
    report(
        2,
        "bisection reproduces sqrt(0.4**-5 - 1) at zero temperature",
        rel <= 1e-9,
        f"t_p = {t_p!r}, relative deviation {rel:.2e}",
    )


def test_criterion_03_dual_path_gamma():
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        reservoir = Reservoir(
            eta=float(rng.uniform(0.05, 1.0)),
            omega_c=1.0,
            beta=math.inf if rng.uniform() < 0.2 else float(rng.uniform(1.0, 50.0)),
        )
        t = float(rng.uniform(0.0, 20.0))
        quad = gamma_quadrature(reservoir, t).gamma
        closed = gamma_closed(reservoir, t).gamma
        worst = max(worst, abs(quad - closed) / max(closed, 1e-3))
    elapsed = time.perf_counter() - start
    report(
        3,
        "quadrature gamma matches closed form on 50 random draws",
        worst <= 1e-6 and elapsed < 10.0,
        f"max relative deviation {worst:.2e}, {elapsed:.2f} s",
    )


def test_criterion_04_measurement_optimization_oracle():
    rng = np.random.default_rng(1234)
    worst_grid = 0.0
    worst_refined = 0.0
    for _ in range(100):
        c3 = float(rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(-(1.0 + c3), 1.0 + c3))
        g = float(rng.uniform(-(1.0 - c3), 1.0 - c3))
        rng.uniform(0.0, 10.0, size=2)  # the splittings, which move no correlation
        config = SystemConfig(
            bath_a=Reservoir(float(rng.uniform(0.05, 1.0)), 1.0,
                             float(rng.uniform(1.0, 50.0))),
            bath_b=Reservoir(float(rng.uniform(0.05, 1.0)), 1.0,
                             float(rng.uniform(1.0, 50.0))),
            state=XStateParams((a + g) / 2.0, (g - a) / 2.0, c3),
        )
        rho = evolve(config, float(rng.uniform(0.0, 10.0)))
        closed, _ = classical_closed(rho)
        grid, _ = _grid_max(rho)
        refined, _ = classical_bruteforce(rho)
        worst_grid = max(worst_grid, abs(grid - closed))
        worst_refined = max(worst_refined, abs(refined - closed))
    report(
        4,
        "brute-force classical correlation matches the branch formula",
        worst_grid <= 1e-4 and worst_refined <= 1e-6,
        f"grid dev {worst_grid:.2e} <= 1e-4, refined dev {worst_refined:.2e} <= 1e-6",
    )


def test_criterion_05_beta_surface_qualitative():
    start = time.perf_counter()
    betas = np.linspace(1.0, 10.0, 50)
    crossing_times = []
    worst_flat = 0.0
    for beta in betas:
        config = equal_bath_config(0.2, float(beta))
        t_p = critical_time_solve(config).t_p
        crossing_times.append(t_p)
        for p in scan_trajectory(config, 30.0, 300):
            if p.t < t_p:
                worst_flat = max(worst_flat, abs(p.discord - PLATEAU))
    elapsed = time.perf_counter() - start
    monotone = all(lo <= hi for lo, hi in zip(crossing_times, crossing_times[1:]))
    report(
        5,
        "crossing time grows with beta and the plateau is flat on the surface",
        monotone and worst_flat <= 1e-12 and elapsed < 30.0,
        f"t_p from {crossing_times[0]:.3f} to {crossing_times[-1]:.3f}, "
        f"flatness {worst_flat:.2e}, {elapsed:.1f} s for the 50x300 grid",
    )


def test_criterion_06_coupling_and_c3_orderings():
    configs = {eta: equal_bath_config(eta, 5.0) for eta in (0.2, 0.6, 0.9)}
    crossing = {eta: critical_time_solve(c).t_p for eta, c in configs.items()}
    eta_ordered = crossing[0.2] > crossing[0.6] > crossing[0.9]

    by_c3 = [critical_time_solve(equal_bath_config(0.2, 5.0, c3=-m)).t_p
             for m in (0.2, 0.4, 0.8)]
    c3_ordered = by_c3[0] > by_c3[1] > by_c3[2]

    curves = {eta: scan_trajectory(c, 30.0, 300) for eta, c in configs.items()}
    t_start = max(crossing.values())
    compared = 0
    ordered = True
    for p02, p06, p09 in zip(curves[0.2], curves[0.6], curves[0.9]):
        # past all three crossings, while doubles can still resolve the gap
        if p02.t <= t_start or p09.discord < 1e-12:
            continue
        compared += 1
        ordered = ordered and (p09.discord < p06.discord < p02.discord)
    report(
        6,
        "crossing time falls with eta and |c3|; stronger coupling decays lower",
        eta_ordered and c3_ordered and ordered and compared > 50,
        f"t_p by eta {sorted(crossing.values(), reverse=True)}, "
        f"{compared} matched post-crossing grid points ordered",
    )


def test_criterion_07_temperature_ratio_families():
    plateaus = {}
    crossing = {}
    for kappa in (0.2, 1.0, 5.0):
        for beta_a in (1.0, 5.0, 10.0):
            config = SystemConfig(
                bath_a=Reservoir(0.12, 1.0, beta_a),
                bath_b=Reservoir(0.12, 1.0, kappa * beta_a),
                state=XStateParams(1.0, 0.4, -0.4),
            )
            t_p = critical_time_solve(config).t_p
            crossing[(kappa, beta_a)] = t_p
            values = [p.discord for p in scan_trajectory(config, 0.99 * t_p, 64)]
            plateaus[(kappa, beta_a)] = (min(values), max(values))
    spread = max(hi for hi, _ in [(v[1] - v[0], 0) for v in plateaus.values()])
    heights = [v[1] for v in plateaus.values()]
    height_spread = max(heights) - min(heights)
    ordered = all(
        crossing[(5.0, b)] > crossing[(1.0, b)] > crossing[(0.2, b)]
        for b in (1.0, 5.0, 10.0)
    )
    report(
        7,
        "temperature ratio shifts the crossing but not the plateau height",
        spread <= 1e-12 and height_spread <= 1e-12 and ordered,
        f"plateau spread {max(spread, height_spread):.2e}, "
        f"t_p at beta_a=5: {[crossing[(k, 5.0)] for k in (0.2, 1.0, 5.0)]}",
    )


def test_criterion_08_sudden_change_kink():
    # solid-curve parameters of the coupling-dependence figure
    config = equal_bath_config(0.6, 5.0, c3=0.4)
    t_p = critical_time_solve(config).t_p

    def discord_at(t):
        return scan_trajectory(config, t, 2)[-1].discord

    delta = 1e-11
    gap = abs(discord_at(t_p + delta) - discord_at(t_p - delta))
    h = 1e-4
    slope_left = (discord_at(t_p) - discord_at(t_p - h)) / h
    slope_right = (discord_at(t_p + h) - discord_at(t_p)) / h
    kinked = abs(slope_left - slope_right) > 1e-3
    report(
        8,
        "discord is continuous at t_p with discontinuous one-sided slopes",
        gap <= 1e-10 and kinked,
        f"value gap {gap:.2e}, slopes {slope_left:.3e} / {slope_right:.3e}",
    )


def test_criterion_09_additivity_and_state_invariants():
    # every emitted row satisfies I = C + D to 1e-10
    texts = [run_figure("fig3")]
    parser = _make_parser()
    for argv in (
        ["curve", "--points", "60"],
        ["curve", "--points", "60", "--beta-a", "2", "--kappa", "3",
         "--c1", "0.8", "--c2", "0.5"],
        ["curve", "--points", "60", "--eta-a", "1.5", "--omega-A", "4", "--method",
         "bruteforce"],
    ):
        texts.append(run_sweep(_build_runspec(parser.parse_args(argv))))
    worst_gap = 0.0
    rows = 0
    for text in texts:
        for line in text.strip().split("\n")[1:]:
            fields = line.split(",")
            i, c, d = float(fields[-4]), float(fields[-3]), float(fields[-2])
            worst_gap = max(worst_gap, abs(i - (c + d)))
            rows += 1

    # evolved states stay physical on 1000 random configurations
    rng = np.random.default_rng(2026)
    worst_herm = worst_trace = 0.0
    worst_eig = 1.0
    for _ in range(1000):
        c3 = float(rng.uniform(-1.0, 1.0))
        a = float(rng.uniform(-(1.0 + c3), 1.0 + c3))
        g = float(rng.uniform(-(1.0 - c3), 1.0 - c3))
        rng.uniform(0.0, 10.0, size=2)  # the splittings, which move no correlation
        config = SystemConfig(
            bath_a=Reservoir(float(rng.uniform(0.05, 2.0)),
                             float(rng.uniform(0.5, 3.0)),
                             math.inf if rng.uniform() < 0.2
                             else float(rng.uniform(0.5, 100.0))),
            bath_b=Reservoir(float(rng.uniform(0.05, 2.0)),
                             float(rng.uniform(0.5, 3.0)),
                             math.inf if rng.uniform() < 0.2
                             else float(rng.uniform(0.5, 100.0))),
            state=XStateParams((a + g) / 2.0, (g - a) / 2.0, c3),
        )
        m = to_matrix(evolve(config, float(rng.uniform(0.0, 30.0))))
        worst_herm = max(worst_herm, float(np.max(np.abs(m - m.conj().T))))
        worst_trace = max(worst_trace, abs(float(np.trace(m).real) - 1.0))
        worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(m))))
    report(
        9,
        "I = C + D on every emitted row; evolved states stay physical",
        worst_gap <= 1e-10 and worst_herm <= 1e-12 and worst_trace <= 1e-12
        and worst_eig >= -1e-12,
        f"{rows} rows, additivity gap {worst_gap:.2e}; 1000 states, "
        f"min eigenvalue {worst_eig:.2e}",
    )


def test_criterion_10_byte_identical_figure_output(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "dephasing_discord", "figure", "fig3",
             "--out", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    report(
        10,
        "two figure invocations produce byte-identical CSV",
        outputs[0] == outputs[1] and len(outputs[0]) > 10000,
        f"{len(outputs[0])} bytes each",
    )
