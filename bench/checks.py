"""Output checks that share no code with the program.

``scan`` runs on every output while the benchmark measures: it parses the
CSV, checks each row's additivity and ranges, the frozen discord of
special-family rows, and keeps a seeded sample of rows.  ``verify_sample``
runs after the measurement and compares a sampled row with an mpmath
evaluation of the closed form, where Gamma comes from the log-gamma identity

    sum_{n>=1} ln(1 + x^2/(1 + b n)^2) = 2 [lnG(1 + 1/b) - Re lnG(1 + (1 + i x)/b)]

rather than from the series the program sums.
"""
from __future__ import annotations

import io
import math

from workloads import Op, Physics, figure_physics, gamma_exponent, sweep_physics

ADDITIVITY_TOL = 1e-10
PLATEAU_TOL = {"closed": 1e-12, "quadrature": 1e-12, "bruteforce": 1e-6}
# Tolerances against mpmath, from the program's documented accuracy: the
# closed-form Gamma is certified to 1e-13, the quadrature to 1e-9, and the
# angle search agrees with the branch formula to 1e-6.
D_REL_TOL = {"closed": 1e-10, "quadrature": 1e-8, "bruteforce": 1e-10}
INFO_TOL = {"closed": 1e-8, "quadrature": 1e-7, "bruteforce": 1e-6}
CROSSING_TOL = 1e-10

CURVE_COLUMNS = ("t", "d_a", "d_b", "mutual_info", "classical", "discord", "regime")
CRITICAL_COLUMNS = ("t_p", "method", "t_lo", "t_hi", "residual")


def plateau(x: float) -> float:
    """f(x) = [(1-x) log2(1-x) + (1+x) log2(1+x)] / 2, the frozen discord f(|c3|)."""
    if x >= 1.0:
        return 1.0
    return 0.5 * ((1.0 - x) * math.log2(1.0 - x) + (1.0 + x) * math.log2(1.0 + x)) if x > 0 else 0.0


class Scan:
    """Result of scanning one output: the first problem found, if any, the row
    count and the sampled rows."""

    def __init__(self):
        self.problem: str | None = None
        self.rows = 0
        self.samples: list[tuple] = []  # (kind, method, physics, values)

    def fail(self, message: str) -> None:
        if self.problem is None:
            self.problem = message


def scan(op: Op, text: str, rng, n_samples: int) -> Scan:
    """Check every row of ``text`` and keep ``n_samples`` rows chosen by ``rng``."""
    result = Scan()
    lines = io.StringIO(text)
    header = next(lines, "").rstrip("\n").split(",")
    if op.kind == "critical-time":
        _scan_critical(op, header, lines, result)
    else:
        _scan_curves(op, header, lines, result, rng, n_samples)
    if result.rows != op.expected_rows:
        result.fail(f"{result.rows} rows, expected {op.expected_rows}")
    return result


def _row_physics(op: Op, lead: list[float]) -> Physics:
    if op.kind == "figure":
        return figure_physics(op.figure, lead)
    if op.kind == "surface":
        return sweep_physics(op.base, op.sweep, lead[0])
    return op.base


def _scan_curves(op, header, lines, result, rng, n_samples):
    n_lead = {"curve": 0, "surface": 1, "figure": 2 if op.figure == "fig5" else 1}[op.kind]
    if tuple(header[n_lead:]) != CURVE_COLUMNS:
        result.fail(f"unexpected header {header}")
        return
    # Sample row indices up front; the row count is what the op asked for.
    wanted = set(rng.choice(op.expected_rows, size=min(n_samples, op.expected_rows), replace=False).tolist())
    physics = None
    last_lead = None
    for index, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        result.rows += 1
        try:
            lead = [float(v) for v in fields[:n_lead]]
            t, d_a, d_b, info, classical, discord = (float(v) for v in fields[n_lead : n_lead + 6])
            regime = fields[n_lead + 6]
        except (ValueError, IndexError):
            result.fail(f"row {index}: unparsable {line!r}")
            continue
        if lead != last_lead:
            physics, last_lead = _row_physics(op, lead), lead
        if abs(info - (classical + discord)) > ADDITIVITY_TOL:
            result.fail(f"row {index}: I - (C + D) = {info - classical - discord!r}")
        if not all(0.0 <= v <= 2.0 for v in (info, classical, discord)):
            result.fail(f"row {index}: correlation outside [0, 2]: {info!r}, {classical!r}, {discord!r}")
        if not (0.0 <= d_a <= 1.0 and 0.0 <= d_b <= 1.0):
            result.fail(f"row {index}: decohering factor outside [0, 1]: {d_a!r}, {d_b!r}")
        if regime not in ("DFE", "DECAY"):
            result.fail(f"row {index}: unknown regime {regime!r}")
        elif regime == "DFE" and physics.special:
            expected = plateau(abs(physics.c[2]))
            if abs(discord - expected) > PLATEAU_TOL[op.method]:
                result.fail(f"row {index}: DFE discord {discord!r} != f(|c3|) = {expected!r}")
        if index in wanted:
            result.samples.append(("row", op.method, physics, (t, d_a, d_b, info, classical, discord)))


def _scan_critical(op, header, lines, result):
    if tuple(header) != CRITICAL_COLUMNS:
        result.fail(f"unexpected header {header}")
        return
    for line in lines:
        result.rows += 1
        fields = line.rstrip("\n").split(",")
        if len(fields) != len(CRITICAL_COLUMNS):
            result.fail(f"unparsable {line!r}")
            continue
        special, c3 = op.base.special, op.base.c[2]
        if fields[1] == "none":
            # In the special family a frozen window exists exactly when c3 != 0.
            if special and c3 != 0.0:
                result.fail(f"no crossing reported for special-family c3 = {c3!r}")
            continue
        try:
            t_p, t_lo, t_hi = float(fields[0]), float(fields[2]), float(fields[3])
        except ValueError:
            result.fail(f"unparsable {line!r}")
            continue
        if not (0.0 <= t_lo <= t_p <= t_hi and math.isfinite(t_hi)):
            result.fail(f"t_p = {t_p!r} outside its bracket [{t_lo!r}, {t_hi!r}]")
        elif special:
            result.samples.append(("crossing", op.method, op.base, (t_p,)))


def verify_sample(mpmath, sample) -> str | None:
    """Compare one sampled row or special-family crossing with mpmath;
    return the first discrepancy, or None."""
    kind, method, physics, values = sample
    if kind == "crossing":
        (t_p,) = values
        gap = _product(mpmath, physics, t_p) - abs(physics.c[2])
        if abs(gap) > CROSSING_TOL:
            return f"D_A*D_B - |c3| = {float(gap):.3e} at t_p = {t_p!r} for {physics}"
        return None
    t, d_a, d_b, info, classical, discord = values
    ref_a, ref_b = (mpmath.exp(-gamma_exponent(mpmath, physics.eta[i], physics.beta[i], t)) for i in (0, 1))
    for name, got, ref in (("d_a", d_a, ref_a), ("d_b", d_b, ref_b)):
        # Below 1e-300 a double has lost its relative precision (subnormals).
        if abs(got - ref) > max(D_REL_TOL[method] * ref, 1e-300):
            return f"{name} = {got!r}, mpmath {float(ref)!r} at t = {t!r} for {physics}"
    ref_i, ref_c = _correlations(mpmath, physics.c, ref_a * ref_b)
    ref_d = max(ref_i - ref_c, 0)
    for name, got, ref in (("mutual_info", info, ref_i), ("classical", classical, ref_c), ("discord", discord, ref_d)):
        if abs(got - ref) > INFO_TOL[method]:
            return f"{name} = {got!r}, mpmath {float(ref)!r} at t = {t!r} for {physics}"
    return None


def _product(mp, physics: Physics, t: float):
    return mp.exp(-sum(gamma_exponent(mp, physics.eta[i], physics.beta[i], t) for i in (0, 1)))


def _correlations(mp, c, product):
    """Mutual information and classical correlation (bits) of the dephased
    Bell-diagonal state: spectrum (1 + c3 -/+ |c1 - c2| D)/4, (1 - c3 -/+ |c1 + c2| D)/4,
    classical correlation f(max(|c3|, (|c1 - c2| + |c1 + c2|) D / 2))."""
    c1, c2, c3 = (mp.mpf(v) for v in c)
    alpha, gamma = abs(c1 - c2) * product, abs(c1 + c2) * product
    info = mp.mpf(2)
    for lam in ((1 + c3 - alpha) / 4, (1 + c3 + alpha) / 4, (1 - c3 - gamma) / 4, (1 - c3 + gamma) / 4):
        if lam > 0:
            info += lam * mp.log(lam, 2)
    chi = max(abs(c3), (alpha + gamma) / 2)
    if chi >= 1:
        return info, mp.mpf(1)
    classical = ((1 - chi) * mp.log(1 - chi, 2) + (1 + chi) * mp.log(1 + chi, 2)) / 2
    return info, classical
