"""Transition between frozen and decaying discord.

The optimal measurement of a Bell-diagonal state stays on the coherence
branch while m*D_A(t)*D_B(t) >= |c3|, with m = max(|c1|, |c2|) (the branch
value (|alpha| + |gamma|)/2 of correlations.classical_closed), and switches
to the c3 branch after.  For initial states with c1 = 1 and c2 = -c3 (m = 1)
the discord stays constant on the coherence branch, the DFE regime, and
decays afterwards.  This module locates that switch and scans full
trajectories.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bath import GammaMethod, gamma_closed
from .core import (
    DiscordPoint,
    DomainError,
    NoRootInRange,
    Regime,
    SystemConfig,
    _check_samples,
)
from .correlations import ClassicalMethod, discord
from .evolution import _assemble, _decohering_factor

_BRACKET_WIDTH = 1e-12  # where bisection stops, relative to the upper edge
_BRACKET_CAP_EXPONENT = 20  # doubling the upper edge gives up at 2**20 / max(omega_c)


@dataclass(frozen=True)
class CriticalTime:
    """Crossing time of m*D_A*D_B through |c3|, with the final bisection
    bracket and the residual m*D_A*D_B - |c3| at t_p."""

    t_p: float
    bracket: tuple[float, float]
    residual: float


def critical_time_closed(eta: float, c3: float, omega_c: float) -> float:
    """Zero-temperature identical-reservoir crossing: sqrt(|c3|^(-1/eta) - 1)/omega_c."""
    eta, c3, omega_c = float(eta), float(c3), float(omega_c)
    if eta <= 0.0 or not math.isfinite(eta):
        raise DomainError(f"eta must be > 0, got {eta!r}")
    if omega_c <= 0.0 or not math.isfinite(omega_c):
        raise DomainError(f"omega_c must be > 0, got {omega_c!r}")
    if c3 == 0.0 or abs(c3) >= 1.0:
        raise DomainError(f"need 0 < |c3| < 1 for a finite crossing, got {c3!r}")
    return math.sqrt(abs(c3) ** (-1.0 / eta) - 1.0) / omega_c


def _branch_weight(config: SystemConfig) -> float:
    """m = max(|c1|, |c2|): the coherence branch of the optimum is m*D_A*D_B."""
    return max(abs(config.state.c1), abs(config.state.c2))


def critical_time_solve(config: SystemConfig) -> CriticalTime | None:
    """Bracket and bisect m*D_A(t)*D_B(t) = |c3|, m = max(|c1|, |c2|): the
    time the optimal measurement switches from the coherence branch to the
    c3 branch.

    The comparison runs in the exponent, Gamma_A + Gamma_B against
    ln(m/|c3|), so it holds where D_A*D_B underflows.  Gamma rises with t:
    from t = 1/max(omega_c) the bracket halves while the crossing lies below
    it and doubles, up to 2**20/max(omega_c), while it lies above.

    Returns None when no frozen window exists at all: either c3 = 0 (the
    optimum never leaves the coherence branch) or the initial coherences are
    already too weak, m <= |c3|.
    """
    mod_c3 = abs(config.state.c3)
    weight = _branch_weight(config)
    if mod_c3 == 0.0 or weight <= mod_c3:
        return None
    # ln(m/|c3|), accurate for m near |c3|; the ratio overflows for a subnormal |c3| only
    ratio = (weight - mod_c3) / mod_c3
    exponent = math.log1p(ratio) if ratio < math.inf else math.log(weight) - math.log(mod_c3)

    def frozen(t: float) -> bool:  # m*D_A(t)*D_B(t) >= |c3|
        gammas = gamma_closed(config.bath_a, t).gamma + gamma_closed(config.bath_b, t).gamma
        return gammas <= exponent

    omega_max = max(config.bath_a.omega_c, config.bath_b.omega_c)
    cap = min(2.0**_BRACKET_CAP_EXPONENT / omega_max, sys.float_info.max)
    t = min(1.0 / omega_max, cap)
    if frozen(t):
        t_lo, t_hi = t, min(2.0 * t, cap)
        while frozen(t_hi):
            if t_hi == cap:
                raise NoRootInRange(f"m*D_A*D_B stayed above |c3| = {mod_c3} up to t = {cap}")
            t_lo, t_hi = t_hi, min(2.0 * t_hi, cap)
    else:  # ends by t = 0 at the latest, where Gamma = 0
        t_lo, t_hi = 0.5 * t, t
        while not frozen(t_lo):
            t_lo, t_hi = 0.5 * t_lo, t_lo
    while t_hi - t_lo > _BRACKET_WIDTH * t_hi:
        mid = 0.5 * t_lo + 0.5 * t_hi  # halves first: t_lo + t_hi may overflow
        if not t_lo < mid < t_hi:  # bracket already at float resolution
            break
        if frozen(mid):
            t_lo = mid
        else:
            t_hi = mid
    t_p = 0.5 * t_lo + 0.5 * t_hi
    d_a, d_b = gamma_closed(config.bath_a, t_p).d, gamma_closed(config.bath_b, t_p).d
    return CriticalTime(t_p, (t_lo, t_hi), weight * d_a * d_b - mod_c3)


def _time_grid(t_max: float, n_points: int) -> np.ndarray:
    """The uniform grid of n_points times over [0, t_max]."""
    t_max = float(t_max)
    if not t_max > 0.0 or not math.isfinite(t_max):
        raise DomainError(f"t_max must be > 0, got {t_max!r}")
    if int(n_points) != n_points or n_points < 2:
        raise DomainError(f"n_points must be an integer >= 2, got {n_points!r}")
    return np.linspace(0.0, t_max, int(n_points))


def _trajectory_columns(
    config: SystemConfig,
    t: np.ndarray,
    d_a: np.ndarray,
    d_b: np.ndarray,
    classical_method: ClassicalMethod,
) -> tuple[np.ndarray, ...]:
    """Columns t, d_a, d_b, mutual_info, classical, discord and the DFE flag
    of a trajectory (see scan_trajectory), each checked once against the
    invariants of a DiscordPoint."""
    out = discord(_assemble(config, t, d_a, d_b), classical_method)
    _check_samples(t, d_a, d_b, out.mutual_info, out.classical, out.discord)
    mod_c3 = abs(config.state.c3)
    dfe = (_branch_weight(config) * d_a * d_b >= mod_c3) & (mod_c3 > 0.0)
    return t, d_a, d_b, out.mutual_info, out.classical, out.discord, dfe


def scan_trajectory(
    config: SystemConfig,
    t_max: float,
    n_points: int,
    classical_method: ClassicalMethod = ClassicalMethod.CLOSED,
    gamma_method: GammaMethod = GammaMethod.CLOSED_FORM,
) -> list[DiscordPoint]:
    """Correlation dynamics on a uniform grid over [0, t_max], one DiscordPoint
    per time, computed as columns over the grid.

    The regime flag compares m*D_A*D_B, m = max(|c1|, |c2|), against |c3|:
    DFE while the optimum stays on the coherence branch (the product is the
    larger), never for c3 = 0, where no frozen window exists.
    """
    t = _time_grid(t_max, n_points)
    columns = _trajectory_columns(
        config,
        t,
        _decohering_factor(config.bath_a, t, gamma_method),
        _decohering_factor(config.bath_b, t, gamma_method),
        classical_method,
    )
    *values, dfe = (column.tolist() for column in columns)
    return [
        DiscordPoint(*row, Regime.DFE if flag else Regime.DECAY)
        for *row, flag in zip(*values, dfe)
    ]
