"""Value types and validation shared across the package.

Conventions: hbar = k_B = 1 throughout.  Frequencies are expressed in units
of a reference cutoff (the cutoff of reservoir A unless stated otherwise),
times in the inverse of that cutoff, and inverse temperatures beta carry the
inverse-frequency unit, so beta*omega_c is dimensionless.  Zero temperature
is encoded as beta = math.inf.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

# A coherence modulus may pass its bound 1 +/- c3 by this much (an eigenvalue
# down to -EIGENVALUE_TOL/4) as rounding noise; further out it is unphysical.
EIGENVALUE_TOL = 1e-12

# Mutual information may undershoot the classical correlation by at most this
# much before we call the closed-form algebra inconsistent.
DISCORD_CLAMP_TOL = 1e-9


class NonPhysicalState(ValueError):
    """State parameters produce a negative eigenvalue beyond tolerance."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class QuadratureFailure(RuntimeError):
    """Adaptive integration could not certify the requested accuracy."""


class NoRootInRange(RuntimeError):
    """Root bracketing hit its cap without a sign change."""


class ConsistencyError(RuntimeError):
    """Two internal computation paths disagree beyond tolerance."""


class Regime(Enum):
    """Which branch of the correlation dynamics a sample falls in.

    DFE marks the window where the discord is held constant by the
    measurement optimum staying on the coherence branch; DECAY marks the
    regime where discord follows the decohering product downward.
    """

    DFE = "DFE"
    DECAY = "DECAY"


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _at(values, i):
    """Element i of a column, or the value itself for a single sample."""
    return float(values if i is None or np.ndim(values) == 0 else values[i])


def _plain(value):
    """A result as a float for a single sample, as an array for a column."""
    return value if np.ndim(value) else float(value)


def _reject(bad, error: type[Exception], t, describe) -> None:
    """Raise error for the first sample where bad holds, naming its time.

    bad is one bool, or one bool per point of the time column t;
    describe(i) words the failure of sample i (None for a single sample).
    """
    if bad is False or (bad is not True and not bad.any()):
        return
    i = int(np.argmax(bad)) if np.ndim(bad) else None
    raise error(f"{describe(i)} at t = {_at(t, i)!r}")


def _nonfinite(value):
    """nan or infinite, elementwise; a plain bool for a float, which _reject
    then handles without numpy."""
    if isinstance(value, np.ndarray):
        return ~np.isfinite(value)
    return value != value or abs(value) > sys.float_info.max


@dataclass(frozen=True)
class XStateParams:
    """Coefficients (c1, c2, c3) of a Bell-diagonal initial state.

    The state is rho(0) = (I + sum_j c_j sigma_j x sigma_j) / 4, which has
    maximally mixed marginals.  Only finiteness is checked here; physicality
    is checked once, by SystemConfig through XDensityMatrix.
    """

    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class Reservoir:
    """One Ohmic reservoir: coupling eta, cutoff omega_c, inverse temperature beta.

    beta = math.inf selects the zero-temperature limit.
    """

    eta: float
    omega_c: float
    beta: float

    def __post_init__(self):
        eta = _require_finite("eta", self.eta)
        omega_c = _require_finite("omega_c", self.omega_c)
        if eta <= 0.0:
            raise DomainError(f"eta must be > 0, got {eta!r}")
        if omega_c <= 0.0:
            raise DomainError(f"omega_c must be > 0, got {omega_c!r}")
        beta = float(self.beta)
        if math.isnan(beta) or beta <= 0.0:
            raise DomainError(f"beta must be > 0 (math.inf allowed), got {beta!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Full problem statement: the two reservoirs and the initial state.

    The qubits' level splittings are not part of it: they rotate coherence
    phases only, a local unitary that moves no correlation.

    The state is checked by building its t = 0 XDensityMatrix.  Evolution
    only scales both coherences by D_A*D_B <= 1, so no later state of a
    valid configuration can fail that check.
    """

    bath_a: Reservoir
    bath_b: Reservoir
    state: XStateParams

    def __post_init__(self):
        s = self.state
        XDensityMatrix(s.c3, s.c1 - s.c2, s.c1 + s.c2, 0.0)


@dataclass(frozen=True)
class XDensityMatrix:
    """The evolved X-shaped state in the rotating frame of the free splittings.

    alpha = (c1 - c2) * D_A * D_B is the outer-antidiagonal coherence and
    gamma = (c1 + c2) * D_A * D_B the inner one, both real.  The free phases
    exp(-i (omega_a + omega_b) t) and exp(+i (omega_b - omega_a) t) of the
    lab frame are a local unitary and move no correlation, so they are not
    stored.  The diagonal is fixed by c3 and normalization.

    alpha, gamma and t are floats for one state, or equal-length 1-D arrays
    for a column of states along a time grid; the functions of the state in
    evolution and correlations then return arrays.

    Construction is the package's one physical-state check: |alpha| <= 1 + c3
    and |gamma| <= 1 - c3 within EIGENVALUE_TOL, else NonPhysicalState.
    """

    c3: float
    alpha: float | np.ndarray
    gamma: float | np.ndarray
    t: float | np.ndarray

    def __post_init__(self):
        c3 = _require_finite("c3", self.c3)
        t = self.t
        _reject(_nonfinite(t), DomainError, t, lambda i: "t must be finite")
        _reject(t < 0.0, DomainError, t, lambda i: f"t must be >= 0, got {_at(t, i)!r}")
        for name in ("alpha", "gamma"):
            value = getattr(self, name)
            _reject(_nonfinite(value), DomainError, t,
                    lambda i: f"{name} must be finite, got {_at(value, i)!r}")
        if abs(c3) > 1.0 + EIGENVALUE_TOL:
            raise NonPhysicalState(f"|c3| = {abs(c3)!r} exceeds 1")
        mod_alpha, mod_gamma = abs(self.alpha), abs(self.gamma)
        _reject(mod_alpha > 1.0 + c3 + EIGENVALUE_TOL, NonPhysicalState, t,
                lambda i: f"|alpha| = {_at(mod_alpha, i)!r} exceeds 1 + c3 = {1.0 + c3!r}")
        _reject(mod_gamma > 1.0 - c3 + EIGENVALUE_TOL, NonPhysicalState, t,
                lambda i: f"|gamma| = {_at(mod_gamma, i)!r} exceeds 1 - c3 = {1.0 - c3!r}")


def _check_samples(t, d_a, d_b, mutual_info, classical, discord) -> None:
    """The invariants of a DiscordPoint, for one sample or for columns."""
    named = {"t": t, "d_a": d_a, "d_b": d_b, "mutual_info": mutual_info,
             "classical": classical, "discord": discord}
    for name, value in named.items():
        _reject(_nonfinite(value), DomainError, t,
                lambda i: f"{name} must be finite, got {_at(value, i)!r}")
    _reject(t < 0.0, DomainError, t, lambda i: f"t must be >= 0, got {_at(t, i)!r}")
    # D = exp(-Gamma) underflows to 0 once Gamma exceeds ~745: the
    # physical limit of a fully dephased pair, not an invalid input.
    _reject((d_a < 0.0) | (d_a > 1.0) | (d_b < 0.0) | (d_b > 1.0), DomainError, t,
            lambda i: f"decohering factors must lie in [0, 1], got {_at(d_a, i)!r}, {_at(d_b, i)!r}")
    for name in ("mutual_info", "classical", "discord"):
        value = named[name]
        _reject((value < -DISCORD_CLAMP_TOL) | (value > 2.0 + DISCORD_CLAMP_TOL), DomainError, t,
                lambda i: f"{name} = {_at(value, i)!r} outside [0, 2]")
    gap = mutual_info - (classical + discord)
    _reject(abs(gap) > 1e-10, ConsistencyError, t,
            lambda i: f"mutual_info - (classical + discord) = {_at(gap, i)!r}")


@dataclass(frozen=True)
class DiscordPoint:
    """One sample of the correlation dynamics along a trajectory.

    All correlation values are in bits.  The additivity of mutual information
    into classical correlation plus discord is asserted at construction.
    """

    t: float
    d_a: float
    d_b: float
    mutual_info: float
    classical: float
    discord: float
    regime: Regime

    def __post_init__(self):
        _check_samples(
            self.t, self.d_a, self.d_b, self.mutual_info, self.classical, self.discord
        )
        if not isinstance(self.regime, Regime):
            raise DomainError(f"regime must be a Regime, got {self.regime!r}")
