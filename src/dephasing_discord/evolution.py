"""Exact time evolution of the two-qubit state under independent dephasing.

Populations are frozen; each coherence decays by exp(-Gamma) per reservoir
whose qubit index flips.  The state is kept in the rotating frame of the free
splittings, whose phases move no correlation.  Everything is closed form; no
time stepping is involved.
"""
from __future__ import annotations

from .bath import GammaMethod, gamma_closed, gamma_quadrature
from .core import (
    EIGENVALUE_TOL,
    DomainError,
    NonPhysicalState,
    SystemConfig,
    XDensityMatrix,
)


def _decohering_factors(
    config: SystemConfig, t: float, method: GammaMethod
) -> tuple[float, float]:
    if method is GammaMethod.QUADRATURE:
        return (
            gamma_quadrature(config.bath_a, t).d,
            gamma_quadrature(config.bath_b, t).d,
        )
    return gamma_closed(config.bath_a, t).d, gamma_closed(config.bath_b, t).d


def _assemble(config: SystemConfig, t: float, d_a: float, d_b: float) -> XDensityMatrix:
    state = config.state
    product = d_a * d_b
    return XDensityMatrix(
        state.c3, (state.c1 - state.c2) * product, (state.c1 + state.c2) * product, t
    )


def evolve(
    config: SystemConfig, t: float, method: GammaMethod = GammaMethod.CLOSED_FORM
) -> XDensityMatrix:
    """State at time t: both coherences scaled by D_A*D_B."""
    t = float(t)
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    d_a, d_b = _decohering_factors(config, t, method)
    return _assemble(config, t, d_a, d_b)


def eigenvalues(rho: XDensityMatrix) -> tuple[float, float, float, float]:
    """Spectrum of the X state, clamped to [0, 1].

    The two antidiagonal blocks diagonalize independently:
    (1 + c3 -/+ |alpha|)/4 and (1 - c3 -/+ |gamma|)/4.  A value below
    -EIGENVALUE_TOL raises NonPhysicalState instead of being clamped.
    """
    mod_alpha = abs(rho.alpha)
    mod_gamma = abs(rho.gamma)
    raw = (
        (1.0 + rho.c3 - mod_alpha) / 4.0,
        (1.0 + rho.c3 + mod_alpha) / 4.0,
        (1.0 - rho.c3 - mod_gamma) / 4.0,
        (1.0 - rho.c3 + mod_gamma) / 4.0,
    )
    worst = min(raw)
    if worst < -EIGENVALUE_TOL:
        raise NonPhysicalState(f"eigenvalue {worst!r} below -{EIGENVALUE_TOL}")
    return tuple(min(max(lam, 0.0), 1.0) for lam in raw)
