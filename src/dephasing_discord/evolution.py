"""Exact time evolution of the two-qubit state under independent dephasing.

Populations are frozen; each coherence decays by exp(-Gamma) per reservoir
whose qubit index flips.  The state is kept in the rotating frame of the free
splittings, whose phases move no correlation.  Everything is closed form; no
time stepping is involved.
"""
from __future__ import annotations

import numpy as np

from .bath import GammaMethod, _times, gamma_closed, gamma_quadrature
from .core import (
    DomainError,
    SystemConfig,
    XDensityMatrix,
    _at,
    _nonfinite,
    _plain,
    _reject,
)


def _decohering_factor(reservoir, t, method: GammaMethod):
    """D(t) of one reservoir by the chosen route, for a float or a 1-D array t.

    The quadrature route integrates each time on its own.
    """
    if method is not GammaMethod.QUADRATURE:
        return gamma_closed(reservoir, t).d
    if isinstance(t, np.ndarray):
        return np.array([gamma_quadrature(reservoir, s).d for s in t.tolist()])
    return gamma_quadrature(reservoir, t).d


def _assemble(config: SystemConfig, t, d_a, d_b) -> XDensityMatrix:
    # a non-finite factor is named here, before it spoils both coherences
    for name, d in (("d_a", d_a), ("d_b", d_b)):
        _reject(_nonfinite(d), DomainError, t, lambda i: f"{name} must be finite, got {_at(d, i)!r}")
    state = config.state
    product = d_a * d_b
    return XDensityMatrix(
        state.c3, (state.c1 - state.c2) * product, (state.c1 + state.c2) * product, t
    )


def evolve(
    config: SystemConfig, t, method: GammaMethod = GammaMethod.CLOSED_FORM
) -> XDensityMatrix:
    """State at time t, or the column of states over a 1-D array of times:
    both coherences scaled by D_A*D_B."""
    t = _times(t)
    return _assemble(
        config,
        t,
        _decohering_factor(config.bath_a, t, method),
        _decohering_factor(config.bath_b, t, method),
    )


def eigenvalues(rho: XDensityMatrix) -> tuple:
    """Spectrum of the X state, clamped to [0, 1].

    The two antidiagonal blocks diagonalize independently:
    (1 + c3 -/+ |alpha|)/4 and (1 - c3 -/+ |gamma|)/4.  The XDensityMatrix
    bounds put each at or above -EIGENVALUE_TOL/4, so the clamp only removes
    rounding.  Floats for one state, arrays for a column.
    """
    mod_alpha = abs(rho.alpha)
    mod_gamma = abs(rho.gamma)
    raw = (
        (1.0 + rho.c3 - mod_alpha) / 4.0,
        (1.0 + rho.c3 + mod_alpha) / 4.0,
        (1.0 - rho.c3 - mod_gamma) / 4.0,
        (1.0 - rho.c3 + mod_gamma) / 4.0,
    )
    return tuple(_plain(np.clip(lam, 0.0, 1.0)) for lam in raw)
