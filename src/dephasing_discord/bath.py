"""Decohering factor of a single Ohmic reservoir, via two independent routes.

The dephasing exponent for a reservoir with spectral density
J(w) = eta * w * exp(-w/omega_c) at inverse temperature beta is

    Gamma(t) = 2 * int_0^inf dw J(w)/w^2 * coth(beta*w/2) * sin^2(w*t/2)
             = (eta/2) * ln(1 + (omega_c*t)^2)
               + eta * sum_{n>=1} ln[1 + (omega_c*t)^2 / (1 + beta*omega_c*n)^2]

and the decohering factor is D(t) = exp(-Gamma(t)).  gamma_closed evaluates
the series, gamma_quadrature the integral; they agree to well below 1e-6
relative and serve as mutual oracles.  At beta = inf the sum is absent.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import integrate

from .core import DomainError, QuadratureFailure, Reservoir

# Truncation target for the thermal series (absolute, applied to Gamma).
SERIES_TAIL_TARGET = 1e-13
# Hard cap on the number of explicitly summed series terms.
SERIES_TERM_CAP = 10**7
# The quadrature route must certify at least this absolute accuracy.
QUAD_ERROR_LIMIT = 1e-9
_QUAD_PANEL_EPSABS = 2e-13


class GammaMethod(Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class DecoherenceEval:
    """Result of one Gamma evaluation: exponent, factor, route, certified error bound."""

    gamma: float
    d: float
    method: GammaMethod
    est_error: float


def _series_tail_third_derivative(u: float, xsq: float) -> float:
    # d^3/du^3 of ln(1 + xsq/u^2); negative for all u > 0.
    usq = u * u
    return -4.0 * xsq * (6.0 * usq * usq + 3.0 * usq * xsq + xsq * xsq) / (
        u**3 * (usq + xsq) ** 3
    )


def _thermal_series(xsq: float, b: float) -> tuple[float, float]:
    """sum_{n>=1} ln(1 + xsq/(1+b*n)^2) with a certified truncation bound.

    The first N terms are summed explicitly; the remainder is replaced by the
    midpoint Euler-Maclaurin expansion (integral plus first derivative
    correction), whose error is bounded by the magnitude of the next term of
    the expansion.  N is doubled until that bound meets SERIES_TAIL_TARGET.
    """
    if xsq == 0.0:
        return 0.0, 0.0
    n_terms = 32
    while True:
        u_mid = 1.0 + b * (n_terms + 0.5)
        bound = (7.0 / 5760.0) * b**3 * abs(_series_tail_third_derivative(u_mid, xsq))
        if bound <= SERIES_TAIL_TARGET or n_terms >= SERIES_TERM_CAP:
            break
        n_terms *= 2
    n = np.arange(1, n_terms + 1, dtype=float)
    partial = float(np.sum(np.log1p(xsq / (1.0 + b * n) ** 2)))
    x = math.sqrt(xsq)
    integral = (2.0 * x * math.atan(x / u_mid) - u_mid * math.log1p(xsq / (u_mid * u_mid))) / b
    correction = (b / 24.0) * (-2.0 * xsq / (u_mid * (u_mid * u_mid + xsq)))
    return partial + integral + correction, bound


def gamma_closed(reservoir: Reservoir, t: float) -> DecoherenceEval:
    """Dephasing exponent via the summed closed form.

    est_error reports the certified truncation bound of the thermal series
    (zero at beta = inf, where the result is exact up to rounding).
    """
    t = float(t)
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    x = reservoir.omega_c * t
    gamma = 0.5 * math.log1p(x * x)
    err = 0.0
    if not math.isinf(reservoir.beta):
        series, bound = _thermal_series(x * x, reservoir.beta * reservoir.omega_c)
        gamma += series
        err = reservoir.eta * bound
    gamma *= reservoir.eta
    return DecoherenceEval(gamma, math.exp(-gamma), GammaMethod.CLOSED_FORM, err)


def gamma_quadrature(
    reservoir: Reservoir, t: float, *, prefactor: float = 2.0
) -> DecoherenceEval:
    """Dephasing exponent via adaptive quadrature of the defining integral.

    The domain is cut at W = omega_c*(35 + omega_c*t), where the integrand has
    decayed below 1e-15 of its scale, and split into one panel per oscillation
    period of sin^2(w*t/2) so each quad call sees a smooth stretch.  The
    prefactor knob exists only for consistency probes (run_verify injects 8
    to demonstrate that the conventional factor is a x4 disagreement).
    """
    t = float(t)
    if not t >= 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if t == 0.0:
        return DecoherenceEval(0.0, 1.0, GammaMethod.QUADRATURE, 0.0)
    eta, omega_c, beta = reservoir.eta, reservoir.omega_c, reservoir.beta
    cold = math.isinf(beta)
    cutoff = omega_c * (35.0 + omega_c * t)

    def integrand(w: float) -> float:
        if w == 0.0:
            return 0.0 if cold else prefactor * eta * t * t / (2.0 * beta)
        s = math.sin(0.5 * w * t)
        value = prefactor * eta * math.exp(-w / omega_c) * s * s / w
        if not cold:
            value /= math.tanh(0.5 * beta * w)
        return value

    period = 2.0 * math.pi / t
    n_panels = max(1, math.ceil(cutoff / period))
    edges = [min(cutoff, k * period) for k in range(n_panels)] + [cutoff]
    values = []
    est = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        value = abserr = math.inf
        for epsabs, limit in ((_QUAD_PANEL_EPSABS, 200), (_QUAD_PANEL_EPSABS, 1000)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                v, e = integrate.quad(
                    integrand, lo, hi, epsabs=epsabs, epsrel=1e-13, limit=limit
                )
            if e < abserr:
                value, abserr = v, e
            if abserr <= QUAD_ERROR_LIMIT / n_panels:
                break
        if not (math.isfinite(value) and math.isfinite(abserr)):
            raise QuadratureFailure(
                f"panel [{lo}, {hi}] failed for {reservoir} at t = {t}"
            )
        values.append(value)
        est += abserr
    # Contribution beyond the cutoff, bounded with sin^2 <= 1 and coth decreasing.
    coth_w = 1.0 if cold else 1.0 / math.tanh(0.5 * beta * cutoff)
    est += prefactor * eta * coth_w * omega_c * math.exp(-cutoff / omega_c) / cutoff
    if est > QUAD_ERROR_LIMIT:
        raise QuadratureFailure(
            f"certified error {est!r} exceeds {QUAD_ERROR_LIMIT} for {reservoir} at t = {t}"
        )
    gamma = math.fsum(values)
    return DecoherenceEval(gamma, math.exp(-gamma), GammaMethod.QUADRATURE, est)
