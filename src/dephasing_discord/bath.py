"""Decohering factor of a single Ohmic reservoir, via two independent routes.

The dephasing exponent for a reservoir with spectral density
J(w) = eta * w * exp(-w/omega_c) at inverse temperature beta is

    Gamma(t) = 2 * int_0^inf dw J(w)/w^2 * coth(beta*w/2) * sin^2(w*t/2)
             = (eta/2) * ln(1 + (omega_c*t)^2)
               + eta * sum_{n>=1} ln[1 + (omega_c*t)^2 / (1 + beta*omega_c*n)^2]

and the decohering factor is D(t) = exp(-Gamma(t)).  gamma_closed evaluates
the series, gamma_quadrature the integral; they agree to well below 1e-6
relative and serve as mutual oracles.  At beta = inf the sum is absent.

Both routes run on numpy alone.  gamma_quadrature integrates with
vectorized adaptive Gauss-Legendre panels; it imports numpy.polynomial for
their nodes when it first integrates, so the closed-form route never loads it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import DomainError, QuadratureFailure, Reservoir, _reject

# Truncation target for the thermal series (absolute, applied to Gamma).
SERIES_TAIL_TARGET = 1e-13
# Hard cap on the number of explicitly summed series terms.
SERIES_TERM_CAP = 10**7
# Terms per chunk of the vectorized series (a larger N takes one row per chunk).
_CHUNK_ELEMENTS = 2**15
# The quadrature route must certify at least this accuracy relative to max(1, Gamma).
QUAD_ERROR_LIMIT = 1e-9
# Rounding floor of a panel's estimate per unit of its Q_2n, which is sum |f|*w as f >= 0.
_QUAD_ROUNDING = 50.0 * 2.0**-52
_QUAD_PANEL_EPSABS = 2e-13
_QUAD_PANEL_EPSREL = 1e-13
_QUAD_MAX_PANELS = 2**20  # t ~ 2,500 at omega_c = 1; the panel count grows as t^2
# Gauss-Legendre order n of the panel rule (the estimate compares it with 2n),
# panels evaluated per array, and halvings of one panel before it fails.
_QUAD_ORDER = 10
_QUAD_CHUNK = 2**13
_QUAD_MAX_DEPTH = 30
# The direct series forms x^2, u^2 and their cubes (x = omega_c*t, b =
# beta*omega_c, u = 1 + b*(N + 1/2); the tail bound is below 0.0061/N^3, so
# N <= 2^16).  Up to these limits the largest, u^3 * (u^2 + x^2)^3, stays
# below 1e255; past them pow(u^2 + x^2, 3) overflows from u^2 + x^2 = 5.6e102
# and x^2 itself from x = 1.3e154, so such a point takes _wide_series, which
# forms ratios only.
_WIDE_X = 1e30
_WIDE_B = 1e20


class GammaMethod(Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class DecoherenceEval:
    """Result of one Gamma evaluation: exponent, factor, certified error bound.

    The numeric fields are floats, or arrays for an array of times.
    """

    gamma: float | np.ndarray
    d: float | np.ndarray
    est_error: float | np.ndarray


def _tail_bound(u: float, xsq, b: float):
    """(7/5760) b^3 |d^3/du^3 ln(1 + xsq/u^2)| at the midpoint u, elementwise in xsq.

    The magnitude of the next term of the midpoint Euler-Maclaurin expansion
    of the series tail; the third derivative is negative for all u > 0.
    """
    usq = u * u
    third = -4.0 * xsq * (6.0 * usq * usq + 3.0 * usq * xsq + xsq * xsq) / (
        u**3 * (usq + xsq) ** 3
    )
    return (7.0 / 5760.0) * b**3 * abs(third)


def _denominators(n_terms: int, b: float) -> np.ndarray:
    return (1.0 + b * np.arange(1, n_terms + 1, dtype=float)) ** 2


def _with_tail(partial_sum, xsq, u, b: float, libm):
    """Partial sum plus the tail integral and its first derivative correction;
    libm is math for floats, numpy for arrays."""
    x = libm.sqrt(xsq)
    integral = (2.0 * x * libm.atan(x / u) - u * libm.log1p(xsq / (u * u))) / b
    correction = (b / 24.0) * (-2.0 * xsq / (u * (u * u + xsq)))
    return partial_sum + integral + correction


def _thermal_series(x, b: float):
    """sum_{n>=1} ln(1 + x^2/(1+b*n)^2) with a certified truncation bound.

    x is a float or a 1-D array.  Per point, the first N terms are summed
    explicitly; the remainder is replaced by the midpoint Euler-Maclaurin
    expansion (integral plus first derivative correction), whose error is
    bounded by the magnitude of the next term of the expansion.  N is doubled
    from 32 until that bound meets SERIES_TAIL_TARGET.

    The points that stop at the same N share one row of denominators, and
    each point's N terms are one row of the (pairwise) sum.  Chunks split
    the points, never a row, and hold at most max(N, _CHUNK_ELEMENTS) terms.
    A point past _WIDE_X or _WIDE_B is summed by _wide_series instead.
    """
    # One time, as in each step of the crossing solver's bisection: the same
    # rule in plain floats, where numpy's per-call cost would dominate.
    if not isinstance(x, np.ndarray):
        if x > _WIDE_X or b > _WIDE_B:
            return _wide_series(x, b)
        xsq = x * x
        if xsq == 0.0:
            return 0.0, 0.0
        n_terms = 32
        while True:
            u_mid = 1.0 + b * (n_terms + 0.5)
            bound = _tail_bound(u_mid, xsq, b)
            if bound <= SERIES_TAIL_TARGET or n_terms >= SERIES_TERM_CAP:
                break
            n_terms *= 2
        partial = float(np.add.reduce(np.log1p(xsq / _denominators(n_terms, b))))
        return _with_tail(partial, xsq, u_mid, b, math), bound
    wide = (x > _WIDE_X) | (b > _WIDE_B)
    narrow = np.where(wide, 0.0, x)
    xsq = narrow * narrow
    series = np.zeros_like(xsq)
    bound = np.zeros_like(xsq)
    u_mid = np.ones_like(xsq)
    for i in np.flatnonzero(wide).tolist():
        series[i], bound[i] = _wide_series(float(x[i]), b)
    summed = xsq != 0.0
    pending = np.flatnonzero(summed)
    n_terms = 32
    while pending.size:
        u = 1.0 + b * (n_terms + 0.5)
        pending_bound = _tail_bound(u, xsq[pending], b)
        done = pending_bound <= SERIES_TAIL_TARGET
        if n_terms >= SERIES_TERM_CAP:
            done[:] = True
        finished = pending[done]
        bound[finished] = pending_bound[done]
        u_mid[finished] = u
        den = _denominators(n_terms, b)
        rows = max(1, _CHUNK_ELEMENTS // n_terms)
        for lo in range(0, finished.size, rows):
            chunk = finished[lo : lo + rows]
            terms = xsq[chunk, None] / den
            series[chunk] = np.add.reduce(np.log1p(terms, out=terms), axis=1)
        pending = pending[~done]
        n_terms *= 2
    series[summed] = _with_tail(series[summed], xsq[summed], u_mid[summed], b, np)
    return series, bound


def _log1p_square(r):
    """ln(1 + r^2) of ratios r >= 0, never squaring one above 1:
    2 ln r + ln(1 + 1/r^2) for r > 1."""
    big = np.maximum(r, 1.0)
    return 2.0 * np.log(big) + np.log1p(np.square(np.minimum(r, 1.0 / big)))


def _wide_series(x: float, b: float) -> tuple[float, float]:
    """_thermal_series of one point past _WIDE_X or _WIDE_B, from ratios only.

    The same doubling rule, explicit terms and midpoint Euler-Maclaurin tail,
    with v = u/b, x/(1+b*n), x/u and r = x^2/(u^2 + x^2) in place of the
    squares, so no intermediate overflows for any finite x and b.  It agrees
    with the direct form to rounding, not bit for bit.
    """
    if x == 0.0 or x == math.inf:
        return x, 0.0
    n_terms = 32
    while True:
        v = 1.0 / b + (n_terms + 0.5)
        u = b * v
        w = u / x
        r = 1.0 / (1.0 + w * w)
        q = 1.0 - r
        # (7/5760) b^3 |d^3/du^3 ln(1 + x^2/u^2)|, as in _tail_bound
        bound = (7.0 / 5760.0) * 4.0 * r * (6.0 * q * q + 3.0 * q * r + r * r) / v**3
        if bound <= SERIES_TAIL_TARGET or n_terms >= SERIES_TERM_CAP:
            break
        n_terms *= 2
    n = np.arange(1, n_terms + 1, dtype=float)
    with np.errstate(over="ignore"):  # 1 + b*n = inf: a term of 0
        partial = float(np.add.reduce(_log1p_square(x / (1.0 + b * n))))
    integral = (x / b) * (2.0 * math.atan(x / u)) - v * float(_log1p_square(x / u))
    correction = -r / (12.0 * v)
    return partial + integral + correction, bound


@functools.cache
def _gauss_legendre_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] of the n- and 2n-point Gauss-Legendre rules, one after
    the other, and a (3n, 2) matrix whose columns weight each rule's nodes."""
    from numpy.polynomial.legendre import leggauss  # imported here: the closed-form path never needs it

    x_n, w_n = leggauss(n)
    x_2n, w_2n = leggauss(2 * n)
    weights = np.zeros((3 * n, 2))
    weights[:n, 0] = w_n
    weights[n:, 1] = w_2n
    nodes = np.concatenate((x_n, x_2n))
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every call
    return nodes, weights


def _times(t):
    """t as a float, or a 1-D array of floats; DomainError unless every t >= 0."""
    if not isinstance(t, np.ndarray) or t.ndim == 0:
        t = float(t)
        if not t >= 0.0:
            raise DomainError(f"t must be >= 0, got {t!r}")
        return t
    if t.ndim != 1:
        raise DomainError(f"t must be a float or a 1-D array, got shape {t.shape}")
    t = t.astype(float, copy=False)
    _reject(~(t >= 0.0), DomainError, t, lambda i: "t must be >= 0")
    return t


def gamma_closed(reservoir: Reservoir, t) -> DecoherenceEval:
    """Dephasing exponent via the summed closed form.

    t is a float, or a 1-D array of times; the fields of the result are then
    arrays of the same length.  The float form uses Python's math, the array
    form numpy's ufuncs; the two agree to within 2e-15 * max(1, Gamma).
    est_error reports the certified truncation bound of the thermal series
    (zero at beta = inf, where the result is exact up to rounding).
    """
    t = _times(t)
    # A float (each step of the crossing solver's bisection) takes plain math.
    if type(t) is float:
        x = reservoir.omega_c * t
        xsq = x * x
        # ln x once x^2 overflows; the two then differ by less than 1e-308
        gamma = 0.5 * math.log1p(xsq) if xsq != math.inf else math.log(x)
        exp, err = math.exp, 0.0
    else:
        x = reservoir.omega_c * t
        with np.errstate(over="ignore"):
            gamma = 0.5 * np.log1p(x * x)
        overflowed = gamma == math.inf
        gamma[overflowed] = np.log(x[overflowed])
        exp, err = np.exp, np.zeros_like(t)
    if not math.isinf(reservoir.beta):
        series, bound = _thermal_series(x, reservoir.beta * reservoir.omega_c)
        gamma = gamma + series
        err = reservoir.eta * bound
    gamma = gamma * reservoir.eta
    return DecoherenceEval(gamma, exp(-gamma), err)


def gamma_quadrature(
    reservoir: Reservoir, t: float, *, prefactor: float = 2.0
) -> DecoherenceEval:
    """Dephasing exponent via adaptive quadrature of the defining integral.

    The domain is cut at W = omega_c*(35 + omega_c*t), where the integrand has
    decayed below 1e-15 of its scale, and split into one panel per oscillation
    period of sin^2(w*t/2), so each panel sees a smooth stretch.  Each panel
    gets Gauss-Legendre rules of order n and 2n, evaluated for a chunk of
    panels as one array; it reports Q_2n, with |Q_2n - Q_n| as its error
    estimate, and is halved and integrated again while that estimate misses
    max(epsabs, epsrel*|Q_2n|), at most _QUAD_MAX_DEPTH times.  est_error is
    the sum of the accepted estimates, each with a rounding floor of
    _QUAD_ROUNDING * Q_2n, plus a bound on the integral beyond the cutoff,
    and must stay within QUAD_ERROR_LIMIT * max(1, Gamma).  The prefactor
    knob exists only for consistency probes (run_verify injects 8 to
    demonstrate that the conventional factor is a x4 disagreement).
    """
    t = float(_times(t))
    if t == 0.0:
        return DecoherenceEval(0.0, 1.0, 0.0)
    eta, omega_c, beta = reservoir.eta, reservoir.omega_c, reservoir.beta
    cutoff = omega_c * (35.0 + omega_c * t)
    period = min(2.0 * math.pi / t, cutoff)  # one panel when a period spans the cutoff
    panels = cutoff / period if period > 0.0 else math.inf  # t = inf
    if not panels <= _QUAD_MAX_PANELS:
        raise QuadratureFailure(
            f"{panels:.3g} panels exceed the limit of {_QUAD_MAX_PANELS} for {reservoir} at t = {t}"
        )
    nodes, weights = _gauss_legendre_pair(_QUAD_ORDER)
    scale = prefactor * eta
    cold = math.isinf(beta)

    def panel_sums(lo, hi):
        """(Q_n, Q_2n) of each panel [lo, hi], as an array of shape (panels, 2)."""
        half = 0.5 * (hi - lo)
        w = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
        s = np.sin(0.5 * t * w)
        f = scale * np.exp(-w / omega_c) * (s * s) / w
        if not cold:
            f /= np.tanh(0.5 * beta * w)
        return (f @ weights) * half[:, None]

    # coth(beta*w/2) - 1 < 1e-17 once beta*w > 40: in a cold bath that thermal
    # bump is far narrower than a period, and both rules of the first panel
    # would miss it together, so it gets a panel of its own.
    thermal = 40.0 / beta
    edges = np.arange(max(1, math.ceil(panels)) + 1) * period
    edges[-1] = cutoff
    if 0.0 < thermal < edges[1]:
        edges = np.insert(edges, 1, thermal)
    sums, est = [], 0.0
    # Batches of (lo, hi, depth) wait on a stack and are integrated at most
    # _QUAD_CHUNK panels at a time; halved panels go on top, so at most about
    # _QUAD_CHUNK * _QUAD_MAX_DEPTH of them wait besides the first panels.
    pending = [(edges[:-1], edges[1:], 0)]
    # An overflow, 0/0 or inf/inf gives a nan estimate, which no panel passes.
    with np.errstate(all="ignore"):
        while pending:
            lo, hi, depth = pending.pop()
            if lo.size > _QUAD_CHUNK:
                pending.append((lo[:-_QUAD_CHUNK], hi[:-_QUAD_CHUNK], depth))
                lo, hi = lo[-_QUAD_CHUNK:], hi[-_QUAD_CHUNK:]
            q = panel_sums(lo, hi)
            err = np.abs(q[:, 1] - q[:, 0])
            ok = err <= np.maximum(_QUAD_PANEL_EPSABS, _QUAD_PANEL_EPSREL * np.abs(q[:, 1]))
            sums.append(math.fsum(q[ok, 1].tolist()))
            est += float(np.sum(err[ok])) + _QUAD_ROUNDING * sums[-1]
            if not ok.all():
                if depth == _QUAD_MAX_DEPTH:
                    i = int(np.argmin(ok))
                    raise QuadratureFailure(
                        f"panel [{float(lo[i])!r}, {float(hi[i])!r}] did not converge in "
                        f"{depth} halvings for {reservoir} at t = {t}"
                    )
                lo, hi = lo[~ok], hi[~ok]
                mid = 0.5 * (lo + hi)
                pending.append((np.concatenate((lo, mid)), np.concatenate((mid, hi)), depth + 1))
    # Contribution beyond the cutoff, bounded with sin^2 <= 1 and coth decreasing.
    coth_w = 1.0 if cold else 1.0 / math.tanh(0.5 * beta * cutoff)
    est += scale * coth_w * omega_c * math.exp(-cutoff / omega_c) / cutoff
    gamma = math.fsum(sums)
    limit = QUAD_ERROR_LIMIT * max(1.0, gamma)
    if not est <= limit:
        raise QuadratureFailure(
            f"certified error {est!r} exceeds {limit!r} for {reservoir} at t = {t}"
        )
    return DecoherenceEval(gamma, math.exp(-gamma), est)
