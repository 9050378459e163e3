"""Correlation measures of the evolved X state, all in bits.

The classical correlation over one-qubit projective measurements admits a
closed form for this family: the optimum is chi = max(|c3|, (|alpha|+|gamma|)/2)
fed through the even entropy kernel binary_entropy_like.  classical_bruteforce
re-derives it by direct optimization over measurement angles and serves as the
independent oracle for that algebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    ConsistencyError,
    DISCORD_CLAMP_TOL,
    DomainError,
    XDensityMatrix,
    _at,
    _plain,
    _reject,
)
from .evolution import eigenvalues

_LN2 = math.log(2.0)
_DOMAIN_SLACK = 1e-9
# The angle search grid: 91 even steps of theta over [0, pi/2] by 181 of phi
# over [0, 2*pi).  The optimum of an X state lies at phi = 0 or pi/2 (mod pi),
# which 181 steps miss: the quarter turns join the grid (91 x 184).  np.sort,
# not np.union1d, which would load numpy.ma into every command.
_THETA_STEP = 0.5 * math.pi / 90
_PHI_STEP = 2.0 * math.pi / 181
_THETAS = np.linspace(0.0, 0.5 * math.pi, 91)
_PHIS = np.sort(np.concatenate((np.linspace(0.0, 2.0 * math.pi, 181, endpoint=False),
                                (0.5 * math.pi, math.pi, 1.5 * math.pi))))
_REFINE_TOL = 1e-10
_SECTION_POINTS = 65
_SECTION_STEPS = np.arange(float(_SECTION_POINTS))


class ClassicalMethod(Enum):
    CLOSED = "closed"
    BRUTEFORCE = "bruteforce"


@dataclass(frozen=True)
class MeasurementAngles:
    """Bloch angles of the projective measurement on qubit B."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= 0.5 * math.pi:
            raise DomainError(f"theta must lie in [0, pi/2], got {self.theta!r}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise DomainError(f"phi must lie in [0, 2*pi), got {self.phi!r}")


@dataclass(frozen=True)
class CorrelationBreakdown:
    """Mutual information split into classical correlation and discord.

    Floats for one state, arrays for a column.
    """

    mutual_info: float | np.ndarray
    classical: float | np.ndarray
    discord: float | np.ndarray


def binary_entropy_like(x):
    """(1/2) * [(1-x)*log2(1-x) + (1+x)*log2(1+x)] for x in [0, 1].

    Increasing from 0 to 1 on the unit interval with 0*log(0) read as 0.
    Inputs within 1e-9 of the interval are clamped; anything further out
    raises DomainError.  x is a float, or an array evaluated elementwise.
    """
    if not isinstance(x, np.ndarray):
        x = float(x)
    outside = (x != x) | (x < -_DOMAIN_SLACK) | (x > 1.0 + _DOMAIN_SLACK)
    if np.any(outside):
        raise DomainError(
            f"argument must lie in [0, 1], got {float(np.asarray(x)[outside][0])!r}"
        )
    x = np.clip(x, 0.0, 1.0)
    one = x == 1.0
    x = np.where(one, 0.0, x)  # log1p(-1) is a domain error; that value is 1
    low = (1.0 - x) * np.log1p(-x)
    high = (1.0 + x) * np.log1p(x)
    return _plain(np.where(one, 1.0, 0.5 * (low + high) / _LN2))


def _entropy_term(lam):
    """-lam * log2(lam) of a spectrum entry clamped to [0, 1] (np.clip's bits,
    at less fixed cost on a multisection's short arrays), 0*log(0) read as 0."""
    lam = np.minimum(np.maximum(0.0, lam), 1.0)
    return -lam * np.log2(np.where(lam > 0.0, lam, 1.0))


def mutual_information(rho: XDensityMatrix):
    """I = 2 + sum_i lambda_i log2 lambda_i over the X-state spectrum."""
    total = 2.0
    for lam in eigenvalues(rho):
        total = total - _entropy_term(lam)
    return _plain(total)


def classical_closed(rho: XDensityMatrix):
    """Closed-form classical correlation and the branch variable chi.

    fmax passes over a nan coherence, so a column with a bad row still gets
    to the row checks, which name its time.
    """
    chi = _plain(np.fmax(abs(rho.c3), 0.5 * (abs(rho.alpha) + abs(rho.gamma))))
    return binary_entropy_like(chi), chi


def _spectrum_2x2(a, d, b_sq):
    """Eigenvalues (a+d)/2 -+ sqrt((a-d)^2/4 + |b|^2) of Hermitian [[a, b], [b*, d]]."""
    mean = 0.5 * (a + d)
    radius = np.sqrt(0.25 * (a - d) ** 2 + b_sq)
    return mean - radius, mean + radius


def _measurement_objective(c3, alpha, gamma, theta, phi):
    """1 - (1/2) sum_k S(rho_A|k) in bits for the measurement on B along (theta, phi).

    Both outcomes k occur with probability 1/2 and leave qubit A in
    [[a_k, b_k], [conj(b_k), d_k]] with a_k, d_k = (1 +- (-1)^k * c3*cos(2*theta))/2
    and b_k = (-1)^k * conj(eps) * sin(2*theta)/4, eps = alpha*exp(-i*phi) + gamma*exp(i*phi).
    Outcome 1 is outcome 0 with a and d swapped and b negated, exactly in
    floating point too, so the two share one spectrum, bit for bit: it is
    computed once and its entropy terms summed in the order of the two
    outcomes.  The spectrum is the generic 2x2 one, which knows nothing of
    where the optimum lies.  theta and phi are floats or broadcast arrays.
    """
    cos2t = np.cos(2.0 * theta)
    quarter_sin2t = 0.25 * np.sin(2.0 * theta)
    polar = c3 * cos2t
    b_re = quarter_sin2t * ((alpha + gamma) * np.cos(phi))
    b_im = quarter_sin2t * ((alpha - gamma) * np.sin(phi))  # Im conj(eps)
    low, high = _spectrum_2x2(0.5 * (1.0 + polar), 0.5 * (1.0 - polar), b_re * b_re + b_im * b_im)
    e_low, e_high = _entropy_term(low), _entropy_term(high)
    return 1.0 - 0.5 * (((e_low + e_high) + e_low) + e_high)


def _multisection_max(fun, lo: float, hi: float, best_x: float, best_f: float):
    """Sharpen (best_x, best_f) over [lo, hi]: each round evaluates fun on
    _SECTION_POINTS even points at once and keeps the two steps around the
    largest, until the bracket is below _REFINE_TOL.  best_f never falls.
    The points are np.linspace(lo, hi, _SECTION_POINTS)'s, bit for bit."""
    while hi - lo > _REFINE_TOL:
        xs = _SECTION_STEPS * ((hi - lo) / (_SECTION_POINTS - 1)) + lo
        xs[-1] = hi
        values = fun(xs)
        i = int(np.argmax(values))
        if values[i] > best_f:
            best_x, best_f = float(xs[i]), float(values[i])
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, _SECTION_POINTS - 1)])
    return best_x, best_f


def _grid_max(rho: XDensityMatrix) -> tuple[float, MeasurementAngles]:
    """The largest objective on the angle grid and where it lies; ties
    resolve to the smallest theta, then the smallest phi."""
    objective = _measurement_objective(rho.c3, rho.alpha, rho.gamma, _THETAS[:, None], _PHIS)
    flat_index = int(np.argmax(objective))  # row-major: smallest theta, then phi
    i_theta, i_phi = np.unravel_index(flat_index, objective.shape)
    return float(objective[i_theta, i_phi]), MeasurementAngles(
        float(_THETAS[i_theta]), float(_PHIS[i_phi])
    )


def classical_bruteforce(rho: XDensityMatrix) -> tuple[float, MeasurementAngles]:
    """Classical correlation by direct search over measurement angles.

    Maximizes 1 - sum_k (1/2) S(rho_A|k(theta, phi)) on the 91 x 184 theta x
    phi grid of _grid_max.  The conditional spectra are the closed form of a
    generic Hermitian 2x2 matrix.  The grid argmax is then sharpened by
    multisection over one grid step either side, first in theta, then in
    phi, to _REFINE_TOL; the value never drops below the grid maximum.
    """
    c3, alpha, gamma = rho.c3, rho.alpha, rho.gamma
    best_value, at = _grid_max(rho)
    best_theta, best_value = _multisection_max(
        lambda u: _measurement_objective(c3, alpha, gamma, u, at.phi),
        max(0.0, at.theta - _THETA_STEP), min(0.5 * math.pi, at.theta + _THETA_STEP),
        at.theta, best_value,
    )
    best_phi, best_value = _multisection_max(
        lambda u: _measurement_objective(c3, alpha, gamma, best_theta, u),
        at.phi - _PHI_STEP, at.phi + _PHI_STEP, at.phi, best_value,
    )
    # twice: a tiny negative azimuth first rounds up to 2*pi itself
    best_phi = best_phi % (2.0 * math.pi) % (2.0 * math.pi)
    return best_value, MeasurementAngles(best_theta, best_phi)


def discord(
    rho: XDensityMatrix,
    method: ClassicalMethod = ClassicalMethod.CLOSED,
) -> CorrelationBreakdown:
    """Mutual information minus classical correlation, clamped at zero.

    A deficit beyond DISCORD_CLAMP_TOL is treated as an internal inconsistency
    rather than clamped away.  For a column of states the fields are arrays.
    """
    info = mutual_information(rho)
    classical, _ = classical_closed(rho)
    if method is ClassicalMethod.BRUTEFORCE:
        if np.ndim(rho.t):
            classical = np.array([
                classical_bruteforce(XDensityMatrix(rho.c3, a, g, t))[0]
                for a, g, t in zip(rho.alpha.tolist(), rho.gamma.tolist(), rho.t.tolist())
            ])
        else:
            classical, _ = classical_bruteforce(rho)
    value = info - classical
    _reject(value < -DISCORD_CLAMP_TOL, ConsistencyError, rho.t,
            lambda i: f"discord = {_at(value, i)!r} below -{DISCORD_CLAMP_TOL}; paths disagree")
    return CorrelationBreakdown(info, classical, _plain(np.where(value > 0.0, value, 0.0)))


def discord_plateau(c3: float) -> float:
    """Constant discord f(|c3|) held while the optimum stays on the coherence
    branch; DomainError for |c3| > 1 beyond the slack of binary_entropy_like."""
    return binary_entropy_like(abs(c3))
