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
    _elementwise,
    _max,
    _min,
    _plain,
    _reject,
)
from .evolution import eigenvalues

_LN2 = math.log(2.0)
_DOMAIN_SLACK = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_MIN_THETA_POINTS = 91
_MIN_PHI_POINTS = 181
_QUARTER_TURNS = (0.5 * math.pi, math.pi, 1.5 * math.pi)
_REFINE_TOL = 1e-10


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

    Floats for one state, arrays (and a list of angles) for a column.
    """

    mutual_info: float | np.ndarray
    classical: float | np.ndarray
    discord: float | np.ndarray
    chi: float | np.ndarray
    optimal_angles: MeasurementAngles | list[MeasurementAngles] | None


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
    x = _min(_max(x, 0.0), 1.0)
    one = x == 1.0
    x = np.where(one, 0.0, x)  # log1p(-1) is a domain error; that value is 1
    low = (1.0 - x) * _elementwise(math.log1p, -x)
    high = (1.0 + x) * _elementwise(math.log1p, x)
    return _plain(np.where(one, 1.0, 0.5 * (low + high) / _LN2))


def mutual_information(rho: XDensityMatrix):
    """I = 2 + sum_i lambda_i log2 lambda_i over the X-state spectrum."""
    total = 2.0
    for lam in eigenvalues(rho):
        positive = lam > 0.0
        total = total + np.where(positive, lam, 0.0) * _elementwise(
            math.log2, np.where(positive, lam, 1.0)
        )
    return _plain(total)


def _conditional_states(rho: XDensityMatrix, theta, phi) -> np.ndarray:
    """Post-measurement states of qubit A for both outcomes k of a measurement on B.

    theta and phi broadcast against each other; the result has shape
    (2, *broadcast shape, 2, 2).  Both outcomes occur with probability 1/2
    for this family, and outcome k gives

        [[(1 - c3*cos(2*theta))/2,        (-1)^k * eps * sin(2*theta)/4],
         [(-1)^k * conj(eps) * sin(2*theta)/4, (1 + c3*cos(2*theta))/2]]

    with eps = alpha * exp(-i*phi) + gamma * exp(i*phi).
    """
    eps = rho.alpha * np.exp(-1j * phi) + rho.gamma * np.exp(1j * phi)
    cos2t = np.cos(2.0 * theta)
    sin2t = np.sin(2.0 * theta)
    shape = np.broadcast_shapes(np.shape(eps), np.shape(sin2t))
    states = np.empty((2, *shape, 2, 2), dtype=complex)
    for k, sign in ((0, 1.0), (1, -1.0)):
        off = 0.25 * sign * eps * sin2t
        states[k, ..., 0, 0] = 0.5 * (1.0 - rho.c3 * cos2t)
        states[k, ..., 1, 1] = 0.5 * (1.0 + rho.c3 * cos2t)
        states[k, ..., 0, 1] = off
        states[k, ..., 1, 0] = off.conjugate()
    return states


def classical_closed(rho: XDensityMatrix):
    """Closed-form classical correlation and the branch variable chi."""
    chi = _plain(_max(abs(rho.c3), 0.5 * (abs(rho.alpha) + abs(rho.gamma))))
    return binary_entropy_like(chi), chi


def _entropies_bits(matrices: np.ndarray) -> np.ndarray:
    lams = np.linalg.eigvalsh(matrices)
    lams = np.clip(lams, 0.0, 1.0)
    safe = np.where(lams > 0.0, lams, 1.0)
    return -np.sum(lams * np.log2(safe), axis=-1)


def _measured_information(rho: XDensityMatrix, theta: float, phi: float) -> float:
    return 1.0 - 0.5 * float(
        np.sum(_entropies_bits(_conditional_states(rho, theta, phi % (2.0 * math.pi))))
    )


def _golden_max(fun, lo: float, hi: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    best_x, best_f = (c, fc) if fc >= fd else (d, fd)
    while b - a > _REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def classical_bruteforce(
    rho: XDensityMatrix,
    n_theta: int = _MIN_THETA_POINTS,
    n_phi: int = _MIN_PHI_POINTS,
    refine: bool = True,
) -> tuple[float, MeasurementAngles]:
    """Classical correlation by direct search over measurement angles.

    Maximizes 1 - sum_k (1/2) S(rho_A|k(theta, phi)) on a theta x phi grid
    (n_phi even steps plus the quarter turns pi/2, pi, 3pi/2), then sharpens the grid argmax with one golden-section
    pass per angle.  Ties resolve to the smallest theta, then smallest phi.
    """
    if n_theta < _MIN_THETA_POINTS or n_phi < _MIN_PHI_POINTS:
        raise DomainError(
            f"grid must be at least {_MIN_THETA_POINTS} x {_MIN_PHI_POINTS},"
            f" got {n_theta} x {n_phi}"
        )
    thetas = np.linspace(0.0, 0.5 * math.pi, n_theta)
    # The optimum of an X state lies at phi = 0 or pi/2 (mod pi), which n_phi
    # steps miss unless 4 divides n_phi: the quarter turns join the grid.
    phis = np.union1d(np.linspace(0.0, 2.0 * math.pi, n_phi, endpoint=False), _QUARTER_TURNS)
    states = _conditional_states(rho, thetas[:, None], phis)
    objective = 1.0 - 0.5 * np.sum(_entropies_bits(states), axis=0)
    flat_index = int(np.argmax(objective))  # row-major: smallest theta, then phi
    i_theta, i_phi = np.unravel_index(flat_index, objective.shape)
    best_value = float(objective[i_theta, i_phi])
    best_theta = float(thetas[i_theta])
    best_phi = float(phis[i_phi])
    if refine:
        step_theta = 0.5 * math.pi / (n_theta - 1)
        step_phi = 2.0 * math.pi / n_phi
        theta_ref, value_theta = _golden_max(
            lambda u: _measured_information(rho, u, best_phi),
            max(0.0, best_theta - step_theta),
            min(0.5 * math.pi, best_theta + step_theta),
        )
        if value_theta > best_value:
            best_value, best_theta = value_theta, theta_ref
        phi_ref, value_phi = _golden_max(
            lambda u: _measured_information(rho, best_theta, u),
            best_phi - step_phi,
            best_phi + step_phi,
        )
        if value_phi > best_value:
            best_value, best_phi = value_phi, phi_ref % (2.0 * math.pi)
    return best_value, MeasurementAngles(best_theta, best_phi)


def discord(
    rho: XDensityMatrix,
    method: ClassicalMethod = ClassicalMethod.CLOSED,
) -> CorrelationBreakdown:
    """Mutual information minus classical correlation, clamped at zero.

    A deficit beyond DISCORD_CLAMP_TOL is treated as an internal inconsistency
    rather than clamped away.  For a column of states the fields are arrays,
    and optimal_angles is a list with one entry per state.
    """
    info = mutual_information(rho)
    classical, chi = classical_closed(rho)
    angles = None
    if method is ClassicalMethod.BRUTEFORCE:
        if np.ndim(rho.t):
            found = [
                classical_bruteforce(XDensityMatrix(rho.c3, a, g, t))
                for a, g, t in zip(rho.alpha.tolist(), rho.gamma.tolist(), rho.t.tolist())
            ]
            classical = np.array([value for value, _ in found])
            angles = [best for _, best in found]
        else:
            classical, angles = classical_bruteforce(rho)
    value = info - classical
    _reject(value < -DISCORD_CLAMP_TOL, ConsistencyError, rho.t,
            lambda i: f"discord = {_at(value, i)!r} below -{DISCORD_CLAMP_TOL}; paths disagree")
    return CorrelationBreakdown(
        info, classical, _plain(np.where(value > 0.0, value, 0.0)), chi, angles
    )


def discord_plateau(c3: float) -> float:
    """Constant discord held while the optimum stays on the coherence branch."""
    c3 = float(c3)
    if abs(c3) > 1.0 + _DOMAIN_SLACK:
        raise DomainError(f"|c3| must be <= 1, got {c3!r}")
    return binary_entropy_like(min(abs(c3), 1.0))


def discord_decay(d_product: float) -> float:
    """Discord after the transition, a function of D_A*D_B alone.

    A product of 0 (both coherences fully dephased) gives f(0) = 0.
    """
    d_product = float(d_product)
    if not 0.0 <= d_product <= 1.0 + _DOMAIN_SLACK:
        raise DomainError(f"d_product must lie in [0, 1], got {d_product!r}")
    return binary_entropy_like(min(d_product, 1.0))
