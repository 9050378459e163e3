"""Seeded inputs for the three benchmark workloads.

Each workload is an endless sequence of *units*; a unit is a list of
operations, and an operation is one argv list for ``dephasing_discord.cli.main``
plus the physics it encodes, which the output checks need.  The program sees
only the argv lists.  A run ends on a multiple of ``PASS[workload]`` units, so
every run has the same mix of operations.

The cost-driving draws (beta, eta, grid size, state family) use Latin
hypercube blocks: every block of draws covers each variable's range
in equal strata, in a seeded random order.  The marginal distributions are
the ones stated below, but two seeds give nearly the same mix of cheap and
expensive operations, so the figures of different seeds stay comparable.

A drawn configuration whose decohering factor D = exp(-Gamma) underflows
before t_max is skipped, so that no operation of a workload fails: at this
point the program rejects D = 0 with exit 2 (a known defect).  Sessions also
skip the rare zero-temperature, weak-coupling configuration whose crossing
D_A*D_B = |c3| lies beyond the time up to which ``critical-time`` searches
(it exits 3 with that reason).
``underflow_probe`` gives the skipped configurations instead; the traced run
calls them apart from the workload and counts how many still exit 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

SESSION_BLOCK = 32
ORACLE_BLOCK = 16
ORACLE_T_MAX = 20.0
# A configuration is skipped when Gamma(t_max) of a bath exceeds this:
# exp(-700) ~ 1e-304 is near the end of the normal doubles (exp(-746) is 0).
GAMMA_UNDERFLOW = 700.0
# critical-time brackets its crossing up to t = 2**20 (omega_c = 1).
CROSSING_HORIZON = 2.0**20
# The skip tests get their own precision; the checks change mpmath.mp's.
_MP = mpmath.ctx_mp.MPContext()
_MP.dps = 20

# Preset datasets of ``figure NAME``, restated from the CLI documentation:
# t in [0, 30] with 300 points, beta grids over [1, 10] with 50 points,
# c = (1, 0.4, -0.4) unless a column varies it.
FIGURES = ("fig2", "fig3", "fig4", "fig5")
FIGURE_ROWS = {"fig2": 15000, "fig3": 900, "fig4": 900, "fig5": 45000}


@dataclass(frozen=True)
class Physics:
    """What one CSV row was computed from (omega_c = 1, no free splittings)."""

    c: tuple[float, float, float]
    eta: tuple[float, float]
    beta: tuple[float, float]

    @property
    def special(self) -> bool:
        """The family (1, m, -m), where the crossing and the branch switch coincide."""
        c1, c2, c3 = self.c
        return c1 == 1.0 and c2 == -c3


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output should hold.

    ``kind`` is curve, critical-time, surface or figure; ``method`` is the
    --method value; ``base`` is the Physics of a curve, or of a surface before
    its ``sweep`` column is applied.
    """

    kind: str
    argv: tuple[str, ...]
    method: str = "closed"
    base: Physics | None = None
    sweep: str | None = None
    figure: str | None = None
    expected_rows: int = 0


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(float(x))


def _lhs(rng: np.random.Generator, n: int, k: int) -> list[list[float]]:
    """n x k Latin hypercube sample on [0, 1)."""
    strata = np.stack([rng.permutation(n) for _ in range(k)], axis=1)
    return ((strata + rng.random((n, k))) / n).tolist()


def _beta_from_u(u: float) -> float:
    """inf with probability 1/4, else log-uniform on [0.01, 100]."""
    if u < 0.25:
        return math.inf
    return 10.0 ** (-2.0 + 4.0 * (u - 0.25) / 0.75)


def _state_from_u(rng: np.random.Generator, u_family: float, u_m: float):
    """Half the draws from the special family (1, m, -m), half uniform over the
    Bell-diagonal tetrahedron |c1 - c2| <= 1 + c3, |c1 + c2| <= 1 - c3."""
    if u_family < 0.5:
        m = u_m
        return (1.0, m, -m)
    while True:
        c1, c2, c3 = (float(v) for v in rng.uniform(-1.0, 1.0, 3))
        if abs(c1 - c2) <= 1.0 + c3 and abs(c1 + c2) <= 1.0 - c3:
            return (c1, c2, c3)


def gamma_exponent(mp, eta: float, beta: float, t: float):
    """Dephasing exponent Gamma of an Ohmic bath with omega_c = 1 at time t,
    from the log-gamma identity, in ``mp``'s working precision."""
    x = mp.mpf(t)
    total = mp.log1p(x * x) / 2
    if not math.isinf(beta):
        b = mp.mpf(beta)
        total += 2 * (mp.loggamma(1 + 1 / b) - mp.re(mp.loggamma(1 + (1 + 1j * x) / b)))
    return eta * total


def underflows(p: Physics, t_max: float) -> bool:
    """Whether D of either bath leaves the normal doubles by t_max (Gamma grows with t)."""
    return any(gamma_exponent(_MP, p.eta[i], p.beta[i], t_max) > GAMMA_UNDERFLOW for i in (0, 1))


def crossing_beyond_horizon(p: Physics) -> bool:
    """Whether D_A*D_B = |c3| has a root, but only after CROSSING_HORIZON.
    A root exists when c3 != 0 and the initial coherences exceed |c3|."""
    c1, c2, c3 = p.c
    if c3 == 0.0 or (abs(c1 - c2) + abs(c1 + c2)) / 2 <= abs(c3):
        return False
    gamma = sum(gamma_exponent(_MP, p.eta[i], p.beta[i], CROSSING_HORIZON) for i in (0, 1))
    return gamma <= -math.log(abs(c3)) + 1e-9


def _physics_args(p: Physics) -> list[str]:
    # --name=value: argparse takes a separate "-5e-05" for an option, not a value.
    values = (*p.c, *p.eta, *p.beta)
    names = ("c1", "c2", "c3", "eta-a", "eta-b", "beta-a", "beta-b")
    return [f"--{name}={_fmt(v)}" for name, v in zip(names, values)]


def _configurations(rng: np.random.Generator, block: int):
    """Endless stream of (Physics, u_size, u_tmax) from stratified blocks.

    eta per bath uniform on [0.05, 1]; beta per bath as in _beta_from_u; the
    state as in _state_from_u.
    """
    while True:
        for u in _lhs(rng, block, 8):
            physics = Physics(
                c=_state_from_u(rng, u[0], u[1]),
                eta=(0.05 + 0.95 * u[2], 0.05 + 0.95 * u[3]),
                beta=(_beta_from_u(u[4]), _beta_from_u(u[5])),
            )
            yield physics, u[6], u[7]


def _curve(p: Physics, points: int, t_max: float, method: str = "closed") -> Op:
    argv = ["curve", *_physics_args(p), "--points", str(points), "--t-max", _fmt(t_max)]
    if method != "closed":
        argv += ["--method", method]
    return Op("curve", tuple(argv), method=method, base=p, expected_rows=points)


def _session_configurations(seed: int):
    """(Physics, points, t_max) of the sessions stream: 40-120 points and
    t_max in [5, 40]."""
    rng = np.random.default_rng([seed, 2])
    for p, u_size, u_tmax in _configurations(rng, SESSION_BLOCK):
        yield p, 40 + min(int(u_size * 81), 80), 5.0 + 35.0 * u_tmax


def sessions(seed: int):
    """One configuration per unit: ``critical-time``, then a short ``curve``."""
    for p, points, t_max in _session_configurations(seed):
        if underflows(p, t_max) or crossing_beyond_horizon(p):
            continue
        critical = Op(
            "critical-time", ("critical-time", *_physics_args(p)), base=p, expected_rows=1
        )
        yield [critical, _curve(p, points, t_max)]


def underflow_probe(seed: int, n: int) -> list[Op]:
    """The first n session curves that ``sessions`` skips because D underflows."""
    probe = []
    for p, points, t_max in _session_configurations(seed):
        if underflows(p, t_max):
            probe.append(_curve(p, points, t_max))
            if len(probe) == n:
                return probe


def _oracle_configurations(rng: np.random.Generator):
    for p, _, _ in _configurations(rng, ORACLE_BLOCK):
        if not underflows(p, ORACLE_T_MAX):
            yield p


def oracles(seed: int):
    """Configurations from the sessions generator, alternating a 20-point
    ``--method quadrature`` curve and a 6-point ``--method bruteforce`` curve,
    each method with its own stratified stream.  t_max is fixed at 20:
    quadrature cost grows with t, and a seeded t_max would make the mix of
    cheap and expensive calls differ between seeds."""
    quadrature = _oracle_configurations(np.random.default_rng([seed, 3, 0]))
    bruteforce = _oracle_configurations(np.random.default_rng([seed, 3, 1]))
    for p_q, p_b in zip(quadrature, bruteforce):
        yield [
            _curve(p_q, 20, ORACLE_T_MAX, "quadrature"),
            _curve(p_b, 6, ORACLE_T_MAX, "bruteforce"),
        ]


# Surface shapes of one sweeps unit, each twice: (sweep parameter, equal
# baths?).  Equal baths share every Gamma evaluation between A and B; unequal
# ones do not.
_SURFACES = 2 * (
    ("beta", True),
    ("eta", True),
    ("beta_a", False),
    ("eta_b", False),
    ("kappa", False),
    ("beta", False),
)
SURFACE_COUNT = 10
SURFACE_POINTS = 300
SURFACE_T_MAX = 30.0


def _surface(param: str, equal: bool, u: list[float]) -> Op:
    """A surface in the paper's regime: beta >= 1, eta <= 1, 300 time points,
    special-family state (1, m, -m)."""
    m = 0.1 + 0.8 * u[0]
    eta_a = 0.05 + 0.95 * u[1]
    eta_b = eta_a if equal else 0.05 + 0.95 * u[2]
    beta_a = 10.0 ** (1.3 * u[3])  # log-uniform on [1, 20]
    beta_b = beta_a if equal else 10.0 ** (1.3 * u[4])
    if param == "kappa":
        beta_a = 5.0 + 5.0 * u[3]
        lo, hi = 0.2, 5.0
    elif param.startswith("beta"):
        start = 1.0 + 9.0 * u[5]
        lo, hi = start, start + 10.0
    else:
        start = 0.05 + 0.5 * u[5]
        lo, hi = start, start + 0.45
    base = Physics(c=(1.0, m, -m), eta=(eta_a, eta_b), beta=(beta_a, beta_b))
    argv = [
        "surface", *_physics_args(base),
        "--points", str(SURFACE_POINTS), "--t-max", _fmt(SURFACE_T_MAX),
        "--sweep-param", param, "--sweep-start", _fmt(lo), "--sweep-stop", _fmt(hi),
        "--sweep-count", str(SURFACE_COUNT),
    ]
    return Op(
        "surface", tuple(argv), base=base, sweep=param,
        expected_rows=SURFACE_COUNT * SURFACE_POINTS,
    )


def sweeps(seed: int):
    """One operation per unit; each pass is the four presets ``figure
    fig2..fig5``, then twelve seeded surfaces, two of each shape in _SURFACES."""
    rng = np.random.default_rng([seed, 1])
    figures = [Op("figure", ("figure", f), figure=f, expected_rows=FIGURE_ROWS[f]) for f in FIGURES]
    while True:
        u = _lhs(rng, len(_SURFACES), 6)
        yield from ([op] for op in figures)
        for i, (param, equal) in enumerate(_SURFACES):
            yield [_surface(param, equal, u[i])]


WORKLOADS = {"sweeps": sweeps, "sessions": sessions, "oracles": oracles}
PASS = {"sweeps": len(FIGURES) + len(_SURFACES), "sessions": 1, "oracles": 1}


def sweep_physics(base: Physics, param: str, value: float) -> Physics:
    """Physics of a surface row whose sweep column reads ``value``."""
    eta, beta = list(base.eta), list(base.beta)
    if param in ("beta", "beta_a"):
        beta[0] = value
    if param in ("beta", "beta_b"):
        beta[1] = value
    if param in ("eta", "eta_a"):
        eta[0] = value
    if param in ("eta", "eta_b"):
        eta[1] = value
    if param == "kappa":
        beta[1] = value * beta[0]
    return Physics(base.c, tuple(eta), tuple(beta))


def figure_physics(figure: str, columns: list[float]) -> Physics:
    """Physics of a preset row from its leading columns."""
    c = (1.0, 0.4, -0.4)
    if figure == "fig2":
        (beta,) = columns
        return Physics(c, (0.2, 0.2), (beta, beta))
    if figure == "fig3":
        (eta,) = columns
        return Physics(c, (eta, eta), (5.0, 5.0))
    if figure == "fig4":
        (c3,) = columns
        return Physics((1.0, -c3, c3), (0.2, 0.2), (5.0, 5.0))
    kappa, beta_a = columns
    return Physics(c, (0.12, 0.12), (beta_a, kappa * beta_a))
