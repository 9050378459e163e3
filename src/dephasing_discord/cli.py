"""Command-line interface: trajectory curves, parameter surfaces, crossing
times, preset figure datasets, and a cross-path verification report.

Output is CSV with 17-significant-digit values and LF line endings, written
to stdout unless --out is given.  Exit codes: 0 success, 1 verification
breach, 2 invalid configuration, 3 numerical failure: any error raised after
the configuration has been validated.
"""
from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import chain, groupby, repeat
from pathlib import Path

import numpy as np

from .bath import GammaMethod, gamma_closed, gamma_quadrature
from .core import (
    ConsistencyError,
    DomainError,
    NonPhysicalState,
    NoRootInRange,
    QuadratureFailure,
    Regime,
    Reservoir,
    SystemConfig,
    XStateParams,
)
from .correlations import (
    ClassicalMethod,
    classical_bruteforce,
    classical_closed,
    discord_plateau,
)
from .dfe import (
    _time_grid,
    _trajectory_columns,
    critical_time_closed,
    critical_time_solve,
    scan_trajectory,
)
from .evolution import _decohering_factor, evolve

_CSV_HEADER = ("t", "d_a", "d_b", "mutual_info", "classical", "discord", "regime")
# The mutual_info, classical, discord and regime fields of a data row.
_ROW = "%.17g," * 3 + "%s"
# A column pass over the cases of one state stays below this many rows.
_PASS_ROWS = 2**14
_REGIME_LABEL = {True: Regime.DFE.value, False: Regime.DECAY.value}
_VERIFY_SEED = 20120705
_SWEEP_PARAMS = ("beta", "beta_a", "beta_b", "eta", "eta_a", "eta_b", "kappa")

_DEFAULTS: dict[str, float | int | str] = {
    "eta_a": 0.6,
    "eta_b": 0.6,
    "omega_c_a": 1.0,
    "omega_c_b": 1.0,
    "beta_a": 5.0,
    "beta_b": 5.0,
    "c1": 1.0,
    "c2": 0.4,
    "c3": -0.4,
    "omega_A": 0.0,
    "omega_B": 0.0,
    "t_max": 30.0,
    "points": 300,
    "method": "closed",
}
_FLOAT_KEYS = (*(k for k, v in _DEFAULTS.items() if isinstance(v, float)), "kappa")


class RunMethod(Enum):
    CLOSED = "closed"
    BRUTEFORCE = "bruteforce"
    QUADRATURE = "quadrature"


_METHODS = {
    RunMethod.CLOSED: (ClassicalMethod.CLOSED, GammaMethod.CLOSED_FORM),
    RunMethod.BRUTEFORCE: (ClassicalMethod.BRUTEFORCE, GammaMethod.CLOSED_FORM),
    RunMethod.QUADRATURE: (ClassicalMethod.CLOSED, GammaMethod.QUADRATURE),
}


def _baths(eta: float, beta_a: float, beta_b: float) -> dict[str, float]:
    return {"eta_a": eta, "eta_b": eta, "beta_a": beta_a, "beta_b": beta_b}


# Preset datasets: prefix columns, and one (column values, overrides of
# _DEFAULTS) pair per curve; see run_figure.
_FIGURE_BETAS = [float(b) for b in np.linspace(1.0, 10.0, 50)]
_FIGURES = {
    "fig2": (("beta",), [((b,), _baths(0.2, b, b)) for b in _FIGURE_BETAS]),
    "fig3": (("eta",), [((e,), _baths(e, 5.0, 5.0)) for e in (0.2, 0.6, 0.9)]),
    "fig4": (("c3",), [
        ((-m,), {**_baths(0.2, 5.0, 5.0), "c2": m, "c3": -m}) for m in (0.2, 0.4, 0.8)
    ]),
    "fig5": (("kappa", "beta_a"), [
        ((k, b), _baths(0.12, b, k * b)) for k in (0.2, 1.0, 5.0) for b in _FIGURE_BETAS
    ]),
}


@dataclass(frozen=True)
class RunSpec:
    """A fully resolved run: physics configuration plus time grid and method."""

    config: SystemConfig
    t: np.ndarray
    method: RunMethod
    # surface: the swept parameter and one (value, config) case per value
    sweep: tuple[str, list[tuple[float, SystemConfig]]] | None = None


def _parse_config_file(path: str) -> dict[str, float | int | str]:
    """Flat key=value settings; '#' starts a comment, blank lines ignored."""
    text = Path(path).read_text()
    values: dict[str, float | int | str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _DEFAULTS and key != "kappa":
            raise DomainError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise DomainError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    if "beta_b" in values and "kappa" in values:
        raise DomainError(f"{path}: beta_b and kappa are mutually exclusive")
    out: dict[str, float | int | str] = {}
    for key, value in values.items():
        if key == "points":
            out[key] = int(value)
        elif key == "method":
            if value not in (m.value for m in RunMethod):
                raise DomainError(f"{path}: unknown method {value!r}")
            out[key] = value
        elif key in _FLOAT_KEYS:
            out[key] = float(value)
    return out


def _resolve_settings(args: argparse.Namespace) -> dict[str, float | int | str]:
    """Apply precedence flags > config file > defaults.

    beta_b and kappa form one logical setting (the bath-B temperature), so an
    explicit flag for either supersedes both file keys.
    """
    settings: dict[str, float | int | str] = dict(_DEFAULTS)
    settings["kappa"] = None
    if getattr(args, "config", None):
        file_values = _parse_config_file(args.config)
        if "kappa" in file_values:
            settings["beta_b"] = None
        settings.update(file_values)
    flag_values = {
        key: getattr(args, key)
        for key in (*_FLOAT_KEYS, "points", "method")
        if getattr(args, key, None) is not None
    }
    if "beta_b" in flag_values and "kappa" in flag_values:
        raise DomainError("--beta-b and --kappa are mutually exclusive")
    if "kappa" in flag_values:
        settings["beta_b"] = None
    elif "beta_b" in flag_values:
        settings["kappa"] = None
    settings.update(flag_values)
    if settings.get("kappa") is not None:
        settings["beta_b"] = float(settings["kappa"]) * float(settings["beta_a"])
    return settings


def _build_config(settings: dict) -> SystemConfig:
    # The splittings rotate coherence phases only and enter no computation,
    # but a command line that sets them to nonsense is still refused.
    for key in ("omega_A", "omega_B"):
        name, value = key.lower(), float(settings[key])
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
        if value < 0.0:
            raise DomainError(f"{name} must be >= 0, got {value!r}")
    return SystemConfig(
        bath_a=Reservoir(
            float(settings["eta_a"]), float(settings["omega_c_a"]), float(settings["beta_a"])
        ),
        bath_b=Reservoir(
            float(settings["eta_b"]), float(settings["omega_c_b"]), float(settings["beta_b"])
        ),
        state=XStateParams(
            float(settings["c1"]), float(settings["c2"]), float(settings["c3"])
        ),
    )


def _sweep_settings(settings: dict, param: str, value: float) -> dict:
    """settings with the swept parameter at value: "beta" and "eta" set both
    baths, "kappa" sets beta_b = value * beta_a."""
    if param == "kappa":
        return {**settings, "beta_b": value * float(settings["beta_a"])}
    keys = (param + "_a", param + "_b") if param in ("beta", "eta") else (param,)
    return {**settings, **dict.fromkeys(keys, value)}


def _build_runspec(args: argparse.Namespace) -> RunSpec:
    settings = _resolve_settings(args)
    values = None
    if args.command == "surface":
        count = int(args.sweep_count)
        if count < 2:
            raise DomainError(f"--sweep-count must be >= 2, got {count}")
        start, stop = float(args.sweep_start), float(args.sweep_stop)
        if not (math.isfinite(start) and math.isfinite(stop)) or start <= 0 or stop <= 0:
            raise DomainError("sweep range must be positive and finite")
        values = np.linspace(start, stop, count).tolist()
    t = _time_grid(settings["t_max"], settings["points"])
    config = _build_config(settings)
    sweep = None
    if values is not None:
        param = args.sweep_param
        sweep = (param, [(v, _build_config(_sweep_settings(settings, param, v))) for v in values])
    return RunSpec(config, t, RunMethod(settings["method"]), sweep)


def _lines(values: np.ndarray) -> str:
    """A column as text, one %.17g value per line."""
    return "\n".join(repeat("%.17g", values.size)) % tuple(values.tolist())


def _sweep_csv(columns: tuple[str, ...], cases, t: np.ndarray, method: RunMethod) -> str:
    """One CSV row per time of the grid t for each (column values, config)
    case in cases.  Work the cases share is done once: one thermal series per
    (omega_c, beta), since gamma_closed multiplies by eta last; one D(t) per
    reservoir; with several cases, the text of t and of each D; one column
    pass per run of cases with one initial state, below _PASS_ROWS rows
    unless one case is longer.
    """
    classical_method, gamma_method = _METHODS[method]
    cases = list(cases)
    shared = len(cases) > 1  # text pays only when cases share t and D: a lone case formats in place
    per_eta: dict[tuple[float, float], np.ndarray] = {}
    curves: dict[Reservoir, tuple[np.ndarray, str | None]] = {}

    def curve(reservoir: Reservoir) -> tuple[np.ndarray, str | None]:
        if reservoir not in curves:
            if gamma_method is GammaMethod.QUADRATURE:
                d = _decohering_factor(reservoir, t, gamma_method)
            else:
                key = (reservoir.omega_c, reservoir.beta)
                if key not in per_eta:
                    per_eta[key] = gamma_closed(Reservoir(1.0, *key), t).gamma
                d = np.exp(-(per_eta[key] * reservoir.eta))
            # one string, split per case: a list of strings per curve raises a figure's peak memory
            curves[reservoir] = d, _lines(d) if shared else None
        return curves[reservoir]

    def fields(values: np.ndarray, text: str | None) -> list:
        return text.split("\n") if shared else values.tolist()

    n, t_text = t.size, _lines(t) if shared else None
    lead = ("%s," if shared else "%.17g,") * 3  # t, d_a and d_b
    # One string per case: a figure's rows never all live as separate objects.
    blocks = [",".join((*columns, *_CSV_HEADER))]
    per_pass = max(1, (_PASS_ROWS - 1) // n)
    for _, group in groupby(cases, lambda case: case[1].state):
        group = list(group)
        for start in range(0, len(group), per_pass):
            batch = group[start : start + per_pass]
            try:
                d = [(curve(c.bath_a)[0], curve(c.bath_b)[0]) for _, c in batch]
                info, classical, disc, dfe = _trajectory_columns(
                    batch[0][1], np.tile(t, len(batch)), np.concatenate([a for a, _ in d]),
                    np.concatenate([b for _, b in d]), classical_method,
                )[3:]
            except Exception:
                # Case by case, in order, raises what a loop over the cases would.
                for _, c in batch:
                    d_a, d_b = curve(c.bath_a)[0], curve(c.bath_b)[0]
                    _trajectory_columns(c, t, d_a, d_b, classical_method)
                raise
            for j, (prefix, config) in enumerate(batch):
                rows = slice(j * n, (j + 1) * n)
                row_fields = zip(
                    fields(t, t_text), fields(*curve(config.bath_a)), fields(*curve(config.bath_b)),
                    info[rows].tolist(), classical[rows].tolist(), disc[rows].tolist(),
                    map(_REGIME_LABEL.get, dfe[rows].tolist()),
                )
                row = "%.17g," * len(prefix) % prefix + lead + _ROW
                blocks.append("\n".join(repeat(row, n)) % tuple(chain.from_iterable(row_fields)))
    blocks.append("")  # the final newline, without a second copy of the text
    return "\n".join(blocks)


def run_sweep(spec: RunSpec) -> str:
    """A curve, or with spec.sweep set a surface led by the swept value."""
    if spec.sweep is None:
        return _sweep_csv((), [((), spec.config)], spec.t, spec.method)
    param, cases = spec.sweep
    return _sweep_csv((param,), (((v,), config) for v, config in cases), spec.t, spec.method)


def run_critical_time(spec: RunSpec) -> str:
    header = "t_p,method,t_lo,t_hi,residual"
    result = critical_time_solve(spec.config)
    if result is None:
        return header + "\n,none,,,\n"
    row = "%.17g,bisection,%.17g,%.17g,%.17g" % (result.t_p, *result.bracket, result.residual)
    return header + "\n" + row + "\n"


def run_figure(figure: str) -> str:
    """Preset dataset grids.

    fig2: discord surface over (beta, t) at eta = 0.2, equal reservoirs.
    fig3: three curves at eta in {0.2, 0.6, 0.9}, beta = 5.
    fig4: three curves at |c3| in {0.2, 0.4, 0.8} (c1 = 1, c2 = -c3),
          eta = 0.2, beta = 5.
    fig5: three surfaces over (beta_a, t) at kappa in {0.2, 1, 5} with
          beta_b = kappa*beta_a, eta = 0.12.
    All grids use the default t grid, [0, 30] with 300 points, and the
    closed-form methods; beta grids span [1, 10] with 50 points.
    """
    if figure not in _FIGURES:
        raise DomainError(f"unknown figure {figure!r}")
    columns, cases = _FIGURES[figure]
    return _sweep_csv(
        columns,
        ((prefix, _build_config({**_DEFAULTS, **overrides})) for prefix, overrides in cases),
        _time_grid(_DEFAULTS["t_max"], _DEFAULTS["points"]),
        RunMethod(_DEFAULTS["method"]),
    )


def _drawn_bath(rng: np.random.Generator, cold_share: float) -> Reservoir:
    """eta on [0.05, 1], omega_c = 1, beta = inf with probability cold_share, else on [1, 50]."""
    eta = float(rng.uniform(0.05, 1.0))
    cold = rng.uniform() < cold_share
    return Reservoir(eta, 1.0, math.inf if cold else float(rng.uniform(1.0, 50.0)))


def _verify_checks(debug_prefactor_8: bool):
    rng = np.random.default_rng(_VERIFY_SEED)
    checks = []

    # Dephasing exponent: quadrature route against the summed closed form.
    prefactor = 8.0 if debug_prefactor_8 else 2.0
    worst = 0.0
    ratio_lo, ratio_hi = math.inf, -math.inf
    for _ in range(50):
        reservoir = _drawn_bath(rng, 0.25)
        t = float(rng.uniform(0.0, 20.0))
        quad = gamma_quadrature(reservoir, t, prefactor=prefactor).gamma
        closed = gamma_closed(reservoir, t).gamma
        worst = max(worst, abs(quad - closed) / max(closed, 1e-3))
        if closed > 1e-6:
            ratio_lo = min(ratio_lo, quad / closed)
            ratio_hi = max(ratio_hi, quad / closed)
    checks.append(("gamma quadrature vs closed form", 50, worst, 1e-6))
    ratio_note = (
        f"gamma ratio quadrature/closed in [{ratio_lo:.6g}, {ratio_hi:.6g}]"
        if math.isfinite(ratio_lo)
        else None
    )

    # Classical correlation: angle search against the branch formula.
    worst = 0.0
    for _ in range(100):
        c3 = float(rng.uniform(-1.0, 1.0))
        a0 = float(rng.uniform(-(1.0 + c3), 1.0 + c3))
        g0 = float(rng.uniform(-(1.0 - c3), 1.0 - c3))
        rng.uniform(0.0, 10.0, size=2)  # the splittings, which move no correlation
        state = XStateParams((a0 + g0) / 2.0, (g0 - a0) / 2.0, c3)
        config = SystemConfig(_drawn_bath(rng, 0.3), _drawn_bath(rng, 0.3), state)
        rho = evolve(config, float(rng.uniform(0.0, 10.0)))
        closed, _ = classical_closed(rho)
        brute, _ = classical_bruteforce(rho)
        worst = max(worst, abs(brute - closed))
    checks.append(("classical bruteforce vs closed form", 100, worst, 1e-6))

    # Crossing time: bisection against the zero-temperature formula.
    worst = 0.0
    combos = [(eta, m) for eta in (0.1, 0.2, 0.5) for m in (0.2, 0.4, 0.8)]
    for eta, m in combos:
        cold = Reservoir(eta, 1.0, math.inf)
        solved = critical_time_solve(SystemConfig(cold, cold, XStateParams(1.0, m, -m)))
        exact = critical_time_closed(eta, -m, 1.0)
        worst = max(worst, abs(solved.t_p - exact) / exact)
    checks.append(("critical time bisection vs closed form", len(combos), worst, 1e-9))

    # Frozen window: trajectory discord against the constant value.
    config = _build_config(dict(_DEFAULTS))
    t_p = critical_time_solve(config).t_p
    plateau = discord_plateau(config.state.c3)
    worst = 0.0
    for point in scan_trajectory(config, 0.999 * t_p, 256):
        worst = max(worst, abs(point.discord - plateau))
    checks.append(("frozen discord vs plateau value", 256, worst, 1e-12))
    return checks, ratio_note


def run_verify(debug_prefactor_8: bool = False) -> tuple[str, int]:
    checks, ratio_note = _verify_checks(debug_prefactor_8)
    name_width = max(len(name) for name, *_ in checks)
    lines = [
        f"{'check':<{name_width}}  {'draws':>5}  {'max deviation':>13}  {'tolerance':>9}  status"
    ]
    failed = False
    for name, draws, worst, tol in checks:
        ok = worst <= tol
        failed = failed or not ok
        lines.append(
            f"{name:<{name_width}}  {draws:>5}  {worst:>13.3e}  {tol:>9.0e}  "
            + ("pass" if ok else "FAIL")
        )
    if ratio_note is not None and failed:
        lines.append(ratio_note)
    lines.append("overall: " + ("FAIL" if failed else "pass"))
    return "\n".join(lines) + "\n", (1 if failed else 0)


def _add_physics_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--eta-a", dest="eta_a", type=float, help="coupling of reservoir A")
    add("--eta-b", dest="eta_b", type=float, help="coupling of reservoir B")
    add("--omega-c-a", dest="omega_c_a", type=float, help="cutoff of reservoir A")
    add("--omega-c-b", dest="omega_c_b", type=float, help="cutoff of reservoir B")
    add("--beta-a", dest="beta_a", type=float, help="inverse temperature of reservoir A (inf for T=0)")
    add("--beta-b", dest="beta_b", type=float, help="inverse temperature of reservoir B (excludes --kappa)")
    add("--kappa", dest="kappa", type=float, help="temperature ratio T_A/T_B, i.e. beta_b = kappa*beta_a")
    add("--c1", dest="c1", type=float, help="initial-state coefficient c1")
    add("--c2", dest="c2", type=float, help="initial-state coefficient c2")
    add("--c3", dest="c3", type=float, help="initial-state coefficient c3")
    add("--omega-A", dest="omega_A", type=float, help="splitting of qubit A (moves no column)")
    add("--omega-B", dest="omega_B", type=float, help="splitting of qubit B (moves no column)")
    add("--config", dest="config", help="key=value settings file")
    add("--out", dest="out", help="output path (default: stdout)")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--t-max", dest="t_max", type=float, help="end of the time grid")
    add("--points", dest="points", type=int, help="number of grid points")
    add(
        "--method",
        dest="method",
        choices=[m.value for m in RunMethod],
        help="closed: analytic everywhere; bruteforce: classical correlation by "
        "angle search; quadrature: dephasing exponent by integration",
    )


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves it
    unchanged, and building it costs far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="dephasing-discord",
        description="Exact dephasing dynamics and quantum discord for two qubits "
        "in independent Ohmic reservoirs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="correlation dynamics on a time grid")
    _add_physics_flags(curve)
    _add_grid_flags(curve)

    surface = sub.add_parser("surface", help="curves swept over one bath parameter")
    _add_physics_flags(surface)
    _add_grid_flags(surface)
    surface.add_argument("--sweep-param", choices=_SWEEP_PARAMS, default="beta")
    surface.add_argument("--sweep-start", type=float, default=1.0)
    surface.add_argument("--sweep-stop", type=float, default=10.0)
    surface.add_argument("--sweep-count", type=int, default=50)

    critical = sub.add_parser("critical-time", help="solve D_A*D_B = |c3|")
    _add_physics_flags(critical)

    figure = sub.add_parser("figure", help="emit a preset dataset grid")
    figure.add_argument("figure", choices=tuple(_FIGURES))
    figure.add_argument("--out", dest="out", help="output path (default: stdout)")

    verify = sub.add_parser("verify", help="cross-path consistency report")
    verify.add_argument("--out", dest="out", help="output path (default: stdout)")
    verify.add_argument(
        "--debug-prefactor-8",
        action="store_true",
        help="negative control: inject the conventional x4-off prefactor into "
        "the quadrature route and watch the report fail",
    )
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        spec = None if args.command in ("figure", "verify") else _build_runspec(args)
    except (DomainError, NonPhysicalState, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = 0
    try:
        if args.command == "critical-time":
            text = run_critical_time(spec)
        elif spec is not None:
            text = run_sweep(spec)
        elif args.command == "figure":
            text = run_figure(args.figure)
        else:
            text, code = run_verify(args.debug_prefactor_8)
        _emit(text, args.out)
    except FileNotFoundError as exc:  # --out in a missing directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # The configuration is valid by now: what fails is the computation.
    except (DomainError, NonPhysicalState, QuadratureFailure, NoRootInRange,
            ConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
