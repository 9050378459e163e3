"""Command-line behavior: schemas, precedence, exit codes, determinism."""
import hashlib
import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dephasing_discord
from dephasing_discord import bath, cli, dfe, evolution
from dephasing_discord.core import ConsistencyError, DomainError, _reject
from dephasing_discord.cli import (
    _FIGURES,
    RunSpec,
    _build_runspec,
    _make_parser,
    _parse_config_file,
    main,
    run_critical_time,
    run_figure,
    run_sweep,
)

from conftest import sweep_csv_per_case

HEADER = "t,d_a,d_b,mutual_info,classical,discord,regime"


def parse_args(argv):
    return _make_parser().parse_args(argv)


def spec_for(argv):
    return _build_runspec(parse_args(argv))


def run_python(*argv):
    """A fresh interpreter that imports the package under test."""
    src = str(Path(dephasing_discord.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=300)


def rows(csv_text):
    lines = csv_text.strip().split("\n")
    return lines[0], [line.split(",") for line in lines[1:]]


def test_curve_schema_and_grid(capsys):
    assert main(["curve", "--points", "7", "--t-max", "3"]) == 0
    header, data = rows(capsys.readouterr().out)
    assert header == HEADER
    assert len(data) == 7
    assert data[0][0] == "0" and data[-1][0] == "3"
    for row in data:
        assert len(row) == 7
        assert row[6] in ("DFE", "DECAY")
        float(row[3]), float(row[4]), float(row[5])


def test_values_carry_full_double_precision(capsys):
    main(["curve", "--points", "2", "--t-max", "1"])
    header, data = rows(capsys.readouterr().out)
    assert data[0][3] == "1.1187091007693073"
    assert data[0][5] == "0.1187091007693073"


def test_output_file_has_lf_endings(tmp_path):
    out = tmp_path / "curve.csv"
    assert main(["curve", "--points", "3", "--t-max", "1", "--out", str(out)]) == 0
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode().split("\n")[0] == HEADER


def test_runs_are_deterministic():
    spec = spec_for(["curve", "--points", "50", "--t-max", "20"])
    assert run_sweep(spec) == run_sweep(spec)
    assert run_figure("fig3") == run_figure("fig3")


def test_defaults_match_documented_values():
    spec = spec_for(["curve"])
    assert spec.config.bath_a.eta == 0.6
    assert spec.config.bath_b.beta == 5.0
    state = spec.config.state
    assert (state.c1, state.c2, state.c3) == (1.0, 0.4, -0.4)
    assert spec.t.tolist() == np.linspace(0.0, 30.0, 300).tolist()
    assert spec.method.value == "closed"


def test_config_file_overrides_defaults_and_flags_override_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta_a = 0.3  # inline comment\n\nbeta_a = 2\n")
    spec = spec_for(["curve", "--config", str(cfg)])
    assert spec.config.bath_a.eta == 0.3
    assert spec.config.bath_a.beta == 2.0
    spec = spec_for(["curve", "--config", str(cfg), "--eta-a", "0.9"])
    assert spec.config.bath_a.eta == 0.9
    assert spec.config.bath_a.beta == 2.0


def test_kappa_flag_equals_explicit_beta_b():
    via_kappa = spec_for(["curve", "--beta-a", "5", "--kappa", "2"])
    via_beta = spec_for(["curve", "--beta-a", "5", "--beta-b", "10"])
    assert via_kappa.config.bath_b.beta == via_beta.config.bath_b.beta == 10.0


def test_kappa_and_beta_b_are_one_logical_setting(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kappa = 3\nbeta_a = 4\n")
    # flag beta_b supersedes the file's kappa
    spec = spec_for(["curve", "--config", str(cfg), "--beta-b", "7"])
    assert spec.config.bath_b.beta == 7.0
    # file kappa applies when no flag interferes
    spec = spec_for(["curve", "--config", str(cfg)])
    assert spec.config.bath_b.beta == 12.0
    cfg.write_text("beta_b = 7\n")
    spec = spec_for(["curve", "--config", str(cfg), "--kappa", "2"])
    assert spec.config.bath_b.beta == 10.0  # kappa * default beta_a = 2 * 5


def test_conflicting_temperature_settings_exit_2(tmp_path, capsys):
    assert main(["curve", "--beta-b", "3", "--kappa", "2"]) == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta_b = 3\nkappa = 2\n")
    assert main(["curve", "--config", str(cfg)]) == 2
    cfg.write_text("nonsense = 3\n")
    assert main(["curve", "--config", str(cfg)]) == 2
    cfg.write_text("eta_a = 1\neta_a = 2\n")
    assert main(["curve", "--config", str(cfg)]) == 2
    cfg.write_text("eta_a\n")
    assert main(["curve", "--config", str(cfg)]) == 2
    assert main(["curve", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


def test_invalid_physics_exits_2(capsys):
    assert main(["curve", "--t-max", "-1"]) == 2
    assert main(["curve", "--points", "1"]) == 2
    assert main(["curve", "--c1", "1", "--c2", "1", "--c3", "1"]) == 2
    assert main(["curve", "--eta-a", "-0.5"]) == 2
    # an initial eigenvalue of -7.5e-13: outside the physical-state rule,
    # which every command applies before computing
    for state in (["--c1", "1", "--c2=-3e-12", "--c3", "0"],
                  ["--c1", "0.5", "--c2", "0.5", "--c3", "3e-12"]):
        for command in ("curve", "surface", "critical-time"):
            assert main([command, *state]) == 2
    capsys.readouterr()


def test_argparse_rejects_unknown_choices():
    with pytest.raises(SystemExit) as exc:
        main(["curve", "--method", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["figure", "fig9"])
    assert exc.value.code == 2


def test_critical_time_subcommand(capsys):
    argv = ["critical-time", "--eta-a", "0.2", "--eta-b", "0.2",
            "--beta-a", "inf", "--beta-b", "inf"]
    assert main(argv) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "t_p,method,t_lo,t_hi,residual"
    fields = out[1].split(",")
    assert float(fields[0]) == pytest.approx(9.831391051117842, rel=1e-9)
    assert fields[1] == "bisection"


def test_critical_time_without_crossing_emits_empty_row(capsys):
    assert main(["critical-time", "--c1", "0.5", "--c2", "0.5", "--c3", "0"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[1] == ",none,,,"


def test_critical_time_takes_physics_flags_only(tmp_path, capsys):
    for flags in (["--points", "5"], ["--t-max", "3"], ["--method", "quadrature"]):
        with pytest.raises(SystemExit) as exc:
            main(["critical-time", *flags])
        assert exc.value.code == 2
    # config-file keys stay accepted for every command
    cfg = tmp_path / "run.cfg"
    cfg.write_text("points = 5\nt_max = 3\nmethod = quadrature\n")
    assert main(["critical-time", "--config", str(cfg)]) == 0
    capsys.readouterr()


def test_crossing_beyond_bracket_cap_exits_3(capsys):
    argv = ["critical-time", "--eta-a", "0.05", "--eta-b", "0.05",
            "--beta-a", "inf", "--beta-b", "inf",
            "--c1", "1", "--c2", "0.05", "--c3", "-0.05"]
    assert main(argv) == 3
    capsys.readouterr()


def test_underflowing_decoherence_factors_are_valid_rows(capsys):
    # hot, strongly coupled baths: Gamma passes ~745 and D = exp(-Gamma)
    # underflows to 0, the fully dephased limit
    argv = ["curve", "--beta-a", "0.01", "--beta-b", "0.01",
            "--eta-a", "1", "--eta-b", "1", "--t-max", "10"]
    assert main(argv) == 0
    header, data = rows(capsys.readouterr().out)
    dephased = [row for row in data if float(row[1]) == 0.0 and float(row[2]) == 0.0]
    assert len(dephased) == 184
    for row in data:
        i, c, d = float(row[3]), float(row[4]), float(row[5])
        assert abs(i - (c + d)) <= 1e-10
    for row in dephased:
        assert float(row[5]) <= 1e-12 and row[6] == "DECAY"


@pytest.mark.parametrize("argv", [
    ["curve", "--t-max", "1e52", "--points", "2"],
    ["curve", "--t-max", "1e200", "--points", "2"],
    ["curve", "--t-max", "1e200", "--points", "2", "--beta-a", "1e300"],
])
def test_extreme_times_emit_fully_dephased_rows(argv, capsys):
    # an OverflowError in the series' tail bound (exit 1) and x^2 = inf
    # (nan, exit 2) before; bath B (beta = 5) has Gamma ~ 2*eta*t/beta, so D_B = 0
    assert main(argv) == 0
    header, data = rows(capsys.readouterr().out)
    last = data[-1]
    assert float(last[0]) == float(argv[2])
    assert float(last[2]) == 0.0 and last[6] == "DECAY"
    assert float(last[5]) <= 1e-12


def test_a_failure_after_validation_exits_3(monkeypatch, capsys):
    # what the 1e200 curve used to hit: a nan factor from a valid configuration
    monkeypatch.setattr(
        bath, "_thermal_series", lambda x, b: (np.full(x.shape, math.nan), np.zeros(x.shape))
    )
    assert main(["curve", "--points", "3"]) == 3
    assert "numerical failure: d_a must be finite" in capsys.readouterr().err
    # an infinite grid end is still bad input
    assert main(["curve", "--t-max", "inf"]) == 2


def test_quadrature_past_its_panel_limit_exits_3(capsys):
    assert main(["curve", "--method", "quadrature", "--t-max", "1e6", "--points", "2"]) == 3
    err = capsys.readouterr().err
    assert "panels exceed the limit of 1048576" in err and "t = 1000000.0" in err


def test_quadrature_limit_is_relative_to_gamma(monkeypatch, capsys):
    # a hot bath at t = 1000: Gamma ~ 3e6 is right to ~1e-15 relative while
    # its certified error, ~2e-9, is past the limit read as absolute
    evals = []

    def recording(*args):
        evals.append(bath.gamma_quadrature(*args))
        return evals[-1]

    monkeypatch.setattr(evolution, "gamma_quadrature", recording)
    argv = ["curve", "--method", "quadrature", "--beta-a", "0.001", "--beta-b", "0.001",
            "--eta-a", "1", "--eta-b", "1", "--t-max", "1000", "--points", "2"]
    assert main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1].split(",")
    assert last[:3] == ["1000", "0", "0"]
    assert 1e-9 < evals[-1].est_error <= 1e-9 * evals[-1].gamma


def test_surface_sweep_prepends_parameter_column(capsys):
    argv = ["surface", "--sweep-param", "eta", "--sweep-start", "0.2",
            "--sweep-stop", "0.4", "--sweep-count", "2",
            "--points", "3", "--t-max", "2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "eta," + HEADER
    assert len(lines) == 1 + 2 * 3
    assert {float(line.split(",")[0]) for line in lines[1:]} == {0.2, 0.4}


def test_surface_rejects_bad_sweep(capsys):
    assert main(["surface", "--sweep-count", "1"]) == 2
    assert main(["surface", "--sweep-start", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("param,expected", [
    ("beta", lambda v: (0.6, v, 0.6, v)),
    ("beta_a", lambda v: (0.6, v, 0.6, 10.0)),
    ("beta_b", lambda v: (0.6, 4.0, 0.6, v)),
    ("eta", lambda v: (v, 4.0, v, 10.0)),
    ("eta_a", lambda v: (v, 4.0, 0.6, 10.0)),
    ("eta_b", lambda v: (0.6, 4.0, v, 10.0)),
    ("kappa", lambda v: (0.6, 4.0, 0.6, v * 4.0)),
])
def test_sweep_cases_set_the_swept_parameter(param, expected):
    # beta_b comes from --kappa: sweeping beta_a leaves it at 2.5 * 4
    spec = spec_for(["surface", "--beta-a", "4", "--kappa", "2.5", "--sweep-param", param,
                     "--sweep-start", "0.5", "--sweep-stop", "2", "--sweep-count", "4"])
    name, cases = spec.sweep
    assert name == param
    assert [v for v, _ in cases] == [0.5, 1.0, 1.5, 2.0]
    for v, config in cases:
        baths = (config.bath_a.eta, config.bath_a.beta, config.bath_b.eta, config.bath_b.beta)
        assert baths == expected(v)
        assert config.state == spec.config.state


def test_splittings_are_validated_but_move_no_column(tmp_path, capsys):
    for flags, message in (
        (["--omega-A", "-1"], "omega_a must be >= 0, got -1.0"),
        (["--omega-B", "nan"], "omega_b must be finite, got nan"),
        (["--omega-A", "inf"], "omega_a must be finite, got inf"),
    ):
        for command in ("curve", "surface", "critical-time"):
            assert main([command, *flags]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega_B = -0.5\n")
    assert main(["curve", "--config", str(cfg)]) == 2
    assert "omega_b must be >= 0" in capsys.readouterr().err
    cfg.write_text("omega_A = 2\nomega_B = 0.5\n")
    assert main(["curve", "--config", str(cfg), "--points", "5"]) == 0
    rotated = capsys.readouterr().out
    assert main(["curve", "--points", "5"]) == 0
    assert rotated == capsys.readouterr().out


def test_figure_presets_row_counts():
    for name, expected in (("fig2", 1 + 50 * 300), ("fig3", 1 + 3 * 300),
                           ("fig4", 1 + 3 * 300), ("fig5", 1 + 3 * 50 * 300)):
        text = run_figure(name)
        assert text.count("\n") == expected
    header = run_figure("fig4").split("\n", 1)[0]
    assert header == "c3," + HEADER
    assert run_figure("fig5").split("\n", 1)[0] == "kappa,beta_a," + HEADER


def test_quadrature_method_agrees_with_closed_on_the_grid():
    closed = run_sweep(spec_for(["curve", "--points", "4", "--t-max", "3"]))
    quad = run_sweep(spec_for(
        ["curve", "--points", "4", "--t-max", "3", "--method", "quadrature"]))
    for row_c, row_q in zip(closed.split("\n")[1:], quad.split("\n")[1:]):
        if not row_c:
            continue
        for a, b in zip(row_c.split(",")[:6], row_q.split(",")[:6]):
            assert float(a) == pytest.approx(float(b), abs=1e-9)


def test_each_command_computes_each_reservoir_curve_once(monkeypatch, capsys):
    # Gamma/eta depends on (omega_c, beta) alone: one thermal series for each
    series = []
    thermal_series = bath._thermal_series

    def counted(x, b):
        series.append(b)
        return thermal_series(x, b)

    monkeypatch.setattr(bath, "_thermal_series", counted)
    run_figure("fig2")  # 50 temperatures, equal baths
    assert len(series) == len(set(series)) == 50
    series.clear()
    run_figure("fig5")  # beta_a shared by the three kappas, beta_b = kappa * beta_a
    temperatures = {o[k] for _, o in _FIGURES["fig5"][1] for k in ("beta_a", "beta_b")}
    assert len(series) == len(set(series)) == len(temperatures) == 150
    series.clear()
    assert main(["figure", "fig3"]) == 0  # three couplings at one temperature
    assert len(series) == 1
    assert main(["figure", "fig3"]) == 0  # no cache outlives a command
    assert len(series) == 2
    series.clear()
    # ten couplings, equal baths; ten temperatures shared by unequal couplings
    assert main(["surface", "--sweep-param", "eta", "--sweep-start", "0.1",
                 "--sweep-stop", "0.9", "--sweep-count", "10", "--points", "20"]) == 0
    assert len(series) == 1
    series.clear()
    assert main(["surface", "--eta-a", "0.3", "--eta-b", "0.5", "--sweep-count", "10",
                 "--points", "20"]) == 0
    assert len(series) == 10
    capsys.readouterr()


_SWEEP_RANGES = {
    "beta": (0.5, 20.0), "beta_a": (0.5, 20.0), "beta_b": (0.5, 20.0), "kappa": (0.1, 5.0),
    "eta": (0.05, 1.0), "eta_a": (0.05, 1.0), "eta_b": (0.05, 1.0),
}


def outcome(run, *args):
    """The text a run returns, or the type and message of what it raises."""
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def surface_argvs(draw):
    """Small surfaces over every sweep parameter and method, with and without
    --kappa, with equal and unequal couplings; or the curve of their first
    case, which formats its columns in place."""
    param = draw(st.sampled_from(sorted(_SWEEP_RANGES)))
    method = draw(st.sampled_from(["closed", "bruteforce", "quadrature"]))
    lo, hi = _SWEEP_RANGES[param]
    start, stop = draw(st.floats(lo, hi)), draw(st.floats(lo, hi))
    eta_a = draw(st.floats(0.05, 1.0))
    eta_b = eta_a if draw(st.booleans()) else draw(st.floats(0.05, 1.0))
    m = draw(st.floats(0.0, 1.0))
    sweep = ["--sweep-param", param, f"--sweep-start={start!r}", f"--sweep-stop={stop!r}",
             "--sweep-count", str(draw(st.integers(2, 5)))]
    run = ["--points", str(draw(st.integers(2, 6))), f"--t-max={draw(st.floats(0.5, 40.0))!r}",
           "--method", method, f"--eta-a={eta_a!r}", f"--eta-b={eta_b!r}",
           f"--c2={m!r}", f"--c3={-m!r}", f"--beta-a={draw(st.floats(0.5, 20.0))!r}"]
    if draw(st.booleans()):
        run.append(f"--kappa={draw(st.floats(0.1, 5.0))!r}")
    return ["curve", *run] if draw(st.integers(0, 3)) == 0 else ["surface", *sweep, *run]


@given(surface_argvs(), st.sampled_from([2, 7, 2**14]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_surfaces_match_the_case_by_case_loop_byte_for_byte(argv, pass_rows):
    spec = spec_for(argv)
    param, cases = spec.sweep or ((), [((), spec.config)])
    columns = (param,) if param else ()
    expected = outcome(
        sweep_csv_per_case, columns, [((v,), c) for v, c in cases] if param else cases,
        spec.t, spec.method,
    )
    # a small pass cap splits the cases across several column passes
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_PASS_ROWS", pass_rows)
        assert outcome(run_sweep, spec) == expected


def test_figures_match_the_case_by_case_loop_byte_for_byte():
    # fig4 changes the initial state from case to case
    for figure in ("fig3", "fig4"):
        columns, cases = _FIGURES[figure]
        configs = [(p, cli._build_config({**cli._DEFAULTS, **o})) for p, o in cases]
        t = np.linspace(0.0, 30.0, 300)
        expected = sweep_csv_per_case(columns, configs, t, cli.RunMethod.CLOSED)
        got = run_figure(figure)
        # the first differing line, not a diff of two 100 kB texts
        mismatch = got != expected and next(
            (i, g, e) for i, (g, e) in enumerate(zip(got.split("\n"), expected.split("\n")))
            if g != e
        )
        assert not mismatch, (figure, mismatch)


def _failing_case_quadrature(monkeypatch):
    """A quadrature eta surface whose certified error first exceeds the
    limit at case 2: with Gamma below 1 the limit is absolute, and the error
    grows with the coupling."""
    argv = ["surface", "--method", "quadrature", "--sweep-param", "eta", "--sweep-start",
            "0.01", "--sweep-stop", "0.05", "--sweep-count", "5", "--points", "4",
            "--t-max", "30"]
    spec = spec_for(argv)
    worst = [max(q.est_error / max(1.0, q.gamma)
                 for q in (bath.gamma_quadrature(c.bath_a, s) for s in spec.t.tolist()))
             for _, c in spec.sweep[1]]
    assert worst[0] < worst[1] < worst[2]
    monkeypatch.setattr(bath, "QUAD_ERROR_LIMIT", 0.5 * (worst[1] + worst[2]))
    return argv


def _failing_columns(monkeypatch):
    """A beta_b surface whose case 1 fails a later check than case 3: a pass
    over all cases meets case 3's failure first, the case-by-case loop
    case 1's."""
    argv = ["surface", "--sweep-param", "beta_b", "--sweep-count", "5", "--points", "9"]
    spec = spec_for(argv)
    d_b = [bath.gamma_closed(c.bath_b, spec.t).d for _, c in spec.sweep[1]]
    early, late = d_b[3][4], d_b[1][6]
    check_samples = dfe._check_samples

    def spoiled(t, d_a, d_b, *rest):
        _reject(d_b == early, DomainError, t, lambda i: "spoiled before the checks")
        check_samples(t, d_a, d_b, *rest)
        _reject(d_b == late, ConsistencyError, t, lambda i: "spoiled after the checks")

    monkeypatch.setattr(dfe, "_check_samples", spoiled)
    return argv


@pytest.mark.parametrize("spoil", [_failing_case_quadrature, _failing_columns],
                         ids=["quadrature-limit", "column-checks"])
def test_a_failing_case_exits_as_the_case_by_case_loop_does(monkeypatch, capsys, spoil):
    argv = spoil(monkeypatch)
    assert main(argv) == 3
    got = capsys.readouterr()
    monkeypatch.setattr(cli, "_sweep_csv", sweep_csv_per_case)
    assert main(argv) == 3
    expected = capsys.readouterr()
    assert got.out == expected.out == ""
    assert got.err == expected.err and got.err.startswith("numerical failure: ")


def test_verify_report_passes_and_flags_injected_error(capsys):
    assert main(["verify"]) == 0
    report = capsys.readouterr().out
    assert "overall: pass" in report
    assert report.count("pass") == 5
    assert main(["verify", "--debug-prefactor-8"]) == 1
    report = capsys.readouterr().out
    assert "overall: FAIL" in report
    assert "ratio" in report


# sha256 of each command's output: any change to these bytes is a change to
# the program's results and has to be made on purpose.
GOLDEN = {
    ("figure", "fig3"):
        "1b0bd7f778513d11d5959ac8cbe27236c8d7dd98327288164666230a51c722ea",
    ("figure", "fig4"):
        "a08359666036bfcbaaf9a9ab9d1ae34494462659f5ee8151f4355324daa15a38",
    ("curve",):
        "2a4db97a806419a7b06ebad72a408bb08e5da77d0aecc9b37abb91b5ecd086fa",
    # the free splittings move no column
    ("curve", "--omega-A", "3", "--omega-B", "1.7"):
        "2a4db97a806419a7b06ebad72a408bb08e5da77d0aecc9b37abb91b5ecd086fa",
    ("critical-time",):
        "e961b72f654d596bc1237f79796e6756afe124192fd3ee24256c5197e213cb13",
    # the crossing bisection stops at a width relative to t_hi, so its worst
    # deviation from the zero-temperature formula reads 3.235e-13
    ("verify",):
        "15fe7705416a3f3194ad895dd49427085d3ddf32bc574761718ec5d916d1e048",
    ("curve", "--method", "bruteforce", "--points", "6", "--t-max", "20"):
        "713b9a6473eb812520b4b7a29e93ff46cf7633f5a7ec1aec0676404a25fb00bd",
    ("curve", "--method", "quadrature", "--points", "20", "--t-max", "20"):
        "09635670b4b200caf5f6a902fba31255c30321b59f6a5c693fa9a329d21f7775",
    ("figure", "fig2"):
        "787c861c3fd0e98f51beaa4629cf981f82e1ab036674171944574fd0586bba2f",
    ("figure", "fig5"):
        "17fbba77c0bb6b6f1393d947988f2b9b60237b70dcb8182da17d9a009add0fa3",
    # 10 x 300 surfaces with parameters drawn from a seed and rounded: equal
    # baths, one bath swept while the other stays fixed, and a kappa sweep
    ("surface", "--c2", "0.3", "--c3", "-0.3", "--eta-a", "0.35", "--eta-b", "0.35",
     "--sweep-param", "beta", "--sweep-start", "2.5", "--sweep-stop", "12.5",
     "--sweep-count", "10", "--points", "300"):
        "fd2d2e1e71a08cccb8fee472fab99002fd5553725c82cb5ee3fe77892f664f29",
    ("surface", "--c2", "0.55", "--c3", "-0.55", "--eta-a", "0.6", "--eta-b", "0.25",
     "--beta-a", "3", "--beta-b", "8", "--sweep-param", "eta_b", "--sweep-start", "0.1",
     "--sweep-stop", "0.55", "--sweep-count", "10", "--points", "300"):
        "ccc83e5872d86e3ec8159fb6a0eb1e25a66167329d25c6900392c9534ba3c272",
    ("surface", "--c2", "0.45", "--c3", "-0.45", "--eta-a", "0.4", "--eta-b", "0.7",
     "--beta-a", "7.5", "--sweep-param", "kappa", "--sweep-start", "0.2",
     "--sweep-stop", "5", "--sweep-count", "10", "--points", "300"):
        "0c3f5731f1a65974905ab7d92cc874ed04e720379efeb0f9605064350215a449",
    # an eta surface with equal baths: ten reservoirs, one thermal series
    ("surface", "--c2", "0.35", "--c3", "-0.35", "--beta-a", "4", "--beta-b", "4",
     "--sweep-param", "eta", "--sweep-start", "0.1", "--sweep-stop", "0.9",
     "--sweep-count", "10", "--points", "300"):
        "ed07e237b1f159f9bef52deb157885f15be0b385061559f9c812acaa77b86ffc",
    # a beta surface with unequal couplings: baths A and B share each series
    ("surface", "--c2", "0.5", "--c3", "-0.5", "--eta-a", "0.3", "--eta-b", "0.5",
     "--sweep-param", "beta", "--sweep-start", "1.5", "--sweep-stop", "9",
     "--sweep-count", "10", "--points", "300"):
        "74ba183c9c22b04d6e0d6adab2b79d92e1317515ebc433afdd948d96ba83647f",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_output_bytes_match_golden_digest(argv, capsys):
    assert main(list(argv)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN[argv]


def test_one_parser_serves_every_command_of_a_process(capsys):
    assert _make_parser() is _make_parser()
    order = list(GOLDEN) * 2
    random.Random(20121105).shuffle(order)
    for i, argv in enumerate(order):
        # exit-2 calls in between leave the shared parser as it was
        with pytest.raises(SystemExit) as exc:
            main(["critical-time", "--t-max", "5"] if i % 2 else ["figure", "fig9"])
        assert exc.value.code == 2
        assert main(["curve", "--beta-b", "2", "--kappa", "3"]) == 2
        capsys.readouterr()
        assert main(list(argv)) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN[argv], argv


def test_no_command_imports_scipy():
    # a fresh interpreter: this one has scipy loaded by the test oracles
    script = textwrap.dedent("""
        import contextlib, hashlib, io, sys
        from dephasing_discord.cli import main

        def run(*argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(list(argv)) == 0, argv
            return out.getvalue()

        run("curve")
        run("surface", "--sweep-count", "3", "--points", "20")
        run("critical-time")
        run("figure", "fig3")
        run("curve", "--method", "bruteforce", "--points", "3")
        run("curve", "--method", "quadrature", "--points", "3")
        digest = hashlib.sha256(run("verify").encode()).hexdigest()
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if "scipy" in m)
        print(digest)
    """)
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == GOLDEN[("verify",)]


def test_reproduce_figures_script_writes_the_preset_bytes(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    done = run_python(str(script), "--only", "fig3", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(" t_p = ") == 9
    digest = hashlib.sha256((tmp_path / "fig3.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[("figure", "fig3")]
