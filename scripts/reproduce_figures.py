"""Regenerate the four preset datasets as CSV files.

Writes fig2.csv .. fig5.csv into --outdir (default: figures/) and prints the
crossing times behind each sweep so the qualitative story is visible without
plotting.
"""
from __future__ import annotations

import argparse
import math
from pathlib import Path

from dephasing_discord import (
    Reservoir,
    SystemConfig,
    XStateParams,
    critical_time_solve,
)
from dephasing_discord.cli import run_figure

FIGURES = ("fig2", "fig3", "fig4", "fig5")


def crossing_summary():
    lines = []
    for label, eta, beta, c3 in (
        ("fig3 eta=0.2", 0.2, 5.0, -0.4),
        ("fig3 eta=0.6", 0.6, 5.0, -0.4),
        ("fig3 eta=0.9", 0.9, 5.0, -0.4),
        ("fig4 |c3|=0.2", 0.2, 5.0, -0.2),
        ("fig4 |c3|=0.4", 0.2, 5.0, -0.4),
        ("fig4 |c3|=0.8", 0.2, 5.0, -0.8),
    ):
        config = SystemConfig(
            bath_a=Reservoir(eta, 1.0, beta),
            bath_b=Reservoir(eta, 1.0, beta),
            state=XStateParams(1.0, -c3, c3),
        )
        lines.append((label, critical_time_solve(config).t_p))
    for kappa in (0.2, 1.0, 5.0):
        config = SystemConfig(
            bath_a=Reservoir(0.12, 1.0, 5.0),
            bath_b=Reservoir(0.12, 1.0, kappa * 5.0),
            state=XStateParams(1.0, 0.4, -0.4),
        )
        lines.append((f"fig5 kappa={kappa:g}", critical_time_solve(config).t_p))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures", help="output directory")
    parser.add_argument(
        "--only", choices=FIGURES, default=None, help="write a single dataset"
    )
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    names = (args.only,) if args.only else FIGURES
    for name in names:
        text = run_figure(name)
        path = outdir / f"{name}.csv"
        with open(path, "w", newline="\n") as handle:
            handle.write(text)
        print(f"  {name}  {text.count(chr(10)) - 1:6d} rows  -> {path}")

    print("\ncrossing times (omega_c t units):")
    for label, t_p in crossing_summary():
        print(f"  {label:16s} t_p = {t_p:.6f}")


if __name__ == "__main__":
    main()
