#!/usr/bin/env python3
"""Transition-energy spectrum versus external flux (normalized to the
plasmon quantum), suitable for plotting the flux dispersion of the fluxon
and plasmon branches.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from cos2phi import CircuitParams
from cos2phi.analysis import flux_sweep
from cos2phi.cache import SolutionCache
from cos2phi.model import BasisTruncation


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/flux_spectrum.csv")
    ap.add_argument("--points", type=int, default=41)
    ap.add_argument("--span", type=float, default=0.8,
                    help="half-width of the flux window around pi, in rad")
    ap.add_argument("--k", type=int, default=8)
    ap.add_argument("--trunc", type=int, nargs=3, default=[6, 6, 24])
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    params = CircuitParams(15.0, 2.0, 1.0, 0.02)
    grid = np.linspace(np.pi - args.span, np.pi + args.span, args.points)
    sols = flux_sweep(params, grid, k=args.k, trunc=BasisTruncation(*args.trunc),
                      solver=SolutionCache(out.parent / ".solutions"))

    plasmon = np.sqrt(16 * params.x * params.eps_L * params.eps_C)
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phi_ext"]
                   + [f"T{i}_over_plasmon" for i in range(1, args.k)]
                   + [f"label{i}" for i in range(args.k)])
        for p, ls in zip(grid, sols):
            trans = (ls.energies[1:] - ls.energies[0]) / plasmon
            labels = [f"{l.m}{l.fluxon}" for l in ls.labels]
            w.writerow([p, *trans, *labels])
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
