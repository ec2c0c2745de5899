#!/usr/bin/env python3
"""Charge dispersion and doublet splitting versus asymmetry, for all four
disorder kinds.  Points whose dispersion falls below the numerical floor,
or whose truncation defect is too large, are flagged unresolved rather
than extrapolated.
"""

import argparse
import csv
import sys
from pathlib import Path

from cos2phi import CircuitParams
from cos2phi.analysis import disorder_sweep
from cos2phi.cache import SolutionCache


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/disorder_sweep.csv")
    ap.add_argument("--kinds", nargs="+", default=["J", "C", "A", "L"])
    ap.add_argument("--deltas", type=float, nargs="+",
                    default=[0.0, 0.15, 0.3, 0.45, 0.6])
    args = ap.parse_args(argv)

    params = CircuitParams(15.0, 2.0, 1.0, 0.02)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    solver = SolutionCache(out.parent / ".solutions")
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "delta", "eps", "defect", "dE", "unresolved"])
        for kind in args.kinds:
            res = disorder_sweep(params, kind, args.deltas, solver=solver)
            w.writerows((kind, *row) for row in zip(
                res.deltas, res.eps, res.defect, res.dE, res.unresolved))
            print(f"kind {kind}: eps = "
                  + ", ".join(f"{e:.3e}" for e in res.eps))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
