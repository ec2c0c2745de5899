#!/usr/bin/env python3
"""Reproduce the coherence table: per-channel T1/Tphi at four inductive
asymmetries, plus combined T2.

Writes coherence_table.csv with one row per (delta_L, channel).  Expect a
few minutes per asymmetry value; the charge-dispersion rows escalate the
basis automatically as the dispersion shrinks.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from cos2phi import BiasPoint, CircuitParams, full_report
from cos2phi.cache import SolutionCache
from cos2phi.model import BasisTruncation


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/coherence_table.csv")
    ap.add_argument("--deltas", type=float, nargs="+",
                    default=[0.0, 0.3, 0.6, 0.9])
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    solver = SolutionCache(out.parent / ".solutions")
    trunc = BasisTruncation()
    bias = BiasPoint(np.pi, 0.0)

    rows = []
    for dL in args.deltas:
        params = CircuitParams(15.0, 2.0, 1.0, 0.02, delta_L=dL)
        rep = full_report(params, bias, trunc, solver=solver)
        for ch, t in sorted(rep.t1.items()):
            rows.append([dL, "T1", ch, t])
        for ch, t in sorted(rep.tphi.items()):
            rows.append([dL, "Tphi", ch, t])
        rows.append([dL, "T2", "total", rep.t2])
        print(f"delta_L={dL}: T1_total={rep.t1_total:.3g} ms, "
              f"Tphi_total={rep.tphi_total:.3g} ms, T2={rep.t2:.3g} ms")

    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta_L", "type", "channel", "time_ms"])
        w.writerows(rows)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
