#!/usr/bin/env python3
"""Convergence study for the closed-form pipeline oracle.

Solves the Laplace target with saddle boundary data on a refinement ladder,
lifts each solution through the contact map, resamples onto a fixed (x, y)
window, and tabulates the error against the closed form sqrt(y - x^2/4).
Artifacts land in --out.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from ma_lin import (PipelineConfig, geometry_from_domain, parse, pipeline,
                    write_grid, write_lifted)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/pipeline_study")
    ap.add_argument("--grids", default="17,33,65", help="source resolutions")
    args = ap.parse_args()
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    target = geometry_from_domain(-2.5, -1.5, 1.9, 2.7, 81, 81)
    rows = []
    for n in (int(s) for s in args.grids.split(",")):
        cfg = PipelineConfig(geom=geometry_from_domain(0.5, 1.5, 0.5, 1.5, n, n),
                             boundary=parse("X^2-Y^2"), target=target)
        res = pipeline("plane-strain-class", cfg)
        tg = res.resampled
        xs, ys = np.meshgrid(tg.grid.xs(), tg.grid.ys())
        err = float(np.max(np.abs(tg.grid.values - np.sqrt(ys - xs ** 2 / 4))[tg.mask]))
        rows.append((n, err, res.verification.max_abs_residual,
                     res.solve_report.iterations))
        write_grid(tg.grid, outdir / f"resampled_{n}.csv")
        write_lifted(res.surface, outdir / f"lifted_{n}.csv")

    print(f"{'n':>5} {'max |u - u*|':>14} {'order':>7} {'max residual':>14} {'cycles':>7}")
    prev = None
    for n, err, resid, cycles in rows:
        order = f"{math.log2(prev / err):7.3f}" if prev else "      -"
        print(f"{n:>5} {err:14.4e} {order} {resid:14.4e} {cycles:>7}")
        prev = err
    print(f"\nartifacts in {outdir}")


if __name__ == "__main__":
    main()
