#!/usr/bin/env python3
"""Manufactured-solution convergence table for the elliptic solver.

Each row picks an exact solution U* and coefficient f, manufactures the source
U*_XX + f U*_YY symbolically, solves with boundary data from U*, and reports
the max-norm error against U* on a refinement ladder, with the start the
solve took (`fourier` when f is constant along X, else `nested`), the
multigrid V-cycles run after it, the final max-norm residual, its rounding
floor and the solve's wall time in seconds (`SolveReport.elapsed`).
"""

import argparse
import math

import numpy as np

from ma_lin import (geometry_from_domain, mms_source, parse, problem_from_exprs,
                    sample, solve_dirichlet)

CASES = [
    ("sin(X)*cosh(Y)", "1+X^2"),
    ("X^4+Y^4-X*Y^3", "2"),
    ("exp(0.5*X)*cos(Y)+Y^4", "(1+Y^2)^2"),
    ("X^2*Y^2", "(1+Y^2)^2"),  # stencil-exact: errors sit at the rounding floor
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grids", default="17,33,65")
    args = ap.parse_args()
    grids = [int(s) for s in args.grids.split(",")]

    for ustar, fcoeff in CASES:
        print(f"\nU* = {ustar},  f = {fcoeff}")
        print(f"{'n':>5} {'max error':>12} {'order':>7} {'start':>7} {'cycles':>6} {'residual':>10} "
              f"{'floor':>10} {'seconds':>8}")
        prev = None
        for n in grids:
            geom = geometry_from_domain(0, 1, 0, 1, n, n)
            src = mms_source(parse(ustar), parse(fcoeff))
            prob = problem_from_exprs(geom, parse(fcoeff), src, parse(ustar))
            U, rep = solve_dirichlet(prob)
            err = float(np.max(np.abs(U.values - sample(parse(ustar), ("X", "Y"), geom).values)))
            order = f"{math.log2(prev / err):7.3f}" if prev else "      -"
            print(f"{n:>5} {err:12.4e} {order} {rep.start:>7} {rep.iterations:>6} "
                  f"{rep.residual:10.3e} {rep.residual_floor:10.3e} {rep.elapsed:8.3f}")
            prev = err


if __name__ == "__main__":
    main()
