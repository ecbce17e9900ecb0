"""Batch command-line interface.

Subcommands: classify, solve, lift, elasticity, khabirov.  Every run writes a
manifest naming the inputs, seed, tolerances and SHA-256 hashes of the emitted
artifacts; re-running a command with the same inputs reproduces bit-identical
CSV files.  Exit codes: 0 success, 1 usage or parse error, 2 mathematical
rejection (not in class, not elliptic, all nodes degenerate), 3 non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .elasticity import (ElasticityError, deformation_from_dict,
                         incompressibility_check, write_deformed_points)
from .equations import (KhabirovError, NotInClassError, catalog_get,
                        classification_report, equation_from_dict,
                        equation_to_dict, khabirov_push)
from .expressions import ExprError, parse, to_text, variables
from .grids import GridError, geometry_from_domain, write_grid, GridGeometry
from .lift import (EmptyLiftError, PipelineConfig, PipelineError, pipeline,
                   write_lifted)
from .linsolve import (NotConvergedError, NotEllipticError,
                       boundary_from_edge_exprs, problem_from_exprs,
                       solve_dirichlet)
from .transforms import TransformError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_NOT_CONVERGED = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# output plumbing

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class _Outputs:
    """Atomic, overwrite-guarded artifact writing with a closing manifest."""

    def __init__(self, outdir: str, force: bool, command: str,
                 inputs: dict, seed: int, tolerances: dict):
        self.dir = Path(outdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.force = force
        self.manifest = {"command": command, "inputs": inputs, "seed": seed,
                         "tolerances": tolerances, "artifacts": {}}

    def _target(self, name: str) -> Path:
        path = self.dir / name
        if path.exists() and not self.force:
            raise UsageError(f"refusing to overwrite {path} (use --force)")
        return path

    def _commit(self, name: str, tmp: Path) -> None:
        path = self.dir / name
        os.replace(tmp, path)
        self.manifest["artifacts"][name] = _sha256(path)

    def write_json(self, name: str, data: dict) -> None:
        path = self._target(name)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        self._commit(name, tmp)

    def write_with(self, name: str, writer) -> None:
        path = self._target(name)
        tmp = path.with_name(path.name + ".tmp")
        writer(tmp)
        self._commit(name, tmp)

    def finish(self) -> None:
        path = self._target("manifest.json")
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(self.manifest, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        os.replace(tmp, path)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed JSON in {path}: {err}") from None


def _input_hash(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _geometry_from_config(cfg: dict, nx: Optional[int], ny: Optional[int]) -> GridGeometry:
    if "domain" in cfg:
        X0, X1, Y0, Y1 = (float(v) for v in cfg["domain"])
        gnx = int(nx or cfg.get("nx", 33))
        gny = int(ny or cfg.get("ny", 33))
        return geometry_from_domain(X0, X1, Y0, Y1, gnx, gny)
    g = cfg["geometry"]
    return GridGeometry(int(nx or g["nx"]), int(ny or g["ny"]),
                        float(g["x0"]), float(g["y0"]),
                        float(g["dx"]), float(g["dy"]))


def _boundary_from_config(cfg, geom):
    b = cfg["boundary"]
    if isinstance(b, str):
        from .linsolve import boundary_from_expr
        return boundary_from_expr(parse(b), geom)
    return boundary_from_edge_exprs(parse(b["left"]), parse(b["right"]),
                                    parse(b["bottom"]), parse(b["top"]), geom)


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    if args.id:
        eq = catalog_get(args.id)
        inputs = {"catalog_id": args.id}
    elif args.infile:
        eq = equation_from_dict(_load_json(args.infile))
        inputs = {args.infile: _input_hash(args.infile)}
    else:
        raise UsageError("classify needs --in FILE or --id CATALOG-ID")
    report = classification_report(eq, seed=args.seed)
    report["equation"] = equation_to_dict(eq)
    out = _Outputs(args.out, args.force, "classify", inputs, args.seed, {})
    out.write_json("classification.json", report)
    out.finish()
    return EXIT_OK if report["in_class"] else EXIT_REJECTED


def cmd_solve(args) -> int:
    cfg = _load_json(args.infile)
    geom = _geometry_from_config(cfg, args.nx, args.ny)
    problem = problem_from_exprs(
        geom,
        parse(str(cfg["fcoeff"])),
        parse(str(cfg["source"])) if cfg.get("source") else None,
        _boundary_from_config(cfg, geom),
    )
    tol = args.tol if args.tol is not None else cfg.get("tol")
    max_iter = int(cfg.get("max_iter", 200_000))
    inputs = {args.infile: _input_hash(args.infile)}
    out = _Outputs(args.out, args.force, "solve", inputs, args.seed,
                   {"tol": tol, "max_iter": max_iter})
    try:
        grid, report = solve_dirichlet(problem, tol=tol, max_iter=max_iter)
    except NotConvergedError as err:
        rep = err.report.to_dict()
        rep["seed"] = args.seed
        out.write_json("solve_report.json", rep)
        out.write_with("solution.csv", lambda p: write_grid(err.grid, p))
        out.finish()
        print("solver did not converge", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except NotEllipticError:
        out.finish()
        raise
    rep = report.to_dict()
    rep["seed"] = args.seed
    out.write_json("solve_report.json", rep)
    out.write_with("solution.csv", lambda p: write_grid(grid, p))
    out.finish()
    return EXIT_OK


def cmd_lift(args) -> int:
    cfg = _load_json(args.infile)
    if "id" in cfg:
        f_or_id = str(cfg["id"])
    elif "f" in cfg:
        f_or_id = parse(str(cfg["f"]))
    else:
        raise UsageError("lift config needs 'id' (catalog) or 'f' (class function in u, s)")
    X0, X1, Y0, Y1 = (float(v) for v in cfg["domain"])
    nx = int(args.nx or cfg.get("nx", 33))
    ny = int(args.ny or cfg.get("ny", 33))
    geom = geometry_from_domain(X0, X1, Y0, Y1, nx, ny)
    target = None
    if "target" in cfg:
        t = cfg["target"]
        target = GridGeometry(int(t["nx"]), int(t["ny"]), float(t["x0"]),
                              float(t["y0"]), float(t["dx"]), float(t["dy"]))
    pc = PipelineConfig(
        lin_domain=(X0, X1, Y0, Y1),
        boundary=_boundary_from_config(cfg, geom),
        lin_nx=nx, lin_ny=ny,
        target=target,
        target_nx=int(cfg.get("target_nx", 33)),
        target_ny=int(cfg.get("target_ny", 33)),
        solve_tol=args.tol if args.tol is not None else cfg.get("tol"),
        seed=args.seed,
    )
    inputs = {args.infile: _input_hash(args.infile)}
    out = _Outputs(args.out, args.force, "lift", inputs, args.seed,
                   {"tol": pc.solve_tol})
    try:
        result = pipeline(f_or_id, pc)
    except PipelineError:
        out.finish()
        raise
    ver = result.verification.to_dict()
    ver["seed"] = args.seed
    ver["coefficient"] = to_text(result.coefficient)
    srep = result.solve_report.to_dict()
    srep["seed"] = args.seed
    out.write_with("lifted.csv", lambda p: write_lifted(result.surface, p))
    out.write_with("resampled.csv", lambda p: write_grid(result.resampled.grid, p))
    out.write_json("verification.json", ver)
    out.write_json("solve_report.json", srep)
    out.finish()
    return EXIT_OK


def cmd_elasticity(args) -> int:
    data = _load_json(args.infile)
    d = deformation_from_dict(data)
    domain = None
    if args.domain:
        parts = [float(v) for v in args.domain.split(",")]
        if len(parts) != 4:
            raise UsageError("--domain wants X0,X1,Y0,Y1")
        domain = tuple(parts)
    elif "domain" in data:
        domain = tuple(float(v) for v in data["domain"])
    n = args.n or int(data.get("n", 20))
    report = incompressibility_check(d, domain=domain, n=n)
    rep = report.to_dict()
    rep["seed"] = args.seed
    inputs = {args.infile: _input_hash(args.infile)}
    out = _Outputs(args.out, args.force, "elasticity", inputs, args.seed, {})
    out.write_json("incompressibility.json", rep)
    if domain is not None:
        out.write_with("deformed.csv",
                       lambda p: write_deformed_points(d, domain, n, p))
    out.finish()
    return EXIT_OK


def cmd_khabirov(args) -> int:
    if args.g:
        g = parse(args.g)
        inputs = {"g": args.g}
    elif args.infile:
        data = _load_json(args.infile)
        g = parse(str(data["g"]))
        inputs = {args.infile: _input_hash(args.infile)}
    else:
        raise UsageError("khabirov needs --g EXPR or --in FILE with {\"g\": ...}")
    extra = variables(g) - {"s"}
    if extra:
        raise UsageError(f"g must be a function of s only, found {sorted(extra)}")
    case = khabirov_push(g, seed=args.seed)
    rep = {
        "g": to_text(case.g),
        "gstar": to_text(case.gstar),
        "Gstar": to_text(case.Gstar),
        "equation": equation_to_dict(case.equation),
        "seed": args.seed,
    }
    out = _Outputs(args.out, args.force, "khabirov", inputs, args.seed, {})
    out.write_json("khabirov.json", rep)
    out.finish()
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ma-lin",
        description="Classify, linearize, solve and lift Hessian-determinant equations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", help="input JSON file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--force", action="store_true",
                       help="allow overwriting existing artifacts")

    def solver(p):
        for flag, kind in (("--tol", float), ("--nx", int), ("--ny", int)):
            p.add_argument(flag, type=kind, default=None)

    p = sub.add_parser("classify", help="test an equation for the linearizable class")
    common(p)
    p.add_argument("--id", help="use a built-in catalog equation")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("solve", help="solve U_XX + f(X,Y) U_YY = g with Dirichlet data")
    common(p)
    solver(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("lift", help="run the classify/solve/lift/verify pipeline")
    common(p)
    solver(p)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("elasticity", help="area-preservation report for a deformation")
    common(p)
    p.add_argument("--domain", help="material domain X0,X1,Y0,Y1")
    p.add_argument("--n", type=int, default=None, help="samples per axis")
    p.set_defaults(fn=cmd_elasticity)

    p = sub.add_parser("khabirov", help="Legendre push of RHS x^-4 g(y/x)")
    common(p)
    p.add_argument("--g", help="g as an expression in s")
    p.set_defaults(fn=cmd_khabirov)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ExprError, GridError, KeyError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (NotEllipticError,) as err:
        print(f"rejected: {err}", file=sys.stderr)
        return EXIT_REJECTED
    except NotConvergedError as err:
        print(f"not converged: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except PipelineError as err:
        cause = err.cause
        if isinstance(cause, (NotEllipticError, NotInClassError, EmptyLiftError)):
            print(f"rejected: {err}", file=sys.stderr)
            return EXIT_REJECTED
        if isinstance(cause, NotConvergedError):
            print(f"not converged: {err}", file=sys.stderr)
            return EXIT_NOT_CONVERGED
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (TransformError, ElasticityError, KhabirovError) as err:
        print(f"rejected: {err}", file=sys.stderr)
        return EXIT_REJECTED


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
