"""Batch command-line interface.

Subcommands: classify, solve, lift, elasticity, khabirov.  Every run that gets
past its input checks writes a manifest naming the inputs, seed, tolerances,
python and numpy versions and SHA-256 hashes of the artifacts it committed,
and why it failed if it did; re-running a command with the same inputs
reproduces bit-identical CSV files.  Exit codes: 0 success, 1 usage or parse
error, 2 mathematical rejection (an `expressions.Rejection`: not in class,
not elliptic, all nodes degenerate), 3 non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np

from .equations import (catalog_get, classification_report, equation_from_dict,
                        equation_to_dict, khabirov_push)
from .expressions import ExprError, Rejection, parse, to_text, variables
from .grids import GridError, geometry_from_domain, write_grid, GridGeometry
from .lift import PipelineConfig, PipelineError, pipeline, write_lifted
from .linsolve import (NotConvergedError, boundary_from_expr, boundary_from_edge_exprs,
                       check_solve_limits, finite_number, problem_from_exprs,
                       solve_dirichlet)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_NOT_CONVERGED = 3


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# output plumbing

class _Outputs:
    """Atomic, overwrite-guarded artifact writing for one run, as a `with` block.

    Without `--force`, opening the block refuses a directory that already
    holds a `manifest.json`.  Leaving the block writes `manifest.json`,
    listing exactly the artifacts this run committed, and under `timings`
    the seconds of each artifact's write and of each `lift` stage that
    completed; when the block raised, it also records why as `error: {stage,
    message, exit_code}`.  The stage is a pipeline stage's own name, else `write`
    while an artifact was being written, else the command's name.
    """

    def __init__(self, args, inputs: dict, tolerances: Optional[dict] = None):
        self.dir = Path(args.out)
        self.force = args.force
        self.manifest = {"command": args.command, "inputs": inputs, "seed": args.seed,
                         "tolerances": tolerances or {}, "artifacts": {}, "timings": {},
                         "versions": {"python": platform.python_version(),
                                      "numpy": np.__version__}}
        self.writing = False

    def __enter__(self) -> "_Outputs":
        manifest = self.dir / "manifest.json"
        if manifest.exists() and not self.force:
            # an earlier run's record, which only --force replaces: refused
            # before any work, so nothing is written beside it
            raise UsageError(f"refusing to overwrite {manifest} (use --force)")
        self.dir.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, kind, err, traceback) -> None:
        if isinstance(err, PipelineError):
            self.manifest["timings"].update(err.stages)
        if err is not None:
            stage = (err.stage if isinstance(err, PipelineError) else
                     "write" if self.writing else self.manifest["command"])
            self.manifest["error"] = {"stage": stage, "message": _message(_cause(err)),
                                      "exit_code": _exit_code(err)}
        self._replace("manifest.json", lambda p: _dump_json(p, self.manifest))

    def _replace(self, name: str, writer) -> str:
        """Write name through a temporary file that replaces it whole; return
        the writer's result, the SHA-256 of the bytes written."""
        path = self.dir / name
        if path.exists() and not self.force:
            raise UsageError(f"refusing to overwrite {path} (use --force)")
        tmp = path.with_name(name + ".tmp")
        try:
            digest = writer(tmp)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):  # a directory in the way stays
                tmp.unlink()
            raise
        return digest

    def write_with(self, name: str, writer) -> None:
        self.writing, t0 = True, time.perf_counter()
        self.manifest["artifacts"][name] = self._replace(name, writer)
        self.writing = False
        self.manifest["timings"][name] = time.perf_counter() - t0

    def write_json(self, name: str, data: dict) -> None:
        self.write_with(name, lambda p: _dump_json(p, data))


def _dump_json(path, data: dict) -> str:
    text = (json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n").encode()
    path.write_bytes(text)
    return hashlib.sha256(text).hexdigest()


def _load_json(path: str) -> tuple[dict, dict]:
    """The JSON object in an input file, and the manifest's `inputs` entry
    for it: the SHA-256 of the bytes parsed, which are read once, so that a
    file replaced during the run cannot give the digest of other bytes."""
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}") from None
    try:
        data = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed JSON in {path}: {err}") from None
    if not isinstance(data, dict):
        raise UsageError(f"{path} must hold a JSON object")
    return data, {path: hashlib.sha256(raw).hexdigest()}


def _check_keys(obj, reads, where: str) -> None:
    """Refuse a JSON object with a key outside `reads`, so that a misspelt or
    misplaced key cannot run silently with the default in force."""
    if not isinstance(obj, dict):
        raise UsageError(f"{where} must be a JSON object")
    for key in obj:
        if key not in reads:
            raise UsageError(f"{where} does not read the key {key!r}; it reads {', '.join(reads)}")


def _need(obj: dict, key: str, where: str):
    if key not in obj:
        raise UsageError(f"{where} needs {key!r}")
    return obj[key]


def _real(value, name: str) -> float:
    if not finite_number(value):
        raise UsageError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _count(value, name: str) -> int:
    """A node count: a whole number, 33.0 included, but not 9.7 or "33"."""
    if _real(value, name) != int(value):
        raise UsageError(f"{name} must be a whole number, got {value!r}")
    return int(value)


_GRID_FIELDS = ("nx", "ny", "x0", "y0", "dx", "dy")


def _at_least(low: int, **counts: int) -> None:
    """Refuse a count below low, naming its key, before any output."""
    for key, n in counts.items():
        if n < low:
            raise UsageError(f"{key} must be at least {low}, got {n}")


def _grid_fields(obj, where: str) -> GridGeometry:
    """A {nx, ny, x0, y0, dx, dy} object: solve's geometry, lift's target."""
    _check_keys(obj, _GRID_FIELDS, where)
    nx, ny, x0, y0, dx, dy = (_need(obj, k, where) for k in _GRID_FIELDS)
    return GridGeometry(_count(nx, f"{where}.nx"), _count(ny, f"{where}.ny"),
                        _real(x0, f"{where}.x0"), _real(y0, f"{where}.y0"),
                        _real(dx, f"{where}.dx"), _real(dy, f"{where}.dy"))


def _rectangle(dom) -> tuple[float, float, float, float]:
    """A `domain` [X0, X1, Y0, Y1] of four finite numbers."""
    if not isinstance(dom, list) or len(dom) != 4:
        raise UsageError(f"domain must be [X0, X1, Y0, Y1], got {dom!r}")
    return tuple(_real(v, f"domain[{k}]") for k, v in enumerate(dom))


def _domain(cfg: dict, nx: Optional[int], ny: Optional[int], where: str):
    """The `domain` and its nx, ny nodes per axis, the flags overriding the
    config's counts."""
    domain = _rectangle(_need(cfg, "domain", where))
    counts = [_count(cfg.get(k, 33), k) for k in ("nx", "ny")]
    return domain, counts[0] if nx is None else nx, counts[1] if ny is None else ny


def _boundary_from_config(cfg, geom, where):
    b = _need(cfg, "boundary", where)
    if isinstance(b, str):
        return boundary_from_expr(parse(b), geom)
    edges = ("left", "right", "bottom", "top")
    _check_keys(b, edges, "boundary")
    return boundary_from_edge_exprs(*(parse(str(_need(b, e, "boundary"))) for e in edges), geom)


# ---------------------------------------------------------------------------
# subcommands

def cmd_classify(args) -> int:
    if args.id and args.infile:
        raise UsageError("classify takes --id or --in, not both")
    if args.id:
        eq = catalog_get(args.id)
        inputs = {"catalog_id": args.id}
    elif args.infile:
        data, inputs = _load_json(args.infile)
        _check_keys(data, ("id", "F", "note"), "equation")
        for key in ("id", "F"):
            _need(data, key, "equation")
        eq = equation_from_dict(data)
    else:
        raise UsageError("classify needs --in FILE or --id CATALOG-ID")
    with _Outputs(args, inputs) as out:
        report = {**classification_report(eq, seed=args.seed), "equation": equation_to_dict(eq)}
        out.write_json("classification.json", report)
    return EXIT_OK if report["in_class"] else EXIT_REJECTED


def cmd_solve(args) -> int:
    cfg, inputs = _load_json(args.infile)
    grid_keys = ("geometry",) if "geometry" in cfg else ("domain", "nx", "ny")
    _check_keys(cfg, grid_keys + ("fcoeff", "source", "boundary", "tol", "max_iter"), "solve config")
    tol = args.tol if args.tol is not None else cfg.get("tol")
    max_iter = cfg.get("max_iter", 200_000)
    check_solve_limits(tol, max_iter)  # a usage error (exit 1) before any output
    max_iter = int(max_iter)
    if "geometry" in cfg:
        g = _grid_fields(cfg["geometry"], "geometry")
        geom = GridGeometry(g.nx if args.nx is None else args.nx,
                            g.ny if args.ny is None else args.ny, g.x0, g.y0, g.dx, g.dy)
    else:
        domain, nx, ny = _domain(cfg, args.nx, args.ny, "solve config")
        geom = geometry_from_domain(*domain, nx, ny)
    problem = problem_from_exprs(
        geom,
        parse(str(_need(cfg, "fcoeff", "solve config"))),
        parse(str(cfg["source"])) if cfg.get("source") else None,
        _boundary_from_config(cfg, geom, "solve config"),
    )
    with _Outputs(args, inputs, {"tol": tol, "max_iter": max_iter}) as out:

        def write(report, grid):
            out.write_json("solve_report.json", {**report.to_dict(), "seed": args.seed})
            out.write_with("solution.csv", lambda p: write_grid(grid, p))

        try:
            grid, report = solve_dirichlet(problem, tol=tol, max_iter=max_iter)
        except NotConvergedError as err:
            write(err.report, err.grid)  # the report and the last iterate
            raise
        write(report, grid)
    return EXIT_OK


def cmd_lift(args) -> int:
    cfg, inputs = _load_json(args.infile)
    equation = ("id",) if "id" in cfg else ("f",)
    target_keys = ("target",) if "target" in cfg else ("target_nx", "target_ny")
    _check_keys(cfg, equation + ("domain", "nx", "ny", "boundary") + target_keys + ("tol",),
                "lift config")
    if "id" in cfg:
        f_or_id = str(cfg["id"])
    elif "f" in cfg:
        f_or_id = parse(str(cfg["f"]))
    else:
        raise UsageError("lift config needs 'id' (catalog) or 'f' (class function in u, s)")
    tol = args.tol if args.tol is not None else cfg.get("tol")
    # tol alone, before any output: the solve keeps solve_dirichlet's default cap
    check_solve_limits(tol, 1)
    domain, nx, ny = _domain(cfg, args.nx, args.ny, "lift config")
    geom = geometry_from_domain(*domain, nx, ny)
    _at_least(4, nx=nx, ny=ny)  # the lift keeps the (nx-2) x (ny-2) interior; resample needs 2x2
    if "target" in cfg:
        target = _grid_fields(cfg["target"], "target")
    else:  # the inferred target's node counts
        target = tuple(_count(cfg.get(k, 33), k) for k in target_keys)
        _at_least(2, **dict(zip(target_keys, target)))
    pc = PipelineConfig(geom, _boundary_from_config(cfg, geom, "lift config"), target,
                        solve_tol=tol, seed=args.seed)
    with _Outputs(args, inputs, {"tol": tol}) as out:
        result = pipeline(f_or_id, pc)
        out.manifest["timings"].update(result.stages)
        out.write_with("lifted.csv", lambda p: write_lifted(result.surface, p))
        out.write_with("resampled.csv", lambda p: write_grid(result.resampled.grid, p))
        out.write_json("verification.json", {**result.verification.to_dict(), "seed": args.seed,
                                             "coefficient": to_text(result.coefficient),
                                             "resampled_targets": result.resampled.mask.size,
                                             "resampled_hits": result.resampled.n_valid})
        out.write_json("solve_report.json", {**result.solve_report.to_dict(), "seed": args.seed})
    return EXIT_OK


def cmd_elasticity(args) -> int:
    from .elasticity import deformation_from_dict, incompressibility_check, write_deformed_points

    data, inputs = _load_json(args.infile)
    _check_keys(data, ("kind", "potential", "domain", "n"), "elasticity config")
    d = deformation_from_dict({k: _need(data, k, "elasticity config")
                               for k in ("kind", "potential")})
    domain = None
    if args.domain:
        domain = _rectangle([float(v) for v in args.domain.split(",")])
    elif "domain" in data:
        domain = _rectangle(data["domain"])
    else:  # every potential read from JSON is an expression, sampled over the domain
        raise UsageError("elasticity needs a material domain: --domain X0,X1,Y0,Y1 "
                         "or \"domain\" in the config")
    n = args.n if args.n is not None else _count(data.get("n", 20), "n")
    _at_least(1, n=n)
    with _Outputs(args, inputs) as out:
        out.write_json("incompressibility.json", {
            **incompressibility_check(d, domain=domain, n=n).to_dict(), "seed": args.seed})
        out.write_with("deformed.csv", lambda p: write_deformed_points(d, domain, n, p))
    return EXIT_OK


def cmd_khabirov(args) -> int:
    if args.g and args.infile:
        raise UsageError("khabirov takes --g or --in, not both")
    if args.g:
        g = parse(args.g)
        inputs = {"g": args.g}
    elif args.infile:
        data, inputs = _load_json(args.infile)
        _check_keys(data, ("g",), "khabirov config")
        g = parse(str(_need(data, "g", "khabirov config")))
    else:
        raise UsageError("khabirov needs --g EXPR or --in FILE with {\"g\": ...}")
    extra = variables(g) - {"s"}
    if extra:
        raise UsageError(f"g must be a function of s only, found {sorted(extra)}")
    with _Outputs(args, inputs) as out:
        case = khabirov_push(g, seed=args.seed)
        out.write_json("khabirov.json", {
            "g": to_text(case.g),
            "gstar": to_text(case.gstar),
            "Gstar": to_text(case.Gstar),
            "equation": equation_to_dict(case.equation),
            "seed": args.seed,
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.lru_cache(maxsize=None)  # built once per process; parse_args leaves it unchanged
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


# The exit code of each exception a run may end with: the first row whose
# types match decides, and what matches nothing is a usage error.  A
# PipelineError counts as its cause, so a library error gives the same code
# whether or not a pipeline stage wrapped it.  Every mathematical rejection
# derives from Rejection, so that a new one needs no row here and the table
# loads no module that defines one.
_EXIT_CODES = (
    ((Rejection,), EXIT_REJECTED),
    ((NotConvergedError,), EXIT_NOT_CONVERGED),
    ((UsageError, ExprError, GridError, KeyError, ValueError, OSError, RecursionError,
      PipelineError), EXIT_USAGE),
)
_HANDLED = tuple(t for types, _ in _EXIT_CODES for t in types)
_EXIT_LABELS = {EXIT_USAGE: "error", EXIT_REJECTED: "rejected",
                EXIT_NOT_CONVERGED: "not converged"}


def _cause(err: Exception) -> Exception:
    return err.cause if isinstance(err, PipelineError) else err


def _exit_code(err: Exception) -> int:
    cause = _cause(err)
    return next((code for types, code in _EXIT_CODES if isinstance(cause, types)), EXIT_USAGE)


def _message(err: Exception) -> str:
    """What a run that err ended reports; a stack overflow, wrapped by a
    pipeline stage or not, is an expression nested too deeply."""
    return ("the expression is nested too deeply" if isinstance(_cause(err), RecursionError)
            else str(err))


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _HANDLED as err:
        code = _exit_code(err)
        print(f"{_EXIT_LABELS[code]}: {_message(err)}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
