#!/usr/bin/env python3
"""Stage-by-stage timing harness for the `lift` pipeline.

For each lift family and boundary in CASES and each n of the ladder, the
harness times in-process `ma-lin lift` requests on an n x n mesh with an
n x n inferred target, and reads back the seconds of each pipeline stage
and artifact write and the CSV digests from their `manifest.json`, and
the solver's start, cycles and set-up from `solve_report.json`.  It adds a
fresh-process `import ma_lin, ma_lin.cli` row (compiled from source, with
the ma_lin modules it loaded) and, per lift family, a point row: `compose_chain` and
`contact_map(symbolic_jet(...))` called once per point at POINTS seeded
float64 points, as the closed-form benchmark calls them, timed per point
with a SHA-256 prefix of the bits of every image field and `valid`.  The
array rows time, per call, `lift_parametric` of each lift family's U on an
ARRAY_N x ARRAY_N mesh of DOMAIN, with a SHA-256 prefix of the bits of every
field, and `classify` of a member equation of the closed-form benchmark's
form, with one of the class function's text and evenness.  The formatter
rows time `grids._format_rows` on blocks of FORMATTER_VALUES
values, whole rows of the 65 x 65 Laplace lifted surface (of the sampled
exact solution) as `write_lifted` writes it, and on the largest of them with
one value scaled by 1e-7, which gives the whole block the exponent rows of
the formatter's wide layout, each with a SHA-256 prefix of the block's bytes;
the smallest and the largest table block give a fixed cost per call and a
cost per value.  The conjugate rows time `discrete_legendre_2d` of a convex
and a concave quartic form, the closed-form benchmark's shape, sampled on
CONJUGATE_N x CONJUGATE_N nodes of DOMAIN, with SLOPES_N x SLOPES_N slopes on
[-3, 3] x [-6, 6], per call, with a SHA-256 prefix of the bits of the values.
With --against, the median over the rounds of the ratio of this tree's
pass to the other tree's pass that ran beside it is recorded and printed for
each timing of the point, array and conjugate rows (`pass_ratios`).  It
writes the best of k runs, the solver's start and cycle counts, the CSV
digests and the host (nproc, python, numpy) to a JSON file.

Each pass runs in a fresh worker process that imports `ma_lin` from the
tree under test and takes the best of k = 5 warm requests; 6 such passes
are run per tree (--quick: n = 17 and 33, one run, one pass).  With
--against REV, the `src/` of REV is exported by `git archive` into a
temporary directory, its passes alternate with this tree's (the order
flipping each round, since on a shared machine only runs made close
together compare), and the directory is removed afterwards.  A REV whose
`lift` manifest records no `timings` ends the run with a line naming it.

    python scripts/bench.py --out BENCH.json
    python scripts/bench.py --against HEAD~1 --out BENCH.json
    python scripts/bench.py --quick --out /tmp/bench.json   # a smoke run
"""

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (catalog id, boundary): Laplace and grad-inversion with the lift families'
# boundary data, and each coefficient with the other's kind of data; their
# coefficients are constant along X, so they take the Fourier start.
# general-Au's X*(1+Y^2)^2 is not, and keeps the multigrid measured (6
# V-cycles at 65^2)
CASES = (("plane-strain-class", "X^2-Y^2"),
         ("grad-inversion", "X^2-Y*arctan(Y)"),
         ("grad-inversion", "X^2-Y^2"),
         ("plane-strain-class", "exp(X)*cos(Y)"),
         ("general-Au", "X^2-Y^2"))
DOMAIN = (0.5, 1.5, 0.5, 1.5)
# the point rows: each lift family's boundary, an exact U of its linear
# equation, at POINTS seeded points of DOMAIN
POINT_CASES = CASES[:2]
POINTS = 200
# the array rows: lift_parametric of each point case's U on an ARRAY_N x
# ARRAY_N mesh of DOMAIN, and classify of a member equation of the
# closed-form benchmark's form q^4 (a + b u^2)(1 + (p/q)^2)^2
ARRAY_N = 65
MEMBER_F = "(1.25+0.5*u^2)*(1+s^2)^2"
# the formatter rows: 1, 99 and 744 rows of the 11-column lifted table, then
# the 744 rows again with their first value scaled by 1e-7 ("wide"), each
# block formatted FORMATTER_CALLS // values + 1 times per timed run
FORMATTER_VALUES = (11, 1089, 8184)
FORMATTER_CALLS = 20000
# the conjugate rows: sign * (p X^2 + r X Y + q Y^2 + e Y^4), the form of
# bench/workloads.py, at the closed-form benchmark's sizes
CONJUGATE_FORM = "{sign}*(1.1*X^2+0.6*X*Y+0.8*Y^2+0.7*Y^4)"
CONJUGATE_N, SLOPES_N = 65, 33
# (sizes, k runs of each stage per pass, passes per tree); the full ladder
# takes about 9 minutes with --against on a 2-core machine
FULL = ((65, 129, 257, 513), 5, 6)
QUICK = ((17, 33), 1, 1)


def _best(fn, k):
    """fn's result and its best wall time over k calls."""
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


def _point_rows(k: int) -> list:
    """Per lift family, the best per-point time of a loop of compose_chain
    and of contact_map(symbolic_jet(...)) over the seeded points, and a
    digest of the bits of each route's images."""
    import numpy as np
    from ma_lin import compose_chain, contact_map, parse, symbolic_jet

    (x0, x1, y0, y1), rows = DOMAIN, []
    points = np.random.default_rng(42).uniform((x0, y0), (x1, y1), (POINTS, 2))
    for family, boundary in POINT_CASES:
        U, row = parse(boundary), {"family": family, "U": boundary, "points": POINTS}
        routes = (("chain", lambda: [compose_chain(U, X, Y) for X, Y in points]),
                  ("direct", lambda: [contact_map(symbolic_jet(U, ("X", "Y"), X, Y), X, Y)
                                      for X, Y in points]))
        for name, fn in routes:
            fn()  # the first call compiles U's jet program
            images, seconds = _best(fn, k)
            fields = np.array([(m.x, m.y, m.jacobian, *m.jet.entries(), m.jet.valid)
                               for m in images], dtype=np.float64)
            row[f"{name}_us"] = seconds / POINTS * 1e6
            row[f"{name}_sha256"] = hashlib.sha256(fields.tobytes()).hexdigest()[:10]
        rows.append(row)
    return rows


def _array_rows(k: int) -> list:
    """Per lift family, the best time of one lift_parametric call of its U on
    the ARRAY_N x ARRAY_N mesh and a digest of the bits of every field; then
    the best time of one classify call of the member equation and a digest
    of the class function's text and evenness."""
    import numpy as np
    from ma_lin import classify, equation_from_class_function, lift_parametric, parse

    rows = []
    for family, boundary in POINT_CASES:
        U = parse(boundary)
        lift_parametric(U, DOMAIN, ARRAY_N)
        s, seconds = _best(lambda: lift_parametric(U, DOMAIN, ARRAY_N), k)
        fields = np.stack([s.X, s.Y, s.x, s.y, s.u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac,
                           s.valid])
        rows.append({"call": "lift_parametric", "family": family, "U": boundary,
                     "n": ARRAY_N, "us": seconds * 1e6,
                     "sha256": hashlib.sha256(fields.tobytes()).hexdigest()[:10]})
    eq = equation_from_class_function(parse(MEMBER_F))
    classify(eq)
    cls, seconds = _best(lambda: classify(eq), k)
    rows.append({"call": "classify", "f": MEMBER_F, "us": seconds * 1e6, "sha256": hashlib.sha256(
        f"{cls.f} {cls.even}".encode()).hexdigest()[:10]})
    return rows


def _formatter_rows(k: int) -> list:
    """Per block of the 65 x 65 Laplace lifted surface, the best time per
    `_format_rows` call and a digest of the bytes.  The surface lifts the
    sampled closed form X^2-Y^2, which the five-point scheme solves exactly,
    so that every tree formats the same values whatever its solver."""
    import numpy as np
    from ma_lin import geometry_from_domain, lift_parametric, parse, sample
    from ma_lin.grids import _format_rows

    s = lift_parametric(sample(parse(CASES[0][1]), ("X", "Y"),
                               geometry_from_domain(*DOMAIN, 65, 65)))
    columns = (s.X, s.Y, s.x, s.y, s.u, s.ux, s.uy, s.uxx, s.uxy, s.uyy, s.jac)
    table = np.column_stack([c[s.valid] for c in columns])
    blocks = [("table", table[:values // len(columns)]) for values in FORMATTER_VALUES]
    wide = blocks[-1][1].copy()
    wide[0, 0] *= 1e-7
    rows = []
    for layout, block in blocks + [("wide", wide)]:
        calls = FORMATTER_CALLS // block.size + 1
        text, _ = _format_rows(block)
        _, seconds = _best(lambda: [_format_rows(block) for _ in range(calls)], k)
        rows.append({"values": block.size, "layout": layout, "us": seconds / calls * 1e6,
                     "sha256": hashlib.sha256(text).hexdigest()[:10]})
    return rows


def _conjugate_rows(k: int) -> list:
    """Per form, the best time of one discrete_legendre_2d call and a digest
    of the bits of the conjugate's values."""
    from ma_lin import discrete_legendre_2d, geometry_from_domain, parse, sample

    nodes = geometry_from_domain(*DOMAIN, CONJUGATE_N, CONJUGATE_N)
    slopes = geometry_from_domain(-3.0, 3.0, -6.0, 6.0, SLOPES_N, SLOPES_N)
    rows = []
    for form, sign in (("convex", 1.0), ("concave", -1.0)):
        g = sample(parse(CONJUGATE_FORM.format(sign=sign)), ("X", "Y"), nodes)
        discrete_legendre_2d(g, slopes)
        W, seconds = _best(lambda: discrete_legendre_2d(g, slopes), k)
        rows.append({"form": form, "n": CONJUGATE_N, "slopes": SLOPES_N, "us": seconds * 1e6,
                     "sha256": hashlib.sha256(W.values.tobytes()).hexdigest()[:10]})
    return rows


def _timing(key: str) -> bool:
    return key in ("seconds", "setup_s", "us") or key.endswith("_us")


def _fold(row: dict, other: dict) -> None:
    """Keep in row the best of each timing of two runs of one measurement:
    `seconds`, `setup_s`, `us`, each `*_us` and each stage of `stages`.
    Every other key, and the stage names, must agree."""
    for key, value in row.items():
        if _timing(key):
            row[key] = min(value, other[key])
        elif key == "stages" and list(value) == list(other[key]):
            row[key] = {stage: min(t, other[key][stage]) for stage, t in value.items()}
        elif value != other[key]:
            named = {k: v for k, v in row.items() if not _timing(k) and k != "stages"}
            raise SystemExit(f"runs disagree on {key} at {named}")


def worker(spec: dict) -> dict:
    """One pass over the ladder in this process, with ma_lin from spec["src"]."""
    sys.path.insert(0, spec["src"])
    from ma_lin.cli import main as cli_main

    k, rows = spec["repeat"], []
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "lift.json"), Path(tmp, "out")
        argv = ["lift", "--in", str(cfg), "--out", str(out), "--force"]
        for (family, boundary), n in ((case, n) for case in CASES for n in spec["sizes"]):
            cfg.write_text(json.dumps({"id": family, "domain": list(DOMAIN), "nx": n, "ny": n,
                                       "boundary": boundary, "target_nx": n, "target_ny": n}))
            for run in range(k):
                code, seconds = _best(lambda: cli_main(argv), 1)
                if code != 0:
                    raise SystemExit(f"ma-lin lift of {family} with {boundary} exited {code}")
                manifest, report = (json.loads(Path(out, name).read_text())
                                    for name in ("manifest.json", "solve_report.json"))
                if "timings" not in manifest:
                    raise SystemExit("its `ma-lin lift` manifest records no timings")
                row = {"family": family, "boundary": boundary, "n": n, "seconds": seconds,
                       "start": report["start"], "iterations": report["iterations"],
                       "setup_s": report["setup_seconds"], "stages": manifest["timings"],
                       "lifted_sha256": manifest["artifacts"]["lifted.csv"][:10],
                       "resampled_sha256": manifest["artifacts"]["resampled.csv"][:10]}
                _fold(rows[-1], row) if run else rows.append(row)
    return {"rows": rows, "points": _point_rows(k), "arrays": _array_rows(k),
            "formatter": _formatter_rows(k), "conjugate": _conjugate_rows(k)}


def _import_seconds(src: str) -> tuple[float, list]:
    """Wall time of `import ma_lin, ma_lin.cli` in a fresh interpreter, and
    the ma_lin modules it loaded.  The interpreter writes no bytecode and
    finds none (its cache prefix is an empty directory), so it compiles
    src/ as bench/run.py's set-up does under PYTHONDONTWRITEBYTECODE=1."""
    code = ("import sys, time; t = time.perf_counter(); import ma_lin, ma_lin.cli; "
            "t = time.perf_counter() - t; import json; "
            "print(json.dumps([t, sorted(m for m in sys.modules if m.startswith('ma_lin.'))]))")
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
    return tuple(json.loads(out))


def _pass(rev: str, src: str, spec: dict) -> dict:
    run = subprocess.run([sys.executable, __file__, "--worker", json.dumps({**spec, "src": src})],
                         capture_output=True, text=True)
    if run.returncode:  # the worker's last line says why
        raise SystemExit(f"{rev}: {(run.stderr.strip() or 'the worker failed').splitlines()[-1]}")
    result = json.loads(run.stdout)
    imports = [_import_seconds(src) for _ in range(spec["repeat"])]
    result["import_s"] = min(seconds for seconds, _ in imports)
    result["import_modules"] = imports[0][1]
    return result


def _merge(passes: list) -> dict:
    """The best of every timing over the passes of one tree; the cycle counts
    and hashes, which every pass must agree on, from the first."""
    first = passes[0]
    for p in passes[1:]:
        for kind in ("rows", "points", "arrays", "formatter", "conjugate"):
            for row, other in zip(first[kind], p[kind]):
                _fold(row, other)
        if p["import_modules"] != first["import_modules"]:
            raise SystemExit("passes disagree on the modules that the import loads")
        first["import_s"] = min(first["import_s"], p["import_s"])
    # the fixed cost per call and the cost per value, from the smallest and
    # the largest table block
    small, large = first["formatter"][0], first["formatter"][len(FORMATTER_VALUES) - 1]
    per_value = (large["us"] - small["us"]) / (large["values"] - small["values"])
    first["formatter_cost"] = {"fixed_us": small["us"] - small["values"] * per_value,
                               "per_value_ns": per_value * 1e3}
    return first


def _pass_ratios(this: list, against: list) -> dict:
    """For each timing of the point, array and conjugate rows, the median
    over the rounds of this tree's pass over the other tree's pass beside it."""
    ratios = {}
    for kind in ("points", "arrays", "conjugate"):
        ratios[kind] = []
        for k, row in enumerate(this[0][kind]):
            named = {key: v for key, v in row.items()
                     if not (_timing(key) or key.endswith("sha256"))}
            for key in filter(_timing, row):
                named[key] = statistics.median(t[kind][k][key] / a[kind][k][key]
                                               for t, a in zip(this, against))
            ratios[kind].append(named)
    return ratios


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _export_src(rev: str, dest: str) -> str:
    """REV's src/ written under dest by `git archive`; its path."""
    data = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, members=[m for m in tar.getmembers() if m.isfile() or m.isdir()])
    return str(Path(dest, "src"))


def _host() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def _print(trees: dict, ratios) -> None:
    names = list(trees)
    stages = list(trees[names[0]]["rows"][0]["stages"])
    print(f"{'case':<36} {'n':>4} {'tree':<8} {'start':>7} {'cycles':>6} {'seconds':>9} "
          + " ".join(f"{s[:12]:>12}" for s in stages))
    for k, row in enumerate(trees[names[0]]["rows"]):
        for name in names:
            r = trees[name]["rows"][k]
            print(f"{r['family'] + ' ' + r['boundary']:<36} {r['n']:>4} {name:<8} "
                  f"{r['start']:>7} {r['iterations']:>6} {r['seconds']:9.5f} "
                  + " ".join(f"{r['stages'][s]:12.5f}" for s in stages))
    for name in names:
        print(f"{name}: import ma_lin, ma_lin.cli {trees[name]['import_s']:.4f} s "
              f"({', '.join(trees[name]['import_modules'])})")
    for name in names:
        for r in trees[name]["points"]:
            print(f"{name}: {r['family']} {r['U']} per point: compose_chain "
                  f"{r['chain_us']:.2f} us ({r['chain_sha256']}), contact_map(symbolic_jet) "
                  f"{r['direct_us']:.2f} us ({r['direct_sha256']})")
    for name in names:
        print(f"{name}: " + ", ".join(
            f"{r['call']} {r.get('U', r.get('f'))} {r['us']:.1f} us ({r['sha256']})"
            for r in trees[name]["arrays"]))
    for name in names:
        cost = trees[name]["formatter_cost"]
        print(f"{name}: _format_rows " + ", ".join(
            f"{r['values']} values ({r['layout']}) {r['us']:.1f} us ({r['sha256']})"
            for r in trees[name]["formatter"])
            + f"; {cost['fixed_us']:.1f} us per call + {cost['per_value_ns']:.1f} ns per value")
    for name in names:
        print(f"{name}: discrete_legendre_2d, {CONJUGATE_N}^2 nodes, {SLOPES_N}^2 slopes: "
              + ", ".join(f"{r['form']} {r['us']:.1f} us ({r['sha256']})"
                          for r in trees[name]["conjugate"]))
    if ratios:
        print("each this/against below is the median of the per-pass ratios")
        for r in ratios["points"]:
            print(f"this/against: {r['family']} {r['U']} per point: compose_chain "
                  f"{r['chain_us']:.3f}, contact_map(symbolic_jet) {r['direct_us']:.3f}")
        print("this/against: " + ", ".join(f"{r['call']} {r.get('U', r.get('f'))} {r['us']:.3f}"
                                           for r in ratios["arrays"]))
        print("this/against: discrete_legendre_2d " + ", ".join(
            f"{r['form']} {r['us']:.3f}" for r in ratios["conjugate"]))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="JSON file to write (required)")
    ap.add_argument("--against", metavar="REV", help="also time the src/ of this git revision")
    ap.add_argument("--quick", action="store_true", help="n = 17, 33 with one run of each")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        print(json.dumps(worker(json.loads(args.worker))))
        return
    if not args.out:
        ap.error("--out is required")
    sizes, repeat, rounds = QUICK if args.quick else FULL
    spec = {"sizes": list(sizes), "repeat": repeat}
    try:
        rev = _git("rev-parse", "--short", "HEAD")
        rev += " with uncommitted changes" if _git("status", "--porcelain", "src") else ""
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    with tempfile.TemporaryDirectory() as tmp:
        sources = {"this": (rev, str(ROOT / "src"))}
        if args.against:
            sources["against"] = (_git("rev-parse", "--short", args.against),
                                  _export_src(args.against, tmp))
        passes = {name: [] for name in sources}
        for r in range(rounds):
            for name in (list(sources) if r % 2 == 0 else list(sources)[::-1]):
                passes[name].append(_pass(*sources[name], spec))
    ratios = _pass_ratios(*passes.values()) if args.against else None  # before _merge folds
    trees = {name: {"rev": sources[name][0], **_merge(passes[name])} for name in sources}
    report = {"host": _host(), "settings": {**spec, "rounds": rounds, "domain": DOMAIN,
                                            "best_of": "k runs per pass, over every pass"},
              "trees": trees}
    if ratios:
        report["pass_ratios"] = ratios
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    _print(trees, ratios)


if __name__ == "__main__":
    main()
