"""The benchmark's workloads: seeded inputs, one timed call per operation,
and the checks that each output is right.

`build` makes every input from the seed.  An operation times only its calls
into ma_lin; its checks run afterwards against oracles.py.  In a traced round
the same calls run inside spans, and a lift request is replayed stage by
stage so that each layer gets its own span.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as orc

WORKLOADS = ("lift-solve", "lift-resample", "closed-form")

DOMAIN = (0.5, 1.5, 0.5, 1.5)
SCALES = (0.8, 1.25)  # range of the seeded factor c in U = c * U*
REJECTED_ID = "inverted-plane-strain"  # outside the class: F depends on x, y
SOLVE_MAX_ITER = 200_000  # PipelineConfig's default, which cmd_lift keeps

# request sizes: full runs, then --quick
SOLVE_LADDER = {False: (33, 65, 97), True: (9, 17)}
RESAMPLE_SOURCE_N = {False: 33, True: 9}
RESAMPLE_TARGET_N = {False: (129, 257), True: (9, 17)}
CASES_PER_ROUND = {False: 2, True: 1}
CASE_SIZES = {
    False: {"lift_n": 65, "chain_points": 50, "elastic_n": 16, "form_n": 65, "slopes_n": 33},
    True: {"lift_n": 9, "chain_points": 5, "elastic_n": 4, "form_n": 9, "slopes_n": 5},
}
KHABIROV_CHECKS = 50
CHECK_POINTS = 8


@dataclass
class Outcome:
    seconds: float  # the timed call
    failed: bool = False
    problems: list = field(default_factory=list)
    untimed: float = 0.0  # replay time in traced rounds, kept out of the round time


# ---------------------------------------------------------------------------
# lift requests through the command line


class LiftRequest:
    """One `ma-lin lift` request, made in-process through ma_lin.cli.main."""

    def __init__(self, label: str, catalog_id: str, family, n: int, extra: dict,
                 workdir: Path, seed: int, digests: dict):
        self.label = label
        self.family = family  # None: the request is outside the class
        self.expect_reject = family is None
        self.n = n
        self.seed = seed
        self.config = {"id": catalog_id, "domain": list(DOMAIN), "nx": n, "ny": n,
                       "boundary": family.text if family else "X^2-Y^2", **extra}
        self.key = json.dumps(self.config, sort_keys=True)
        self.cfg_path = workdir / f"{label}.json"
        self.cfg_path.write_text(self.key, encoding="utf-8")
        self.out = workdir / label
        self.digests = digests  # shared by requests with the same config

    def run(self, ma, tracer, op: str) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        argv = ["lift", "--in", str(self.cfg_path), "--out", str(self.out),
                "--seed", str(self.seed)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            with tracer.span("cli.lift", op):
                code = ma.cli.main(argv)
            seconds = time.perf_counter() - t0
        tracer.count("cli.requests", op, 1)
        if self.expect_reject:
            problems = orc.check_no_output(self.out)
            if code == 0:
                problems.append("a request outside the class succeeded")
            failed = not orc.check_rejection(code, err.getvalue())
            return Outcome(seconds, failed, [f"{self.label}: {p}" for p in problems])
        if code != 0:
            problems = orc.check_no_output(self.out)
            return Outcome(seconds, True, [f"{self.label}: {p}" for p in problems])
        problems = self.check()
        untimed = 0.0
        if tracer.round is not None and not problems:
            t1 = time.perf_counter()
            problems = self.replay(ma, tracer, op)
            untimed = time.perf_counter() - t1
        shutil.rmtree(self.out)
        return Outcome(seconds, False, [f"{self.label}: {p}" for p in problems], untimed)

    def check(self) -> list[str]:
        out = self.out
        problems = orc.check_manifest(out)
        rows = orc.read_lifted_csv(out / "lifted.csv")
        geom, values = orc.read_grid_csv(out / "resampled.csv")
        problems += orc.check_lifted(self.family, DOMAIN, self.n, rows)
        problems += orc.check_resampled(self.family, DOMAIN, self.n, geom, values)
        solve = json.loads((out / "solve_report.json").read_text(encoding="utf-8"))
        if solve["converged"] is not True:
            problems.append("solve report says not converged")
        ver = json.loads((out / "verification.json").read_text(encoding="utf-8"))
        if ver["samples"] != rows.shape[0] or not ver["max_abs_residual"] <= orc.RESIDUAL_BOUND:
            problems.append(f"verification report {ver['samples']} samples, "
                            f"residual {ver['max_abs_residual']:.3e}")
        digests = (orc.sha256(out / "lifted.csv"), orc.sha256(out / "resampled.csv"))
        if self.digests.setdefault(self.key, digests) != digests:
            problems.append("a repeated request wrote different CSV bytes")
        return problems

    def replay(self, ma, tracer, op: str) -> list[str]:
        """The request's stages as separate public calls, in cmd_lift's order.

        The spans count only if the replay writes the CLI's CSV bytes.
        """
        mark = tracer.mark()
        X0, X1, Y0, Y1 = DOMAIN
        with tracer.span("linsolve.build", op):
            geom = ma.geometry_from_domain(X0, X1, Y0, Y1, self.n, self.n)
            boundary = ma.boundary_from_expr(ma.parse(self.config["boundary"]), geom)
        with tracer.span("equations.classify", op):
            eq = ma.catalog_get(self.config["id"])
            coeff = ma.linear_coefficient(ma.classify(eq, seed=self.seed))
        tracer.count("equations.classify_calls", op, 1)
        with tracer.span("linsolve.build", op):
            with tracer.span("grids.sample", op):
                fgrid = ma.sample(coeff, ("X", "Y"), geom)
            problem = ma.EllipticProblem(
                geom=geom, fcoeff=fgrid, boundary=boundary,
                source=ma.Grid2(geom, np.zeros((geom.ny, geom.nx))))
        with tracer.span("linsolve.solve", op):
            solution, report = ma.solve_dirichlet(problem, tol=None, max_iter=SOLVE_MAX_ITER)
        interior = (geom.nx - 2) * (geom.ny - 2)
        tracer.count("linsolve.iterations", op, report.iterations)
        tracer.count("linsolve.unknowns", op, interior)
        tracer.count("linsolve.node_updates", op, report.iterations * interior)
        with tracer.span("lift.lift", op):
            surface = ma.lift_parametric(solution)
        tracer.count("lift.lifted_nodes", op, surface.n_valid)
        tracer.count("lift.masked_nodes", op, surface.valid.size - surface.n_valid)
        # the CLI's target: explicit, or inferred from the image; its header
        # carries the geometry with 17 digits, which round-trip exactly
        (nx, ny, x0, y0, dx, dy), _ = orc.read_grid_csv(self.out / "resampled.csv")
        with tracer.span("lift.resample", op):
            grid = ma.resample(surface, ma.GridGeometry(nx, ny, x0, y0, dx, dy))
        tracer.count("lift.resample_targets", op, grid.mask.size)
        tracer.count("lift.resample_hits", op, grid.n_valid)
        with tracer.span("lift.verify", op):
            ver = ma.verify_lift(surface, eq)
        tracer.count("lift.verify_samples", op, ver.samples)
        lifted, resampled = self.out / "replay-lifted.csv", self.out / "replay-resampled.csv"
        with tracer.span("lift.write_lifted", op):
            ma.write_lifted(surface, lifted)
        with tracer.span("grids.write_grid", op):
            ma.write_grid(grid.grid, resampled)
        tracer.count("grids.csv_bytes", op, lifted.stat().st_size + resampled.stat().st_size)
        same = (lifted.read_bytes() == (self.out / "lifted.csv").read_bytes()
                and resampled.read_bytes() == (self.out / "resampled.csv").read_bytes())
        if same:
            return []
        tracer.rollback(mark)
        return ["the stage-by-stage replay wrote other CSV bytes than the CLI"]


def _uniform(rng, lo, hi) -> float:
    """A seeded Python float, whose repr the expression parser reads."""
    return float(rng.uniform(lo, hi))


def _families(rng, ids):
    return [orc.Family(cid, _uniform(rng, *SCALES)) for cid in ids]


def lift_solve_ops(rng, quick, workdir, seed, digests):
    """The solve ladder of both families, one request outside the class, and
    repeats of the Laplace requests on the two lower rungs: once at the
    lowest, three times at the middle one.  The repeats serve the repeat
    check, and they put the middle rung's Laplace requests, four a round, at
    the median of the operation times: three cheaper and three dearer
    operations surround them."""
    ladder = SOLVE_LADDER[quick]
    repeats = {ladder[0]: 1, ladder[1]: 3}
    ops = []
    for n in ladder:
        for fam in _families(rng, ("plane-strain-class", "grad-inversion")):
            label = f"{fam.catalog_id}-n{n}"
            ops.append(LiftRequest(label, fam.catalog_id, fam, n, {}, workdir, seed, digests))
            if fam.catalog_id == "plane-strain-class":
                ops += [LiftRequest(f"{label}-repeat{k}", fam.catalog_id, fam, n, {},
                                    workdir, seed, digests) for k in range(repeats.get(n, 0))]
    ops.append(LiftRequest(REJECTED_ID, REJECTED_ID, None, ladder[0], {}, workdir, 42, digests))
    return ops


def lift_resample_ops(rng, quick, workdir, seed, digests):
    """Large targets over a cheap solve: windows inside the image, where every
    target hits, and the inferred bounding box, where many miss.  The small
    window and the repeat put the large window at the median of the
    operation times."""
    n = RESAMPLE_SOURCE_N[quick]
    small, m = RESAMPLE_TARGET_N[quick]
    fam = _families(rng, ("plane-strain-class",))[0]
    c = fam.c

    def window(k):
        # the preimage of x in [-2.5, -1.5], y in [1.9, 2.7] at c = 1 lies in
        # X in [0.58, 1.46], Y in [0.75, 1.25]; the image scales with c
        return {"target": {"nx": k, "ny": k, "x0": -2.5 * c, "y0": 1.9 * c,
                           "dx": c / (k - 1), "dy": 0.8 * c / (k - 1)}}

    def request(label, extra):
        return LiftRequest(label, fam.catalog_id, fam, n, extra, workdir, seed, digests)

    return [
        request(f"window-{small}", window(small)),
        request(f"window-{m}", window(m)),
        request(f"inferred-{m}", {"target_nx": m, "target_ny": m}),
        request(f"window-{m}-repeat", window(m)),
    ]


# ---------------------------------------------------------------------------
# closed-form cases: no solver, no resampler


class ClosedFormCase:
    """One operation: classify and Legendre push; for both lift families an
    exact lift, its verification and the chain against the contact map; an
    incompressibility check; and for a convex and a concave sampled form the
    discrete Ampere transform and the 2-D conjugate.  Every case does the same
    work, so the seed moves the numbers but not the cost of a case."""

    expect_reject = False

    def __init__(self, label: str, rng, sizes: dict, catalog_id: str, ma, seed: int):
        self.label = label
        self.seed = seed
        self.sizes = sizes
        # classify: a member equation F = q^4 (a + b u^2)(1 + (p/q)^2)^2 and one catalog entry
        a, b = _uniform(rng, 0.5, 2.0), _uniform(rng, 0.1, 1.0)
        self.member_coeff = lambda X, Y: (a + b * X * X) * (1.0 + Y * Y) ** 2
        self.member = ma.equation_from_class_function(ma.parse(f"({a!r}+{b!r}*u^2)*(1+s^2)^2"))
        self.catalog_id = catalog_id
        self.points = rng.uniform(0.5, 2.0, (CHECK_POINTS, 2))
        # Legendre push of g(s) = ga + gb s^2, checked at seeded gradients
        ga, gb = _uniform(rng, 0.5, 2.0), _uniform(rng, 0.1, 1.0)
        self.g = lambda s: ga + gb * s * s
        self.g_expr = ma.parse(f"{ga!r}+{gb!r}*s^2")
        self.jets = rng.uniform(0.5, 2.0, (CHECK_POINTS, 2)) * rng.choice((-1.0, 1.0), (CHECK_POINTS, 2))
        # exact lifts and chains of U = c U*, both families, on a seeded unit square
        self.families = _families(rng, ("grad-inversion", "plane-strain-class"))
        self.U = [ma.parse(fam.text) for fam in self.families]
        X0, Y0 = _uniform(rng, 0.5, 1.0), _uniform(rng, 0.25, 0.75)
        self.domain = (X0, X0 + 1.0, Y0, Y0 + 1.0)
        self.chain_points = np.column_stack([
            rng.uniform(X0, X0 + 1.0, sizes["chain_points"]),
            rng.uniform(Y0, Y0 + 1.0, sizes["chain_points"])])
        # potential with Hessian determinant 1: pa*pc - pb^2 = 1
        pa, pb = _uniform(rng, 0.5, 2.0), _uniform(rng, -1.0, 1.0)
        pc = (1.0 + pb * pb) / pa
        self.hessian_det = pa * pc - pb * pb
        self.deformation = ma.PlaneDeformation(
            "from-U", ma.parse(f"{pa / 2!r}*X^2+{pb!r}*X*Y+{pc / 2!r}*Y^2"))
        ex, ey = _uniform(rng, -1.0, 0.0), _uniform(rng, -1.0, 0.0)
        self.elastic_domain = (ex, ex + 1.0, ey, ey + 1.0)
        # sampled forms V(alpha, beta), convex then concave, each with a
        # one-signed second beta-difference in every column
        self.forms = [_form(sign, *(_uniform(rng, 0.5, 1.5) for _ in range(4)), ma)
                      for sign in (1.0, -1.0)]
        n, m = sizes["form_n"], sizes["slopes_n"]
        self.form_geom = ma.geometry_from_domain(X0, X0 + 1.0, Y0, Y0 + 1.0, n, n)
        self.slope_geom = ma.geometry_from_domain(-3.0, 3.0, -6.0, 6.0, m, m)

    def run(self, ma, tracer, op: str) -> Outcome:
        sz = self.sizes
        t0 = time.perf_counter()
        with tracer.span("equations.classify", op):
            member = ma.classify(self.member, seed=self.seed)
            try:
                listed = ma.classify(ma.catalog_get(self.catalog_id), seed=self.seed)
            except ma.NotInClassError:
                listed = None
        with tracer.span("equations.khabirov", op):
            pushed = ma.khabirov_push(self.g_expr, seed=self.seed, checks=KHABIROV_CHECKS)
        lifts = []
        for fam, U in zip(self.families, self.U):
            with tracer.span("lift.lift", op):
                surface = ma.lift_parametric(U, self.domain, sz["lift_n"])
            with tracer.span("lift.verify", op):
                ver = ma.verify_lift(surface, ma.catalog_get(fam.catalog_id))
            with tracer.span("transforms.chain", op):
                chained = [ma.compose_chain(U, X, Y) for X, Y in self.chain_points]
                direct = [ma.contact_map(ma.symbolic_jet(U, ("X", "Y"), X, Y), X, Y)
                          for X, Y in self.chain_points]
            lifts.append((fam, surface, ver, chained, direct))
        with tracer.span("elasticity.check", op):
            inc = ma.incompressibility_check(self.deformation, domain=self.elastic_domain,
                                             n=sz["elastic_n"])
        forms = []
        for V_fn, V_expr in self.forms:
            with tracer.span("grids.sample", op):
                V = ma.sample(V_expr, ("X", "Y"), self.form_geom)
            with tracer.span("transforms.ampere", op):
                amp = ma.ampere_discrete(V)
            with tracer.span("transforms.conjugate", op):
                W = ma.discrete_legendre_2d(V, self.slope_geom)
            forms.append((V_fn, V, amp, W))
        seconds = time.perf_counter() - t0
        tracer.count("equations.classify_calls", op, 2)
        tracer.count("equations.khabirov_checks", op, KHABIROV_CHECKS)
        tracer.count("elasticity.samples", op, inc.samples)
        problems = self.check_classify(ma, member, listed)
        problems += self.check_khabirov(ma, pushed)
        problems += self.check_elasticity(inc)
        for fam, surface, ver, chained, direct in lifts:
            tracer.count("lift.lifted_nodes", op, surface.n_valid)
            tracer.count("lift.masked_nodes", op, surface.valid.size - surface.n_valid)
            tracer.count("lift.verify_samples", op, ver.samples)
            tracer.count("transforms.chain_points", op, len(chained))
            problems += self.check_lift(fam, surface, ver)
            problems += self.check_chain(fam, chained, direct)
        for V_fn, V, amp, W in forms:
            tracer.count("transforms.ampere_samples", op, len(amp))
            tracer.count("transforms.conjugate_queries", op, W.values.size)
            problems += self.check_form(V_fn, V, amp, W)
        return Outcome(seconds, False, [f"{self.label}: {p}" for p in problems])

    def check_classify(self, ma, member, listed) -> list[str]:
        def coefficient(cls):
            expr = ma.linear_coefficient(cls)
            return lambda X, Y: ma.evaluate(expr, {"X": X, "Y": Y})

        problems = orc.check_coefficient(self.member_coeff, coefficient(member), self.points)
        want = orc.CATALOG_TABLE[self.catalog_id]
        if (listed is not None) != (want is not None):
            problems.append(f"{self.catalog_id} classified in_class={listed is not None}")
        elif want is not None:
            problems += orc.check_coefficient(want, coefficient(listed), self.points)
        return problems

    def check_khabirov(self, ma, pushed) -> list[str]:
        UX, UY = self.jets[:, 0], self.jets[:, 1]
        got = [ma.evaluate(pushed.equation.F, {"x": 0.0, "y": 0.0, "u": 0.0, "p": p, "q": q})
               for p, q in zip(UX, UY)]
        return orc.check_close("pushed right-hand side", got, orc.khabirov_rhs(self.g, UX, UY), 1e-12)

    def check_lift(self, fam, s, ver) -> list[str]:
        n = self.sizes["lift_n"]
        problems = []
        if not s.valid.all() or ver.samples != n * n:
            problems.append(f"{fam.catalog_id} exact lift kept {s.n_valid} of {n * n} nodes, verified {ver.samples}")
        X, Y = s.X, s.Y
        problems += orc.check_close("lifted x = U_Y", s.x, fam.UY(X, Y), 1e-12)
        problems += orc.check_close("lifted y = U - Y U_Y", s.y, fam.U(X, Y) - Y * fam.UY(X, Y), 1e-12)
        if not np.array_equal(s.u, X):
            problems.append("lifted u differs from X")
        worst = float(np.max(np.abs(fam.residual(s.ux, s.uy, s.uxx, s.uxy, s.uyy))))
        if not worst <= 1e-9 or not ver.max_abs_residual <= 1e-9:
            problems.append(f"exact lift residual {worst:.3e}, reported {ver.max_abs_residual:.3e}")
        return problems

    def check_chain(self, fam, chained, direct) -> list[str]:
        X, Y = self.chain_points[:, 0], self.chain_points[:, 1]

        def fields(images):
            return np.array([(m.x, m.y, m.jacobian, m.jet.u, m.jet.ux, m.jet.uy,
                              m.jet.uxx, m.jet.uxy, m.jet.uyy) for m in images]).reshape(-1, 9)

        a, b = fields(chained), fields(direct)
        own = np.column_stack([fam.UY(X, Y), fam.U(X, Y) - Y * fam.UY(X, Y),
                               -fam.UX(X, Y) * fam.UYY(X, Y), X])
        return (orc.check_close("chain against contact map", a, b, 1e-9)
                + orc.check_close("contact map against x, y, J, u", b[:, :4], own, 1e-12))

    def check_elasticity(self, inc) -> list[str]:
        n = self.sizes["elastic_n"]
        problems = []
        if inc.samples != n * n:
            problems.append(f"incompressibility report has {inc.samples} samples, expected {n * n}")
        if not abs(self.hessian_det - 1.0) <= 1e-12 or not inc.max_jac_dev <= 1e-10 \
                or not inc.max_ma_residual <= 1e-10:
            problems.append(f"|J - 1| = {inc.max_jac_dev:.3e} for a unit-determinant potential")
        return problems

    def check_form(self, V_fn, V, amp, W) -> list[str]:
        alphas, betas = V.xs(), V.ys()
        A, B = np.meshgrid(alphas, betas)
        problems = orc.check_close("sampled form", V.values, V_fn(A, B), 1e-12)
        x, y, u = orc.ampere_direct(V.values, betas, alphas, V.dy)
        problems += orc.check_close("Ampere samples", np.column_stack([amp.x, amp.y, amp.u]),
                                    np.column_stack([x, y, u]), 1e-12)
        want = orc.brute_conjugate_2d(alphas, betas, V.values, W.xs(), W.ys())
        problems += orc.check_close("2-D conjugate", W.values, want, 1e-12)
        return problems


def _form(sign, p, q, r, e, ma):
    """V = sign (p X^2 + r X Y + q Y^2 + e Y^4), as a function and as an expression."""
    text = f"{sign!r}*({p!r}*X^2+{r!r}*X*Y+{q!r}*Y^2+{e!r}*Y^4)"
    return (lambda A, B: sign * (p * A * A + r * A * B + q * B * B + e * B ** 4)), ma.parse(text)


def closed_form_ops(rng, quick, ma, seed):
    ids = sorted(orc.CATALOG_TABLE)
    first = int(rng.integers(len(ids)))
    return [ClosedFormCase(f"case{k}", rng, CASE_SIZES[quick], ids[(first + k) % len(ids)], ma, seed)
            for k in range(CASES_PER_ROUND[quick])]


def build(workload: str, seed: int, quick: bool, workdir: Path, ma, probe: bool):
    """(operations, probes) for one workload; every input comes from the seed.

    Probes, built for traced runs only, are one tiny operation of each layer
    the workload itself never calls, so every per-layer figure is measured.
    """
    rng = np.random.default_rng(seed)
    digests: dict = {}  # CSV hashes of lift requests, keyed by their input
    if workload == "lift-solve":
        ops = lift_solve_ops(rng, quick, workdir, seed, digests)
    elif workload == "lift-resample":
        ops = lift_resample_ops(rng, quick, workdir, seed, digests)
    elif workload == "closed-form":
        ops = closed_form_ops(rng, quick, ma, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    probes = []
    if probe:
        prng = np.random.default_rng([seed, 1])
        if workload == "closed-form":
            fam = _families(prng, ("plane-strain-class",))[0]
            probes = [LiftRequest("probe-lift", fam.catalog_id, fam, 9,
                                  {"target_nx": 9, "target_ny": 9}, workdir, seed, digests)]
        else:
            probes = [ClosedFormCase("probe-case", prng, CASE_SIZES[True], "plane-strain", ma, seed)]
    return ops, probes
