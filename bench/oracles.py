"""Reference computations and output checks for the benchmark.

Nothing here imports ma_lin: every expected value is computed from a closed
form, a bisection, a brute-force maximum or a direct difference formula, so a
fault in the program cannot hide in its own reference.  Each check returns a
list of problems (empty when the output is right), which lets the tests feed
it perturbed outputs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# the two lift families: U = c * U*(X, Y), each an exact solution of its
# linear target U_XX + f U_YY = 0


@dataclass(frozen=True)
class Family:
    """Closed form of one lift family and the inverse of its contact image."""

    catalog_id: str
    c: float

    @property
    def text(self) -> str:
        """U in the program's expression language."""
        body = "X^2-Y^2" if self.catalog_id == "plane-strain-class" else "X^2-Y*arctan(Y)"
        return f"{self.c!r}*({body})"

    def U(self, X, Y):
        if self.catalog_id == "plane-strain-class":
            return self.c * (X * X - Y * Y)
        return self.c * (X * X - Y * np.arctan(Y))

    def UX(self, X, Y):
        return 2.0 * self.c * X

    def UY(self, X, Y):
        if self.catalog_id == "plane-strain-class":
            return -2.0 * self.c * Y
        return -self.c * (np.arctan(Y) + Y / (1.0 + Y * Y))

    def UYY(self, X, Y):
        if self.catalog_id == "plane-strain-class":
            return -2.0 * self.c + 0.0 * Y
        return -2.0 * self.c / (1.0 + Y * Y) ** 2

    def residual(self, ux, uy, uxx, uxy, uyy):
        """u_xx u_yy - u_xy^2 - F of the nonlinear equation; F is q^4 for the
        saddle's class and (p^2 + q^2)^2 for gradient inversion."""
        F = uy ** 4 if self.catalog_id == "plane-strain-class" else (ux * ux + uy * uy) ** 2
        return uxx * uyy - uxy * uxy - F

    def preimage(self, x, y):
        """(X, Y, has) with (x, y) = (U_Y, U - Y*U_Y) at (X, Y), X > 0.

        Saddle: x = -2cY, y = c(X^2 + Y^2).  Gradient inversion:
        x = -c(arctan Y + Y/(1+Y^2)), y = c(X^2 + Y^2/(1+Y^2)); the first
        equation is solved for Y by bisection (its left side increases in Y).
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.catalog_id == "plane-strain-class":
            Y = -x / (2.0 * self.c)
            X2 = y / self.c - Y * Y
        else:
            Y = _bisect_arctan(-x / self.c)
            X2 = y / self.c - Y * Y / (1.0 + Y * Y)
        has = np.isfinite(Y) & (X2 > 0.0)
        X = np.sqrt(np.where(has, X2, 1.0))
        return np.where(has, X, np.nan), Y, has


def _bisect_arctan(t, lo=-50.0, hi=50.0, steps=80):
    """Y with arctan(Y) + Y/(1+Y^2) = t, NaN where Y lies outside [lo, hi]."""
    t = np.asarray(t, dtype=np.float64)

    def phi(Y):
        return np.arctan(Y) + Y / (1.0 + Y * Y)

    a = np.full(t.shape, lo)
    b = np.full(t.shape, hi)
    inside = (phi(a) <= t) & (t <= phi(b))
    for _ in range(steps):
        m = 0.5 * (a + b)
        below = phi(m) < t
        a = np.where(below, m, a)
        b = np.where(below, b, m)
    return np.where(inside, 0.5 * (a + b), np.nan)


# ---------------------------------------------------------------------------
# artifact readers (plain numpy parsing of the documented formats)

LIFT_ARTIFACTS = ("lifted.csv", "resampled.csv", "solve_report.json", "verification.json")


def read_grid_csv(path):
    """(nx, ny, x0, y0, dx, dy) and the (ny, nx) values of a grid CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        fields = dict(kv.split("=") for kv in header.lstrip("#").strip().split(","))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    geom = (int(fields["nx"]), int(fields["ny"]), float(fields["x0"]),
            float(fields["y0"]), float(fields["dx"]), float(fields["dy"]))
    return geom, values.reshape(geom[1], geom[0])


def read_lifted_csv(path):
    """Rows X, Y, x, y, u, ux, uy, uxx, uxy, uyy, jac as an (n, 11) array."""
    return np.loadtxt(path, delimiter=",", comments="#", ndmin=2).reshape(-1, 11)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# lift request checks

# Constants of the O(h^2) checks, h the source spacing.  The worst cases seen
# over n = 33..97, both families and 257^2 targets are noted; they depend on
# the map and the domain, not on the seeded scale c.
U_GRID_CONST = 0.1       # solved U against c*U*, interior nodes (worst seen 0.022)
U_RESAMPLED_CONST = 0.6  # resampled u against the preimage X (worst seen 0.46)
RESIDUAL_BOUND = 1e-8    # nonlinear residual of grid-path lifts (worst seen 5.8e-10)


def check_manifest(outdir) -> list[str]:
    """Every lift artifact is listed, and each listed hash matches its bytes."""
    outdir = Path(outdir)
    problems = []
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    listed = manifest.get("artifacts", {})
    if sorted(listed) != sorted(LIFT_ARTIFACTS):
        problems.append(f"manifest lists {sorted(listed)}, expected {sorted(LIFT_ARTIFACTS)}")
    for name, digest in listed.items():
        path = outdir / name
        if not path.is_file():
            problems.append(f"manifest names missing artifact {name}")
        elif sha256(path) != digest:
            problems.append(f"manifest hash of {name} does not match its bytes")
    return problems


def check_no_output(outdir) -> list[str]:
    """A failed request leaves nothing that reads as a finished lift."""
    outdir = Path(outdir)
    problems = [f"failed request left {name}" for name in LIFT_ARTIFACTS
                if (outdir / name).exists()]
    mpath = outdir / "manifest.json"
    if mpath.exists():
        listed = json.loads(mpath.read_text(encoding="utf-8")).get("artifacts", {})
        if listed:
            problems.append(f"failed request's manifest lists {sorted(listed)}")
    return problems


def check_rejection(exit_code: int, stderr: str) -> bool:
    """True when a not-in-class request is refused as documented: exit 2, stage named."""
    return exit_code == 2 and "classify" in stderr


def check_lifted(fam: Family, domain, n: int, rows: np.ndarray) -> list[str]:
    """Lifted nodes against the contact map and the exact solution.

    u must equal X exactly; U recovered as y + Y*x must match c*U* to
    O(h^2); the nonlinear residual, evaluated here from the stored jets, must
    sit at the solver tail; every interior node must be present.
    """
    problems = []
    X, Y, x, y, u, ux, uy, uxx, uxy, uyy, jac = rows.T
    h = (domain[1] - domain[0]) / (n - 1)
    if rows.shape[0] != (n - 2) ** 2:
        problems.append(f"{rows.shape[0]} lifted nodes, expected {(n - 2) ** 2}")
    if not np.array_equal(u, X):
        problems.append("lifted u differs from X")
    err = float(np.max(np.abs(y + Y * x - fam.U(X, Y)))) if rows.size else 0.0
    if not err <= U_GRID_CONST * h * h:
        problems.append(f"solved U off the exact solution by {err:.3e} (bound {U_GRID_CONST * h * h:.3e})")
    worst = float(np.max(np.abs(fam.residual(ux, uy, uxx, uxy, uyy)))) if rows.size else 0.0
    if not worst <= RESIDUAL_BOUND:
        problems.append(f"nonlinear residual {worst:.3e} above {RESIDUAL_BOUND:g}")
    return problems


def coverage(fam: Family, domain, n: int, geom):
    """Per target: (u*, must_hit, must_miss) from the oracle preimage.

    A preimage inside the source domain by 2h must be hit; one outside it by
    more than 2h, or a target with no preimage at all, must be masked.
    """
    nx, ny, x0, y0, dx, dy = geom
    tx, ty = np.meshgrid(x0 + np.arange(nx) * dx, y0 + np.arange(ny) * dy)
    X, Y, has = fam.preimage(tx, ty)
    X0, X1, Y0, Y1 = domain
    h = max((X1 - X0) / (n - 1), (Y1 - Y0) / (n - 1))
    with np.errstate(invalid="ignore"):
        inner = has & (X >= X0 + 2 * h) & (X <= X1 - 2 * h) & (Y >= Y0 + 2 * h) & (Y <= Y1 - 2 * h)
        outer = has & (X >= X0 - 2 * h) & (X <= X1 + 2 * h) & (Y >= Y0 - 2 * h) & (Y <= Y1 + 2 * h)
    return X, inner, ~outer


def check_resampled(fam: Family, domain, n: int, geom, values: np.ndarray) -> list[str]:
    """Hits and misses against the oracle preimages; hit values to O(h^2)."""
    problems = []
    ustar, must_hit, must_miss = coverage(fam, domain, n, geom)
    hit = np.isfinite(values)
    dropped = int(np.sum(must_hit & ~hit))
    if dropped:
        problems.append(f"{dropped} targets with preimages inside the domain were masked")
    spurious = int(np.sum(must_miss & hit))
    if spurious:
        problems.append(f"{spurious} targets without a preimage in the domain were filled")
    h = (domain[1] - domain[0]) / (n - 1)
    ok = hit & ~must_miss
    err = float(np.max(np.abs(values[ok] - ustar[ok]))) if ok.any() else 0.0
    if not err <= U_RESAMPLED_CONST * h * h:
        problems.append(f"resampled u off the closed form by {err:.3e} (bound {U_RESAMPLED_CONST * h * h:.3e})")
    return problems


# ---------------------------------------------------------------------------
# closed-form case checks

# The README's catalog table: id -> linear coefficient f(X, Y), None if not in class.
CATALOG_TABLE = {
    "plane-strain": lambda X, Y: 1.0,
    "plane-strain-class": lambda X, Y: 1.0,
    "grad-inversion": lambda X, Y: (1.0 + Y * Y) ** 2,
    "general-A1": lambda X, Y: (1.0 + Y * Y) ** 2,
    "general-Au": lambda X, Y: X * (1.0 + Y * Y) ** 2,
    "inverted-plane-strain": None,
    "axisym": None,
    "axisym-inverted": None,
    "membrane": None,
}


def check_coefficient(want, got, points) -> list[str]:
    """The extracted coefficient matches the expected one at seeded points."""
    bad = [(X, Y) for X, Y in points
           if abs(got(X, Y) - want(X, Y)) > 1e-12 * (1.0 + abs(want(X, Y)))]
    return [f"coefficient differs at {bad[0]}"] if bad else []


def khabirov_rhs(g, UX, UY):
    """U_Y^4 / ((U_Y/U_X)^4 g(U_Y/U_X)), the pushed right-hand side."""
    s = UY / UX
    return UY ** 4 / (s ** 4 * g(s))


def check_close(name: str, got, want, rel: float) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = np.abs(got - want) / (1.0 + np.abs(want))
    worst = float(np.max(err)) if err.size else 0.0
    return [] if worst <= rel else [f"{name}: relative error {worst:.3e} above {rel:g}"]


def ampere_direct(V: np.ndarray, betas: np.ndarray, alphas: np.ndarray, dbeta: float):
    """Column-wise centred differences: x = alpha, y = V_beta, u = V - beta*V_beta."""
    slope = (V[2:, :] - V[:-2, :]) / (2 * dbeta)
    u = V[1:-1, :] - betas[1:-1, None] * slope
    x = np.broadcast_to(alphas[None, :], slope.shape)
    # the program lists samples column by column
    return x.T.ravel(), slope.T.ravel(), u.T.ravel()


def brute_conjugate_2d(xs, ys, Z, xi, eta):
    """max over all nodes of xi*x + eta*y - Z, for every (eta, xi) pair.

    One slope row at a time, so the temporaries stay small next to the
    program's own memory, which peak_rss_mb measures.
    """
    xs, ys, xi, eta = (np.asarray(a, dtype=np.float64) for a in (xs, ys, xi, eta))
    flat_x = np.broadcast_to(xs[None, :], Z.shape).ravel()
    flat_y = np.broadcast_to(ys[:, None], Z.shape).ravel()
    flat_z = Z.ravel()
    out = np.empty((eta.size, xi.size))
    for k, e in enumerate(eta):
        out[k] = (e * flat_y[None, :] + xi[:, None] * flat_x[None, :] - flat_z[None, :]).max(axis=1)
    return out

