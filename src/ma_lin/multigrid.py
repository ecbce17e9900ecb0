"""Geometric multigrid for the five-point scheme of U_XX + f(X, Y) U_YY = g.

`ma_lin.linsolve.solve_dirichlet` loads this module where it first builds a
hierarchy: for an f that varies along some grid row, or for cycles after the
Fourier start.  Solves that the Fourier start finishes never load it.

The hierarchy runs V-cycles of alternating zebra line relaxation (Briggs,
Henson and McCormick, *A Multigrid Tutorial*), which stays robust when f
makes the problem strongly anisotropic.
Each level keeps every other node of the finer one; an axis with an even node
count merges its last three intervals into one.  The hierarchy ends at the
first level with 3 nodes on some axis, where a single line solve is exact,
or before it at the first coarse level whose interior has at most
DIRECT_SIDE nodes on each axis, which is solved exactly by a dense inverse
built once per solve.
Transfers are 1-D linear interpolation and its transpose weighted by
control-volume width (full weighting on a uniform axis).  Coarse levels are
rediscretised on their (possibly non-uniform) nodes with f carried down by
that same restriction: the average a smooth error's restricted defect
actually sees, where plain injection of a fast-varying f such as exp(3*Y)
makes the cycle diverge.

Each zebra half-step solves every line of one colour exactly, all at once
(see `_Lines`): cyclic reduction halves the lines until at most PCR_SIDE
positions are left, parallel cyclic reduction solves those in at most
log2 PCR_SIDE steps with no back-substitution, and only the halving levels
are substituted back.  On lines this short numpy's per-call overhead, not
arithmetic, sets the time, and the hybrid makes fewer calls than cyclic
reduction all the way down: one V-cycle at 65x65 took 0.70 ms against
0.91 ms.  One V-cycle is thus O(nodes) arithmetic in O(log^2 n) numpy calls,
and the cycle count does not grow with n.  Below the direct level the coarse
grids would cost about as many numpy calls per cycle as the fine ones while
holding almost none of the nodes; one multiply-and-sum with the inverse
replaces them.

The nested start (`_Level.start`, full multigrid, *A Multigrid Tutorial*
ch. 3) gives each coarse level its boundary values by injection from the
level above and its right-hand side by restriction, solves the coarsest
exactly, and going up interpolates each level's interior from the one below,
by tensor-product cubic Lagrange interpolation (Trottenberg, Oosterlee and
Schueller, *Multigrid*, 2.6: linear interpolation's O(H^2) error cost 1-3
more cycles), and gives it one V-cycle.  The finest level's cycle leaves an
error near the discretization error, and at the rounding floor for data that
the scheme and the interpolation both reproduce (a quadratic U).

Every operation in a cycle, and in building the inverse, is elementwise
numpy arithmetic or a sum in a fixed order (the inverse's block products run
in numpy's own einsum loop), with no BLAS or LAPACK call, so a cycle's
result does not depend on the thread count.
"""

from __future__ import annotations

import numpy as np

# A coarse level with at most this many interior nodes on each axis, so at
# most 256 unknowns, is solved by a dense inverse: at 65x65 the 17x17 level
# and those below it took 45% of each V-cycle.  The inverse holds at most
# 16^4 doubles, 0.5 MB.  It is applied as one multiply and a sum along rows,
# whose order of additions the cycle counts rest on: an einsum apply, which
# adds in another order, took Laplace at 129x129 from 7 V-cycles to 8.
# Bounding the unknowns alone lets a thin level through: the 127-node rows
# of a 129x4 level took 33 MB and tripled a 257x7 solve, and the 127 rows of
# a 4x129 level cost more to eliminate one by one than the cycles saved.
DIRECT_SIDE = 16
# Line solves run cyclic reduction while more than this many positions are
# left, and parallel cyclic reduction on the rest: one colour of 65x65 lines
# of 63 positions took 38 us instead of 50-52, of 31 positions 22 instead of
# 34, and a 65x65 V-cycle 0.70 ms instead of 0.91.  8 and 32 took 0.74 and
# 0.73 ms per cycle.  Pure parallel reduction would store 2 L log2 L
# multipliers per line, and its rounding grows with L: at 64 a line solve's
# residual passed 8 eps.
PCR_SIDE = 16


def _coarse_nodes(n: int) -> np.ndarray:
    """Indices of the nodes of an n-node axis that the next coarser level keeps."""
    keep = list(range(0, n - 1, 2)) + [n - 1]
    if n % 2 == 0 and n >= 6:
        del keep[-2]  # one interval of three, rather than a short one at the end
    return np.array(keep)


def _stencil(pos: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights of the low and high neighbours in the second difference at each
    interior node of an axis whose nodes sit at pos * h (pos integer)."""
    lo, hi = np.diff(pos)[:-1], np.diff(pos)[1:]
    return 1.0 / (h ** 2 * (lo * (lo + hi) / 2)), 1.0 / (h ** 2 * (hi * (lo + hi) / 2))


def _widths(pos: np.ndarray) -> np.ndarray:
    """Control-volume width of each node."""
    half = np.diff(pos) / 2
    w = np.zeros(len(pos))
    w[:-1] = half
    w[1:] += half
    return w


def _transfers(pos: np.ndarray, keep: np.ndarray):
    """Linear interpolation from the kept nodes to all of pos, and its transpose
    weighted by control-volume widths (full weighting on a uniform axis), each
    as (index, weight) arrays of one width, zero-padded.  The restriction's
    weights sum to one on each interior coarse node and come in fine-node
    order; its two boundary rows are empty."""
    coarse = pos[keep]
    nc = len(coarse)
    left = np.clip(np.searchsorted(coarse, pos, side="right") - 1, 0, nc - 2)
    t = (pos - coarse[left]) / (coarse[left + 1] - coarse[left])
    prolong = np.stack((left, left + 1), axis=1), np.stack((1.0 - t, t), axis=1)
    # every nonzero interpolation weight into an interior coarse node m,
    # grouped by m (a stable sort keeps the fine nodes in order)
    fine, m, v = np.repeat(np.arange(len(pos)), 2), prolong[0].ravel(), prolong[1].ravel()
    use = (v != 0.0) & (m > 0) & (m < nc - 1)
    order = np.argsort(m[use], kind="stable")
    fine, m, v = fine[use][order], m[use][order], v[use][order]
    counts = np.bincount(m, minlength=nc)
    slot = np.arange(len(m)) - (np.cumsum(counts) - counts)[m]
    idx = np.zeros((nc, max(1, int(counts.max()))), dtype=np.intp)
    w = np.zeros(idx.shape)
    idx[m, slot] = fine
    w[m, slot] = v * _widths(pos)[fine] / _widths(coarse)[m]
    return prolong, (idx, w)


def _cubic(pos: np.ndarray, keep: np.ndarray):
    """Cubic Lagrange interpolation from the kept nodes to all of pos, for the
    nested start, as (index, weight) arrays: each node takes the 4 kept nodes
    nearest its interval (all 3 on a 3-node coarse axis), and a kept node
    takes itself with weight exactly 1."""
    coarse = pos[keep]
    k = min(4, len(coarse))
    first = np.clip(np.searchsorted(coarse, pos, side="right") - 2, 0, len(coarse) - k)
    idx = first[:, None] + np.arange(k)
    at = coarse[idx]
    w = [np.prod([(pos - at[:, l]) / (at[:, m] - at[:, l]) for l in range(k) if l != m], axis=0)
         for m in range(k)]
    return idx, np.stack(w, axis=1) + 0.0  # no -0.0 weights


def _terms(ell, axis: int) -> list:
    """A 1-D transfer's (index column, weight column) terms, each weight
    shaped to broadcast along `axis`, split once when the level is built."""
    idx, w = ell
    shape = (-1, 1) if axis == 0 else (1, -1)
    return [(np.ascontiguousarray(idx[:, m]), w[:, m].reshape(shape))
            for m in range(idx.shape[1])]


def _apply(terms: list, A: np.ndarray, axis: int) -> np.ndarray:
    """Apply a 1-D transfer along one axis of A, term by term in a fixed order."""
    (i, w), *rest = terms
    out = w * np.take(A, i, axis=axis)
    for i, w in rest:
        out += w * np.take(A, i, axis=axis)
    return out


class _Lines:
    """One colour of zebra lines in one direction, with its cyclic-reduction
    and parallel-cyclic-reduction multipliers.

    Arrays are indexed (position along the line, line).  A line's equations
    are ``diag u - lo u_prev - hi u_next = left u_left + right u_right - g``,
    where left and right are the lines beside it; `first` is the full index
    of the first line, counted across the lines.

    Cyclic reduction (Buzbee, Golub and Nielson 1970) runs while more than
    PCR_SIDE positions remain: each level eliminates the odd positions of the
    system above it, leaving a tridiagonal system on the even ones.  Its
    multipliers take about 4 L numbers per line: per level, 1/diag and the
    two couplings over it at the eliminated positions, and the couplings of
    the kept positions to them, which on the first level are views of the
    stencil arrays.  The system left, of K <= PCR_SIDE positions, is solved
    by parallel cyclic reduction (Hockney and Jesshope 1988): the step of
    stride s = 1, 2, 4, ... adds to every equation the multiples of the
    equations s positions away that eliminate its neighbours, so that after
    ceil(log2 K) steps each equation holds one unknown.  Those steps need no
    back-substitution, two multipliers per position and step, and one
    reciprocal diagonal at the end; only the cyclic-reduction levels are
    substituted back.  A line of 63 positions takes 2 reduction levels and 4
    parallel steps, against 6 reduction levels forward and back, in fewer
    numpy calls on short arrays, where call overhead rather than arithmetic
    sets the time (the CR-to-PCR hybrid of Zhang, Cohen and Owens 2010)."""

    def __init__(self, lo, hi, left, right, diag, first: int):
        sel = np.s_[:, first - 1::2]
        lo, hi, diag = lo[sel], hi[sel], diag[sel]
        self.first, self.left, self.right = first, left[sel], right[sel]
        self.lo_first, self.hi_last = lo[0].copy(), hi[-1].copy()  # couplings to the boundary
        sub, sup = lo[1:], hi[:-1]  # position m+1 to m, and m to m+1
        self.levels = []
        while diag.shape[0] > PCR_SIDE:
            k = (diag.shape[0] + 1) // 2  # positions kept
            inv = np.ascontiguousarray(1.0 / diag[1::2])
            lo_k, hi_k = sub[1::2], sup[0::2]  # kept positions to the eliminated ones
            if self.levels:  # own them, rather than keep the whole level above alive
                lo_k, hi_k = np.ascontiguousarray(lo_k), np.ascontiguousarray(hi_k)
            p, q = sub[0::2] * inv, sup[1::2] * inv[:k - 1]  # eliminated to kept, over diag
            diag = diag[0::2].copy()
            diag[1:] -= lo_k * q
            diag[:hi_k.shape[0]] -= hi_k * p
            sub, sup = lo_k * p[:k - 1], hi_k[:k - 1] * q
            self.levels.append((lo_k, hi_k, inv, np.ascontiguousarray(p), np.ascontiguousarray(q)))
        # parallel cyclic reduction: at stride s, sub[m] couples position
        # m + s to m and sup[m] couples m to m + s
        self.steps = []
        s = 1
        while s < diag.shape[0]:
            m1, m2 = sub / diag[:-s], sup / diag[s:]  # rows m - s and m + s into row m
            diag = diag.copy()
            diag[s:] -= m1 * sup
            diag[:-s] -= m2 * sub
            sub, sup = m1[s:] * sub[:-s], m2[:-s] * sup[s:]
            self.steps.append((s, m1, m2))
            s *= 2
        self.inv_last = 1.0 / diag

    def solve(self, V: np.ndarray, G: np.ndarray) -> None:
        """Solve every line of this colour exactly, in place, with the lines
        beside it held fixed (all lines at once)."""
        n = V.shape[1]
        cols = np.s_[self.first:n - 1:2]
        d = self.left * V[1:-1, self.first - 1:n - 2:2] + self.right * V[1:-1, self.first + 1::2]
        d -= G[1:-1, cols]
        d[0] += self.lo_first * V[0, cols]
        d[-1] += self.hi_last * V[-1, cols]
        # each level works on contiguous copies of its kept and eliminated
        # rows: numpy arithmetic on strided row views costs about three times
        # as much per call
        stack = [d]
        for lo_k, hi_k, inv, p, q in self.levels:
            kept, gone = stack[-1][0::2].copy(), stack[-1][1::2].copy()
            gone *= inv
            kept[1:] += lo_k * gone[:lo_k.shape[0]]
            kept[:hi_k.shape[0]] += hi_k * gone
            stack += [gone, kept]
        u = stack.pop()
        for s, m1, m2 in self.steps:
            t = m1 * u[:-s]
            u[:-s] += m2 * u[s:]
            u[s:] += t
        u *= self.inv_last
        for lo_k, hi_k, inv, p, q in reversed(self.levels):
            gone, x = stack.pop(), stack.pop()
            gone += p * u[:p.shape[0]]
            gone[:q.shape[0]] += q * u[1:]
            x[0::2], x[1::2] = u, gone
            u = x
        V[1:-1, cols] = u


def _gauss_jordan(T: np.ndarray) -> np.ndarray:
    """Inverse of a small matrix whose Gauss elimination needs no pivoting."""
    n = T.shape[0]
    A = np.concatenate((T, np.eye(n)), axis=1)
    for k in range(n):
        row = A[k] / A[k, k]
        A -= A[:, k, None] * row
        A[k] = row
    return A[:, n:]


def _product(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix product by numpy's own einsum loop (the default optimize=False),
    which calls no BLAS and adds the terms of each entry in order of the
    summed index, as a multiply over a broadcast (n, n, m) array and a sum
    over its leading axis would, without that array: a 15 x 15 by
    15 x 225 block took 27 us against that form's 99-106 us."""
    return np.einsum("ij,jk->ik", A, B)


def _dense_inverse(W, E, S, N, C) -> np.ndarray:
    """Inverse of ``W u_w + E u_e + S u_s + N u_n - C u`` on the interior
    nodes of a grid, zero on its boundary, with the nodes in row-major order.

    Block elimination over the J grid rows of n nodes (Schur complements),
    without pivoting: the negated operator is an M-matrix.  Row j of it reads
    ``-S_j u_{j-1} + D_j u_j - N_j u_{j+1}`` with D_j tridiagonal.  Forward,
    G_j is the inverse of D_j - S_j G_{j-1} N_{j-1}, and block row j of
    Z = G_j (I_j + S_j Z_{j-1}) holds the eliminated right-hand sides of the
    identity; backward, X_j = Z_j + G_j N_j X_{j+1}.  About 1.5 J^2 n^3
    multiply-adds, and J n pivots in sequence, each on an n x 2n array."""
    J, n = C.shape
    k = np.arange(n)
    Z = np.zeros((J, n, J * n))
    D = np.zeros((J, n, n))  # the tridiagonal D_j of every row
    D[:, k, k] = C
    D[:, k[1:], k[:-1]] = -W[:, 1:]
    D[:, k[:-1], k[1:]] = -E[:, :-1]
    G = []
    for j in range(J):
        T = D[j]
        if j:
            T -= S[j][:, None] * G[-1] * N[j - 1]
        G.append(_gauss_jordan(T))
        if j:
            Z[j, :, :j * n] = _product(G[j] * S[j], Z[j - 1, :, :j * n])
        Z[j, :, j * n:(j + 1) * n] = G[j]
    for j in range(J - 2, -1, -1):
        Z[j] += _product(G[j] * N[j], Z[j + 1])
    return -Z.reshape(J * n, J * n)


class _Level:
    """One level of the hierarchy: the five-point operator
    ``W u_w + E u_e + S u_s + N u_n - C u`` on nodes at (px*dx, py*dy) and
    either its dense inverse, for a direct level, or its zebra lines and,
    unless an axis has 3 nodes, the transfers to the next coarser level and
    that level."""

    def __init__(self, f: np.ndarray, px: np.ndarray, py: np.ndarray, dx: float, dy: float,
                 direct: bool = False):
        self.shape = f.shape
        w, e = _stencil(px, dx)
        s, n = _stencil(py, dy)
        fi = f[1:-1, 1:-1]
        W, E = np.broadcast_to(w, fi.shape), np.broadcast_to(e, fi.shape)
        S, N = fi * s[:, None], fi * n[:, None]
        C = W + E + S + N
        self.op = (W, E, S, N, C)
        self.coarse = self.inverse = None
        if direct:
            self.inverse = _dense_inverse(W, E, S, N, C)
            return
        # zebra colours: lines at odd full indices first, then at even ones
        self.y_lines = [_Lines(S, N, W, E, C, k) for k in (1, 2) if k < f.shape[1] - 1]
        self.x_lines = [_Lines(W.T, E.T, S.T, N.T, C.T, k) for k in (1, 2)
                        if k < f.shape[0] - 1]
        if min(f.shape) > 3:
            kx, ky = _coarse_nodes(len(px)), _coarse_nodes(len(py))
            tx, cx = _transfers(px, kx), _cubic(px, kx)
            # a square grid's axes share their transfers
            ty, cy = ((tx, cx) if np.array_equal(px, py)
                      else (_transfers(py, ky), _cubic(py, ky)))
            self.prolong_x, self.restrict_x = (_terms(t, 1) for t in tx)
            self.prolong_y, self.restrict_y = (_terms(t, 0) for t in ty)
            self.start_x, self.start_y = _terms(cx, 1), _terms(cy, 0)
            self.keep = np.ix_(ky, kx)
            # a level with 3 nodes on an axis is already solved exactly by
            # one line solve, with nothing to build
            self.coarse = _Level(self.restrict(f), px[kx], py[ky], dx, dy,
                                 direct=3 < min(len(kx), len(ky))
                                 and max(len(kx), len(ky)) - 2 <= DIRECT_SIDE)

    def start(self, U: np.ndarray, g: np.ndarray) -> None:
        """Nested iteration (full multigrid): solve the coarser levels first,
        each with boundary values injected from the level above and the
        restricted g, interpolate the result cubically into U's interior and
        run one V-cycle.  The coarsest level's cycle is already an exact solve."""
        if self.coarse is not None:
            Uc = U[self.keep]
            self.coarse.start(Uc, self.restrict(g))
            U[1:-1, 1:-1] = _apply(self.start_x, _apply(self.start_y, Uc, 0), 1)[1:-1, 1:-1]
        self.cycle(U, g)

    def levels(self) -> list:
        """This level and every coarser one."""
        return [self] + (self.coarse.levels() if self.coarse is not None else [])

    def restrict(self, A: np.ndarray) -> np.ndarray:
        return _apply(self.restrict_x, _apply(self.restrict_y, A, 0), 1)

    def prolong(self, A: np.ndarray) -> np.ndarray:
        return _apply(self.prolong_x, _apply(self.prolong_y, A, 0), 1)

    def defect(self, U: np.ndarray, g: np.ndarray) -> np.ndarray:
        """g - (operator applied to U) on the interior, zero on the boundary."""
        W, E, S, N, C = self.op
        r = np.zeros(self.shape)
        r[1:-1, 1:-1] = g[1:-1, 1:-1] - (W * U[1:-1, :-2] + E * U[1:-1, 2:] + S * U[:-2, 1:-1]
                                         + N * U[2:, 1:-1] - C * U[1:-1, 1:-1])
        return r

    def relax(self, U: np.ndarray, g: np.ndarray) -> None:
        """One alternating zebra step: every Y-line, then every X-line.  Exact
        when an axis has 3 nodes."""
        for lines in self.y_lines:
            lines.solve(U, g)
        for lines in self.x_lines:
            lines.solve(U.T, g.T)

    def cycle(self, U: np.ndarray, g: np.ndarray) -> None:
        """One V(1,1)-cycle on U in place; the coarsest level relaxes once.  A
        direct level solves exactly instead: the inverse, which assumes zero
        boundary values, corrects U by its applied defect."""
        if self.inverse is not None:
            inner = U[1:-1, 1:-1]
            d = self.defect(U, g)[1:-1, 1:-1].ravel()
            inner += (self.inverse * d).sum(axis=1).reshape(inner.shape)
            return
        self.relax(U, g)
        if self.coarse is None:
            return
        ec = np.zeros(self.coarse.shape)
        self.coarse.cycle(ec, self.restrict(self.defect(U, g)))
        U += self.prolong(ec)
        self.relax(U, g)
