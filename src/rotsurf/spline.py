"""Not-a-knot interpolating splines in numpy, for profiles read from CSV.

`interpolate(t, ys)` builds the interpolant of de Boor, *A Practical Guide
to Splines* (rev. ed. 2001), ch. XIII: degree 5 with the knots at the
samples t[3:-3] (the not-a-knot condition), and degree min(3, n - 1) for
six samples or fewer.

A quintic is found in Hermite form: value, first and second derivative at
the nodes t[0], t[3], t[4], ..., t[n-4], t[n-1].  At each inner node the
third and fourth derivatives agree on both sides; each end node has the
two conditions that its piece passes through the two samples inside it.
Each condition couples a node to its neighbours only, so the unknowns
solve a 2x2 block-tridiagonal system: a few levels of cyclic reduction,
then block Jacobi sweeps once the couplings left are small, in a number
of numpy calls that grows like log n.  Every operation on the data is
elementwise, so the fit of several columns equals the fit of each column
alone bit for bit.

The conditions weigh the pieces on either side of a node by powers of
their widths, so they lose accuracy as neighbouring sample gaps grow
apart, by about eps * r^3 for a factor r between them.  Samples whose
neighbouring gaps differ by more than MAX_GAP_RATIO are refused.
"""

from __future__ import annotations

import math

import numpy as np

DEGREE = 5  # stored degree; shorter fits pad their coefficients with zeros

# In the rows (C3, C4) of an inner node the entries 00, 01, 10, 11 of a
# block carry 1/h^2, 1/h, 1/h^3, 1/h^2 of the interval they come from:
# A couples the node to its left neighbour, C to its right one, and
# B_LEFT + B_RIGHT is the node's own block.
_POWERS = [1, 0, 2, 1]
_A = np.array([-4.0, -0.5, -7.0, -1.0]).reshape(2, 2, 1)
_C = np.array([4.0, -0.5, -7.0, 1.0]).reshape(2, 2, 1)
_B_LEFT = np.array([-6.0, 1.5, -8.0, 1.5]).reshape(2, 2, 1)
_B_RIGHT = np.array([6.0, 1.5, -8.0, -1.5]).reshape(2, 2, 1)
_COFACTOR_SIGN = np.array([1.0, -1.0, -1.0, 1.0]).reshape(2, 2, 1)
# u^3, u^4, u^5 coefficients of a quintic Hermite piece of width h from
# (y_b - y_a, h y'_a, h y'_b, h^2 y''_a, h^2 y''_b)
_HERMITE = np.array([[10.0, -6.0, -4.0, -1.5, 0.5],
                     [-15.0, 8.0, 7.0, 1.5, -1.0],
                     [6.0, -3.0, -3.0, -0.5, 0.5]])[:, :, None, None]
_EYE = np.eye(2).reshape(2, 2, 1)
# Once the scaled couplings of a level are this small, block Jacobi sweeps
# finish the reduced system in fewer numpy calls than further levels: a
# level costs about five sweeps.  A profile's couplings fall to about 1e-2
# after three levels and 1e-5 after four, where 7 and 3 sweeps reach EPS;
# reducing to one equation would take 5 to 8 more levels.
SWEEP_BELOW = 1e-2
EPS = float(np.finfo(float).eps)
# Largest factor between neighbouring sample gaps.  Up to here the fit's
# error stays within a few times that of a B-spline collocation solve of
# the same spline (both measured against a 50-digit solve).
MAX_GAP_RATIO = 16.0


class Spline:
    """A piecewise polynomial: sum_j coef[j, :, p] u^j on the piece p from edges[p] to edges[p + 1].

    u = (t - edges[p]) / (edges[p + 1] - edges[p]); the first and last
    pieces also extend past the data.
    """

    def __init__(self, edges, coef):
        self.breaks = edges[1:-1]
        self.anchor = edges[:-1]
        self.scale = 1.0 / (edges[1:] - edges[:-1])
        self.coef = coef  # (DEGREE + 1, columns, pieces)

    def __call__(self, tq):
        """Values at the 1-d times tq, one row per column: shape (columns, len(tq))."""
        p = np.searchsorted(self.breaks, tq, side="right")
        u = (tq - self.anchor.take(p)) * self.scale.take(p)
        v = self.coef[DEGREE].take(p, axis=1)
        v *= u
        for j in range(DEGREE - 1, 0, -1):
            v += self.coef[j].take(p, axis=1)
            v *= u
        v += self.coef[0].take(p, axis=1)
        return v


def interpolate(t, ys) -> Spline:
    """The not-a-knot spline through (t[i], ys[:, i]); t strictly increasing, ys (columns, n).

    Raises ValueError where two neighbouring gaps of t differ by a factor
    of more than MAX_GAP_RATIO.
    """
    if len(t) > 2:
        gaps = t[1:] - t[:-1]
        ratio = gaps[1:] / gaps[:-1]
        limit = MAX_GAP_RATIO * (1.0 + 1e-9)  # gaps meant to differ by the limit pass
        if not 1.0 / limit <= ratio.min() <= ratio.max() <= limit:
            i = int(np.argmax(np.maximum(ratio, 1.0 / ratio)))
            raise ValueError(f"samples {i + 1} to {i + 3}: neighbouring time gaps differ by a factor "
                             f"of {max(ratio[i], 1.0 / ratio[i]):.3g}, more than {MAX_GAP_RATIO:g}")
    if len(t) > 6:
        return _quintic(t, ys)
    return _short(t, ys, min(3, len(t) - 1))


def _quintic(t, ys) -> Spline:
    n, nc = len(t), len(ys)
    edges = np.concatenate((t[:1], t[3:n - 3], t[-1:]))
    yk = np.concatenate((ys[:, :1], ys[:, 3:n - 3], ys[:, -1:]), axis=1)
    N = len(edges)  # nodes, each with unknowns (y', y'')
    unit = (t[-1] - t[0]) / (n - 1)  # the system's unit of time
    h = (edges[1:] - edges[:-1]) / unit
    inv = np.empty((3, N - 1))
    np.divide(1.0, h, out=inv[0])
    np.multiply(inv[0], inv[0], out=inv[1])
    np.multiply(inv[1], inv[0], out=inv[2])
    pw = inv[_POWERS].reshape(2, 2, N - 1)
    left, right = pw[:, :, :-1], pw[:, :, 1:]

    # rows [A | C | data | B] of the two conditions at each node
    W = 4 + nc
    R = np.empty((2, W + 2, N))
    inner = R[:, :, 1:-1]
    np.multiply(left, _A, out=inner[:, 0:2])
    np.multiply(right, _C, out=inner[:, 2:4])
    np.multiply(left, _B_LEFT, out=inner[:, W:])
    inner[:, W:] += right * _B_RIGHT
    dy = yk[:, 1:] - yk[:, :-1]
    d3 = dy * inv[2]
    d4 = d3 * inv[0]
    np.subtract(d3[:, 1:], d3[:, :-1], out=inner[0, 4:W])
    inner[0, 4:W] *= 10.0
    np.add(d4[:, 1:], d4[:, :-1], out=inner[1, 4:W])
    inner[1, 4:W] *= -15.0
    # The end pieces pass through t[1], t[2] and t[n-3], t[n-2]: their rows
    # weigh the unknowns at the piece's two nodes by the quintic Hermite
    # basis on [0, 1], and the data by y_1's weight b1.
    ends = [0, 1, 2, 3, n - 4, n - 3, n - 2, n - 1]
    tt, yy = t[ends].tolist(), ys[:, ends].T.tolist()
    for node, (a, b) in ((0, (0, 3)), (N - 1, (4, 7))):
        rows = []
        for c in (a + 1, a + 2):
            u = (tt[c] - tt[a]) / (tt[b] - tt[a])
            v, r = 1.0 - u, (tt[b] - tt[a]) / unit
            rr = 0.5 * r * r * u * u * v * v
            b1 = u * u * u * (10.0 - 15.0 * u + 6.0 * u * u)
            da, ea = r * u * v * v * v * (1.0 + 3.0 * u), rr * v  # y'_a, y''_a
            db, eb = -r * u * u * u * v * (4.0 - 3.0 * u), rr * u  # y'_b, y''_b
            rise = [(yc - ya) - (yb - ya) * b1 for yc, ya, yb in zip(yy[c], yy[a], yy[b])]
            own, other = ((da, ea), (db, eb)) if node == 0 else ((db, eb), (da, ea))
            coupling = [0.0, 0.0, *other] if node == 0 else [*other, 0.0, 0.0]
            rows.append(coupling + rise + list(own))
        R[:, :, node] = rows

    d, e = _cyclic_reduction(R)  # y' * unit and y'' * unit^2 at the nodes, (nc, N)

    # Taylor coefficients of each piece in u = (t - left edge) / width: c0,
    # c1, c2 from its left node, c3 .. c5 the _HERMITE combinations of
    # (y_b - y_a, h y'_a, h y'_b, h^2 y''_a, h^2 y''_b)
    coef = np.empty((DEGREE + 1, nc, N - 1))
    terms = np.empty((5, nc, N - 1))
    terms[0] = dy
    np.multiply(d[:, :-1], h, out=terms[1])
    np.multiply(d[:, 1:], h, out=terms[2])
    h2 = h * h
    np.multiply(e[:, :-1], h2, out=terms[3])
    np.multiply(e[:, 1:], h2, out=terms[4])
    coef[0] = yk[:, :-1]
    coef[1] = terms[1]
    np.multiply(terms[3], 0.5, out=coef[2])
    np.multiply(_HERMITE, terms, out=np.empty((3, 5, nc, N - 1))).sum(axis=1, out=coef[3:])
    return Spline(edges, coef)


def _cyclic_reduction(R):
    """Solve A_i u_{i-1} + B_i u_i + C_i u_{i+1} = r_i, i < N, for 2-vectors u_i per column.

    R is (2, 6 + nc, N): the two rows of [A_i | C_i | r_i | B_i] for each i,
    with A_0 = C_{N-1} = 0.  Each level scales every equation by B_i^-1,
    to u_i + A~_i u_{i-1} + C~_i u_{i+1} = r~_i, and eliminates the even
    ones from the odd ones.  The scaled couplings shrink fast from level to
    level; once their largest row sum q is at most SWEEP_BELOW (0 when one
    equation is left), block Jacobi sweeps u <- r~ - A~ u_{i-1} - C~ u_{i+1}
    from u = r~, each cutting the error by q, solve the last level to
    within EPS of u.  Back substitution then recovers the eliminated
    equations.  Returns u as (2, nc, N).
    """
    W = R.shape[1] - 2
    levels = []
    while True:
        N = R.shape[2]
        B = R[:, W:]
        cross = B[:, 0] * B[::-1, 1]  # B00 B11, B10 B01
        inv_t = B[::-1, ::-1] * (_COFACTOR_SIGN / (cross[0] - cross[1]))  # (B^-1)^T
        parts = inv_t[:, :, None] * R[:, None, :W]
        S = np.empty((2, W, N + 1))  # the scaled rows [A~ | C~ | r~], a zero row past them
        S[:, :, N] = 0.0
        np.add(parts[0], parts[1], out=S[:, :, :N])
        q = np.abs(S[:, 0:4]).sum(axis=1).max()
        if not q > SWEEP_BELOW:
            break
        levels.append(S)
        # each odd equation with its neighbours substituted, negated
        lr = _couple(S[:, 0:4, 1:N:2], _neighbours(S, N // 2, 2))
        R = np.empty((2, W + 2, N // 2))
        R[:, 0:2] = lr[:, 0, 0:2]
        R[:, 2:4] = lr[:, 1, 2:4]
        np.add(lr[:, 0, 4:], lr[:, 1, 4:], out=R[:, 4:W])
        R[:, 4:W] -= S[:, 4:, 1:N:2]
        np.add(lr[:, 0, 2:4], lr[:, 1, 0:2], out=R[:, W:])
        R[:, W:] -= _EYE
    u = np.zeros((2, W - 4, N + 2))  # u with a zero past each end
    u[:, :, 1:-1] = S[:, 4:, :N]
    if q > 0.0:
        sides = _neighbours(u, N, 1)  # reads u, which each sweep updates in place
        for _ in range(math.ceil(math.log(EPS) / math.log(q)) - 1):
            lr = _couple(S[:, 0:4, :N], sides)
            np.subtract(S[:, 4:, :N], lr[:, 0], out=u[:, :, 1:-1])
            u[:, :, 1:-1] -= lr[:, 1]
    for S in reversed(levels):
        N = S.shape[2] - 1
        full = np.zeros((2, W - 4, N + 2))
        full[:, :, 2:N + 1:2] = u[:, :, 1:-1]
        even = full[:, :, 1:N + 1:2]
        lr = _couple(S[:, 0:4, 0:N:2], _neighbours(full, N - N // 2, 2))
        np.subtract(S[:, 4:, 0:N:2], lr[:, 0], out=even)
        even -= lr[:, 1]
        u = full
    return u[:, :, 1:-1]


def _neighbours(a, n, step):
    """a[..., 0:step * n:step] and a[..., 2:2 + step * n:step] of a C-contiguous array, stacked first."""
    s = a.strides[-1]
    return np.ndarray((2,) + a.shape[:-1] + (n,), a.dtype, a, 0, (2 * s,) + a.strides[:-1] + (step * s,))


def _couple(AC, v):
    """[A~_i v[0]_i, C~_i v[1]_i] for blocks AC = [A~ | C~] (2, 4, n) and 2-row blocks v: (2, 2, ..., n)."""
    X = AC.reshape((2, 2, 2) + (1,) * (v.ndim - 3) + AC.shape[-1:])  # (row, A~ or C~, column, ..., i)
    prod = X * v
    return prod[:, :, 0] + prod[:, :, 1]


def _short(t, ys, k) -> Spline:
    """Degree k <= 3 through n <= 6 samples: one dense solve for the cardinal splines.

    The unknowns are the k + 1 Taylor coefficients of each piece: the
    samples give one row each, and C^(k-1) continuity k rows per inner
    edge.  The system has only the mesh in it; its solutions for unit data
    combine with the data elementwise.
    """
    n = len(t)
    half = k // 2 + 1
    brk = t[half:n - half]
    edges = np.concatenate((t[:1], brk, t[-1:]))
    width = edges[1:] - edges[:-1]
    pieces, size = len(width), k + 1
    N = pieces * size
    M = np.zeros((N, N))
    p = np.minimum(np.searchsorted(brk, t, side="right"), pieces - 1)
    u = (t - edges[p]) / width[p]
    M[np.arange(n)[:, None], p[:, None] * size + np.arange(size)] = u[:, None] ** np.arange(size)
    row = n
    for q in range(1, pieces):  # derivative v of piece q-1 at u = 1 equals piece q's at u = 0
        ratio = width[q - 1] / width[q]
        for v in range(k):
            for j in range(v, size):
                M[row, (q - 1) * size + j] = math.perm(j, v)
            M[row, q * size + v] = -math.factorial(v) * ratio ** v
            row += 1
    G = np.linalg.solve(M, np.eye(N, n))  # (N, n): the cardinal splines' coefficients
    c = G[:, 0, None] * ys[:, 0]
    for i in range(1, n):
        c += G[:, i, None] * ys[:, i]
    coef = np.zeros((DEGREE + 1, len(ys), pieces))
    coef[:size] = c.reshape(pieces, size, len(ys)).transpose(1, 2, 0)
    return Spline(edges, coef)
