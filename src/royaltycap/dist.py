"""Distribution families for bidder types and conditional asset incomes.

Two kinds of objects live here:

* ``TypeDist`` -- the distribution F of a bidder's type (his expected income
  from the asset), on a bounded interval.  Exposes cdf/pdf/ppf and the
  inverse hazard rate (1 - F)/f.

* ``IncomeFamily`` -- the conditional law G(. | theta) of realized income
  given the type, with a support [supp_lo(theta), supp_hi(theta)] that may
  shift with the type.  Families are normalized so that E[pi | theta] = theta
  and are strictly ordered by first-order stochastic dominance in theta
  (the partial derivative of G in theta is negative on the interior).

All objects are immutable after construction and safe to share across
threads; samplers take an explicit numpy ``Generator`` so concurrent callers
never share mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConstructionError, DomainError

# Tolerance for "mean zero" / "integrates to one" construction checks.
_MEAN_TOL = 1e-8
# exact on each cubic piece of a tabulated law
_GL4 = np.polynomial.legendre.leggauss(4)


# ---------------------------------------------------------------------------
# Monotone inversion and quadrature
# ---------------------------------------------------------------------------


# points per predicate call up to which ``_bisect`` resolves several levels
_BISECT_POINTS = 256


def _levels(n: int) -> int:
    """Levels one ``_bisect`` call resolves for n brackets: the most, d, whose
    2^d - 1 midpoints per bracket fit in ``_BISECT_POINTS`` points, and at
    least one (floor(log2(B/n + 1)))."""
    return max(1, (_BISECT_POINTS // max(n, 1) + 1).bit_length() - 1)


def _bisect(below, a, b, steps: int):
    """Bisect the brackets [a, b] (arrays or scalars) ``steps`` times and
    return their midpoints.  ``below(mid)`` must hold left of the sought point
    and fail right of it; where it holds the bracket keeps its upper half.

    The root finder of the mechanism: audit thresholds, menu cutoffs,
    regime-change types and payment crossings.  (A tabulated income law's
    quantiles find their cell by integer bisection and finish by Newton's
    method, ``_cubic_roots``.)

    Each predicate call resolves d = ``_levels(n)`` levels of the n brackets
    (8 for one bracket, 1 from 129 on).  With d > 1, ``below`` gets the
    2^d - 1 midpoints of each bracket's next d levels at once, in increasing
    order along a new leading axis, and must be elementwise over leading
    axes.  Each midpoint is the 0.5 * (lo + hi) of the bracket the one-level
    loop would split there, and the walk down keeps the half the predicate
    picks at each level, so every bracket is bit for bit what d single
    steps give.  A one-level call is that loop's step, at the brackets' own
    shape; a 0-d bracket's first call is one, so the brackets take the
    predicate's shape as in that loop.  A step is a function of the brackets
    alone, so once one leaves every bracket bit for bit unchanged the rest
    would too, and the loop stops after that call."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    d = 1 if a.ndim == 0 else _levels(a.size)
    while steps > 0:
        d = min(d, steps)
        m = 0.5 * (a + b)
        lo, hi = a, b   # the last level's bracket, whose midpoint is m
        if d > 1:
            # the 2^d + 1 points of the next d levels in increasing order,
            # each new one the midpoint of its two neighbours a level up
            pts = np.empty(((1 << d) + 1,) + a.shape)
            pts[0], pts[1 << (d - 1)], pts[-1] = a, m, b
            for k in range(d - 1, 0, -1):
                s = 1 << k
                pts[s // 2::s] = 0.5 * (pts[:-1:s] + pts[s::s])
            ok = np.asarray(below(pts[1:-1]), dtype=bool).reshape(len(pts) - 2, a.size)
            # walk down d - 1 levels: ``node`` is each bracket's lower end
            # among the points, the verdict on its midpoint ok[node + half - 1]
            pts, cols, node = pts.reshape(len(pts), a.size), np.arange(a.size), 0
            for k in range(d - 1, 0, -1):
                node = node + (1 << k) * ok[node + (1 << k) - 1, cols]
            lo, m, hi = (pts[node + i, cols].reshape(a.shape) for i in range(3))
            ok = ok[node, cols].reshape(a.shape)
        else:
            ok = below(m)
        # the last level, as the one-level loop takes it
        a, b = np.where(ok, m, lo), np.where(ok, hi, m)
        if all(np.array_equal(x.view(np.int64), y.view(np.int64)) for x, y in ((lo, a), (hi, b))):
            break
        steps -= d
        d = _levels(a.size)
    return 0.5 * (a + b)


# plain Newton steps, then bisection-safeguarded ones, of ``_cubic_roots``,
# and the cdf residual at which a point has converged
_NEWTON_STEPS = 8
_SAFE_STEPS = 64
_CDF_TOL = 2.0 ** -48


def _cubic_roots(coef: np.ndarray, u: np.ndarray, h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per row, the offset in [0, h] at which the cubic with coefficients
    ``coef`` (lowest power first, one column per row) reaches ``u``, given
    that it is nondecreasing there, below u at 0 and at least u at h: the
    first iterate from ``s`` whose residual is at most ``_CDF_TOL``.

    Newton's method: up to ``_NEWTON_STEPS`` steps kept in [0, h], which
    from a secant start settle a smooth cell in 0-4 steps (0 on a linear
    one).  A row not settled by then continues with steps safeguarded by
    bisection (``rtsafe`` in Press et al., *Numerical Recipes*, sec. 9.4):
    the iterates bracket the root and a step that leaves the bracket halves
    it instead, so a cubic flat near the root converges too.  Settled rows
    leave the loop, so each row's result depends on its own inputs alone."""
    out = np.empty_like(s)
    rows = np.arange(s.size)
    a = b = None
    for step in range(_NEWTON_STEPS + _SAFE_STEPS):
        c0, c1, c2, c3 = coef
        f = ((c3 * s + c2) * s + c1) * s + c0 - u
        done = np.abs(f) <= _CDF_TOL
        if done.all():
            out[rows] = s
            return out
        if done.any():
            out[rows[done]] = s[done]
            keep = ~done
            rows, s, f, u, h, coef = (x[..., keep] for x in (rows, s, f, u, h, coef))
            if a is not None:
                a, b = a[keep], b[keep]
            c0, c1, c2, c3 = coef
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = s - f / ((3.0 * c3 * s + 2.0 * c2) * s + c1)
        if step < _NEWTON_STEPS:
            s = np.fmin(np.fmax(nxt, 0.0), h)
            continue
        if a is None:
            a, b = np.zeros_like(s), h
        a = np.where(f < 0, s, a)
        b = np.where(f > 0, s, b)
        s = np.where((nxt >= a) & (nxt <= b), nxt, 0.5 * (a + b))
    out[rows] = s
    return out


def _gl_segments(a, b, rule):
    """Gauss-Legendre nodes/weights (trailing axis) for segments [a, b] of
    any shape (segments with b <= a contribute nothing).  The integration rule
    of the package, applied piece by piece between an integrand's kinks."""
    x, w = rule
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * np.maximum(b - a, 0.0)
    mid = 0.5 * (a + np.maximum(b, a))
    # one pass per rule point, so that numpy's inner loops run along the
    # segments rather than along the rule's points
    nodes = np.empty(half.shape + x.shape)
    wts = np.empty_like(nodes)
    for k in range(x.size):
        np.multiply(half, x[k], out=nodes[..., k])
        nodes[..., k] += mid
        np.multiply(half, w[k], out=wts[..., k])
    return nodes, wts


def _buckets(xp: np.ndarray, x, k: int) -> np.ndarray:
    """Bucket of each point among ``k`` equal-width buckets over [xp[0],
    xp[-1]]: nondecreasing in x, so the points of a bucket never precede the
    grid points of an earlier one; NaN falls in the last bucket."""
    b = x - xp[0]
    b *= k / (xp[-1] - xp[0])
    return np.fmin(b, k - 1, out=b).astype(np.intp)


def _guide_table(xp: np.ndarray) -> np.ndarray:
    """Guide table of the sorted grid ``xp`` for indexed search (Chen & Asau
    1974): over 2 len(xp) buckets, the last grid index that lies in an earlier
    bucket, which is at or below every point of the bucket (clipped to the
    cells 0 .. len(xp) - 2)."""
    k = 2 * xp.size
    first = np.searchsorted(_buckets(xp, xp, k), np.arange(k))
    return np.clip(first - 1, 0, xp.size - 2)


def _cells(xp: np.ndarray, guide: np.ndarray, x, start=None) -> np.ndarray:
    """Cell of each point of the array ``x`` on the sorted grid ``xp``: the
    last index j with xp[j] <= x, kept in 0 .. len(xp) - 2 (the end cells
    extend beyond the grid).  The one search of the package's tables.

    Reads the bucket's index in ``guide = _guide_table(xp)``, or starts from
    the cells ``start`` (one per point of x, none beyond the point's own
    cell), and steps forward once where xp[j+1] <= x.  That settles nearly
    every point of a well-spread grid; a point that must step further sits
    in a bucket crowded with grid points (a far outlier squeezes the other
    grid points into a few buckets) and is located by binary search, so no
    point costs more than a binary search."""
    x = np.asarray(x, dtype=float)
    xs = np.clip(x, xp[0], np.nextafter(xp[-1], -np.inf)).ravel()
    j = guide[_buckets(xp, xs, guide.size)] if start is None else start.ravel().copy()
    nxt = xp[1:]
    move = np.flatnonzero(nxt[j] <= xs)
    j[move] += 1
    move = move[nxt[j[move]] <= xs[move]]
    j[move] = np.searchsorted(xp, xs[move], side="right") - 1
    return j.reshape(x.shape)


@dataclass(frozen=True)
class GridPoints:
    """Points located on a sorted table grid ``xp``: cell ``j`` (np.interp's
    last index with xp[j] <= x, kept in 0 .. len(xp) - 2), offset
    ``d = x - xp[j]`` and cell width ``w = xp[j+1] - xp[j]``, plus the points
    np.interp answers with a grid value (outside the grid, at its top or
    exactly on a grid point): positions ``snap`` and value indices
    ``snap_to``.  ``interp`` evaluates any array on the grid with np.interp's
    arithmetic, so the two agree bit for bit on finite tables."""

    j: np.ndarray
    d: np.ndarray
    w: np.ndarray
    snap: np.ndarray
    snap_to: np.ndarray
    shape: tuple

    @staticmethod
    def locate(xp: np.ndarray, guide: np.ndarray, x, start=None) -> "GridPoints":
        """Locate ``x`` by the guide table of ``_guide_table(xp)``, or by
        stepping up from the cells ``start`` (``_cells``), so no point costs
        more than np.interp's binary search.  The points at or above xp[-1]
        snap to fp[-1]."""
        x = np.asarray(x, dtype=float)
        shape, x = x.shape, x.ravel()
        top = xp[-1]
        j = _cells(xp, guide, x, start)
        x0 = xp[j]
        w = xp[1:][j]
        w -= x0
        d = np.subtract(x, x0, out=x0)
        snap = np.flatnonzero((d <= 0.0) | (x >= top))
        xv = x[snap]
        snap_to = np.where(xv >= top, xp.size - 1, np.where(xv < xp[0], 0, j[snap]))
        # neutral offsets where the grid value is used, so that a repeated
        # grid point or an infinite x cannot raise a floating-point warning
        d[snap] = 0.0
        w[snap] = 1.0
        return GridPoints(j, d, w, snap, snap_to, shape)

    def take(self, sel: np.ndarray) -> "GridPoints":
        """The points at the increasing indices ``sel``."""
        pos = np.searchsorted(sel, self.snap)
        hit = pos < sel.size
        hit[hit] = sel[pos[hit]] == self.snap[hit]
        return GridPoints(self.j[sel], self.d[sel], self.w[sel], pos[hit],
                          self.snap_to[hit], sel.shape)

    def interp(self, fp: np.ndarray):
        """np.interp(x, xp, fp): (fp[j+1] - fp[j]) / w * d + fp[j], or the
        snapped grid value."""
        f0 = fp[self.j]
        out = fp[1:][self.j]
        out -= f0
        out /= self.w
        out *= self.d
        out += f0
        out[self.snap] = fp[self.snap_to]
        return out.reshape(self.shape)[()]


def _quantile_domain(u):
    """``u`` as a float array and the mask of its entries in [0, 1]: a
    quantile is NaN elsewhere (and at NaN)."""
    u = np.asarray(u, dtype=float)
    return u, (u >= 0.0) & (u <= 1.0)


# ---------------------------------------------------------------------------
# Scalar distribution backends (shared by type and error distributions)
# ---------------------------------------------------------------------------


class _Standardized:
    """Law on [lo, hi] given by a standard form on [0, 1], shifted by ``loc``
    and stretched by ``scale``.

    The arithmetic mirrors ``scipy.stats`` (``cdf = _cdf((x - loc) / scale)``,
    ``ppf = _ppf(q) * scale + loc``), so quantiles, and with them every seeded
    type draw, are bit-identical to the scipy laws they replace.
    """

    def __init__(self, lo: float, hi: float, mean: float, knots):
        self.lo, self.hi, self.mean = lo, hi, mean
        self.loc, self.scale = lo, hi - lo
        self.knots = np.asarray(knots, dtype=float)

    def _z(self, x):
        return (np.asarray(x, dtype=float) - self.loc) / self.scale

    def cdf(self, x):
        z = self._z(x)
        out = np.where(z <= 0, 0.0, np.where(z >= 1, 1.0, self._cdf(np.clip(z, 0, 1))))
        return out[()]

    def pdf(self, x):
        z = self._z(x)
        out = np.where((z >= 0) & (z <= 1), self._pdf(np.clip(z, 0, 1)) / self.scale,
                       np.where(np.isnan(z), np.nan, 0.0))
        return out[()]

    def cdf_and_pdf(self, x):
        return self.cdf(x), self.pdf(x)

    def ppf(self, q):
        q, ok = _quantile_domain(q)
        out = np.where(ok, self._ppf(np.where(ok, q, 0.0)) * self.scale + self.loc, np.nan)
        return out[()]


class _Uniform(_Standardized):
    def __init__(self, lo: float, hi: float):
        super().__init__(lo, hi, 0.5 * (lo + hi), [lo, hi])

    def _cdf(self, z):
        return z

    def _pdf(self, z):
        return np.ones_like(z)

    def _ppf(self, q):
        return q


class _Triangular(_Standardized):
    """Triangular law; standard mode ``c = (mode - lo) / (hi - lo)``."""

    def __init__(self, lo: float, mode: float, hi: float):
        super().__init__(lo, hi, (lo + mode + hi) / 3.0, [lo, mode, hi])
        self.c = (mode - lo) / (hi - lo)

    # scipy's branches: z < c rises, the rest falls; the unused branch may
    # divide by zero when the mode is an endpoint, or overflow when it is
    # subnormal
    def _cdf(self, z):
        c = self.c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(z < c, z * z / c, (z * z - 2 * z + c) / (c - 1))

    def _pdf(self, z):
        c = self.c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(z < c, 2 * z / c, np.where(c == 1, 2 * z, 2 * (1 - z) / (1 - c)))

    def _ppf(self, q):
        c = self.c
        return np.where(q < c, np.sqrt(c * q), 1 - np.sqrt((1 - c) * (1 - q)))


def _pchip_end(h0, h1, m0, m1):
    """Endpoint slope: the one-sided three-point estimate, set to 0 when its
    sign differs from the end chord's and to 3 m0 when the first two chords
    differ in sign and it exceeds 3 |m0| (Moler, Numerical Computing with
    MATLAB, sec. 3.6)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """Cubic coefficients, highest power first with one column per cell, of
    the Fritsch-Carlson monotone interpolant through (x, y): knot slopes are
    weighted harmonic means of the neighboring chords (0 where the chords
    differ in sign or one is flat), the ends follow ``_pchip_end``, and a
    2-point table is its chord.  The arithmetic is scipy's
    ``PchipInterpolator`` (Hermite form of ``CubicHermiteSpline``)."""
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if x.size == 2:
        d = np.array([m[0], m[0]])
    else:
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        # a zero chord divides by zero (masked by ``flat``); a subnormal one
        # overflows to the slope 0, as in scipy
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            harmonic = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d = np.zeros_like(y)
        d[1:-1] = np.where(flat, 0.0, harmonic)
        d[0] = _pchip_end(h[0], h[1], m[0], m[1])
        d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2 * m) / h
    return np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))


class _TableCdf:
    """Monotone-cubic (PCHIP) interpolant of a tabulated CDF.

    The interpolant is Fritsch & Carlson's ("Monotone piecewise cubic
    interpolation", SIAM J. Numer. Anal. 1980) with scipy's endpoint rule,
    evaluated with scipy's arithmetic, so every value equals scipy's
    ``PchipInterpolator`` bit for bit.  The law is a cubic polynomial
    between grid points, which are its ``knots``; the pdf is its analytic
    derivative.

    The ppf interpolates linearly in a dense inverse table (PCHIP preserves
    monotonicity, so the inverse is well defined), in two stages: the guide
    table of the table's cdf values finds each draw's cell (``GridPoints``,
    Chen & Asau 1974), then np.interp's arithmetic interpolates in it, bit
    for bit what np.interp gives.  The table and its guide table are built
    on the first ppf call (a ``TableIncomeFamily`` row never needs them).
    The inversion error ``max |F(ppf(u)) - u|`` over 4,097 evenly spaced u
    is 1.7e-8 on the 11-knot tent law of the benchmark and below 4e-18 on
    linear 41-point tables.  The ppf is NaN outside [0, 1] and at NaN, and
    exactly ``lo`` and ``hi`` at 0 and 1.
    """

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or values.shape != grid.shape:
            raise ConstructionError("table needs matching 1-d grids with >= 2 points")
        if np.any(np.diff(grid) <= 0):
            raise ConstructionError("table grid must be strictly increasing")
        if np.any(np.diff(values) <= 0):
            raise ConstructionError("table CDF must be strictly increasing (density > 0)")
        if abs(values[0]) > _MEAN_TOL or abs(values[-1] - 1.0) > _MEAN_TOL:
            raise ConstructionError("table CDF must run from 0 to 1")
        values = values.copy()
        values[0], values[-1] = 0.0, 1.0
        self.lo, self.hi = float(grid[0]), float(grid[-1])
        self.knots = grid
        self._guide = _guide_table(grid)
        self._c = _pchip_coefficients(grid, values)
        self._dc = self._c[:-1] * np.array([[3.0], [2.0], [1.0]])  # the pdf's pieces
        # mean = lo + int (1 - F); Gauss-Legendre with 4 nodes is exact on each cubic piece
        nodes, wts = _gl_segments(grid[:-1], grid[1:], _GL4)
        self.mean = self.lo + float(np.sum(wts * (1.0 - self._cdf_inside(nodes))))

    @cached_property
    def _inverse(self):
        """The dense inverse table: cdf values at 8,193 evenly spaced points
        (each strictly above the last), those points, and the values' guide
        table."""
        dense = np.linspace(self.lo, self.hi, 8193)
        fd = self._cdf_inside(dense)
        keep = np.concatenate(([True], np.diff(fd) > 0))
        f = fd[keep]
        return f, dense[keep], _guide_table(f)

    def _poly(self, coef, x, i=None):
        """The piecewise polynomial ``coef`` at the array x, each point in
        its cell ``i`` (located by ``_cells`` when not given: the last knot
        <= x, the end cells extended beyond the grid), summed as scipy's
        PPoly sums it: lowest power first, with the powers of the offset s
        built by repeated multiplication."""
        if i is None:
            i = _cells(self.knots, self._guide, x)
        s = x - self.knots[i]
        out, z = coef[-1][i], s
        for k in range(coef.shape[0] - 2, -1, -1):
            out += coef[k][i] * z
            if k:
                z = z * s
        return out

    def _cdf_inside(self, x, i=None):
        """The interpolant at the array x (in its cells i, if given), whose
        points outside [lo, hi] the caller clips or overwrites."""
        return self._poly(self._c, x, i)

    def _pdf(self, x, i=None):
        """The pdf at the array x (in its cells i, if given), 0 outside
        [lo, hi]; x and its clip to [lo, hi] share their cells."""
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, self._poly(self._dc, np.clip(x, self.lo, self.hi), i), 0.0)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._cdf_inside(np.clip(x, self.lo, self.hi))[()]

    def pdf(self, x):
        return self._pdf(np.asarray(x, dtype=float))[()]

    def cdf_and_pdf(self, x):
        """``(cdf(x), pdf(x))``, from one clip of x and one search of its cells."""
        x = np.asarray(x, dtype=float)
        inside = np.clip(x, self.lo, self.hi)
        i = _cells(self.knots, self._guide, inside)
        return self._cdf_inside(inside, i)[()], self._pdf(x, i)[()]

    def ppf(self, u):
        u, ok = _quantile_domain(u)
        f, x, guide = self._inverse
        out = np.asarray(GridPoints.locate(f, guide, np.where(ok, u, 0.0)).interp(x))
        out = np.where(ok, np.where(u < 1.0, out, self.hi), np.nan)
        return out if out.ndim else float(out)


def _build_univariate(family: str, params: dict):
    """Closed-form bounded law with vectorized cdf/pdf/ppf, its support
    [lo, hi], its mean and the knots where it is not smooth."""
    if family == "uniform":
        lo, hi = float(params["lo"]), float(params["hi"])
        if not lo < hi:
            raise ConstructionError(f"uniform bounds must satisfy lo < hi, got [{lo}, {hi}]")
        return _Uniform(lo, hi)
    if family == "triangular":
        lo, hi = float(params["lo"]), float(params["hi"])
        mode = float(params.get("mode", hi))
        if not lo < hi:
            raise ConstructionError(f"triangular bounds must satisfy lo < hi, got [{lo}, {hi}]")
        if not lo <= mode <= hi:
            raise ConstructionError(f"triangular mode {mode} outside [{lo}, {hi}]")
        return _Triangular(lo, mode, hi)
    if family == "table":
        return _TableCdf(params["grid"], params["cdf"])
    raise ConstructionError(f"unknown distribution family {family!r}")


# ---------------------------------------------------------------------------
# Type distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeDist:
    """Bidder type distribution F on [lo, hi] with strictly positive density
    on the open support (the density may vanish at an endpoint)."""

    family: str
    params: dict = field(repr=False)
    lo: float
    hi: float
    knots: np.ndarray = field(repr=False, compare=False)  # F is one polynomial between knots
    _backend: object = field(repr=False)

    def cdf(self, theta):
        return self._backend.cdf(theta)

    def pdf(self, theta):
        return self._backend.pdf(theta)

    def ppf(self, u):
        return self._backend.ppf(u)

    def hazard(self, theta):
        """f / (1 - F); +inf at the top of the support."""
        theta = np.asarray(theta, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(theta >= self.hi, np.inf,
                           self.pdf(theta) / (1.0 - self.cdf(theta)))
        return out if out.ndim else float(out)

    def _check_domain(self, theta):
        theta = np.asarray(theta, dtype=float)
        # NaN fails every comparison, so it is rejected here
        if not (np.all(theta >= self.lo - 1e-12) and np.all(theta <= self.hi + 1e-12)):
            raise DomainError(f"type {theta} outside support [{self.lo}, {self.hi}]")


def make_type_dist(family: str, params: dict) -> TypeDist:
    """Build a type distribution from a family tag and parameters.

    Families: ``uniform`` (lo, hi), ``triangular`` (lo, hi, optional mode,
    default mode = hi), ``table`` (grid, cdf values; monotone-cubic
    interpolated).
    """
    backend = _build_univariate(family, params)
    return TypeDist(family, dict(params), backend.lo, backend.hi, backend.knots, backend)


def inverse_hazard(d: TypeDist, theta):
    """(1 - F(theta)) / f(theta); zero at the top type.

    At a lower endpoint where the density vanishes the value is +inf, which
    propagates correctly through comparisons (such a type never wins).
    """
    d._check_domain(theta)
    theta = np.asarray(theta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(theta >= d.hi, 0.0, (1.0 - d.cdf(theta)) / d.pdf(theta))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Conditional income families
# ---------------------------------------------------------------------------


class IncomeFamily:
    """Conditional income law G(. | theta), FOSD-increasing in theta.

    Subclasses implement:

    * ``supp_lo(theta)``, ``supp_hi(theta)`` -- support endpoints;
    * ``cdf(pi, theta)``, ``pdf(pi, theta)`` -- conditional CDF/density;
    * ``cdf_and_dtheta(pi, theta)`` -- G and its partial derivative in
      theta (zero outside the support) at the same points, both at the
      broadcast shape of pi and theta: the one statement of dG/dtheta,
      which ``dcdf_dtheta`` reads;
    * ``g2_over_g(pi, theta)`` -- the ratio dG/dtheta / pdf in its
      family closed form, which extends continuously beyond the support
      edge (one-sided limits at the boundary);
    * ``ppf(u, theta)`` -- conditional quantile, used for inverse-transform
      sampling;
    * ``breakpoints(theta)`` -- for a 1-d array of types, one row per type of
      the income levels (support ends included) between which the law is a
      polynomial in income.  The mechanism kernels split their income
      integrals there;
    * optionally ``locate_types(theta)`` -- the types in a form that every
      method but ``ppf`` takes in place of them, found once for many calls
      (the default is theta as a float array);
    * optionally, for a law that mixes type-free rows of incomes (a
      tabulated family), ``row_key(theta)`` -- a key naming the rows that
      every type of ``theta`` mixes (those types then share their
      ``breakpoints``), or None; ``row_terms(key, pi)`` -- the rows'
      type-free terms at incomes pi, each evaluated on first use, with
      dG/dtheta as ``dtheta``; ``mix_terms(terms, theta, out=None)`` --
      G(pi | theta) from them; and ``mix_ratio(terms, theta, out=None)`` --
      ``g2_over_g`` from them.  Both write into ``out``, a pair of arrays of
      the result's shape, when given, so that many blocks of types reuse
      one pair.
      Two mechanism kernels keep the terms of one key and row of incomes
      for all the blocks of types that share them: the single-crossing
      scan (its probes: the rows' pdfs and dG/dtheta) and the integrals
      (their Gauss-Legendre nodes: the rows' cdfs and dG/dtheta).

    All other methods accept scalars or broadcastable arrays.
    """

    family: str = "abstract"
    # types at which the law may jump: a tabulated family's row types
    type_knots = np.empty(0)
    # True where -G_theta/g is nonincreasing in income at every type, which
    # proves the audit surplus single-crossing in income (no scan needed)
    ratio_nonincreasing = False

    def __init__(self, params: dict):
        self.params = dict(params)

    # -- subclass surface ---------------------------------------------------

    def supp_lo(self, theta):
        raise NotImplementedError

    def supp_hi(self, theta):
        raise NotImplementedError

    def cdf(self, pi, theta):
        raise NotImplementedError

    def pdf(self, pi, theta):
        raise NotImplementedError

    def cdf_and_dtheta(self, pi, theta):
        raise NotImplementedError

    def dcdf_dtheta(self, pi, theta):
        """The partial derivative of G in theta, as ``cdf_and_dtheta`` gives it."""
        return self.cdf_and_dtheta(pi, theta)[1]

    def locate_types(self, theta):
        """The types ``theta`` as every method here takes them: a family
        that looks its types up (a tabulated one) does so once, and the
        methods accept the result in place of ``theta``; others return
        theta as a float array."""
        return np.asarray(theta, dtype=float)

    def g2_over_g(self, pi, theta):
        raise NotImplementedError

    def ppf(self, u, theta):
        raise NotImplementedError

    def breakpoints(self, theta):
        raise NotImplementedError


class AdditiveErrorFamily(IncomeFamily):
    """Income = type + mean-zero error: pi = theta + eps.

    G(pi | theta) = H(pi - theta), so dG/dtheta = -h and the ratio
    dG/dtheta / g is identically -1 (so ``ratio_nonincreasing``).
    """

    family = "additive_error"
    ratio_nonincreasing = True

    def __init__(self, error, params: dict):
        super().__init__(params)
        self._err = error

    def supp_lo(self, theta):
        return np.asarray(theta, dtype=float) + self._err.lo

    def supp_hi(self, theta):
        return np.asarray(theta, dtype=float) + self._err.hi

    def cdf(self, pi, theta):
        return self._err.cdf(np.asarray(pi, dtype=float) - theta)

    def pdf(self, pi, theta):
        return self._err.pdf(np.asarray(pi, dtype=float) - theta)

    def cdf_and_dtheta(self, pi, theta):
        g, h = self._err.cdf_and_pdf(np.asarray(pi, dtype=float) - theta)
        return g, -h

    def g2_over_g(self, pi, theta):
        shape = np.broadcast_shapes(np.shape(pi), np.shape(theta))
        return np.full(shape, -1.0) if shape else -1.0

    def ppf(self, u, theta):
        return np.asarray(theta, dtype=float) + self._err.ppf(u)

    def breakpoints(self, theta):
        return np.asarray(theta, dtype=float)[:, None] + self._err.knots


class ScaledErrorFamily(IncomeFamily):
    """Income = type + (1 - type) * error: pi = theta + (1 - theta) eps.

    The support shrinks as the type approaches 1.  The ratio
    dG/dtheta / g = (pi - 1) / (1 - theta) does not depend on the error
    distribution's shape and rises in income (``ratio_nonincreasing``).
    Requires the type support to lie in [0, 1].
    """

    family = "scaled_error"
    ratio_nonincreasing = True

    def __init__(self, error, params: dict):
        super().__init__(params)
        self._err = error

    def _scale(self, theta):
        return 1.0 - np.asarray(theta, dtype=float)

    def supp_lo(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta + self._scale(theta) * self._err.lo

    def supp_hi(self, theta):
        theta = np.asarray(theta, dtype=float)
        return theta + self._scale(theta) * self._err.hi

    def _standard(self, pi, theta):
        """pi and theta as float arrays, the scale s = 1 - theta, the scale
        made safe to divide by (1 where s == 0) and the standardized error
        z = (pi - theta) / safe."""
        pi = np.asarray(pi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        s = self._scale(theta)
        safe = np.where(s > 0, s, 1.0)
        return pi, theta, s, safe, (pi - theta) / safe

    def cdf(self, pi, theta):
        pi, theta, s, _, z = self._standard(pi, theta)
        # degenerate top type (s == 0): income is deterministic at theta
        out = np.where(s > 0, self._err.cdf(z), (pi >= theta).astype(float))
        return out if np.ndim(out) else float(out)

    def pdf(self, pi, theta):
        _, _, s, safe, z = self._standard(pi, theta)
        out = np.where(s > 0, self._err.pdf(z) / safe, 0.0)
        return out if np.ndim(out) else float(out)

    def cdf_and_dtheta(self, pi, theta):
        pi, theta, s, safe, z = self._standard(pi, theta)
        g, h = self._err.cdf_and_pdf(z)
        g = np.where(s > 0, g, (pi >= theta).astype(float))
        g2 = np.where(s > 0, h * (pi - 1.0) / (safe * safe), 0.0)
        return tuple(x if np.ndim(x) else float(x) for x in (g, g2))

    def g2_over_g(self, pi, theta):
        pi = np.asarray(pi, dtype=float)
        s = self._scale(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (pi - 1.0) / s
        return out if np.ndim(out) else float(out)

    def ppf(self, u, theta):
        theta = np.asarray(theta, dtype=float)
        return theta + self._scale(theta) * self._err.ppf(u)

    def breakpoints(self, theta):
        theta = np.asarray(theta, dtype=float)[:, None]
        return theta + self._scale(theta) * self._err.knots


@dataclass(frozen=True)
class KnotTypes:
    """Types located on a ``TableIncomeFamily``'s type knots: interval ``j``
    and weight ``w`` on row j + 1 of each type.  The family's methods take
    it in place of the types; indexing it indexes each type."""

    j: np.ndarray
    w: np.ndarray

    @property
    def ndim(self):
        return self.j.ndim

    def __getitem__(self, key):
        return KnotTypes(self.j[key], self.w[key])


class RowPair:
    """The two rows of a ``TableIncomeFamily`` on knot interval ``j`` at the
    incomes ``pi``, each quantity evaluated on first use: the incomes' cells
    in both rows (one search of the pair's union grid), both rows' cdfs and
    pdfs, and dG/dtheta, the rows' slope, which is the same at every type of
    the interval.  None depends on a type, so one evaluation serves every
    type of the interval (``row_terms``)."""

    def __init__(self, fam: "TableIncomeFamily", j, pi):
        self._fam, self.j, self.pi = fam, j, pi

    @cached_property
    def cells(self):
        return self._fam._pair_cells(self.j, self.pi)

    @cached_property
    def cdfs(self):
        fam, j, pi, (lo, hi) = self._fam, self.j, self.pi, self.cells
        return fam._row_cdf(j, pi, lo), fam._row_cdf(j + 1, pi, hi)

    @cached_property
    def pdfs(self):
        rows, pi, (lo, hi) = self._fam._rows, self.pi, self.cells
        return rows[self.j]._pdf(pi, lo), rows[self.j + 1]._pdf(pi, hi)

    @cached_property
    def dtheta(self):
        tg, (lo, hi) = self._fam._tg, self.cdfs
        return (hi - lo) / (tg[self.j + 1] - tg[self.j])


class TableIncomeFamily(IncomeFamily):
    """Tabulated conditional CDFs: monotone-cubic in income, linear in type.

    ``theta_grid`` gives the type knots; ``rows`` holds one (pi_grid, cdf)
    table per knot.  Between knots the conditional law is the mixture of the
    two neighboring rows, which preserves the FOSD ordering and the mean
    normalization exactly and makes dG/dtheta piecewise constant in type.
    The support on [theta_j, theta_j+1) is accordingly the union of the two
    rows' supports (a right-continuous step function of the type; the last
    knot closes the last interval).  At a knot this includes the part of
    row j+1's support where the density is zero: it is where the one-sided
    dG/dtheta lives.

    Every evaluation locates each income once per row pair, on the union of
    both rows' knots (``_cells`` with the union's guide table): no knot of
    either row lies strictly inside a union cell, so the union cell decides
    both rows' cells, and on it the mixture is one cubic.  Quantiles invert
    the mixture in two stages (numerical inversion with a cell search, as in
    Hoermann, Leydold & Derflinger, *Automatic Nonuniform Random Variate
    Generation*, 2004): an integer bisection on the mixture's values at the
    union knots finds each draw's cell (about 7 gathers for 80 knots), and
    Newton's method on that cell's cubic, from the secant start and
    safeguarded by bisection (``_cubic_roots``), finishes the draw.  Each
    draw stops once its residual in the cubic is at most ``_CDF_TOL``
    (2^-48); the inversion error ``max |G(ppf(u | theta) | theta) - u|`` over
    4,097 evenly spaced u and 68 types is 2.2e-16 on the benchmark's linear
    41-point rows and 3.8e-15 on 11-point tent rows.  The quantile is NaN
    outside [0, 1] and at NaN, and exactly ``supp_lo`` and ``supp_hi`` at 0
    and 1.  Every method evaluates the rows of a knot interval once for all
    its types (``RowPair``): on the incomes as given where the types share
    them (the types' axes lead the broadcast, the incomes' trail it), else
    on the incomes of the interval's (type, income) pairs.
    ``cdf_and_dtheta`` and ``g2_over_g`` evaluate the two rows once for both
    of their quantities, and the mechanism kernels keep the rows of one
    knot interval and row of incomes for many blocks of types
    (``row_terms``).  Types are located on the knots by ``_locate``, or once
    for many calls by ``locate_types``, whose ``KnotTypes`` every method but
    ``ppf`` takes in place of the types.
    """

    family = "table"

    def __init__(self, theta_grid, rows, params: dict):
        super().__init__(params)
        self.type_knots = self._tg = np.asarray(theta_grid, dtype=float)
        if self._tg.ndim != 1 or self._tg.size < 2 or np.any(np.diff(self._tg) <= 0):
            raise ConstructionError("income table theta grid must be strictly increasing")
        if len(rows) != self._tg.size:
            raise ConstructionError("income table needs one row per theta knot")
        self._rows = [_TableCdf(g, v) for g, v in rows]
        los = np.array([r.lo for r in self._rows])
        his = np.array([r.hi for r in self._rows])
        if np.any(los < -1e-12) or np.any(his <= los):
            raise ConstructionError("income table rows must have ordered nonnegative supports")
        # FOSD across knots, checked on the union of row grids
        probe = np.linspace(los.min(), his.max(), 257)
        vals = np.array([self._row_cdf(j, probe) for j in range(len(self._rows))])
        if np.any(np.diff(vals, axis=0) > 1e-9):
            raise ConstructionError("income table rows must be FOSD-ordered in theta")
        # mean normalization per knot: E[pi | theta_j] = theta_j
        for j, r in enumerate(self._rows):
            if abs(r.mean - self._tg[j]) > 1e-6:
                raise ConstructionError(
                    f"income table row {j} has mean {r.mean:.8g}, expected {self._tg[j]:.8g}")
        self._los, self._his = los, his
        # between knots j and j+1 the law is cubic between the union of both
        # rows' grid points (padded to a common width by repeating the last)
        pairs = [np.concatenate([a.knots, b.knots])
                 for a, b in zip(self._rows[:-1], self._rows[1:])]
        width = max(p.size for p in pairs)
        self._bp = np.array([np.pad(p, (0, width - p.size), mode="edge") for p in pairs])
        # per row pair: the sorted union of its knots, the union's guide
        # table, and each union cell's cell in row j and in row j + 1
        self._union = []
        for a, b in zip(self._rows[:-1], self._rows[1:]):
            u = np.union1d(a.knots, b.knots)
            self._union.append((u, _guide_table(u), *(_cells(r.knots, r._guide, u[:-1])
                                                      for r in (a, b))))

    def _row_cdf(self, j, pi, i=None):
        """Row j's CDF at pi (in its cells i, if given)."""
        r = self._rows[j]
        pi = np.asarray(pi, dtype=float)
        out = np.asarray(r._cdf_inside(pi, i))
        out[pi >= r.hi] = 1.0
        out[pi <= r.lo] = 0.0
        return out

    def _interval(self, theta):
        """Knot interval j of each type: the last knot at or below it, kept
        in 0 .. len(knots) - 2."""
        if isinstance(theta, KnotTypes):
            return theta.j
        j = np.searchsorted(self._tg, theta, side="right") - 1
        return np.clip(j, 0, self._tg.size - 2)

    def _locate(self, theta):
        """Knot interval j and weight w on row j + 1 of each type."""
        if isinstance(theta, KnotTypes):
            return theta.j, theta.w
        theta = np.asarray(theta, dtype=float)
        j = self._interval(theta)
        w = (theta - self._tg[j]) / (self._tg[j + 1] - self._tg[j])
        return j, np.clip(w, 0.0, 1.0)

    def locate_types(self, theta):
        return KnotTypes(*self._locate(theta))

    def supp_lo(self, theta):
        j = self._interval(theta)
        out = np.minimum(self._los[j], self._los[j + 1])
        return out if np.ndim(theta) else float(out)

    def supp_hi(self, theta):
        j = self._interval(theta)
        out = np.maximum(self._his[j], self._his[j + 1])
        return out if np.ndim(theta) else float(out)

    def _by_interval(self, fn, pi, theta):
        """The arrays ``fn(rows, w)`` on each knot interval j of the types,
        over the broadcast of pi and theta (types are located before
        broadcasting): ``rows`` is the interval's ``RowPair`` at the incomes
        and ``w`` the weights on row j + 1 of the interval's types.  When
        all types share one interval, fn runs once on the unbroadcast
        arrays, so an output that does not depend on the type keeps pi's
        shape.  Otherwise each interval's types are selected, and the rows
        are evaluated on pi itself where the types share its incomes (the
        types' axes lead the broadcast and the incomes' trail it), else on
        the incomes of the interval's (type, income) pairs."""
        pi = np.asarray(pi, dtype=float)
        j, w = self._locate(theta)
        shape = np.broadcast_shapes(pi.shape, j.shape)
        j0 = j.flat[0] if j.size else 0
        if np.all(j == j0):
            outs = fn(RowPair(self, j0, pi), w)
            return tuple(o if np.ndim(o) else float(o) for o in outs)
        # on the broadcast's axes, the types share the incomes when j spans
        # none of the axes from pi's first one on
        dims = len(shape)
        p_dims, j_dims = ((1,) * (dims - x.ndim) + x.shape for x in (pi, j))
        first = next((a for a, d in enumerate(p_dims) if d != 1), dims)
        shared = all(d == 1 for d in j_dims[first:])
        if shared:   # one row of types by one row of incomes
            j, w, pi = j.ravel(), w.ravel()[:, None], pi.ravel()
        outs = []
        for jj in np.unique(j):
            m = j == jj
            if shared:
                parts = fn(RowPair(self, jj, pi), w[m])
            else:
                m = np.broadcast_to(m, shape)
                p = np.broadcast_to(pi, shape)[m]
                parts = fn(RowPair(self, jj, p), np.broadcast_to(w, shape)[m])
            outs = outs or [np.empty((j.size, pi.size) if shared else shape) for _ in parts]
            for out, part in zip(outs, parts):
                out[m] = part
        return tuple(o.reshape(shape) for o in outs)

    def _pair_cells(self, j, pi):
        """Cells of the incomes pi in rows j and j + 1."""
        u, guide, lo_cells, hi_cells = self._union[j]
        c = _cells(u, guide, pi)
        return lo_cells[c], hi_cells[c]

    @staticmethod
    def _mix(w, lo, hi, out=None):
        """The mixture of the two rows' values, weight w on row j + 1, in
        the first of ``out`` when given: two arrays of the mixture's shape,
        the second one scratch."""
        mixed, scratch = (None, None) if out is None else out
        mixed = np.multiply(1.0 - w, lo, out=mixed)
        mixed += np.multiply(w, hi, out=scratch)
        return mixed

    def _ratio(self, rows: RowPair, w, out=None):
        """dG/dtheta over the mixed pdf at weights w, 0 where the pdf
        vanishes (a NaN income's rows give slope NaN and pdf 0); in the
        second of ``out`` when given (``_mix``)."""
        den = self._mix(w, *rows.pdfs, out=out)
        ratio = np.empty(den.shape) if out is None else out[1]
        ratio.fill(0.0)
        return np.divide(rows.dtheta, den, out=ratio, where=den > 0)

    def cdf(self, pi, theta):
        return self._by_interval(lambda rows, w: (self._mix(w, *rows.cdfs),), pi, theta)[0]

    def pdf(self, pi, theta):
        return self._by_interval(lambda rows, w: (self._mix(w, *rows.pdfs),), pi, theta)[0]

    def row_key(self, theta):
        """The knot interval of every type of ``theta``, or None when they
        lie in more than one."""
        j = self._interval(theta)
        return int(j.flat[0]) if j.size and np.all(j == j.flat[0]) else None

    def row_terms(self, j, pi):
        """The ``RowPair`` of knot interval j at the incomes pi."""
        return RowPair(self, j, np.asarray(pi, dtype=float))

    def mix_terms(self, terms, theta, out=None):
        """G(pi | theta) from ``row_terms`` at types in their interval, at
        the broadcast shape of the terms' incomes and the types (in the
        first of ``out``, two arrays of that shape, when given)."""
        return self._mix(self._locate(theta)[1], *terms.cdfs, out=out)

    def mix_ratio(self, terms, theta, out=None):
        """``g2_over_g`` from ``row_terms`` at types in their interval, at
        the broadcast shape of the terms' incomes and the types (in the
        second of ``out``, two arrays of that shape, when given)."""
        return self._ratio(terms, self._locate(theta)[1], out)

    def cdf_and_dtheta(self, pi, theta):
        g, g2 = self._by_interval(lambda rows, w: (self._mix(w, *rows.cdfs), rows.dtheta),
                                  pi, theta)
        # dG/dtheta is the rows' slope, the same at every type of an
        # interval, so it may have pi's shape; G has the broadcast shape
        if np.shape(g2) != np.shape(g):
            g2 = np.broadcast_to(g2, np.shape(g)).copy()
        return g, g2

    def g2_over_g(self, pi, theta):
        return self._by_interval(lambda rows, w: (self._ratio(rows, w),), pi, theta)[0]

    @cached_property
    def _cubics(self):
        """Each row pair's union grid for ``ppf``, one block of P = 2^m + 1
        slots per pair (2^m >= the longest pair's cells): the grid points,
        both rows' cdfs there (as ``cdf`` evaluates them), and each union
        cell's cubic of each row in the offset from the cell's left end
        (row, then power from the lowest; constant outside the row's
        support).  A block repeats its last point, with cdf 1, to its end.
        Returns them with P and the bisection's steps 2^(m-1), ..., 1."""
        m = max(u.size - 2 for u, *_ in self._union).bit_length()
        width = (1 << m) + 1
        x = np.empty((len(self._union), width))
        cubics = np.zeros((2, 4, len(self._union), width))
        cubics[:, 0] = 1.0
        for j, (u, _, *cells) in enumerate(self._union):
            n = u.size
            x[j, :n], x[j, n:] = u, u[-1]
            cubics[:, 0, j, :n] = RowPair(self, j, u).cdfs
            for cubic, r, i in zip(cubics[:, 1:, j], self._rows[j:j + 2], cells):
                c = r._c[:, i]   # the row's cubics, in the offset from its own knots
                d = u[:-1] - r.knots[i]
                inside = (u[:-1] >= r.lo) & (u[1:] <= r.hi)
                for power, coef in enumerate(((3.0 * c[0] * d + 2.0 * c[1]) * d + c[2],
                                              3.0 * c[0] * d + c[1], c[0])):
                    cubic[power, :n - 1] = np.where(inside, coef, 0.0)
        steps = [1 << k for k in range(m - 1, -1, -1)]
        return x.ravel(), cubics.reshape(2, 4, -1), width, steps

    def ppf(self, u, theta):
        u, theta = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(theta, dtype=float))
        u, at = u.ravel(), self.locate_types(theta.ravel())
        x, (lo, hi), width, steps = self._cubics
        inner = (u > 0.0) & (u < 1.0)
        q = np.where(inner, u, 0.5)
        w, one_w = at.w, 1.0 - at.w

        def mix(k, power=0):
            """``_mix`` of both rows' coefficients of ``power`` at the points
            k of the union grids (power 0: their cdfs)."""
            out = lo[power].take(k)
            out *= one_w
            out += w * hi[power].take(k)
            return out

        # stage 1: the union cell k whose mixture cdf is below q at its left
        # end and at least q at its right end, by branchless integer
        # bisection in the pair's block (its padding never lies below q)
        k = at.j * width
        for step in steps:
            k += step * (mix(k + step) < q)
        # stage 2: the cell's mixture cubic, from the secant start
        coef = np.stack([mix(k, power) for power in range(4)])
        h = x[k + 1] - x[k]
        start = h * ((q - coef[0]) / (mix(k + 1) - coef[0]))
        out = x[k] + _cubic_roots(coef, q, h, start)
        # the support's ends at 0 and 1, NaN outside [0, 1]
        e = np.flatnonzero(~inner)
        if e.size:
            ue, ae = u[e], at[e]
            out[e] = np.where(ue == 0.0, self.supp_lo(ae),
                              np.where(ue == 1.0, self.supp_hi(ae), np.nan))
        return out.reshape(theta.shape) if theta.ndim else float(out[0])

    def breakpoints(self, theta):
        return self._bp[self._locate(theta)[0]]


def make_income_family(family: str, params: dict) -> IncomeFamily:
    """Build a conditional income family.

    Families: ``additive_error`` and ``scaled_error`` take an ``error``
    sub-distribution (uniform / triangular / table) that must have mean zero
    and straddle zero; ``table`` takes explicit conditional CDF rows.
    """
    if family in ("additive_error", "scaled_error"):
        err_spec = params.get("error")
        if not isinstance(err_spec, dict) or "family" not in err_spec:
            raise ConstructionError("error distribution spec required (family + params)")
        err = _build_univariate(err_spec["family"], err_spec)
        if abs(err.mean) > _MEAN_TOL:
            raise ConstructionError(f"error distribution must have mean zero, got {err.mean:.3g}")
        if not (err.lo < 0.0 < err.hi):
            raise ConstructionError("error support must straddle zero")
        cls = AdditiveErrorFamily if family == "additive_error" else ScaledErrorFamily
        return cls(err, dict(params))
    if family == "table":
        return TableIncomeFamily(params["theta_grid"], params["rows"], dict(params))
    raise ConstructionError(f"unknown income family {family!r}")


def sample_income(fam: IncomeFamily, theta, rng: np.random.Generator):
    """Draw a realized income from G(. | theta) by inverse transform."""
    u = rng.random(np.shape(theta)) if np.ndim(theta) else rng.random()
    return fam.ppf(u, theta)


def project_to_support(fam: IncomeFamily, theta_report, pi_true):
    """Closest point of [supp_lo(theta_report), supp_hi(theta_report)] to pi_true.

    This is the on-path income report of a winner whose realized income is
    not feasible under his reported type ("as truthfully as possible").
    """
    lo = fam.supp_lo(theta_report)
    hi = fam.supp_hi(theta_report)
    out = np.minimum(np.maximum(pi_true, lo), hi)
    return out if np.ndim(out) else float(out)


# ---------------------------------------------------------------------------
# Agent bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentSpec:
    """One bidder: type distribution, income family, audit cost c >= 0 and
    maximal penalty sensitivity phi in [0, 1]."""

    types: TypeDist
    income: IncomeFamily
    audit_cost: float
    sensitivity: float

    def __post_init__(self):
        c, phi = self.audit_cost, self.sensitivity
        if not (isinstance(c, (int, float)) and np.isfinite(c) and c >= 0):
            raise ConstructionError(f"audit_cost must be >= 0, got {c!r}")
        if not (isinstance(phi, (int, float)) and 0.0 <= phi <= 1.0):
            raise ConstructionError(f"sensitivity must lie in [0, 1], got {phi!r}")
        lo, hi = self.types.lo, self.types.hi
        if isinstance(self.income, ScaledErrorFamily) and hi > 1.0 + 1e-12:
            raise ConstructionError(
                f"scaled-error incomes need type support within [0, 1], got hi={hi}")
        # incomes must be nonnegative and bounded; support endpoints ordered
        # on the interior
        probe = np.linspace(lo, hi, 33)
        s_lo = np.asarray(self.income.supp_lo(probe), dtype=float)
        s_hi = np.asarray(self.income.supp_hi(probe), dtype=float)
        if not (np.all(np.isfinite(s_lo)) and np.all(np.isfinite(s_hi))):
            raise ConstructionError("income support must be finite")
        if np.any(s_lo < -1e-9):
            raise ConstructionError(
                "income support dips below zero (error lower bound < -type lower bound)")
        interior = (probe > lo) & (probe < hi)
        if np.any(s_hi[interior] - s_lo[interior] <= 0):
            raise ConstructionError("income support must be nondegenerate on the interior")
