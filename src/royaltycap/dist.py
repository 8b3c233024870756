"""Distribution families for bidder types and conditional asset incomes.

Two kinds of objects live here:

* ``TypeDist`` -- the distribution F of a bidder's type (the bidder's
  expected income from the asset), on a bounded interval: the law object
  itself, with cdf/pdf/ppf; ``inverse_hazard`` gives (1 - F)/f.

* ``IncomeFamily`` -- the conditional law G(. | theta) of realized income
  given the type, with a support [supp_lo(theta), supp_hi(theta)] that may
  shift with the type.  Families are normalized so that E[pi | theta] = theta
  and are strictly ordered by first-order stochastic dominance in theta
  (the partial derivative of G in theta is negative on the interior).  Each
  family integrates its own audit region in closed form
  (``IncomeFamily.audit_region``), the package's only income integral.
  The additive and scaled families share one location-scale law whose
  error law is a ``TypeDist``; a tabulated family interpolates its rows
  between type knots in quantile.

All objects are immutable after construction and safe to share across
threads; a law draws nothing itself (callers sample its ``ppf`` at their own
uniforms).  Law parameters are read by ``errors._real``, grids by ``_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstructionError, DomainError, _grid, _real, _reals

# Tolerance for "mean zero" / "integrates to one" construction checks.
_MEAN_TOL = 1e-8
# Largest |E[pi | theta] - theta| of an income law: held by tabulated rows at
# construction and by ``check``, so no law that ``check`` fails for it builds
_NORMALIZATION_TOL = 1e-7
# float64 elements per row-blocked kernel temporary (in ``mech``): 64 KiB,
# half glibc's initial mmap threshold, so that the temporaries come from the
# heap and are reused rather than mapped and faulted in afresh (at 2^14 each
# was exactly the 128 KiB threshold), and few blocks cover a table build
_BLOCK_ELEMENTS = 1 << 13


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
    cdf finds its cell by integer bisection and finishes by Newton's
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


# bisection-safeguarded Newton steps of ``_cubic_roots``, and the residual,
# relative to max(1, |target|), at which a point has converged
_NEWTON_STEPS = 72
_ROOT_TOL = 2.0 ** -48


def _cubic_roots(coef: np.ndarray, u: np.ndarray, h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per row, the offset in [0, h] at which the cubic with coefficients
    ``coef`` (lowest power first, one column per row) reaches ``u``, given
    that it is nondecreasing there, below u at 0 and at least u at h: the
    first iterate from ``s`` whose residual is at most ``_ROOT_TOL`` times
    max(1, |u|).

    Newton's method safeguarded by bisection (``rtsafe`` in Press et al.,
    *Numerical Recipes*, sec. 9.4): the iterates bracket the root, from
    [0, h] on, and a step that leaves the bracket halves it instead, so a
    cubic flat near the root converges too.  From a secant start a smooth
    cell settles in 0-4 steps (0 on a linear one).  Settled rows leave the
    loop, so each row's result depends on its own inputs alone."""
    out = np.empty_like(s)
    rows = np.arange(s.size)
    tol = _ROOT_TOL * np.fmax(1.0, np.abs(u))
    a, b = np.zeros_like(s), h
    for _ in range(_NEWTON_STEPS):
        c0, c1, c2, c3 = coef
        f = ((c3 * s + c2) * s + c1) * s + c0 - u
        done = np.abs(f) <= tol
        if done.any():
            out[rows[done]] = s[done]
            keep = ~done
            if not keep.any():
                return out
            rows, s, f, u, tol, a, b, coef = (x[..., keep]
                                              for x in (rows, s, f, u, tol, a, b, coef))
            c0, c1, c2, c3 = coef
        a = np.where(f < 0, s, a)
        b = np.where(f > 0, s, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            nxt = s - f / ((3.0 * c3 * s + 2.0 * c2) * s + c1)
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


def _distinct(x) -> np.ndarray:
    """The distinct values of ``x``, flattened and sorted: ``np.unique`` of
    an array without NaNs, by the same sort.  (``np.unique`` imports
    ``numpy.ma`` to rule out a masked array.)"""
    s = np.sort(x, axis=None)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _buffers(out, size: int, *dtypes) -> tuple:
    """A kernel's ``out``: its result and scratch arrays, or, when ``out`` is
    None, fresh arrays of ``size`` elements of ``dtypes``."""
    return tuple(np.empty(size, dt) for dt in dtypes) if out is None else out


def _buckets(xp: np.ndarray, x, k: int, out=None) -> np.ndarray:
    """Bucket of each point of the 1-d array ``x`` among ``k`` equal-width
    buckets over [xp[0], xp[-1]]: nondecreasing in x, so the points of a
    bucket never precede the grid points of an earlier one; NaN falls in the
    last bucket.  ``out``: the buckets (intp) and a float scratch array."""
    j, b = _buffers(out, x.size, np.intp, float)
    np.subtract(x, xp[0], out=b)
    b *= k / (xp[-1] - xp[0])
    np.fmin(b, k - 1, out=b)
    np.copyto(j, b, casting="unsafe")  # truncates, as astype does
    return j


def _guide_table(xp: np.ndarray) -> np.ndarray:
    """Guide table of the sorted grid ``xp`` for indexed search (Chen & Asau
    1974): over 2 len(xp) buckets, the last grid index that lies in an earlier
    bucket, which is at or below every point of the bucket (clipped to the
    cells 0 .. len(xp) - 2).  The grid points of the earlier buckets are
    counted by bucket."""
    k = 2 * xp.size
    counts = np.bincount(_buckets(xp, xp, k), minlength=k)
    first = np.cumsum(counts) - counts
    return np.clip(first - 1, 0, xp.size - 2)


def _cells(xp: np.ndarray, guide: np.ndarray, x) -> np.ndarray:
    """Cell of each point of the array ``x`` on the sorted grid ``xp``: the
    last index j with xp[j] <= x, kept in 0 .. len(xp) - 2 (the end cells
    extend beyond the grid), found by ``_search`` from the guide table.  The
    search of the piecewise cubics (``_Pchip``); ``_Grid.locate`` searches
    the same way with a last, sentinel cell, and from start cells too."""
    x = np.asarray(x, dtype=float)
    xs = np.clip(x.ravel(), xp[0], np.nextafter(xp[-1], -np.inf))
    out = (np.empty(x.size, np.intp), np.empty(x.size))
    return _search(xp, guide, xs, None, out).reshape(x.shape)


def _search(xp: np.ndarray, guide: np.ndarray, xs: np.ndarray, start, out) -> np.ndarray:
    """The last index j with xp[j] <= xs of each point of the 1-d array
    ``xs`` (0 below the grid): the bucket's index in ``guide =
    _guide_table(xp)``, or the cells ``start`` (``_Grid.locate``'s, one per
    point, none beyond its own), stepped forward once where the next grid
    point is at or below the point.  That settles nearly every point of a
    well-spread grid; one that must step further sits in a bucket crowded
    with grid points (a far outlier squeezes the others into a few buckets;
    kink triplets share one), or at or above the top (the next point is read
    clipped to xp[-1]), and is binary-searched.  No array is allocated but
    for those points.  ``out``: the cells (intp) and a float scratch array."""
    j, scratch = out
    if start is None:
        # each bucket's guide entry, read in place: take reads an index
        # before it writes that position
        guide.take(_buckets(xp, xs, guide.size, out=(j, scratch)), out=j, mode="wrap")
    else:
        np.copyto(j, start.ravel())
    # the flags share scratch's memory: each is written after its float is
    # read.  (take as a method skips np.take's Python wrapper, a microsecond
    # a call, on tens of calls a chunk)
    nxt, late = xp[1:], scratch.view(bool)[:xs.size]
    np.less_equal(nxt.take(j, out=scratch, mode="clip"), xs, out=late)
    j += late
    np.less_equal(nxt.take(j, out=scratch, mode="clip"), xs, out=late)
    if late.any():
        far = np.flatnonzero(late)
        j[far] = np.searchsorted(xp, xs[far], side="right") - 1
    return j


class _Grid:
    """A sorted table grid ``xp`` of at least two distinct points, its
    guide table (``_guide_table``) and the columns that lookups read off it
    by name, ``fp`` (the keyword arguments).  ``floor`` is the least point
    a located point is clipped to: xp[0], or the float below it when the
    first grid points repeat, so that a point below the grid lands in cell 0
    and one at xp[0] in the last cell of the run, as in np.interp."""

    def __init__(self, xp: np.ndarray, **columns):
        self.xp = xp
        self.guide = _guide_table(xp)
        self.floor = xp[0] if xp[1] > xp[0] else np.nextafter(xp[0], -np.inf)
        self.fp = {name: np.asarray(fp, dtype=float) for name, fp in columns.items()}
        self.slopes = {}

    def locate(self, x, start=None, out=None) -> "GridPoints":
        """Locate ``x``: each point's cell j (``_search``, from the cells
        ``start`` when given) and its offset d = clip(x, floor, xp[-1]) -
        xp[j].  ``out``: the arrays j and d and a float scratch array (intp,
        float, float, of x's size, none of them x's memory; ``start`` may be
        j)."""
        x = np.asarray(x, dtype=float)
        j, d, scratch = _buffers(out, x.size, np.intp, float, float)
        np.clip(x.ravel(), self.floor, self.xp[-1], out=d)
        _search(self.xp, self.guide, d, start, (j, scratch))
        d -= self.xp.take(j, out=scratch, mode="wrap")
        return GridPoints(self, j, d, x.shape)

    def slope(self, name: str) -> tuple:
        """Column ``name``'s slope table, np.interp's, (fp[j+1] - fp[j]) /
        (xp[j+1] - xp[j]) per cell (0 for a cell of no width and for the
        sentinel), and whether the column holds a -0.0: built on the
        column's first read."""
        if name not in self.slopes:
            fp = self.fp[name]
            width = np.diff(self.xp)
            width[width == 0.0] = np.inf
            slope = np.zeros(fp.size)
            np.subtract(fp[1:], fp[:-1], out=slope[:-1])
            slope[:-1] /= width
            self.slopes[name] = slope, bool(np.signbit(fp[fp == 0.0]).any())
        return self.slopes[name]


@dataclass(frozen=True)
class GridPoints:
    """Points located on a sorted table grid (``_Grid.locate``): cell ``j``
    (np.interp's last index with xp[j] <= x; cell 0 below the grid, a last,
    sentinel, cell len(xp) - 1 at or above its top) and offset ``d`` from
    xp[j] of the point clipped to the grid.  ``interp`` reads a column at
    them as slope[j] * d + fp[j], np.interp's arithmetic, so the two agree
    bit for bit on tables whose slopes are finite."""

    grid: _Grid
    j: np.ndarray
    d: np.ndarray
    shape: tuple

    def take(self, sel: np.ndarray, out=None) -> "GridPoints":
        """The points at the indices ``sel`` (``out``: the arrays j and d,
        of sel's size)."""
        j, d = _buffers(out, sel.size, np.intp, float)
        self.j.take(sel, out=j, mode="wrap")
        self.d.take(sel, out=d, mode="wrap")
        return GridPoints(self.grid, j, d, sel.shape)

    def interp(self, name: str, out=None):
        """np.interp(x, xp, fp) for the grid column ``name``: slope[j] * d +
        fp[j], four passes over the points with the column's slope table
        (``_Grid.slope``).  A point on a grid point, beyond an end or in a
        cell of no width has d <= 0, where fp[j] is put back if the column
        holds a -0.0 (slope * 0 + -0.0 is +0.0).  ``out``: the result and a
        float scratch array, of the points' size."""
        res, f0 = _buffers(out, self.j.size, float, float)
        fp, (slope, signed_zero) = self.grid.fp[name], self.grid.slope(name)
        slope.take(self.j, out=res, mode="wrap")
        res *= self.d
        res += fp.take(self.j, out=f0, mode="wrap")
        if signed_zero:
            hit = np.flatnonzero(self.d <= 0.0)
            res[hit] = fp[self.j[hit]]
        return res.reshape(self.shape)[()]


def _quantile_domain(u):
    """``u`` as a float array (``_reals``) and the mask of its entries in
    [0, 1]: a quantile is NaN elsewhere (and at NaN)."""
    u = _reals(u, "quantile")
    return u, (u >= 0.0) & (u <= 1.0)


# ---------------------------------------------------------------------------
# Type distributions (and the error laws of the additive and scaled families)
# ---------------------------------------------------------------------------


class TypeDist:
    """Bidder type distribution F on [lo, hi] with strictly positive density
    on the open support (the density may vanish at an endpoint): the law
    object itself (``_Standardized`` or ``_TableCdf``), whose ``family`` and
    ``params`` ``make_type_dist`` sets.  Error laws take the same form."""

    def __repr__(self):
        return f"TypeDist(family={self.family!r}, lo={self.lo!r}, hi={self.hi!r})"

    def _check_domain(self, theta) -> np.ndarray:
        """The one reader of a type: ``_reals(theta)``, returned unless outside [lo, hi]."""
        theta = _reals(theta, "type")
        # NaN fails every comparison, so it is rejected here
        if not (np.all(theta >= self.lo - 1e-12) and np.all(theta <= self.hi + 1e-12)):
            raise DomainError(f"type {theta} outside support [{self.lo}, {self.hi}]")
        return theta


class _Standardized(TypeDist):
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
        return (_reals(x, "type") - self.loc) / self.scale

    def cdf(self, x):
        z = self._z(x)
        out = np.where(z <= 0, 0.0, np.where(z >= 1, 1.0, self._cdf(np.clip(z, 0, 1))))
        return out[()]

    def pdf(self, x):
        z = self._z(x)
        out = np.where((z >= 0) & (z <= 1), self._pdf(np.clip(z, 0, 1)) / self.scale,
                       np.where(np.isnan(z), np.nan, 0.0))
        return out[()]

    def cdf_integral(self, x):
        """K(x) = int_lo^x F for x in [lo, hi] (x is clipped to it)."""
        return (self._cdf_integral(np.clip(self._z(x), 0.0, 1.0)) * self.scale)[()]

    def ppf(self, q, out=None):
        """The quantiles; ``out``: the result and a float scratch array, of
        q's shape (``_ppf`` allocates its scratch when None)."""
        q = _reals(q, "quantile")
        res, scratch = (np.empty(q.shape), None) if out is None else out
        # np.where(ok, _ppf(q) * scale + loc, nan), in res; q is clipped
        # first, so that no value outside [0, 1] reaches _ppf
        np.clip(q, 0.0, 1.0, out=res)
        self._ppf(res, scratch=scratch)
        res *= self.scale
        res += self.loc
        # the domain mask only where some q lies outside [0, 1] (or is NaN)
        if q.size and not (q.min() >= 0.0 and q.max() <= 1.0):
            np.copyto(res, np.nan, where=~_quantile_domain(q)[1])
        return res[()]


class _Uniform(_Standardized):
    def __init__(self, lo: float, hi: float):
        super().__init__(lo, hi, 0.5 * (lo + hi), [lo, hi])

    def _cdf(self, z):
        return z

    def _pdf(self, z):
        return np.ones_like(z)

    def _cdf_integral(self, z):
        return 0.5 * z * z

    def _ppf(self, q, scratch=None):
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

    def _cdf_integral(self, z):
        # int_0^z of each branch of ``_cdf``, which meet at c^2 / 3 at z = c
        c = self.c
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(z < c, z ** 3 / (3 * c), np.where(
                c == 1, z ** 3 / 3, z - (c + 1) / 3 + (1 - z) ** 3 / (3 * (1 - c))))

    def _ppf(self, q, scratch=None):
        """np.where(q < c, sqrt(c q), 1 - sqrt((1 - c) (1 - q))), in place."""
        c = self.c
        rises = q < c
        falls = np.subtract(1, q, out=np.empty_like(q) if scratch is None else scratch)
        falls *= 1 - c
        np.sqrt(falls, out=falls)
        np.subtract(1, falls, out=falls)
        np.multiply(c, q, out=q)
        np.sqrt(q, out=q)
        np.copyto(q, falls, where=~rises)
        return q


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


class _Pchip:
    """The Fritsch-Carlson monotone cubic (PCHIP) through (x, y), with
    scipy's endpoint rule and arithmetic (``_pchip_coefficients``): one
    cubic between each pair of neighbouring ``knots`` x, evaluated as
    scipy's ``PPoly`` evaluates it (``_poly``), and its antiderivative
    int_{x[0]}^x, a quartic per cell whose constant is the previous cell's
    value at its end, as scipy's ``PPoly.antiderivative`` fixes it;
    ``total`` is its value at x[-1]."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.knots = x
        self._guide = _guide_table(x)
        self._c = _pchip_coefficients(x, y)
        self._ic = np.vstack([self._c / [[4.0], [3.0], [2.0], [1.0]], np.zeros(x.size - 1)])
        k = [0.0]
        for a4, a3, a2, a1, h in zip(*self._ic[:4].tolist(), np.diff(x).tolist()):
            h2 = h * h   # summed as ``_poly`` sums: lowest power first
            k.append(k[-1] + a1 * h + a2 * h2 + a3 * (h2 * h) + a4 * (h2 * h * h))
        self._ic[-1] = k[:-1]
        self.total = k[-1]

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


def _cdf_table(grid, values):
    """A tabulated CDF's grid and values as float arrays, checked (``_grid``s,
    matching 1-d of >= 2 points, both strictly increasing, values from 0 to 1
    within ``_MEAN_TOL``), with the values' ends set to exactly 0 and 1."""
    grid, values = _grid(grid, "grid"), _grid(values, "cdf")
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
    return grid, values


class _TableCdf(_Pchip, TypeDist):
    """Monotone-cubic (PCHIP) interpolant of a tabulated CDF.

    The interpolant is Fritsch & Carlson's ("Monotone piecewise cubic
    interpolation", SIAM J. Numer. Anal. 1980) with scipy's endpoint rule,
    evaluated with scipy's arithmetic, so every value equals scipy's
    ``PchipInterpolator`` bit for bit.  The law is a cubic polynomial
    between grid points, which are its ``knots``; the pdf is its analytic
    derivative.  Its antiderivative K(x) = int_lo^x F (``cdf_integral``) is
    ``_Pchip``'s quartic per cell; the mean is hi - K(hi).

    The ppf interpolates linearly in a dense inverse table (PCHIP preserves
    monotonicity, so the inverse is well defined), read as a table lookup
    (``_Grid``): the guide table of the table's cdf values finds each
    draw's cell (Chen & Asau 1974), then np.interp's arithmetic
    interpolates in it, bit for bit what np.interp gives.  The first ppf
    call builds the table with its guide and slope tables.  The inversion
    error ``max |F(ppf(u)) - u|`` over 4,097 evenly spaced u is 1.7e-8 on
    the 11-knot tent law of the benchmark and below 4e-18 on linear
    41-point tables.  The ppf is NaN outside [0, 1] and at NaN, and exactly
    ``lo`` and ``hi`` at 0 and 1.
    """

    def __init__(self, grid, values):
        grid, values = _cdf_table(grid, values)
        super().__init__(grid, values)
        self.lo, self.hi = float(grid[0]), float(grid[-1])
        self.mean = self.hi - self.total   # lo + int (1 - F)
        self._dc = self._c[:-1] * np.array([[3.0], [2.0], [1.0]])  # the pdf's pieces

    @cached_property
    def _lookup(self):
        """The dense inverse table's grid (``_Grid``): cdf values at 8,193
        evenly spaced points, each strictly above the last, with those
        points as the column ``x``."""
        dense = np.linspace(self.lo, self.hi, 8193)
        fd = self._poly(self._c, dense)
        keep = np.concatenate(([True], np.diff(fd) > 0))
        return _Grid(fd[keep], x=dense[keep])

    def cdf(self, x):
        return self._poly(self._c, np.clip(_reals(x, "type"), self.lo, self.hi))[()]

    def pdf(self, x):
        """The pdf, 0 outside [lo, hi]."""
        x = _reals(x, "type")
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, self._poly(self._dc, np.clip(x, self.lo, self.hi)), 0.0)[()]

    def cdf_integral(self, x):
        """K(x) = int_lo^x F for x in [lo, hi] (x is clipped to it)."""
        return self._poly(self._ic, np.clip(_reals(x, "type"), self.lo, self.hi))[()]

    def ppf(self, u, out=None):
        """The quantiles; ``out``: the result and a float scratch array, of
        u's shape."""
        u, ok = _quantile_domain(u)
        grid = self._lookup
        res, scratch = _buffers(out, u.shape, float, float)
        at = grid.locate(np.where(ok, u, 0.0))
        at.interp("x", out=(res.ravel(), scratch.ravel()))
        # np.where(ok, np.where(u < 1.0, res, hi), nan), in res
        np.copyto(res, self.hi, where=u >= 1.0)
        np.copyto(res, np.nan, where=~ok)
        return res if res.ndim else float(res)


def _param(law: str, params: dict, key: str, read=_real):
    """``read(params[key], key)``, or ``ConstructionError`` naming the ``law``
    and the parameter where it is missing or ``read`` refuses it with a
    ``TypeError`` or ``ValueError`` (the rules' ``ConstructionError`` too)."""
    if key not in params:
        raise ConstructionError(f"{law} needs the parameter {key!r}")
    try:
        return read(params[key], key)
    except (TypeError, ValueError) as e:
        raise ConstructionError(f"{law} parameter {key!r} is malformed: {e}") from e


def make_type_dist(family: str, params: dict) -> TypeDist:
    """Build a type distribution from a family tag and parameters: a bounded
    law with vectorized cdf/pdf/ppf, its mean and the knots where it is not
    smooth.  Families: ``uniform`` (lo, hi), ``triangular`` (lo, hi,
    optional mode, default mode = hi), ``table`` (grid, cdf values;
    monotone-cubic interpolated).
    """
    law_name = f"{family} law"
    if family in ("uniform", "triangular"):
        lo, hi = (_param(law_name, params, key) for key in ("lo", "hi"))
        if not lo < hi:
            raise ConstructionError(f"{family} bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if family == "uniform":
        law = _Uniform(lo, hi)
    elif family == "triangular":
        mode = _param(law_name, params, "mode") if "mode" in params else hi
        if not lo <= mode <= hi:
            raise ConstructionError(f"triangular mode {mode} outside [{lo}, {hi}]")
        law = _Triangular(lo, mode, hi)
    elif family == "table":
        law = _TableCdf(*(_param(law_name, params, key, _grid) for key in ("grid", "cdf")))
    else:
        raise ConstructionError(f"unknown distribution family {family!r}")
    law.family, law.params = family, dict(params)
    return law


def inverse_hazard(d: TypeDist, theta):
    """(1 - F(theta)) / f(theta); zero at the top type.

    At a lower endpoint where the density vanishes the value is +inf, which
    propagates correctly through comparisons (such a type never wins).
    ``theta`` is read by ``TypeDist._check_domain``.
    """
    theta = d._check_domain(theta)
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
    * ``g2_over_g(pi, theta)`` -- the ratio dG/dtheta / pdf in its
      family closed form, which extends continuously beyond the support
      edge (one-sided limits at the boundary); the partial derivative of
      G in theta is ``g2_over_g * pdf``, which no kernel needs;
    * ``audit_region(theta, b)`` -- per type of a 1-d array and the top b
      of its audit region (one per type), with
      b' = clip(b, supp_lo, supp_hi): G(b | theta),
      int_{supp_lo}^{b'} -dG/dtheta dpi (Phi / phi) and
      int_{supp_lo}^{b'} (1 - G) dpi: every income integral of the package
      (the mechanism kernels', and ``verify``'s and ``endogenous_virtual``'s
      as differences at their cuts), so every custom family must implement
      it;
    * ``ppf(u, theta)`` -- conditional quantile, used for inverse-transform
      sampling;
    * optionally ``ratio_crossing(theta, level)`` -- per type, the income
      where -dG/dtheta / g falls to ``level`` > 0, in closed form (the
      default None has the audit threshold bisected).

    All other methods accept scalars or broadcastable arrays, read by
    ``_reals``.  The additive and scaled families implement them once, in
    ``_ErrorFamily``.

    The simulator reads the winner's income draw and the reported type's
    support ends through ``ppf_into(u, theta, out=(result, scratch))``,
    ``supp_lo_into(theta, out)`` and ``supp_hi_into(theta, out)``, which
    write them into its 1-d arrays of one size and return the result.  The
    additive and scaled families write in place; the fallbacks here copy
    the plain method's result in, so a family with the seven methods above
    simulates unedited.
    """

    family: str = "abstract"
    # types at which the law may kink: a tabulated family's row types
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

    def g2_over_g(self, pi, theta):
        raise NotImplementedError

    def audit_region(self, theta, b):
        raise NotImplementedError

    def ratio_crossing(self, theta, level):
        return None

    def ppf(self, u, theta):
        raise NotImplementedError

    # -- writes into the caller's arrays: the plain results copied in ------

    def ppf_into(self, u, theta, out):
        np.copyto(out[0], self.ppf(u, theta))
        return out[0]

    def supp_lo_into(self, theta, out):
        np.copyto(out, self.supp_lo(theta))
        return out

    def supp_hi_into(self, theta, out):
        np.copyto(out, self.supp_hi(theta))
        return out


class _ErrorFamily(IncomeFamily):
    """Income pi = theta + s(theta) eps, the location-scale law of the
    additive and scaled families: a mean-zero error law (a ``TypeDist``) on
    [eps_lo, eps_hi] with cdf H and K(z) = int_{eps_lo}^z H, and a scale s
    affine in the type, of slope s' = s(1) - s(0) <= 0.  With
    z = (pi - theta) / s, G = H(z), g = h(z) / s and -dG/dtheta / g =
    1 + s' z, nonincreasing in income (``ratio_nonincreasing``); the audit
    region up to b' = theta + s z has Phi / phi = H(z) (1 + s' z) - s' K(z)
    and int (1 - G) = s ((z - eps_lo) - K(z)).  Where s = 0 (the scaled
    family's top type) income is theta: G steps there, g = 0 and
    Phi / phi = 0; at s = 1, s' = 0 these are the additive closed forms bit
    for bit (z / 1.0 is z, 1.0 * H and H - 0.0 * K are H).  A subclass gives
    ``_scale``, ``g2_over_g`` and ``_spread(theta, eps, out=None,
    scratch=None)``, theta + s eps into fresh arrays or ``out`` (eps a float,
    or ``out`` itself with a float ``scratch``).  The error law must have
    mean zero, straddle zero and end where 1 + s' z >= 0.
    """

    ratio_nonincreasing = True

    def __init__(self, error, params: dict):
        if abs(error.mean) > _MEAN_TOL:
            raise ConstructionError(f"error distribution must have mean zero, got {error.mean:.3g}")
        if not (error.lo < 0.0 < error.hi):
            raise ConstructionError("error support must straddle zero")
        super().__init__(params)
        self._err = error
        self._slope = float(self._scale(1.0) - self._scale(0.0))
        if 1.0 + self._slope * error.hi < 0.0:   # -G_theta/g = 1 + s' z: FOSD fails
            raise ConstructionError(f"scaled errors must end at or below 1, got {error.hi}")

    def supp_lo(self, theta):
        return self._spread(_reals(theta, "type"), self._err.lo)

    def supp_hi(self, theta):
        return self._spread(_reals(theta, "type"), self._err.hi)

    def _standard(self, pi, theta):
        """pi and theta as float arrays (``_reals``), the scale s, the scale
        made safe to divide by (1 where s is not positive) and the
        standardized error z = (pi - theta) / safe."""
        pi, theta = _reals(pi, "income"), _reals(theta, "type")
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

    def audit_region(self, theta, b):
        err, slope = self._err, self._slope
        b, theta, s, _, z = self._standard(b, theta)
        z = np.clip(z, err.lo, err.hi)
        h, k, top = err.cdf(z), err.cdf_integral(z), s == 0
        return (np.where(top, b >= theta, h), np.where(top, 0.0, h * (1.0 + slope * z) - slope * k),
                s * ((z - err.lo) - k))

    def ppf(self, u, theta):
        return self._spread(_reals(theta, "type"), self._err.ppf(u))

    # theta + s eps written in place: the error law's quantiles into the
    # result, the support ends from theirs
    def ppf_into(self, u, theta, out):
        self._err.ppf(u, out=out)
        return self._spread(theta, out[0], out=out[0], scratch=out[1])

    def supp_lo_into(self, theta, out):
        return self._spread(theta, self._err.lo, out=out)

    def supp_hi_into(self, theta, out):
        return self._spread(theta, self._err.hi, out=out)


class AdditiveErrorFamily(_ErrorFamily):
    """Income = type + mean-zero error: pi = theta + eps (s = 1, s' = 0).
    G(pi | theta) = H(pi - theta), so dG/dtheta = -h and the ratio
    dG/dtheta / g is identically -1.  With z = b' - theta the audit region
    has Phi / phi = H(z) and int (1 - G) = (z - eps_lo) - K(z).
    """

    family = "additive_error"

    def _scale(self, theta):
        return 1.0

    def _spread(self, theta, eps, out=None, scratch=None):
        """theta + eps (theta + 1.0 * eps), into ``out`` when given."""
        return np.add(theta, eps, out=out)

    def g2_over_g(self, pi, theta):
        shape = np.broadcast_shapes(_reals(pi, "income").shape, _reals(theta, "type").shape)
        return np.full(shape, -1.0) if shape else -1.0


class ScaledErrorFamily(_ErrorFamily):
    """Income = type + (1 - type) * error: pi = theta + (1 - theta) eps
    (s = 1 - theta, s' = -1).  The support shrinks as the type approaches
    1.  The ratio dG/dtheta / g = (pi - 1) / (1 - theta) does not depend on
    the error distribution's shape and rises in income; it falls to k at
    the income 1 - k s (``ratio_crossing``).  With z = (b' - theta) / s,
    Phi / phi = H(z) (1 - z) + K(z) and int (1 - G) = s ((z - eps_lo) - K(z)),
    both 0 at the top type.  Requires the type support to lie in [0, 1].
    """

    family = "scaled_error"

    def _scale(self, theta):
        return 1.0 - np.asarray(theta, dtype=float)

    def _spread(self, theta, eps, out=None, scratch=None):
        """theta + (1 - theta) eps, into ``out`` when given, eps a float or
        ``out`` itself, the scale then in ``scratch``."""
        s = np.subtract(1.0, theta, out=out if scratch is None else scratch)
        res = np.multiply(s, eps, out=out)
        res += theta
        return res

    def g2_over_g(self, pi, theta):
        pi, s = _reals(pi, "income"), self._scale(_reals(theta, "type"))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (pi - 1.0) / s
        return out if np.ndim(out) else float(out)

    def ratio_crossing(self, theta, level):
        return 1.0 - level * self._scale(theta)


class TableIncomeFamily(IncomeFamily):
    """Tabulated conditional laws, interpolated between type knots in
    quantile (displacement interpolation: McCann, "A convexity principle for
    interacting gases", Adv. Math. 1997; Genest, "Vincentization
    revisited", Ann. Statist. 1992).

    ``theta_grid`` gives the type knots; ``rows`` holds one (pi_grid, cdf)
    table per knot, checked as a ``table`` law is.  Row j is read as its
    quantile Q_j: the monotone cubic (PCHIP, ``_Pchip``) through the swapped
    table (cdf, income).  So a row's law is the PCHIP of its quantile, not
    of its cdf: the two agree on a linear table, and on a tent law (density
    vanishing at both ends) tabulated on 11 points their cdfs differ by at
    most 2.7e-3, near the ends (1.7e-4 on 41 points: the gap shrinks as the
    square of the spacing).  Between knots j and j + 1 the law is

        Q(u | theta) = (1 - w) Q_j(u) + w Q_{j+1}(u),
        w = (theta - theta_j) / (theta_{j+1} - theta_j),

    which keeps FOSD (Q_{j+1} >= Q_j is checked) and the mean normalization
    (int_0^1 Q_j = theta_j is checked to ``_NORMALIZATION_TOL``) exactly; the
    support [Q(0 | theta), Q(1 | theta)] moves continuously with the type.
    Linear rows copying an additive or a scaled uniform family give that
    family exactly.

    On a knot interval each row is one cubic between the union of both
    rows' u-knots, and everything has a closed form in u.  -G_theta / g is
    D_j(u) = (Q_{j+1}(u) - Q_j(u)) / (theta_{j+1} - theta_j), the same at
    every type of the interval, so ``ratio_nonincreasing`` is decided cell
    by cell at construction; ``audit_region`` reads u* = G(b' | theta),
    int_0^{u*} D_j and (b' - Q(0 | theta)) - u* b' + int_0^{u*} Q off the
    rows' quartic antiderivatives; ``ppf`` is two row quantiles and one mix;
    and ``ratio_crossing`` bisects D_j(u) = level in u.  Only ``cdf``,
    ``pdf`` (1 / Q') and ``g2_over_g`` (-D_j) invert Q (``_solve``): an
    income at or beyond a support end takes u = 0 or 1, and any other finds
    its cell by integer bisection on the mixed quantile at the union knots,
    then Newton's method on the cell's mixed cubic, from the secant start
    and safeguarded by bisection (``_cubic_roots``, to a residual of 2^-48
    in income).  Each point's result depends on that point alone.
    """

    family = "table"

    def __init__(self, theta_grid, rows, params: dict):
        super().__init__(params)
        given = {"theta_grid": theta_grid, "rows": rows}
        self.type_knots = self._tg = _param("table income", given, "theta_grid", _grid)
        if self._tg.ndim != 1 or self._tg.size < 2 or np.any(np.diff(self._tg) <= 0):
            raise ConstructionError("income table theta grid must be strictly increasing")
        # each row a pair (income grid, cdf values)
        tables = _param("table income", given, "rows", lambda rs, _: [_cdf_table(*r) for r in rs])
        if len(tables) != self._tg.size:
            raise ConstructionError("income table needs one row per theta knot")
        if any(g[0] < -1e-12 for g, _ in tables):
            raise ConstructionError("income table rows must have ordered nonnegative supports")
        rows = [(_Pchip(v, g), g[-1]) for g, v in tables]   # each quantile and its top
        # FOSD across knots: each row's quantile at or above the last one's
        probe = np.linspace(0.0, 1.0, 257)
        vals = np.array([np.append(q._poly(q._c, probe[:-1]), top) for q, top in rows])
        if np.any(np.diff(vals, axis=0) < -1e-9):
            raise ConstructionError("income table rows must be FOSD-ordered in theta")
        # mean normalization per knot: E[pi | theta_j] = int_0^1 Q_j = theta_j
        for j, (q, _) in enumerate(rows):
            if abs(q.total - self._tg[j]) > _NORMALIZATION_TOL:
                raise ConstructionError(
                    f"income table row {j} has mean {q.total:.8g}, expected {self._tg[j]:.8g}")
        self._lay_out(rows)

    def _lay_out(self, rows):
        """Lay each knot interval's union of both rows' u-knots out in one
        block of P = 2^m + 1 slots (2^m >= the most cells of an interval),
        padded with u = 1.  Per slot: ``_u``, its u; ``_cubic[r, p]``, the
        interval's row r's cubic re-expanded about that u, power p from the
        lowest (the power-0 term is the row's income there, its top exactly
        at u = 1); ``_area[r]``, the row's integral from 0 to u; and
        ``_gap`` and ``_gap_area``, the same of D_j.  A slot's cubic holds
        up to the next slot's u, and the slots at u = 1 hold the last cell's.
        ``ratio_nonincreasing`` holds where D_j's derivative is at most 1e-9
        on every cell."""
        unions = [_distinct(np.concatenate([a.knots, b.knots]))
                  for (a, _), (b, _) in zip(rows[:-1], rows[1:])]
        m = max(u.size - 2 for u in unions).bit_length()
        self._width = width = (1 << m) + 1
        self._steps = [1 << k for k in range(m - 1, -1, -1)]
        u_at = np.ones((len(unions), width))
        cubic = np.empty((2, 4, len(unions), width))
        area = np.empty((2, len(unions), width))
        for j, u in enumerate(unions):
            x = u_at[j]
            x[:u.size] = u
            top = x >= 1.0
            for r, (q, hi) in enumerate(rows[j:j + 2]):
                i = _cells(q.knots, q._guide, x)
                c, d = q._c[:, i], x - q.knots[i]
                cubic[r, :, j] = (np.where(top, hi, q._poly(q._c, x, i)),
                                  (3.0 * c[0] * d + 2.0 * c[1]) * d + c[2],
                                  3.0 * c[0] * d + c[1], c[0])
                area[r, j] = np.where(top, q.total, q._poly(q._ic, x, i))
        dtheta = np.repeat(np.diff(self._tg), width)
        self._u = u_at.ravel()
        self._cubic = cubic.reshape(2, 4, -1)
        self._values = np.ascontiguousarray(self._cubic[:, 0])   # the rows' incomes
        self._area = area.reshape(2, -1)
        self._gap = (self._cubic[1] - self._cubic[0]) / dtheta
        self._gap_area = (self._area[1] - self._area[0]) / dtheta
        # D_j' = g1 + 2 g2 s + 3 g3 s^2 on each cell [0, h]: its largest value
        # is at an end or, where g3 < 0, at its vertex s = -g2 / (3 g3)
        cells = np.flatnonzero(np.diff(self._u) > 0)
        h = self._u[cells + 1] - self._u[cells]
        _, g1, g2, g3 = self._gap[:, cells]
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = -g2 / (3.0 * g3)
            peak = np.where((g3 < 0) & (vertex > 0) & (vertex < h), g1 - g2 * g2 / (3.0 * g3), g1)
        rise = np.maximum(peak, g1 + (2.0 * g2 + 3.0 * g3 * h) * h)
        self.ratio_nonincreasing = bool(np.all(rise <= 1e-9))

    @staticmethod
    def _mix(pair, w):
        """Two rows' values (leading axis: the row), weight w on the second."""
        out = pair[0] * (1.0 - w)
        out += w * pair[1]
        return out

    def _quantile(self, start, u, w):
        """Q(u | theta) at u in [0, 1], in the blocks from ``start``, at the
        weights w."""
        k = self._slot(start, u)
        return self._mix(_cubic_at(self._cubic.take(k, axis=-1).swapaxes(0, 1), u - self._u[k]), w)

    def _search(self, k, value, target):
        """The last slot, in the blocks from the slots k (updated in place),
        whose ``value(slot)`` is at most ``target``: integer bisection."""
        for step in self._steps:
            k += step * (value(k + step) <= target)
        return k

    def _slot(self, start, u):
        """The slot, in the blocks from ``start``, whose cell holds each u in
        [0, 1]: bisection on the blocks' u, and the last slot at 1."""
        k = self._search(np.broadcast_to(start, np.shape(u)).copy(), self._u.take, u)
        return np.where(u < 1.0, k, start + self._width - 1)

    def _ends(self, theta):
        """The weight w on row j + 1 of each type's knot interval j, the
        interval's first slot and the type's support ends."""
        theta = _reals(theta, "type")
        j = np.clip(np.searchsorted(self._tg, theta, side="right") - 1, 0, self._tg.size - 2)
        w = np.clip((theta - self._tg[j]) / (self._tg[j + 1] - self._tg[j]), 0.0, 1.0)
        start = j * self._width
        return (w, start, self._mix(self._values.take(start, axis=-1), w),
                self._mix(self._values.take(start + self._width - 1, axis=-1), w))

    def supp_lo(self, theta):
        out = self._ends(theta)[2]
        return out if np.ndim(theta) else float(out)

    def supp_hi(self, theta):
        out = self._ends(theta)[3]
        return out if np.ndim(theta) else float(out)

    def _solve(self, pi, theta):
        """Incomes pi at types theta, over their broadcast (flattened): the
        slot k of each one's cell in u, its offset s there, the weight w,
        u = G(pi | theta), whether pi lies in the support [lo, hi], and lo
        and hi.  Incomes at or below lo take the bottom (the block's first
        slot, s = 0), those at or above hi the top (its last slot, where
        u = 1); only the others are inverted."""
        pi = _reals(pi, "income")
        w, start, lo, hi = self._ends(theta)
        shape = np.broadcast_shapes(pi.shape, w.shape)
        pi, w, start, lo, hi = (np.broadcast_to(x, shape).ravel() for x in (pi, w, start, lo, hi))
        k = np.where(pi >= hi, start + self._width - 1, start)
        s = np.where(np.isnan(pi), np.nan, 0.0)
        inner = np.flatnonzero((pi > lo) & (pi < hi))
        if inner.size:
            p, ww = pi[inner], w[inner]
            kk = self._search(start[inner],
                              lambda at: self._mix(self._values.take(at, axis=-1), ww), p)
            coef = self._mix(self._cubic.take(kk, axis=-1), ww)
            h = self._u[kk + 1] - self._u[kk]
            right = self._mix(self._values.take(kk + 1, axis=-1), ww)
            s[inner] = _cubic_roots(coef, p, h, h * ((p - coef[0]) / (right - coef[0])))
            k[inner] = kk
        return shape, k, s, w, self._u[k] + s, (pi >= lo) & (pi <= hi), lo, hi

    def _slope(self, k, s, w):
        """dQ/du at offset s from the slots k, at weights w."""
        c1, c2, c3 = self._mix(self._cubic[:, 1:].take(k, axis=-1), w)
        return (3.0 * c3 * s + 2.0 * c2) * s + c1

    def _gap_at(self, k, s):
        """D_j at offset s from the slots k."""
        return _cubic_at(self._gap.take(k, axis=-1), s)

    def cdf(self, pi, theta):
        shape, *_, u, _, _, _ = self._solve(pi, theta)
        return _shaped(u, shape)

    def pdf(self, pi, theta):
        shape, k, s, w, _, inside, _, _ = self._solve(pi, theta)
        with np.errstate(divide="ignore"):
            return _shaped(np.where(inside, 1.0 / self._slope(k, s, w), 0.0), shape)

    def g2_over_g(self, pi, theta):
        shape, k, s, *_ = self._solve(pi, theta)
        return _shaped(-self._gap_at(k, s), shape)

    def audit_region(self, theta, b):
        shape, k, s, w, u, _, lo, hi = self._solve(b, theta)
        # int_0^u = the integral to the slot plus int_0^s of the slot's cubic
        quantile = self._mix(self._cubic.take(k, axis=-1), w)
        area = self._mix(self._area.take(k, axis=-1), w) + s * _cubic_at(quantile / _POWERS, s)
        cap = self._gap_area[k] + s * _cubic_at(self._gap.take(k, axis=-1) / _POWERS, s)
        top = np.clip(np.broadcast_to(b, shape).ravel(), lo, hi)
        return (_shaped(u, shape), _shaped(cap, shape),
                _shaped((top - lo) - u * top + area, shape))

    def ratio_crossing(self, theta, level):
        w, start, _, _ = self._ends(theta)

        def above(u):   # D_j(u) >= level, elementwise over leading axes
            k = self._slot(start, u)
            return self._gap_at(k, u - self._u[k]) >= level

        u = _bisect(above, np.zeros(np.shape(start)), np.ones(np.shape(start)), 64)
        return self._quantile(start, u, w)

    def ppf(self, u, theta):
        u = _reals(u, "quantile")
        w, start, lo, hi = self._ends(theta)
        shape = np.broadcast_shapes(u.shape, w.shape)
        u, w, start, lo, hi = (np.broadcast_to(x, shape).ravel() for x in (u, w, start, lo, hi))
        q, ok = _quantile_domain(u)
        q = np.where(ok, q, 0.0)
        # the cubic may round an ulp beyond the support near its ends
        out = np.clip(self._quantile(start, q, w), lo, hi)
        out[~ok] = np.nan
        return _shaped(out, shape)


# the powers 1-4 that divide a cubic's coefficients in its antiderivative
_POWERS = np.array([[1.0], [2.0], [3.0], [4.0]])


def _cubic_at(coef, s):
    """The cubic with coefficients ``coef`` (power along the first axis, from
    the lowest) at s, by Horner's rule."""
    return ((coef[3] * s + coef[2]) * s + coef[1]) * s + coef[0]


def _shaped(x: np.ndarray, shape: tuple):
    """A flat array of a broadcast's values in its ``shape``, or a float
    for a scalar broadcast."""
    return x.reshape(shape) if shape else float(x[0])


def make_income_family(family: str, params: dict) -> IncomeFamily:
    """Build a conditional income family.

    Families: ``additive_error`` and ``scaled_error`` take an ``error``
    sub-distribution (uniform / triangular / table), which their
    constructors check; ``table`` takes explicit conditional CDF rows.
    """
    if family in ("additive_error", "scaled_error"):
        err_spec = params.get("error")
        if not isinstance(err_spec, dict) or "family" not in err_spec:
            raise ConstructionError("error distribution spec required (family + params)")
        err = make_type_dist(err_spec["family"], err_spec)
        cls = AdditiveErrorFamily if family == "additive_error" else ScaledErrorFamily
        return cls(err, dict(params))
    if family == "table":
        return TableIncomeFamily(*(_param("table income", params, key, lambda x, _: x)
                                   for key in ("theta_grid", "rows")), dict(params))
    raise ConstructionError(f"unknown income family {family!r}")


def project_to_support(fam: IncomeFamily, theta_report, pi_true, out=None):
    """Closest point of [supp_lo(theta_report), supp_hi(theta_report)] to pi_true.

    This is the on-path income report of a winner whose realized income is
    not feasible under his reported type ("as truthfully as possible").
    ``out``: the result and an array for supp_hi, 1-d of theta_report's
    size, which the family writes the support ends into
    (``IncomeFamily.supp_lo_into``, ``supp_hi_into``); supp_hi is left in
    the second for the caller.  ``pi_true`` must not be either's memory.
    Both arguments are read by ``_reals``.
    """
    theta_report, pi_true = _reals(theta_report, "type report"), _reals(pi_true, "income")
    if out is not None:
        res, top = out
        np.maximum(pi_true, fam.supp_lo_into(theta_report, res), out=res)
        return np.minimum(res, fam.supp_hi_into(theta_report, top), out=res)
    out = np.maximum(pi_true, fam.supp_lo(theta_report))
    out = np.minimum(out, fam.supp_hi(theta_report), out=out if np.ndim(out) else None)
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
        # by the real rule, kept as Python floats so that no float32
        # arithmetic reaches the kernels
        object.__setattr__(self, "audit_cost", _real(self.audit_cost, "audit_cost", 0))
        object.__setattr__(self, "sensitivity", _real(self.sensitivity, "sensitivity", 0, 1))
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
