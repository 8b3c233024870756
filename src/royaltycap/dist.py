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

import numpy as np

from .errors import ConstructionError, DomainError

# Tolerance for "mean zero" / "integrates to one" construction checks.
_MEAN_TOL = 1e-8
# Relative nudge used when a one-sided limit at a support endpoint is needed.
_EDGE_NUDGE = 1e-9


# ---------------------------------------------------------------------------
# Monotone inversion and quadrature
# ---------------------------------------------------------------------------


def _bisect(below, a, b, steps: int):
    """Bisect the brackets [a, b] (arrays or scalars) ``steps`` times and
    return their midpoints.  ``below(mid)`` must hold left of the sought point
    and fail right of it; where it holds the bracket keeps its upper half.

    The one root finder of the package: quantiles of tabulated laws, audit
    thresholds, menu cutoffs, regime-change types and payment crossings."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for _ in range(steps):
        m = 0.5 * (a + b)
        ok = below(m)
        a, b = np.where(ok, m, a), np.where(ok, b, m)
    return 0.5 * (a + b)


def _gl_segments(a, b, rule):
    """Gauss-Legendre nodes/weights (trailing axis) for segments [a, b] of
    any shape (segments with b <= a contribute nothing).  The integration rule
    of the package, applied piece by piece between an integrand's kinks."""
    x, w = rule
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = 0.5 * np.maximum(b - a, 0.0)
    mid = 0.5 * (a + np.maximum(b, a))
    return mid[..., None] + half[..., None] * x, half[..., None] * w


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

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        ok = (q >= 0) & (q <= 1)
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
    derivative.  The ppf interpolates linearly in a dense precomputed
    inverse table (PCHIP preserves monotonicity, so the inverse is well
    defined).  Its inversion error ``max |F(ppf(u)) - u|`` over 4,097
    evenly spaced u is 1.7e-8 on the 11-knot tent law of the benchmark and
    below 4e-18 on linear 41-point tables.
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
        self._c = _pchip_coefficients(grid, values)
        self._dc = self._c[:-1] * np.array([[3.0], [2.0], [1.0]])  # the pdf's pieces
        dense = np.linspace(self.lo, self.hi, 8193)
        fd = self._cdf_inside(dense)
        keep = np.concatenate(([True], np.diff(fd) > 0))
        self._inv_f, self._inv_x = fd[keep], dense[keep]
        # mean = lo + int (1 - F); Gauss-Legendre with 4 nodes is exact on each cubic piece
        nodes, wts = _gl_segments(grid[:-1], grid[1:], np.polynomial.legendre.leggauss(4))
        self.mean = self.lo + float(np.sum(wts * (1.0 - self._cdf_inside(nodes))))

    def _poly(self, coef, x):
        """The piecewise polynomial ``coef`` at the array x, each point in
        the cell of the last knot <= x (the end cells extended beyond the
        grid), summed as scipy's PPoly sums it: lowest power first, with the
        powers of the offset s built by repeated multiplication."""
        i = np.clip(np.searchsorted(self.knots, x, "right") - 1, 0, self.knots.size - 2)
        s = x - self.knots[i]
        out, z = coef[-1][i], s
        for k in range(coef.shape[0] - 2, -1, -1):
            out += coef[k][i] * z
            if k:
                z = z * s
        return out

    def _cdf_inside(self, x):
        """The interpolant at the array x, whose points outside [lo, hi] the
        caller clips or overwrites."""
        return self._poly(self._c, x)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return self._cdf_inside(np.clip(x, self.lo, self.hi))[()]

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, self._poly(self._dc, np.clip(x, self.lo, self.hi)), 0.0)[()]

    def ppf(self, u):
        out = np.interp(u, self._inv_f, self._inv_x)
        return out if np.ndim(u) else float(out)


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
        if np.any(theta < self.lo - 1e-12) or np.any(theta > self.hi + 1e-12):
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
    * ``dcdf_dtheta(pi, theta)`` -- partial derivative of G in theta
      (zero outside the support); ``cdf_and_dtheta`` returns both;
    * ``g2_over_g(pi, theta)`` -- the ratio dcdf_dtheta / pdf in its
      family closed form, which extends continuously beyond the support
      edge (one-sided limits at the boundary);
    * ``ppf(u, theta)`` -- conditional quantile, used for inverse-transform
      sampling;
    * ``breakpoints(theta)`` -- for a 1-d array of types, one row per type of
      the income levels (support ends included) between which the law is a
      polynomial in income.  The mechanism kernels split their income
      integrals there.

    All other methods accept scalars or broadcastable arrays.
    """

    family: str = "abstract"

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

    def dcdf_dtheta(self, pi, theta):
        raise NotImplementedError

    def cdf_and_dtheta(self, pi, theta):
        """``(cdf(pi, theta), dcdf_dtheta(pi, theta))`` at the same points;
        families whose two share work override it."""
        return self.cdf(pi, theta), self.dcdf_dtheta(pi, theta)

    def g2_over_g(self, pi, theta):
        raise NotImplementedError

    def ppf(self, u, theta):
        raise NotImplementedError

    def breakpoints(self, theta):
        raise NotImplementedError


class AdditiveErrorFamily(IncomeFamily):
    """Income = type + mean-zero error: pi = theta + eps.

    G(pi | theta) = H(pi - theta), so dG/dtheta = -h and the ratio
    dG/dtheta / g is identically -1.
    """

    family = "additive_error"

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

    def dcdf_dtheta(self, pi, theta):
        return -self._err.pdf(np.asarray(pi, dtype=float) - theta)

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
    distribution's shape.  Requires the type support to lie in [0, 1].
    """

    family = "scaled_error"

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

    def cdf(self, pi, theta):
        pi = np.asarray(pi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        s = 1.0 - theta
        z = (pi - theta) / np.where(s > 0, s, 1.0)
        # degenerate top type (s == 0): income is deterministic at theta
        out = np.where(s > 0, self._err.cdf(z), (pi >= theta).astype(float))
        return out if np.ndim(out) else float(out)

    def pdf(self, pi, theta):
        pi = np.asarray(pi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        s = 1.0 - theta
        safe = np.where(s > 0, s, 1.0)
        out = np.where(s > 0, self._err.pdf((pi - theta) / safe) / safe, 0.0)
        return out if np.ndim(out) else float(out)

    def dcdf_dtheta(self, pi, theta):
        pi = np.asarray(pi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        s = 1.0 - theta
        safe = np.where(s > 0, s, 1.0)
        out = np.where(s > 0,
                       self._err.pdf((pi - theta) / safe) * (pi - 1.0) / (safe * safe),
                       0.0)
        return out if np.ndim(out) else float(out)

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

    Quantiles invert this mixture CDF with the shared bisection ``_bisect``
    (80 steps), all draws of a call at once.  ``cdf_and_dtheta`` evaluates
    the two rows once for both the mixture and its type derivative.
    """

    family = "table"

    def __init__(self, theta_grid, rows, params: dict):
        super().__init__(params)
        self._tg = np.asarray(theta_grid, dtype=float)
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

    def _row_cdf(self, j, pi):
        r = self._rows[j]
        pi = np.asarray(pi, dtype=float)
        return np.where(pi <= r.lo, 0.0, np.where(pi >= r.hi, 1.0, r._cdf_inside(pi)))

    def _locate(self, theta):
        theta = np.asarray(theta, dtype=float)
        j = np.clip(np.searchsorted(self._tg, theta, side="right") - 1, 0, self._tg.size - 2)
        w = (theta - self._tg[j]) / (self._tg[j + 1] - self._tg[j])
        return j, np.clip(w, 0.0, 1.0)

    def supp_lo(self, theta):
        j = self._locate(theta)[0]
        out = np.minimum(self._los[j], self._los[j + 1])
        return out if np.ndim(theta) else float(out)

    def supp_hi(self, theta):
        j = self._locate(theta)[0]
        out = np.maximum(self._his[j], self._his[j + 1])
        return out if np.ndim(theta) else float(out)

    def _by_interval(self, fn, pi, theta):
        """The arrays ``fn(j, pi, w)`` on each knot interval j of the types,
        over the broadcast of pi and theta (types are located before
        broadcasting).  When all types share one interval, fn runs once on
        the unbroadcast arrays."""
        pi = np.asarray(pi, dtype=float)
        j, w = self._locate(theta)
        shape = np.broadcast_shapes(pi.shape, j.shape)
        j0 = j.flat[0] if j.size else 0
        if np.all(j == j0):
            outs = [o if np.shape(o) == shape else np.broadcast_to(o, shape).copy()
                    for o in fn(j0, pi, w)]
        else:
            outs = []
            for jj in np.unique(j):
                m = np.broadcast_to(j == jj, shape)
                parts = fn(jj, np.broadcast_to(pi, shape)[m], np.broadcast_to(w, shape)[m])
                outs = outs or [np.empty(shape) for _ in parts]
                for out, part in zip(outs, parts):
                    out[m] = part
        return tuple(o if np.ndim(o) else float(o) for o in outs)

    def cdf(self, pi, theta):
        return self._by_interval(
            lambda j, p, w: ((1.0 - w) * self._row_cdf(j, p) + w * self._row_cdf(j + 1, p),),
            pi, theta)[0]

    def pdf(self, pi, theta):
        return self._by_interval(
            lambda j, p, w: ((1.0 - w) * self._rows[j].pdf(p) + w * self._rows[j + 1].pdf(p),),
            pi, theta)[0]

    def dcdf_dtheta(self, pi, theta):
        return self._by_interval(
            lambda j, p, w: ((self._row_cdf(j + 1, p) - self._row_cdf(j, p))
                             / (self._tg[j + 1] - self._tg[j]),),
            pi, theta)[0]

    def cdf_and_dtheta(self, pi, theta):
        def both(j, p, w):
            lo, hi = self._row_cdf(j, p), self._row_cdf(j + 1, p)
            return (1.0 - w) * lo + w * hi, (hi - lo) / (self._tg[j + 1] - self._tg[j])

        return self._by_interval(both, pi, theta)

    def g2_over_g(self, pi, theta):
        num = self.dcdf_dtheta(pi, theta)
        den = self.pdf(pi, theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = num / np.where(den > 0, den, np.nan)
        out = np.where(np.isnan(out), 0.0, out)
        return out if np.ndim(out) else float(out)

    def ppf(self, u, theta):
        u, theta = np.broadcast_arrays(np.asarray(u, dtype=float),
                                       np.asarray(theta, dtype=float))
        out = _bisect(lambda p: self.cdf(p, theta) < u,
                      self.supp_lo(theta), self.supp_hi(theta), 80)
        return out if out.ndim else float(out)

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
        # incomes must be nonnegative; support endpoints ordered on the interior
        probe = np.linspace(lo, hi, 33)
        s_lo = np.asarray(self.income.supp_lo(probe), dtype=float)
        s_hi = np.asarray(self.income.supp_hi(probe), dtype=float)
        if np.any(s_lo < -1e-9):
            raise ConstructionError(
                "income support dips below zero (error lower bound < -type lower bound)")
        interior = (probe > lo) & (probe < hi)
        if np.any(s_hi[interior] - s_lo[interior] <= 0):
            raise ConstructionError("income support must be nondegenerate on the interior")
