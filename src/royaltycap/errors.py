"""Exception hierarchy for royaltycap, and the two argument rules.

Public functions raise these instead of bare ValueError so callers can map
failures to exit codes (config errors vs. verification failures) without
string matching.  Every count, seed, size and agent index goes through the
integer rule (``_integer``), every real parameter and grid point through the
real rule (``_real``; ``_grid`` reads a grid by it), and every type and income
argument once, unbounded, by ``_reals`` (a type's by ``TypeDist._check_domain``).
"""

import math
import numbers

import numpy as np


class RoyaltycapError(Exception):
    """Base class for all package errors."""


class ConstructionError(RoyaltycapError, ValueError):
    """Distribution or instance parameters violate a construction contract."""


class DomainError(RoyaltycapError, ValueError):
    """Evaluation point lies outside the object's support."""


class RegularityError(RoyaltycapError):
    """A regularity precondition (single crossing, monotone virtual value)
    fails on the evaluation grid, so the requested quantity is ill-defined."""


class ReportRejectedError(RoyaltycapError, ValueError):
    """Income report lies outside the support implied by the type report."""


class UnsupportedInstanceError(RoyaltycapError):
    """Operation is defined only for a restricted class of instances."""


class UnsupportedPairError(RoyaltycapError):
    """Report pair violates the preconditions of the crossing construction."""


class InvalidNoiseError(RoyaltycapError):
    """Audit-signal noise fails the unbiasedness calibration."""


class InvalidAxisError(RoyaltycapError):
    """Comparative-statics axis values are invalid or unordered."""


class ConfigError(RoyaltycapError, ValueError):
    """Configuration file is malformed; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _integer(x, name: str, least: int = 0, bound=None, *, says=None,
             error=ConstructionError) -> int:
    """The integer rule: ``x`` as an int when it is an int or a numpy integer,
    never a bool, in [least, bound) (bound None: no upper end).  Otherwise
    ``error``, and for an integer out of range the message ``says``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise error(f"{name} must be an integer, got {x!r}")
    if x < least or (bound is not None and x >= bound):
        span = f"at least {least}" if bound is None else f"an integer in [{least}, {bound})"
        raise error(f"{says or f'{name} must be {span}'}, got {x!r}")
    return int(x)


def _float(x, name: str) -> float:
    """``x`` as a float by the real rule's test of a real number, never a
    bool, and +-inf for an int beyond the float range."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ConstructionError(f"{name} must be a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _real(x, name: str, lo=-math.inf, hi=math.inf, *, says=None) -> float:
    """The real rule: ``x`` as a float when it is a finite real number, never
    a bool, in [lo, hi].  Otherwise ``ConstructionError``, and for a real
    number refused the message ``says``."""
    v = _float(x, name)
    if not (math.isfinite(v) and lo <= v <= hi):
        span = ("be finite" if not math.isfinite(v) else f"be >= {lo}" if hi == math.inf
                else f"be <= {hi}" if lo == -math.inf else f"lie in [{lo}, {hi}]")
        raise ConstructionError(f"{says or f'{name} must {span}'}, got {x!r}")
    return v


def _grid(x, name: str) -> np.ndarray:
    """A grid by the real rule: a float array of ``x``'s shape, read by
    ``_reals`` (and copied), whose every point is finite."""
    grid = np.array(_reals(x, name), dtype=float)
    bad = grid[~np.isfinite(grid)]
    if bad.size:
        raise ConstructionError(f"each {name} point must be finite, got {float(bad[0])!r}")
    return grid


def _reals(x, name: str) -> np.ndarray:
    """Points, finite or not, as a float array by the real rule's test of a
    real number, so no bool or string is read as one, and an int beyond the
    float range reads as +-inf; a float array as is, with no copy."""
    if isinstance(x, np.ndarray) and x.dtype.kind == "f":
        return x.astype(float, copy=False)
    points = np.asarray(x, dtype=object)
    return np.array([_float(v, f"each {name} point") for v in points.flat]).reshape(points.shape)
