"""Shared statistical primitives.

Descriptive statistics, Pearson correlation, variance inflation factors,
a Cholesky solver for symmetric positive definite systems, and the two
tail-probability helpers (two-sided normal, chi-squared) used by the
inference code.  Everything here is deterministic and vector-friendly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import gammaincc

from .errors import DataError, DegenerateInputError, SingularMatrixError

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class DescriptiveStats:
    """Six-number summary of one variable."""

    n: int
    mean: float
    std_dev: float
    minimum: float
    median: float
    maximum: float
    skewness: float


@dataclass(frozen=True)
class CorrelationMatrix:
    names: tuple
    r: np.ndarray

    def __post_init__(self):
        r = self.r
        if r.shape != (len(self.names), len(self.names)):
            raise DataError("correlation matrix shape does not match names")
        if not np.allclose(r, r.T, atol=1e-12):
            raise DataError("correlation matrix is not symmetric")
        if not np.allclose(np.diag(r), 1.0, atol=1e-12):
            raise DataError("correlation matrix diagonal is not 1")
        if np.any(r < -1.0) or np.any(r > 1.0):
            raise DataError("correlation entries outside [-1, 1]")


def describe(column) -> DescriptiveStats:
    """Mean, sample std, min, median, max and adjusted skewness.

    The median of an even-length column is the midpoint of the two
    central order statistics.  Skewness is the adjusted Fisher-Pearson
    estimator G1 = g1 * sqrt(n(n-1)) / (n-2); a constant column has
    skewness 0 by convention.  Requires at least two values because the
    sample standard deviation and skewness are undefined below that.
    """
    x = np.asarray(column, dtype=float)
    if x.ndim != 1:
        raise DataError("describe expects a one-dimensional column")
    n = x.size
    if n == 0:
        raise DegenerateInputError("describe: empty column")
    if n < 2:
        raise DegenerateInputError("describe: need at least 2 values")
    if not np.all(np.isfinite(x)):
        raise DataError("describe: non-finite values in column")
    mean = float(np.mean(x))
    dev = x - mean
    m2 = float(np.mean(dev * dev))
    if m2 == 0.0:
        skew = 0.0
    else:
        g1 = float(np.mean(dev * dev * dev)) / m2 ** 1.5
        if n > 2:
            skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
        else:
            skew = g1
    return DescriptiveStats(
        n=n,
        mean=mean,
        std_dev=float(np.std(x, ddof=1)),
        minimum=float(np.min(x)),
        median=float(np.median(x)),
        maximum=float(np.max(x)),
        skewness=skew,
    )


def pearson_matrix(values, names) -> CorrelationMatrix:
    """Pearson correlation matrix of the (n, p) array ``values``, whose
    columns ``names`` names.

    A zero-variance column makes the coefficient undefined, so it is
    rejected by name.  The result is symmetrised and its diagonal pinned
    to exactly 1 to absorb floating point round-off.
    """
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    if n < 2:
        raise DegenerateInputError("pearson_matrix: need at least 2 rows")
    sd = np.std(values, axis=0, ddof=1)
    for j in range(p):
        if sd[j] == 0.0:
            raise DegenerateInputError(
                f"pearson_matrix: column {names[j]} has zero variance"
            )
    z = (values - np.mean(values, axis=0)) / (sd * math.sqrt(n - 1))
    r = z.T @ z
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 1.0)
    r = np.clip(r, -1.0, 1.0)
    return CorrelationMatrix(names=tuple(names), r=r)


def vif(values, names) -> np.ndarray:
    """Variance inflation factor of every column of the (n, p) array
    ``values``, whose columns ``names`` names.

    VIF_j = 1 / (1 - R^2_j) where R^2_j comes from an ordinary least
    squares regression (with intercept) of column j on all the others.
    A single column trivially has VIF 1.  Exactly collinear columns are
    rejected rather than reported as a huge number.
    """
    values = np.asarray(values, dtype=float)
    n, p = values.shape
    if n <= p:
        raise DegenerateInputError(f"vif: need more rows ({n}) than columns ({p})")
    out = np.empty(p)
    if p == 1:
        out[0] = 1.0
        return out
    for j in range(p):
        y = values[:, j]
        others = np.delete(values, j, axis=1)
        design = np.column_stack([np.ones(n), others])
        coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        sst = float(np.sum((y - y.mean()) ** 2))
        if sst == 0.0:
            raise DegenerateInputError(f"vif: column {names[j]} has zero variance")
        one_minus_r2 = float(np.sum(resid * resid)) / sst
        if one_minus_r2 <= 1e-12:
            raise SingularMatrixError(
                f"vif: column {names[j]} is exactly collinear with the others"
            )
        out[j] = 1.0 / one_minus_r2
    return out


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a``.

    Uses a Cholesky factorisation and two triangular solves: the LAPACK
    ``dtrtrs`` calls ``scipy.linalg.solve_triangular`` makes on the
    Fortran-ordered factor ``chol.T``, without its per-call input checks.
    Raises SingularMatrixError when the factorisation fails, which callers
    interpret as collinearity (or separation, higher up).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError("solve_spd: matrix must be square")
    if b.shape[0] != a.shape[0]:
        raise DataError("solve_spd: right-hand side length mismatch")
    if not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
        raise DataError("solve_spd: non-finite input")
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"solve_spd: not positive definite ({exc})") from exc
    if b.size == 0:  # LAPACK refuses a 0-by-0 system
        return np.empty_like(b)
    return cholesky_solve(chol, b)


def cholesky_solve(chol, b) -> np.ndarray:
    """Solve ``chol @ chol.T @ x = b`` for a lower Cholesky factor ``chol``:
    the two triangular solves of ``solve_spd``, for callers that factor a
    stack of matrices at once."""
    upper = chol.T
    y, info_y = dtrtrs(upper, b, lower=0, trans=1)
    x, info_x = dtrtrs(upper, y, lower=0, trans=0)
    if info_y or info_x:
        raise SingularMatrixError(f"solve_spd: dtrtrs info {info_y}, {info_x}")
    return x


def two_sided_p(z: float) -> float:
    """Two-sided normal tail probability 2 * (1 - Phi(|z|))."""
    return math.erfc(abs(float(z)) / _SQRT2)


def chisq_sf(x, k: int):
    """Chi-squared survival function P(X >= x) with k degrees of freedom.

    Evaluated as the regularised upper incomplete gamma function
    Q(k/2, x/2), which stays accurate for the very small tail
    probabilities produced by likelihood ratio tests.  A float ``x``
    gives a float; an array gives the array of its elements' values, each
    the bits the element gets alone.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DegenerateInputError(f"chisq_sf: k must be a positive integer, got {k!r}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        raise DegenerateInputError(f"chisq_sf: x must be finite and >= 0, got {x.tolist()}")
    p = gammaincc(k / 2.0, x / 2.0)
    return float(p) if x.ndim == 0 else p
