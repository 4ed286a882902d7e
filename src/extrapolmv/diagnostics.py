"""Design-matrix diagnostics: leverage, hull membership, influence.

Quadratic forms in (X'X)^-1 are squared norms |R x|^2, with R = L^-1 for
the Cholesky factor L of X'X, never read off the l x l hat matrix. All
functions are pure and safe to call concurrently.
"""

from __future__ import annotations

import numpy as np

# Leverages this far above 1 are treated as roundoff and clamped; anything
# beyond is a genuine numerical failure.
_LEVERAGE_SLACK = 1e-10
_HIGH_LEVERAGE_FACTOR = 3.0  # high_leverage_set's h_ii > 3 mean(h), the 3q/l rule


def _inverse_cholesky(S: np.ndarray, what: str = "X'X") -> np.ndarray:
    """R = L^-1 for the lower Cholesky factor L of S, so S^-1 = R'R;
    LinAlgError "<what> is singular" unless S is positive definite."""
    try:
        return np.linalg.inv(np.linalg.cholesky(S))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{what} is singular") from None


def hat_diagonal(X: np.ndarray) -> np.ndarray:
    """Leverages h_ii = x_i'(X'X)^-1 x_i for each row of X."""
    h = ivh_values(X, X)
    if np.any(h > 1.0 + _LEVERAGE_SLACK):
        raise np.linalg.LinAlgError("leverage exceeds 1 beyond roundoff tolerance")
    return h


def ivh_value(X: np.ndarray, x0: np.ndarray) -> float:
    """Quadratic form x0'(X'X)^-1 x0 for a candidate covariate row."""
    X = np.asarray(X, dtype=float)
    x0 = np.asarray(x0, dtype=float).ravel()
    if x0.shape[0] != X.shape[1]:
        raise ValueError(f"x0 has {x0.shape[0]} entries, expected {X.shape[1]}")
    return float(ivh_values(X, x0[None])[0])


def ivh_values(X: np.ndarray, X0: np.ndarray) -> np.ndarray:
    """Row-wise ivh_value for a matrix of candidate rows: the squared
    column norms of R X0'."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be a matrix")
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2:
        raise ValueError("candidate rows must be a matrix; ivh_value takes one row")
    if X0.shape[1] != X.shape[1]:
        raise ValueError("candidate rows do not match design width")
    R = _inverse_cholesky(X.T @ X)
    W = R @ X0.T
    v = np.einsum("ij,ij->j", W, W)
    # values in (1, 1 + slack] are roundoff; clamped to 1, a design row's
    # quadratic form never lands a hair above its own leverage
    return np.where((v > 1.0) & (v <= 1.0 + _LEVERAGE_SLACK), 1.0, v)


def ivh_contains(X: np.ndarray, x0: np.ndarray) -> bool:
    """True when x0 lies inside the hull: ivh_value(X, x0) <= max leverage."""
    return ivh_value(X, x0) <= float(hat_diagonal(X).max())


def mahalanobis_sq(x: np.ndarray, xbar: np.ndarray, S: np.ndarray) -> float:
    """Squared Mahalanobis distance (x - xbar)' S^-1 (x - xbar)."""
    x = np.asarray(x, dtype=float).ravel()
    xbar = np.asarray(xbar, dtype=float).ravel()
    S = np.asarray(S, dtype=float)
    if x.shape != xbar.shape or S.shape != (x.size, x.size):
        raise ValueError("dimension mismatch between x, xbar and S")
    w = _inverse_cholesky(S, "covariance matrix") @ (x - xbar)
    return float(w @ w)


def leverage_from_mahalanobis(md2: float, l: int) -> float:
    """Recover leverage from squared Mahalanobis distance: 1/l + md2/(l-1)."""
    if l < 2:
        raise ValueError("need at least 2 rows")
    if md2 < 0:
        raise ValueError("squared distance cannot be negative")
    return 1.0 / l + md2 / (l - 1)


def cooks_distance(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cook's distance D_i = (t_i^2 / q) * h_ii / (1 - h_ii) per row.

    t_i is the (internally) studentized residual. Rows with leverage 1
    have a zero residual by construction and are reported as infinite.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    l, q = X.shape
    if y.shape[0] != l:
        raise ValueError("response length != row count")
    if l <= q:
        raise ValueError("need more rows than covariates for residual variance")
    R = _inverse_cholesky(X.T @ X)
    beta = R.T @ (R @ (X.T @ y))
    r = y - X @ beta
    rss = float(r @ r)
    # residuals at roundoff level mean an exact fit: studentizing them
    # would divide noise by noise
    if rss <= 1e-28 * max(float(y @ y), 1.0):
        return np.zeros(l)
    s2 = rss / (l - q)
    h = hat_diagonal(X)
    at_one = np.isclose(h, 1.0, rtol=0.0, atol=_LEVERAGE_SLACK)
    D = np.full(l, np.inf)
    ok = ~at_one
    t2 = r[ok] ** 2 / (s2 * (1.0 - h[ok]))
    D[ok] = t2 / q * h[ok] / (1.0 - h[ok])
    return D


def high_leverage_set(h: np.ndarray) -> np.ndarray:
    """Indices of the leverages h_ii > 3 mean(h), in increasing order."""
    h = np.asarray(h, dtype=float).ravel()
    if h.size == 0:
        raise ValueError("empty leverage vector")
    return np.flatnonzero(h > _HIGH_LEVERAGE_FACTOR * h.mean())
