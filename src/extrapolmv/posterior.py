"""The normal of the missing responses given the observed ones under a
draw of Sigma (Little & Rubin 2002, ch. 11), for each missingness pattern.

_pattern_groups groups rows by missingness pattern g (observed responses
o, missing m, N_g rows): the fit rows for the Gibbs fit, each location's
observed siblings for CMVPV. _Patterns keeps a pattern's rows only as r_g
virtual rows with their Gram matrix, missing cells as 0; few or repeated
rows just make r_g small, and no sweep touches a row. numpy only: a block
that a batched Cholesky fails on is looked for by the same LAPACK routine.
"""

from __future__ import annotations

import numpy as np

from extrapolmv.dataset import Dataset

_EPS = np.finfo(float).eps


def _pattern_groups(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by missingness pattern: the distinct (G, n) patterns in
    lexicographic order (all-observed last), a stable argsort of the rows
    by pattern, and bounds, so pattern g owns order[bounds[g]:bounds[g + 1]]."""
    bits = 1 << np.arange(mask.shape[1] - 1, -1, -1)
    codes, pattern_of = np.unique(mask @ bits, return_inverse=True)
    order = np.argsort(pattern_of, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(pattern_of))])
    return (codes[:, None] & bits) > 0, order, bounds


class _Patterns:
    """Constants of the pattern-sorted fit rows, stacked over the G patterns.

    ``patterns`` (G, n) marks each pattern's observed responses, and
    pattern g owns rows bounds[g]:bounds[g + 1]; the missing cells of ``Y``
    hold 0. The N_g rows Z_g = [X_g, Y_g] of a pattern are kept only as
    r_g virtual rows F_g with F_g'F_g = Z_g'Z_g,
    r_g the rank (at most N_g, and q + |o| as the columns m are 0), so
    Z_g = U_g F_g for some U_g with orthonormal columns.

    What every sweep reuses is fixed here: the flat indices of ``noise``
    and of the chi-square cells ``chi_at`` in the (G, n, q + n) normals
    T, and ``W``, the (q + n, n) template [0; I] of [-Theta; I].
    """

    def __init__(self, X: np.ndarray, Y: np.ndarray, patterns: np.ndarray,
                 bounds: np.ndarray):
        (G, n), q = patterns.shape, X.shape[1]
        w, miss, spans = q + n, ~patterns, list(zip(bounds[:-1], bounds[1:]))
        self.l = int(bounds[-1])
        XY = np.hstack([X, Y])
        self.oo, self.mm = (v[:, :, None] & v[:, None, :] for v in (patterns, miss))
        self.eye_o, self.eye_m = (v[:, :, None] * np.eye(n) for v in (patterns, miss))
        gram = np.stack([XY[a:b].T @ XY[a:b] for a, b in spans])
        self.XtX, self.XtY = gram[:, :q, :q], gram[:, :q, q:]
        # T_g takes normals in rows m: against the r_g virtual rows (the
        # imputation noise projected on U_g), then a factor of the part
        # orthogonal to U_g, Wishart(N_g - r_g, I): Bartlett, chi-squares on
        # its diagonal, when N_g - r_g >= |m|, else N_g - r_g plain columns
        self.rows = np.zeros((G, w, w))
        self.noise = np.zeros((G, n, w), dtype=bool)
        chi = []
        for g, (a, b) in enumerate(spans):
            m = np.flatnonzero(miss[g])
            lam, vec = np.linalg.eigh(gram[g])
            r = min(b - a, w - m.size, np.count_nonzero(lam > lam[-1] * w * _EPS))
            self.rows[g, :r] = np.sqrt(lam[w - r:, None]) * vec[:, w - r:].T
            d = b - a - r
            self.noise[g, m, :r + min(d, m.size)] = True
            if d >= m.size:
                self.noise[g][np.ix_(m, r + np.arange(m.size))] = np.tri(m.size, k=-1, dtype=bool)
                chi += [(g, mi, r + i, d - i) for i, mi in enumerate(m)]
        chi = np.array(chi, dtype=int).reshape(-1, 4)
        self.chi_at, self.chi_df = tuple(chi[:, :3].T), chi[:, 3].astype(float)
        self.noise_flat = np.flatnonzero(self.noise)
        self.chi_flat = np.ravel_multi_index(self.chi_at, self.noise.shape)
        self.W = np.vstack([np.zeros((q, n)), np.eye(n)])


class _ChainFailure(np.linalg.LinAlgError):
    """A factorisation failed in one chain of a sweep; ``chain`` says which."""

    def __init__(self, chain: int, message):
        super().__init__(str(message))
        self.chain = chain


def _pattern_chol(A: np.ndarray, pat: _Patterns, what: str) -> None:
    """Redo a (C, G, n, n) stack's Cholesky factors a block at a time: if
    any block is not PD, raise _ChainFailure naming the lowest such chain
    and the missing responses of its first such pattern."""
    for i, a in enumerate(A.reshape(-1, *A.shape[-2:])):
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            chain, g = divmod(i, len(pat.oo))
            missing = np.flatnonzero(pat.mm[g].diagonal()).tolist()
            raise _ChainFailure(chain, f"{what} is not positive definite for the pattern "
                                f"with missing responses {missing}") from None


def _conditionals(pat: _Patterns, Sigma: np.ndarray) -> tuple[np.ndarray, ...]:
    """The normal of y_m given y_o for each chain of a (C, n, n) Sigma,
    stacked (C, G, n, n) over the patterns: K_g, the zero-padded Sigma_oo^-1;
    SK_g = Sigma K_g, I in rows o and the gain Sigma_mo Sigma_oo^-1 in rows
    m (columns m zero); Lc_g, the Cholesky factor of the conditional
    covariance C_g in block m and I in block o. Each Sigma_oo must be PD:
    one stacked Cholesky checks them beside factoring the C_g."""
    Sigma = Sigma[..., None, :, :]
    M = Sigma * pat.oo + pat.eye_m
    try:
        K = np.linalg.inv(M) * pat.oo
    except np.linalg.LinAlgError:
        _pattern_chol(M, pat, "Sigma_oo")  # a singular Sigma_oo is not PD
        raise
    SK = Sigma @ K
    G = len(pat.oo)
    MC = np.concatenate([M, (Sigma - SK @ Sigma) * pat.mm + pat.eye_o], axis=-3)
    try:
        Lc = np.linalg.cholesky(MC)[..., G:, :, :]
    except np.linalg.LinAlgError:  # the failing block is in one half: name it
        _pattern_chol(M, pat, "Sigma_oo")
        _pattern_chol(MC[..., G:, :, :], pat, "conditional covariance of the missing responses")
        raise
    return K, SK, Lc


def _precision(XtX: np.ndarray, XtY: np.ndarray, K: np.ndarray,
               prior_var: float) -> tuple[np.ndarray, np.ndarray]:
    """Precision P = sum_g K_g kron X_g'X_g + I/prior_var of vec(Theta) and
    its linear term vec(sum_g X_g'Y_g K_g), for each chain of a (C, G, n, n)
    stack K: P is (C, nq, nq) and the term (C, nq)."""
    C, G, n, _ = K.shape
    q = XtX.shape[-1]
    P = K.reshape(C, G, n * n).swapaxes(-1, -2) @ XtX.reshape(G, q * q)
    P = P.reshape(C, n, n, q, q).swapaxes(-3, -2).reshape(C, n * q, n * q)
    P.reshape(C, -1)[:, ::n * q + 1] += 1.0 / prior_var
    return P, (XtY @ K).sum(axis=-3).swapaxes(-1, -2).reshape(C, n * q)


def _conditional_gain(sigma: np.ndarray, target, given) -> tuple[np.ndarray, np.ndarray]:
    """Gain Sigma_tg Sigma_gg^-1 and conditional covariance
    Sigma_tt - G Sigma_gt, of one Sigma or of each in a (..., n, n) stack.

    Both depend on Sigma alone, not on the conditioning values:
    conditional_mvn passes one Sigma, CMVPV scoring the stack of draws.
    The sampler batches the same conditional over its missingness
    patterns instead (_conditionals).
    """
    t, g = np.asarray(target, dtype=int), np.asarray(given, dtype=int)
    S_tg = sigma[..., t[:, None], g]
    try:
        G = np.linalg.solve(sigma[..., g[:, None], g], np.swapaxes(S_tg, -1, -2))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("conditioning block of Sigma is singular") from None
    G = np.swapaxes(G, -1, -2)
    S_bar = sigma[..., t[:, None], t] - np.einsum("...tg,...ug->...tu", G, S_tg)
    return G, 0.5 * (S_bar + np.swapaxes(S_bar, -1, -2))


def _fit_setup(d: Dataset, spec):
    """What every chain of a fit starts from: the fit rows, their
    _Patterns, the starting Sigma and the IW scale and df of a ModelSpec."""
    fit_rows = np.flatnonzero(d.mask.any(axis=1))
    if fit_rows.size == 0:
        raise ValueError("no rows with observed responses to fit on")
    M = d.mask[fit_rows]
    q, n = d.X.shape[1], d.n_responses

    iw_scale = np.eye(n) if spec.iw_scale is None else np.asarray(spec.iw_scale, float)
    if iw_scale.shape != (n, n):
        raise ValueError("IW scale must be n x n")
    # a Cholesky factor reads one triangle, and passes inf and NaN through
    if not (np.isfinite(iw_scale).all() and np.array_equal(iw_scale, iw_scale.T)):
        raise ValueError("IW scale is not a finite symmetric matrix")
    try:
        np.linalg.cholesky(iw_scale)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("IW scale is not positive definite") from None
    iw_df = float(max(q + 1, n)) if spec.iw_df is None else float(spec.iw_df)
    if iw_df <= n - 1:
        raise ValueError("IW degrees of freedom must exceed n - 1 for a proper prior")

    # rows sorted by missingness pattern, so each pattern is one slice
    patterns, order, bounds = _pattern_groups(M)
    M_sorted = M[order]
    Yobs = np.where(M_sorted, d.Y[fit_rows[order]], 0.0)
    pat = _Patterns(d.X[fit_rows[order]], Yobs, patterns, bounds)
    try:
        np.linalg.cholesky(pat.XtX.sum(axis=0))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("X'X is singular on the fitted rows") from None

    # deterministic, scale-safe start: observed response variances plus I
    Sigma0 = np.diag([Yobs[M_sorted[:, j], j].var() if M_sorted[:, j].any() else 0.0
                      for j in range(n)]) + np.eye(n)
    return fit_rows, pat, Sigma0, iw_scale, iw_df
