"""Gibbs sampler for the Bayesian multivariate linear model.

Model: y_i = B x_i + e_i with e_i ~ N(0, Sigma) iid across rows, fitted
on every row with at least one observed response. Priors are independent
N(0, coef_prior_var) entries on B and an inverse-Wishart on Sigma. All
three full conditionals are conjugate, so one sweep is: impute the
missing response entries from their conditional normal, draw the whole
coefficient matrix from its Gaussian full conditional, then draw Sigma
from its inverse-Wishart full conditional.

The fit rows are sorted once by missingness pattern, so each pattern's
rows form one contiguous slice. Imputation works in precision form:
Sigma is factored once per sweep into Q = Sigma^-1, and for the missing
set m and observed set o of a pattern the conditional of y_m given y_o
has gain -Q_mm^-1 Q_mo and covariance Q_mm^-1, so each pattern needs
only the Cholesky factor of its small block Q_mm. The coefficient draw
uses eigendecompositions X'X = W D W' and Sigma^-1 = U Lambda U', which
diagonalise the precision of vec(Theta):
P = (U kron W)(Lambda kron D + I/coef_prior_var)(U kron W)'. The mean
and the noise are then elementwise in the rotated basis, with no
(nq) x (nq) factorisation.

Inverse-Wishart convention used throughout: IW(scale, df) has density
proportional to |S|^-(df+n+1)/2 * exp(-tr(scale S^-1)/2), giving the
full conditional IW(prior_scale + E'E, prior_df + l_fit) and prior mean
scale/(df-n-1).

Reproducibility: each chain gets its own generator spawned from
numpy's SeedSequence(seed), so a chain's draws do not depend on the
other chains. Chains run one after another: the sweep holds Python's
interpreter lock, and running them on threads was measured slower than
serial. Within an iteration the draw order is fixed: the pattern slices
in sorted pattern order, then B, then Sigma.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack
from scipy.special import multigammaln

from extrapolmv.dataset import Dataset

DRAWS_FILE = "draws.csv"
NPZ_FILE = "draws.npz"
META_FILE = "meta.json"
_EPS = np.finfo(float).eps


@dataclass
class ModelSpec:
    """Prior and run-length configuration for gibbs_fit.

    ``iw_scale`` defaults to the identity and ``iw_df`` to q + 1 (resolved
    against the dataset at fit time). ``z_thin`` further thins the stored
    imputation snapshots relative to the retained draws.
    """

    coef_prior_var: float = 100.0
    iw_scale: np.ndarray | None = None
    iw_df: float | None = None
    iterations: int = 20000
    burn_in: int = 10000
    thin: int = 1
    chains: int = 2
    seed: int = 0
    store_z: bool = True
    z_thin: int = 50

    def __post_init__(self):
        if self.coef_prior_var <= 0:
            raise ValueError("coefficient prior variance must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn-in must be non-negative and below iterations")
        if self.thin < 1 or self.z_thin < 1:
            raise ValueError("thinning factors must be at least 1")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.iw_scale is not None:
            self.iw_scale = np.asarray(self.iw_scale, dtype=float)

    def to_jsonable(self) -> dict:
        return {
            "coef_prior_var": float(self.coef_prior_var),
            "iw_scale": None if self.iw_scale is None else self.iw_scale.tolist(),
            "iw_df": None if self.iw_df is None else float(self.iw_df),
            "iterations": int(self.iterations),
            "burn_in": int(self.burn_in),
            "thin": int(self.thin),
            "chains": int(self.chains),
            "seed": int(self.seed),
            "store_z": bool(self.store_z),
            "z_thin": int(self.z_thin),
        }

    @classmethod
    def from_jsonable(cls, raw: dict) -> "ModelSpec":
        raw = dict(raw)
        if raw.get("iw_scale") is not None:
            raw["iw_scale"] = np.asarray(raw["iw_scale"], dtype=float)
        return cls(**raw)


@dataclass
class PosteriorDraws:
    """Retained Gibbs draws plus enough metadata to reuse them.

    B_draws is (A, n, q) in the response-by-covariate orientation,
    Sigma_draws (A, n, n). Z_draws holds thinned snapshots of the imputed
    missing cells listed in ``missing_cells`` (global row, response).
    """

    B_draws: np.ndarray
    Sigma_draws: np.ndarray
    chain: np.ndarray
    draw: np.ndarray
    fit_rows: np.ndarray
    missing_cells: np.ndarray
    Z_draws: np.ndarray
    Z_chain: np.ndarray
    Z_draw: np.ndarray
    spec: ModelSpec
    response_names: list[str] = field(default_factory=list)
    covariate_names: list[str] = field(default_factory=list)

    @property
    def n_draws(self) -> int:
        return self.B_draws.shape[0]


# ---------------------------------------------------------------------------
# Factorisations
# ---------------------------------------------------------------------------


def _chol(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix; LinAlgError unless PD."""
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite")
    return c


def _eigh(a: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a symmetric matrix."""
    w, v, info = lapack.dsyev(a)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigendecomposition of {what} did not converge")
    return w, v


def _precision(sigma: np.ndarray) -> np.ndarray:
    """Q = Sigma^-1 from one Cholesky factorisation of Sigma."""
    # dpotri fills the lower triangle; the upper one stays zero from _chol
    q_low, info = lapack.dpotri(_chol(sigma, "Sigma"), lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Sigma is singular")
    Q = q_low + q_low.T
    Q.flat[::Q.shape[0] + 1] *= 0.5
    return Q


def _precision_gain(Q_m: np.ndarray, m_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gain and noise factor of y_m given the rest, from rows Q_m = Q[m_idx].

    With Q = Sigma^-1 and o the other responses, y_m given y_o has mean
    mu_m - Q_mm^-1 Q_mo (y_o - mu_o) and covariance Q_mm^-1. Returns
    G = -Q_mm^-1 Q_m (n columns: the gain in the o columns, -I in the m
    columns) and the upper-triangular T = L^-T with Q_mm = L L', so that
    T T' = Q_mm^-1.
    """
    L = _chol(Q_m[:, m_idx], "precision block Q_mm")
    G, info = lapack.dpotrs(L, -Q_m, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("precision block Q_mm is singular")
    L_inv, info = lapack.dtrtri(L, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("precision block Q_mm is singular")
    return G, L_inv.T


# ---------------------------------------------------------------------------
# Inverse-Wishart primitives
# ---------------------------------------------------------------------------


def invwishart_rvs(df: float, scale: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One draw from IW(scale, df) via the Bartlett decomposition."""
    scale = np.asarray(scale, dtype=float)
    p = scale.shape[0]
    if df <= p - 1:
        raise ValueError("inverse-Wishart df must exceed dimension - 1")
    C = _chol(scale, "inverse-Wishart scale")
    A = np.diag(np.sqrt(rng.chisquare(df - np.arange(p))))
    below = rng.standard_normal(p * (p - 1) // 2)
    for i in range(1, p):  # row-major strictly lower triangle
        A[i, :i] = below[i * (i - 1) // 2:i * (i + 1) // 2]
    U, info = lapack.dtrtrs(A, C.T, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Bartlett factor is singular")
    return U.T @ U


def invwishart_logpdf(X: np.ndarray, df: float, scale: np.ndarray) -> float:
    """Log density of IW(scale, df) at X, normalization included."""
    X = np.asarray(X, dtype=float)
    scale = np.asarray(scale, dtype=float)
    p = X.shape[0]
    sign_s, logdet_scale = np.linalg.slogdet(scale)
    sign_x, logdet_x = np.linalg.slogdet(X)
    if sign_s <= 0 or sign_x <= 0:
        raise ValueError("X and scale must be positive definite")
    tr = float(np.trace(np.linalg.solve(X, scale)))
    return (0.5 * df * logdet_scale
            - 0.5 * df * p * np.log(2.0)
            - multigammaln(0.5 * df, p)
            - 0.5 * (df + p + 1) * logdet_x
            - 0.5 * tr)


# ---------------------------------------------------------------------------
# Full-conditional updates
# ---------------------------------------------------------------------------


def draw_coefficients(XtX: np.ndarray, XtY: np.ndarray, sigma: np.ndarray,
                      prior_var: float, rng: np.random.Generator) -> np.ndarray:
    """Draw the q x n coefficient block from its Gaussian full conditional.

    With the row-wise model Y = X Theta + E (Theta = B'), the vectorized
    coefficients have precision P = Sigma^-1 kron X'X + I/prior_var and
    mean solving P mu = vec(X'Y Sigma^-1). With X'X = W D W' and
    Sigma = U S U' (so Sigma^-1 = U Lambda U', Lambda = S^-1),
    P = (U kron W)(Lambda kron D + I/prior_var)(U kron W)', so in the
    rotated basis W' Theta U the mean and the noise are elementwise. The
    noise map is the symmetric square root of P^-1, so the draw does not
    depend on the signs or order the eigensolver gives the eigenvectors.
    """
    n = sigma.shape[0]
    q = XtX.shape[0]
    D, W = _eigh(XtX, "X'X")
    S, U = _eigh(sigma, "Sigma")
    if not S[0] > n * _EPS * S[-1]:
        raise np.linalg.LinAlgError("Sigma is singular")
    lam = 1.0 / S
    prec = D[:, None] * lam[None, :] + 1.0 / prior_var
    b = (W.T @ XtY @ U) * lam
    z = rng.standard_normal(n * q).reshape((q, n), order="F")
    return W @ (b / prec + (W.T @ z @ U) / np.sqrt(prec)) @ U.T


def _run_chain(chain, seedseq, X, Y_init, groups, cells, Theta0, Sigma0,
               spec: ModelSpec, iw_scale, iw_df, impute_missing: bool):
    """One chain on pattern-sorted rows; ``cells`` indexes the missing
    cells of Y in the row-major order of the unsorted fit rows."""
    rng = np.random.default_rng(seedseq)
    l, q = X.shape
    n = Y_init.shape[1]
    XtX = X.T @ X
    Yc = Y_init.copy()
    Theta = Theta0.copy()
    Sigma = Sigma0.copy()
    impute = impute_missing and bool(groups)
    # preallocated: fresh l x n temporaries cost page faults on every sweep
    fitted = X @ Theta
    E = Yc - fitted

    n_keep = (spec.iterations - spec.burn_in + spec.thin - 1) // spec.thin
    B_out = np.empty((n_keep, n, q))
    S_out = np.empty((n_keep, n, n))
    z_keep = []
    z_idx = []

    r = 0
    for t in range(spec.iterations):
        try:
            if impute:
                Q = _precision(Sigma)
                for m_idx, rows in groups:
                    try:
                        G, T = _precision_gain(Q[m_idx], m_idx)
                    except np.linalg.LinAlgError as exc:
                        raise np.linalg.LinAlgError(
                            f"imputing missing responses {m_idx.tolist()}: {exc}") from exc
                    # E holds Y - X Theta for the current Y and Theta, and the
                    # -I block of G cancels the stale residual E_m, so this
                    # sets y_m = mu_m + gain (y_o - mu_o) + noise.
                    z = rng.standard_normal((rows.stop - rows.start, m_idx.size))
                    Yc[rows, m_idx] += E[rows] @ G.T + z @ T.T

            Theta = draw_coefficients(XtX, X.T @ Yc, Sigma, spec.coef_prior_var, rng)
            np.subtract(Yc, np.matmul(X, Theta, out=fitted), out=E)
            Sigma = invwishart_rvs(iw_df + l, iw_scale + E.T @ E, rng)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"chain {chain}, iteration {t + 1}: {exc}") from exc

        if t >= spec.burn_in and (t - spec.burn_in) % spec.thin == 0:
            B_out[r] = Theta.T
            S_out[r] = Sigma
            if spec.store_z and groups and r % spec.z_thin == 0:
                z_keep.append(Yc.take(cells))
                z_idx.append(r)
            r += 1

    Z = np.asarray(z_keep) if z_keep else np.empty((0, 0))
    return B_out, S_out, Z, np.asarray(z_idx, dtype=int)


def gibbs_fit(d: Dataset, spec: ModelSpec,
              impute_missing: bool = True) -> PosteriorDraws:
    """Fit the joint linear model on the rows with any observed response.

    Deterministic for a fixed spec. The chains run one after another,
    each on its own generator spawned from SeedSequence(spec.seed).
    ``impute_missing=False`` freezes missing cells at their initialization
    values; it exists for verifying that the imputation step is a no-op
    on fully observed data.
    """
    fit_rows = np.flatnonzero(d.mask.any(axis=1))
    if fit_rows.size == 0:
        raise ValueError("no rows with observed responses to fit on")
    M = d.mask[fit_rows]
    l, q = fit_rows.size, d.X.shape[1]
    n = d.n_responses

    iw_scale = np.eye(n) if spec.iw_scale is None else np.asarray(spec.iw_scale, float)
    if iw_scale.shape != (n, n):
        raise ValueError("IW scale must be n x n")
    np.linalg.cholesky(iw_scale)  # must be PD
    iw_df = float(q + 1) if spec.iw_df is None else float(spec.iw_df)
    if iw_df <= n - 1:
        raise ValueError("IW degrees of freedom must exceed n - 1 for a proper prior")

    # Sort the rows by missingness pattern (lexicographic, so the fully
    # observed pattern comes last); each pattern is then one slice.
    patterns, pattern_of = np.unique(M, axis=0, return_inverse=True)
    pattern_of = pattern_of.ravel()
    order = np.argsort(pattern_of, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(pattern_of))])
    groups = [(np.flatnonzero(~pattern), slice(int(bounds[g]), int(bounds[g + 1])))
              for g, pattern in enumerate(patterns) if not pattern.all()]
    X = d.X[fit_rows[order]]
    Yobs = d.Y[fit_rows[order]]
    M_sorted = M[order]

    miss_row, miss_col = np.nonzero(~M)
    missing_cells = np.column_stack([fit_rows[miss_row], miss_col])
    sorted_pos = np.empty(l, dtype=int)
    sorted_pos[order] = np.arange(l)
    cells = sorted_pos[miss_row] * n + miss_col

    XtX = X.T @ X
    try:
        _chol(XtX, "X'X")
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("X'X is singular on the fitted rows") from None

    # Deterministic, scale-safe initialization: column-mean completion,
    # ridge coefficients, residual covariance plus an identity floor.
    col_means = np.array([Yobs[M_sorted[:, j], j].mean() if M_sorted[:, j].any() else 0.0
                          for j in range(n)])
    Y0 = np.where(M_sorted, Yobs, col_means[None, :])
    A0 = XtX + np.eye(q) / spec.coef_prior_var
    Theta0 = np.linalg.solve(A0, X.T @ Y0)
    E0 = Y0 - X @ Theta0
    Sigma0 = E0.T @ E0 / l + np.eye(n)

    children = np.random.SeedSequence(spec.seed).spawn(spec.chains)
    results = [_run_chain(c, children[c], X, Y0, groups, cells, Theta0, Sigma0, spec,
                          iw_scale, iw_df, impute_missing) for c in range(spec.chains)]

    per_chain = results[0][0].shape[0]
    B_all = np.concatenate([r[0] for r in results])
    S_all = np.concatenate([r[1] for r in results])
    chain_ids = np.repeat(np.arange(spec.chains), per_chain)
    draw_ids = np.tile(np.arange(per_chain), spec.chains)

    z_blocks = [r[2] for r in results if r[2].size]
    if z_blocks:
        Z_all = np.concatenate(z_blocks)
        Z_chain = np.concatenate([np.full(r[3].size, c, dtype=int)
                                  for c, r in enumerate(results)])
        Z_draw = np.concatenate([r[3] for r in results])
    else:
        Z_all = np.empty((0, missing_cells.shape[0]))
        Z_chain = np.empty(0, dtype=int)
        Z_draw = np.empty(0, dtype=int)

    return PosteriorDraws(
        B_draws=B_all, Sigma_draws=S_all, chain=chain_ids, draw=draw_ids,
        fit_rows=fit_rows, missing_cells=missing_cells,
        Z_draws=Z_all, Z_chain=Z_chain, Z_draw=Z_draw, spec=spec,
        response_names=list(d.response_names),
        covariate_names=list(d.covariate_names),
    )


# ---------------------------------------------------------------------------
# Posterior predictive helpers
# ---------------------------------------------------------------------------


def predictive_mean_draws(p: PosteriorDraws, x: np.ndarray) -> np.ndarray:
    """Mean vectors B_a x for every retained draw; shape (A, n)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.B_draws.shape[2]:
        raise ValueError(f"x has {x.size} entries, expected {p.B_draws.shape[2]}")
    return p.B_draws @ x


def posterior_predictive_draw(p: PosteriorDraws, x: np.ndarray, a: int,
                              rng: np.random.Generator,
                              size: int | None = None) -> np.ndarray:
    """Draw from N(B_a x, Sigma_a); ``size`` batches draws at the same a."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.B_draws.shape[2]:
        raise ValueError(f"x has {x.size} entries, expected {p.B_draws.shape[2]}")
    if not 0 <= a < p.n_draws:
        raise IndexError("draw index out of range")
    mu = p.B_draws[a] @ x
    L = np.linalg.cholesky(p.Sigma_draws[a])
    if size is None:
        return mu + L @ rng.standard_normal(mu.size)
    return mu + rng.standard_normal((size, mu.size)) @ L.T


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


def _split_chains(x: np.ndarray) -> np.ndarray:
    m, n = x.shape
    half = n // 2
    return np.concatenate([x[:, :half], x[:, half:2 * half]], axis=0)


def rhat(chains: np.ndarray) -> float:
    """Split-R-hat of one scalar parameter; chains is (n_chains, n_draws).

    Constant chains report exactly 1 by convention, and estimates that
    fall below 1 through sampling noise are floored at 1 (values under 1
    carry no diagnostic meaning).
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] < 4:
        raise ValueError("need at least 4 draws per chain")
    if np.all(x == x.flat[0]):
        return 1.0
    s = _split_chains(x)
    m, n = s.shape
    W = s.var(axis=1, ddof=1).mean()
    B = n * s.mean(axis=1).var(ddof=1)
    if W == 0:
        return 1.0
    var_plus = (n - 1) / n * W + B / n
    return float(max(1.0, np.sqrt(var_plus / W)))


def _autocov(x: np.ndarray) -> np.ndarray:
    n = x.size
    xc = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[:n].real / n


def ess(chains: np.ndarray) -> float:
    """Effective sample size via paired autocorrelations (Geyer truncation).

    Capped at the total draw count; constant chains report the total
    draw count by convention.
    """
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    total = x.size
    if x.shape[1] < 4:
        raise ValueError("need at least 4 draws per chain")
    if np.all(x == x.flat[0]):
        return float(total)
    s = _split_chains(x)
    m, n = s.shape
    W = s.var(axis=1, ddof=1).mean()
    B = n * s.mean(axis=1).var(ddof=1)
    var_plus = (n - 1) / n * W + B / n
    if var_plus == 0 or W == 0:
        return float(total)
    acov = np.mean([_autocov(s[c]) for c in range(m)], axis=0)
    rho = 1.0 - (W - acov) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while they stay positive and decreasing
    tau = 0.0
    prev_pair = np.inf
    t = 1
    while t + 1 < n:
        pair = rho[t] + rho[t + 1]
        if pair <= 0:
            break
        pair = min(pair, prev_pair)
        tau += pair
        prev_pair = pair
        t += 2
    denom = 1.0 + 2.0 * tau
    return float(min(total, total / denom))


@dataclass
class ParamDiag:
    name: str
    rhat: float
    ess: float
    mean: float
    sd: float


@dataclass
class ConvergenceSummary:
    params: list[ParamDiag]

    @property
    def max_rhat(self) -> float:
        return max(p.rhat for p in self.params)

    @property
    def min_ess(self) -> float:
        return min(p.ess for p in self.params)

    def to_jsonable(self) -> dict:
        return {
            "max_rhat": self.max_rhat,
            "min_ess": self.min_ess,
            "params": [{"name": p.name, "rhat": p.rhat, "ess": p.ess,
                        "mean": p.mean, "sd": p.sd} for p in self.params],
        }


def convergence_summary(p: PosteriorDraws) -> ConvergenceSummary:
    """Split-R-hat, ESS, mean and sd for every B and Sigma entry."""
    chains = np.unique(p.chain)
    if chains.size < 2 and p.n_draws < 100:
        raise ValueError("need at least 2 chains or 100 draws for diagnostics")
    per = p.n_draws // chains.size
    A, n, q = p.B_draws.shape

    def series(values: np.ndarray) -> np.ndarray:
        out = np.empty((chains.size, per))
        for ci, c in enumerate(chains):
            out[ci] = values[p.chain == c]
        return out

    params = []
    for r in range(n):
        for c in range(q):
            s = series(p.B_draws[:, r, c])
            params.append(ParamDiag(f"B[{r},{c}]", rhat(s), ess(s),
                                    float(s.mean()), float(s.std(ddof=1))))
    for r in range(n):
        for c in range(r, n):
            s = series(p.Sigma_draws[:, r, c])
            params.append(ParamDiag(f"Sigma[{r},{c}]", rhat(s), ess(s),
                                    float(s.mean()), float(s.std(ddof=1))))
    return ConvergenceSummary(params=params)


# ---------------------------------------------------------------------------
# Persistence: draws.csv + draws.npz + meta.json
# ---------------------------------------------------------------------------


def _write_draws_csv(p: PosteriorDraws, fh) -> None:
    """draw,chain,param,value rows, quoted and terminated as csv.writer
    writes them, one draw's lines per write."""
    n, q = p.B_draws.shape[1:]
    bs_names = ([f'"B[{r},{c}]"' for r in range(n) for c in range(q)]
                + [f'"Sigma[{r},{c}]"' for r in range(n) for c in range(n)])
    z_names = [f'"Z[{r},{c}]"' for r, c in p.missing_cells.tolist()]

    def lines(draw, chain, names, values):
        # repr of a python float is the shortest exact round-trip form
        prefix = f"{draw},{chain},"
        return "".join([f"{prefix}{name},{v!r}\r\n" for name, v in zip(names, values)])

    fh.write("draw,chain,param,value\r\n")
    for a, (dr, ch) in enumerate(zip(p.draw.tolist(), p.chain.tolist())):
        fh.write(lines(dr, ch, bs_names, p.B_draws[a].ravel().tolist()
                       + p.Sigma_draws[a].ravel().tolist()))
    for zi, (dr, ch) in enumerate(zip(p.Z_draw.tolist(), p.Z_chain.tolist())):
        fh.write(lines(dr, ch, z_names, p.Z_draws[zi].tolist()))


def save_fit(p: PosteriorDraws, outdir, extra_meta: dict | None = None) -> None:
    """Write draws.csv, draws.npz and meta.json into outdir.

    draws.csv (draw,chain,param,value) is the interchange file for other
    tools; draws.npz holds the same values in binary, plus fit_rows and
    missing_cells, and is what load_fit reads. Each file goes through a
    temp-file rename. Draws holding any non-finite value raise ValueError
    before a file is made.
    """
    for name, values in (("B", p.B_draws), ("Sigma", p.Sigma_draws), ("Z", p.Z_draws)):
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise ValueError(f"{bad} non-finite {name} draw values; nothing written")
    os.makedirs(outdir, exist_ok=True)
    draws_path = os.path.join(outdir, DRAWS_FILE)
    with open(draws_path + ".tmp", "w", encoding="utf-8", newline="") as fh:
        _write_draws_csv(p, fh)
    os.replace(draws_path + ".tmp", draws_path)

    npz_path = os.path.join(outdir, NPZ_FILE)
    with open(npz_path + ".tmp", "wb") as fh:
        np.savez_compressed(fh, B_draws=p.B_draws, Sigma_draws=p.Sigma_draws,
                            chain=p.chain, draw=p.draw, Z_draws=p.Z_draws,
                            Z_chain=p.Z_chain, Z_draw=p.Z_draw,
                            fit_rows=p.fit_rows, missing_cells=p.missing_cells)
    os.replace(npz_path + ".tmp", npz_path)

    meta = {
        "spec": p.spec.to_jsonable(),
        "seed": int(p.spec.seed),
        "response_names": list(p.response_names),
        "covariate_names": list(p.covariate_names),
        "n_draws": int(p.n_draws),
    }
    if extra_meta:
        meta.update(extra_meta)
    meta_path = os.path.join(outdir, META_FILE)
    with open(meta_path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(meta_path + ".tmp", meta_path)


def load_fit(fitdir) -> tuple[PosteriorDraws, dict]:
    """Read a save_fit directory (meta.json and draws.npz) back into a
    PosteriorDraws plus the raw meta.

    draws.csv is never read. A directory without draws.npz, or whose
    draws.npz lacks fit_rows (both written by earlier versions), raises
    ValueError.
    """
    npz_path = os.path.join(fitdir, NPZ_FILE)
    if not os.path.exists(npz_path):
        raise ValueError(f"{npz_path} not found; re-run fit to write it")
    with open(os.path.join(fitdir, META_FILE), encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(npz_path) as npz:
        if "fit_rows" not in npz.files:
            raise ValueError(f"{npz_path} has no fit_rows; re-run fit to rewrite it")
        p = PosteriorDraws(
            B_draws=npz["B_draws"], Sigma_draws=npz["Sigma_draws"],
            chain=npz["chain"], draw=npz["draw"],
            fit_rows=npz["fit_rows"], missing_cells=npz["missing_cells"],
            Z_draws=npz["Z_draws"], Z_chain=npz["Z_chain"], Z_draw=npz["Z_draw"],
            spec=ModelSpec.from_jsonable(meta["spec"]),
            response_names=meta["response_names"],
            covariate_names=meta["covariate_names"],
        )
    return p, meta
