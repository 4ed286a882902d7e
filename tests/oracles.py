"""Reference computations the tests compare the batched code with.

Each one says a measure, a cutoff or a Gibbs chain in the plainest form:
the covariance of the predictive-mean draws of one location, the CMVPV of
one location by a linear solve per draw, the cutoff of a plain value
vector, and the chains of a fit run one after another, one sweep of one
chain at a time. The package computes the same quantities for every
location, or every chain, at once. The one-chain Gibbs updates here,
draw_coefficients and invwishart, are also the reference sampler of the
joint-distribution tests, and sigma_log_density is the target of the
Sigma update, log p(Sigma | B, Y_obs), summed one row at a time.
split_rhat and split_ess diagnose one parameter at a time, with Geyer's
truncation as a loop over the autocorrelation pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from extrapolmv import posterior
from extrapolmv.dataset import Dataset
from extrapolmv.extrapolation import CutoffSpec, _logdet_psd
from extrapolmv.sampler import ModelSpec, PosteriorDraws


@dataclass
class PredictiveVariance:
    """Per-location covariance of the predictive mean plus scalar summaries.

    ``det`` may underflow to 0 for strongly concentrated posteriors;
    ``logdet`` is the authoritative determinant representation (-inf for
    semidefinite V).
    """

    V: np.ndarray
    trace: float
    logdet: float
    det: float


def predictive_mean_draws(p: PosteriorDraws, x: np.ndarray) -> np.ndarray:
    """Mean vectors B_a x for every retained draw; shape (A, n)."""
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.B_draws.shape[2]:
        raise ValueError(f"x has {x.size} entries, expected {p.B_draws.shape[2]}")
    return p.B_draws @ x


def predictive_variance(draws: np.ndarray) -> PredictiveVariance:
    """Sample covariance (divisor A) of predictive-mean draws.

    ``draws`` is (A, n), one mean vector per retained draw.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim == 1:
        draws = draws[:, None]
    A = draws.shape[0]
    if A < 2:
        raise ValueError("need at least 2 draws")
    dev = draws - draws.mean(axis=0)
    V = dev.T @ dev / A
    V = 0.5 * (V + V.T)
    logdet = float(_logdet_psd(V))
    return PredictiveVariance(V=V, trace=float(np.trace(V)), logdet=logdet,
                              det=float(np.exp(logdet)))


def cmvpv(p: PosteriorDraws, x: np.ndarray, target: int,
          given_values: np.ndarray, given_mask: np.ndarray | None = None) -> float:
    """Conditional predictive variance of one response at one location.

    For each retained draw the target response is conditioned on the
    available sibling responses; the returned measure is the across-draw
    variance of those conditional means plus the mean within-draw
    conditional variance. When no siblings are available the marginal
    counterpart is used, adding the mean residual variance of the target
    so the values stay comparable.

    ``given_values`` has one slot per response; ``given_mask`` marks
    which slots are actually available (defaults to the finite ones,
    target excluded).
    """
    B = p.B_draws
    S = p.Sigma_draws
    x = np.asarray(x, dtype=float).ravel()
    A, n, q = B.shape
    if x.size != q:
        raise ValueError(f"x has {x.size} entries, expected {q}")
    if not 0 <= target < n:
        raise ValueError("target response index out of range")
    given_values = np.asarray(given_values, dtype=float).ravel()
    if given_values.size != n:
        raise ValueError("given_values must have one slot per response")
    if given_mask is None:
        given_mask = np.isfinite(given_values)
        given_mask[target] = False
    else:
        given_mask = np.asarray(given_mask, dtype=bool).ravel()
        if given_mask.size != n:
            raise ValueError("given_mask must have one slot per response")
        if given_mask[target]:
            raise ValueError("target response cannot be conditioned on itself")
    g = np.flatnonzero(given_mask)
    if g.size and not np.all(np.isfinite(given_values[g])):
        raise ValueError("conditioning values must be finite where available")

    mu_t = B[:, target, :] @ x
    if g.size == 0:
        dev = mu_t - mu_t.mean()
        return float((dev ** 2).mean() + S[:, target, target].mean())

    S_gg = S[:, g[:, None], g[None, :]]
    S_tg = S[:, target, :][:, g]
    G = np.linalg.solve(S_gg, S_tg[..., None])[..., 0]
    sbar = S[:, target, target] - np.einsum("ag,ag->a", S_tg, G)
    mu_g = np.einsum("agq,q->ag", B[:, g, :], x)
    mubar = mu_t + np.einsum("ag,ag->a", G, given_values[g][None, :] - mu_g)
    dev = mubar - mubar.mean()
    return float((dev ** 2).mean() + sbar.mean())


def compute_cutoff(v_obs: np.ndarray, spec: CutoffSpec,
                   leverage: np.ndarray | None = None) -> float:
    """Cutoff value k derived from the observed-location measure values:
    their max, their linearly interpolated quantile, or the max over the
    rows whose leverage is at most 3 times the mean leverage."""
    v_obs = np.asarray(v_obs, dtype=float).ravel()
    if spec.kind == "quantile":
        return float(np.quantile(v_obs, spec.level, method="linear"))
    if spec.kind == "leverage_informed_max":
        h = np.asarray(leverage, dtype=float).ravel()
        v_obs = v_obs[h <= 3 * h.mean()]
    return float(np.max(v_obs))


# -- one Gibbs chain at a time ----------------------------------------------------


def draw_coefficients(XtX, XtY, K, prior_var, rng):
    """Theta given Sigma: the precision sum_g K_g kron X_g'X_g + I/prior_var
    and the linear term vec(sum_g X_g'Y_g K_g), one chain's normals."""
    G, q, _ = XtX.shape
    n = K.shape[-1]
    P = (K.reshape(G, n * n).T @ XtX.reshape(G, q * q)).reshape(n, n, q, q)
    P = P.transpose(0, 2, 1, 3).reshape(n * q, n * q)
    P.flat[::n * q + 1] += 1.0 / prior_var
    L, info = lapack.dpotrf(P, lower=1, clean=1)
    assert info == 0
    mu, _ = lapack.dpotrs(L, (XtY @ K).sum(axis=0).T.ravel(), lower=1)
    noise, _ = lapack.dtrtrs(L, rng.standard_normal(n * q), lower=1, trans=1)
    return (mu + noise).reshape(n, q).T


def invwishart(df, scale, rng, chi_rng=None):
    """IW(scale, df) by the Bartlett decomposition: the chi-squares from
    chi_rng (rng if None), then the normals from rng."""
    p = scale.shape[0]
    C, info = lapack.dpotrf(scale, lower=1, clean=1)
    assert info == 0
    A = np.diag(np.sqrt((rng if chi_rng is None else chi_rng).chisquare(df - np.arange(p))))
    A[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    U, info = lapack.dtrtrs(A, C.T, lower=1)
    assert info == 0
    return U.T @ U


def serial_sweep(pat, Sigma, prior_var, iw_scale, iw_df, normal, chi):
    """One chain's collapsed sweep on the (G, ...) pattern stacks of
    posterior._Patterns: Theta given Sigma, then Sigma given Theta, every
    normal from the generator normal and every chi-square from chi."""
    M = Sigma * pat.oo + pat.eye_m
    np.linalg.cholesky(M)
    K = np.linalg.inv(M) * pat.oo
    SK = Sigma @ K
    Lc = np.linalg.cholesky((Sigma - SK @ Sigma) * pat.mm + pat.eye_o)
    Theta = draw_coefficients(pat.XtX, pat.XtY, K, prior_var, normal)
    T = np.zeros(pat.noise.shape)
    flat = T.reshape(-1)
    flat[pat.noise_flat] = normal.standard_normal(pat.noise_flat.size)
    flat[pat.chi_flat] = np.sqrt(chi.chisquare(pat.chi_df))
    W = pat.W.copy()  # [X, Y] W = Y - X Theta
    W[:Theta.shape[0]] = -Theta
    J = SK @ np.swapaxes(pat.rows @ W, 1, 2) + Lc @ T
    return Theta, invwishart(iw_df + pat.l, iw_scale + np.einsum("gij,gkj->ik", J, J),
                             normal, chi)


def serial_gibbs_fit(d: Dataset, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray]:
    """The kept (B_draws, Sigma_draws) of gibbs_fit, chain-major, with the
    chains run one after another by serial_sweep, one sweep's draws at a
    time: chain c on the two generators spawned from the c-th child of
    SeedSequence(spec.seed), the first for normals, the second for
    chi-squares."""
    _rows, pat, Sigma0, iw_scale, iw_df = posterior._fit_setup(d, spec)
    B, S = [], []
    for seed in np.random.SeedSequence(spec.seed).spawn(spec.chains):
        normal, chi = (np.random.default_rng(s) for s in seed.spawn(2))
        Sigma = Sigma0
        for t in range(spec.iterations):
            Theta, Sigma = serial_sweep(pat, Sigma, spec.coef_prior_var, iw_scale, iw_df,
                                        normal, chi)
            if t >= spec.burn_in and (t - spec.burn_in) % spec.thin == 0:
                B.append(Theta.T)
                S.append(Sigma)
    return np.array(B), np.array(S)


def sigma_log_density(Sigma, B, X, Y, mask, iw_scale, iw_df):
    """log p(Sigma | B, Y_obs) up to a constant that does not depend on
    Sigma: the IW(iw_scale, iw_df) log prior density, plus the log density
    of each row's observed responses y_o under N((B x)_o, Sigma_oo), taken
    row by row. B is (n, q); rows with no observed response add nothing."""
    n = Sigma.shape[0]
    out = (-0.5 * (iw_df + n + 1) * np.linalg.slogdet(Sigma)[1]
           - 0.5 * np.trace(iw_scale @ np.linalg.inv(Sigma)))
    for x, y, o in zip(X, Y, np.asarray(mask, dtype=bool)):
        if o.any():
            S, r = Sigma[np.ix_(o, o)], y[o] - (B @ x)[o]
            out -= 0.5 * (np.linalg.slogdet(S)[1] + r @ np.linalg.solve(S, r)
                          + o.sum() * np.log(2 * np.pi))
    return out


def split_moments(chains):
    """Split halves of one parameter's (n_chains, n_draws) chains, their
    mean within-half variance W and the pooled variance estimate; None if
    every draw is equal."""
    x = np.asarray(chains, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] < 4:
        raise ValueError("need at least 4 draws per chain")
    if np.all(x == x.flat[0]):
        return None
    half = x.shape[1] // 2
    s = np.concatenate([x[:, :half], x[:, half:2 * half]], axis=0)
    n = s.shape[1]
    W = s.var(axis=1, ddof=1).mean()
    B = n * s.mean(axis=1).var(ddof=1)
    return s, W, (n - 1) / n * W + B / n


def split_rhat(chains) -> float:
    """Split-R-hat of one parameter, floored at 1: exactly 1 if every draw
    is equal, inf if the halves are constant but differ."""
    moments = split_moments(chains)
    if moments is None:
        return 1.0
    _s, W, var_plus = moments
    return float(max(1.0, np.sqrt(var_plus / W))) if W else np.inf


def autocov(x: np.ndarray) -> np.ndarray:
    """Autocovariances (divisor n) of one series at lags 0..n-1, by FFT."""
    n = x.size
    xc = x - x.mean()
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    f = np.fft.rfft(xc, nfft)
    return np.fft.irfft(f * np.conj(f), nfft)[:n].real / n


def split_ess(chains) -> float:
    """ESS of one parameter by paired autocorrelations of the split halves,
    summed one Geyer pair at a time; the total draw count if every draw is
    equal."""
    total = np.size(chains)
    moments = split_moments(chains)
    if moments is None:
        return float(total)
    s, W, var_plus = moments
    n = s.shape[1]
    acov = np.mean([autocov(c) for c in s], axis=0)
    rho = 1.0 - (W - acov) / var_plus
    rho[0] = 1.0
    # Geyer: sum consecutive pairs while they stay positive and decreasing
    tau, pair = 0.0, np.inf
    for t in range(1, n - 1, 2):
        pair = min(rho[t] + rho[t + 1], pair)
        if pair <= 0:
            break
        tau += pair
    return float(min(total, total / (1.0 + 2.0 * tau)))
