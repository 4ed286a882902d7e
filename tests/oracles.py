"""Single-location reference computations the tests compare the batch code with.

Each one says a measure or a cutoff for one location (or one set of
values) in the plainest form: the covariance of the predictive-mean draws
of one location, the CMVPV of one location by a linear solve per draw,
and the cutoff of a plain value vector. The package computes the same
quantities for every location at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from extrapolmv.extrapolation import CutoffSpec, _cutoff_with_tie, _logdet_psd
from extrapolmv.sampler import PosteriorDraws


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
    """Cutoff value k derived from the observed-location measure values."""
    return _cutoff_with_tie(np.asarray(v_obs, dtype=float).ravel(), None, spec, leverage)[0]
