"""Gibbs sampler for the Bayesian multivariate linear model.

Model: y_i = B x_i + e_i with e_i ~ N(0, Sigma) iid across rows, fitted
on every row with at least one observed response. Priors are independent
N(0, coef_prior_var) entries on B and an inverse-Wishart on Sigma.

A sweep is an exact two-block Gibbs sampler over (B, Y_mis) and Sigma,
batched over posterior.py's patterns g (o observed, m missing, N_g rows):

1. _coefficient_step: B given Sigma and Y_obs, the missing cells
   integrated out, from the precision sum_g K_g kron X_g'X_g +
   I/coef_prior_var, K_g the zero-padded Sigma_oo^-1 (posterior._precision).
2. _sigma_step: Sigma from IW(prior_df + l, prior_scale + sum_g E_g'E_g),
   where each residual Gram E_g'E_g is drawn exactly from its law given B
   as J_g J_g', J_g = V_g R_g + C_g^1/2 T_g: V_g = Sigma K_g (I in rows o,
   the gain Sigma_mo Sigma_oo^-1 in rows m), C_g the conditional
   covariance of the missing responses, R_g the residuals of the
   pattern's r_g virtual rows (posterior._Patterns), and T_g standard normals
   against them beside a factor of Wishart(N_g - r_g, I).

Inverse-Wishart convention used throughout: IW(scale, df) has density
proportional to |S|^-(df+n+1)/2 * exp(-tr(scale S^-1)/2), giving the
full conditional IW(prior_scale + E'E, prior_df + l_fit) and prior mean
scale/(df-n-1).

Reproducibility: the chains advance together, one lockstep sweep per
iteration that builds every chain's conditionals, precisions and residual
Grams in the same batched calls. Each chain draws from two generators,
spawned in turn from its child of numpy's SeedSequence(seed): the first
gives every standard normal (per sweep, those of B for _coefficient_step,
then those of the patterns and of the Bartlett factor for _sigma_step),
the second every chi-square (per sweep, the pattern cells, then the
Bartlett diagonal). _random_inputs reads both streams strictly in order, a
block of sweeps at a time, and lays them out as the sweeps read them. So a
chain's draws depend neither on the block length nor on the other chains
or how many there are, bit for bit: they equal those of the chain run
alone, and a shorter run's draws are a prefix of a longer run's.

Convergence: one array computation, _split_diagnostics, gives every
parameter's split-R-hat and ESS. Draws that are all equal have R-hat 1
and an ESS of their count; chains stuck at different values have R-hat
inf (Infinity in meta.json).
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.linalg import lapack

from extrapolmv import posterior
from extrapolmv.dataset import (Dataset, _atomic_open, _check_arrays, _check_types,
                                _from_json, _load_json, _read_archive, _real_array, _to_json,
                                _write_json, _write_table)

DRAWS_FILE = "draws.csv"
NPZ_FILE = "draws.npz"
META_FILE = "meta.json"
# the draws.npz arrays, in the order they are written
_NPZ_KEYS = ("B_draws", "Sigma_draws", "chain", "draw", "fit_rows")
# the work arrays of one block stay within about this many bytes: the random
# inputs of a block of sweeps, all chains, drawn and laid out at once, and
# the FFTs of a block of parameters' convergence diagnostics
_BLOCK_BYTES = 2 << 20


@dataclass
class ModelSpec:
    """Prior and run-length configuration for gibbs_fit.

    ``iw_scale`` defaults to the identity and ``iw_df`` to max(q + 1, n),
    q counting the intercept and n the responses, which is proper (above
    n - 1) however few the covariates (resolved against the dataset at fit
    time); gibbs_fit rejects an ``iw_scale``
    that is not finite, symmetric and positive definite. A field of the
    wrong type or out of range raises ValueError naming it.
    """

    coef_prior_var: float = 100.0
    iw_scale: np.ndarray | None = None
    iw_df: float | None = None
    iterations: int = 20000
    burn_in: int = 10000
    thin: int = 1
    chains: int = 2
    seed: int = 0

    def __post_init__(self):
        _check_types(self, integers=("iterations", "burn_in", "thin", "chains", "seed"),
                     reals=("coef_prior_var",) + (() if self.iw_df is None else ("iw_df",)))
        if not self.coef_prior_var > 0:  # NaN too; inf is a flat prior
            raise ValueError("coefficient prior variance must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn-in must be non-negative and below iterations")
        if self.thin < 1:
            raise ValueError("thinning factor must be at least 1")
        if self.chains < 1:
            raise ValueError("need at least one chain")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, not {self.seed}")
        if self.iw_scale is not None:
            try:
                self.iw_scale = _real_array(self.iw_scale)
            except (TypeError, ValueError):
                raise ValueError("iw_scale must be a matrix of numbers") from None

    @property
    def kept_per_chain(self) -> int:
        """Draws each chain keeps: every thin-th iteration after burn-in."""
        return (self.iterations - self.burn_in + self.thin - 1) // self.thin


@dataclass
class PosteriorDraws:
    """Retained Gibbs draws plus enough metadata to reuse them.

    B_draws is (A, n, q) in the response-by-covariate orientation,
    Sigma_draws (A, n, n); fit_rows lists the dataset rows fitted on.
    """

    B_draws: np.ndarray
    Sigma_draws: np.ndarray
    chain: np.ndarray
    draw: np.ndarray
    fit_rows: np.ndarray
    spec: ModelSpec
    response_names: list[str] = field(default_factory=list)
    covariate_names: list[str] = field(default_factory=list)

    @property
    def n_draws(self) -> int:
        return self.B_draws.shape[0]


# ---------------------------------------------------------------------------
# Factorisations and inverse-Wishart primitives
# ---------------------------------------------------------------------------


def _chol(a: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of a symmetric matrix; LinAlgError unless PD."""
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"{what} is not positive definite")
    return c


def _bartlett(scale: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The inverse-Wishart draw U'U, U = A^-1 C' with C C' = scale, of the
    Bartlett factor A: the roots of chi-squares on its diagonal and standard
    normals below it."""
    C = _chol(scale, "inverse-Wishart scale")
    U, info = lapack.dtrtrs(A, C.T, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError("Bartlett factor is singular")
    return U.T @ U


# ---------------------------------------------------------------------------
# Full-conditional updates
# ---------------------------------------------------------------------------


def _residual_gram(pat: posterior._Patterns, Theta: np.ndarray, SK: np.ndarray,
                   Lc: np.ndarray, T: np.ndarray) -> np.ndarray:
    """sum_g E_g'E_g of each chain as sum_g J_g J_g' with J_g = SK_g R_g +
    Lc_g T_g, where R_g = (F_g W)' holds the residuals of the virtual rows;
    SK_g has zero columns m, so their missing cells drop out. Every
    argument but pat carries the chain axis first; the result is (C, n, n)."""
    W = np.empty(Theta.shape[:-2] + pat.W.shape)
    W[...] = pat.W
    np.negative(Theta, out=W[..., :Theta.shape[-2], :])  # [X, Y] W = Y - X Theta
    J = SK @ (pat.rows @ W[..., None, :, :]).swapaxes(-1, -2) + Lc @ T
    return np.einsum("...gij,...gkj->...ik", J, J)


def _coefficient_step(P: np.ndarray, h: np.ndarray, z: np.ndarray, n: int) -> tuple:
    """Theta given Sigma for each chain of the (C, nq, nq) precisions P and
    (C, nq) linear terms h: vec(Theta) = mu + L'^-1 z with P = L L' and
    P mu = h. Returns Theta (C, q, n), mu (C, nq) and L (C, nq, nq)."""
    L = np.empty_like(P).swapaxes(-1, -2)  # column-major blocks, dpotrf's layout: plain copies
    mu, noise = np.empty_like(h), np.empty_like(h)
    for c in range(len(P)):
        try:
            L[c] = Lp = _chol(P[c], "coefficient precision")
        except np.linalg.LinAlgError as exc:
            raise posterior._ChainFailure(c, exc) from None
        mu[c] = lapack.dpotrs(Lp, h[c], lower=1)[0]
        noise[c] = lapack.dtrtrs(Lp, z[c], lower=1, trans=1)[0]
    return (mu + noise).reshape(len(P), n, -1).swapaxes(-1, -2), mu, L


def _sigma_step(pat: posterior._Patterns, Theta: np.ndarray, SK: np.ndarray, Lc: np.ndarray,
                T: np.ndarray, iw_scale: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Sigma given Theta for each chain, IW(iw_scale + sum_g E_g'E_g, iw_df
    + l), from each chain's Bartlett factor in the (C, n, n) stack A."""
    scale = iw_scale + _residual_gram(pat, Theta, SK, Lc, T)
    for c, a in enumerate(A):
        try:
            scale[c] = _bartlett(scale[c], a)
        except np.linalg.LinAlgError as exc:
            raise posterior._ChainFailure(c, exc) from None
    return scale


def _sweep(pat: posterior._Patterns, Sigma: np.ndarray, prior_var: float, iw_scale: np.ndarray,
           z: np.ndarray, T: np.ndarray, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One collapsed sweep of C chains in lockstep from a (C, n, n) Sigma and
    one sweep's random inputs of _random_inputs: _coefficient_step draws
    Theta given Sigma from the normals z, then _sigma_step Sigma given Theta
    from T and A. Only each chain's factorisations run chain by chain. A
    factorisation that fails raises _ChainFailure, naming the lowest failing
    chain of the first step that fails.
    """
    K, SK, Lc = posterior._conditionals(pat, Sigma)
    P, h = posterior._precision(pat.XtX, pat.XtY, K, prior_var)
    Theta = _coefficient_step(P, h, z, Sigma.shape[-1])[0]
    return Theta, _sigma_step(pat, Theta, SK, Lc, T, iw_scale, A)


def _chi_df(pat: posterior._Patterns, iw_df: float) -> np.ndarray:
    """The degrees of freedom of one sweep's chi-squares, in the order they
    are drawn: the pattern cells of T, then the Bartlett diagonal."""
    return np.concatenate([pat.chi_df, iw_df + pat.l - np.arange(pat.noise.shape[1])])


def _random_inputs(pat: posterior._Patterns, chi_df: np.ndarray, gens, sweeps: int) -> tuple:
    """The random inputs of `sweeps` lockstep sweeps, each chain's read in
    order from its (normal, chi-square) generator pair in gens, laid out
    sweep by sweep as _sweep reads them: z (S, C, nq), the normals of B; T
    (S, C, G, n, q + n), normals at pat.noise_flat and the roots of
    chi-squares at pat.chi_flat; and A (S, C, n, n), the Bartlett factors,
    roots on the diagonal and normals below. Per sweep a chain takes its
    normals for z, T and A in that order, and its chi-squares for T, then A."""
    C, (n, w) = len(gens), pat.noise.shape[1:]
    nq, k = n * (w - n), pat.chi_flat.size
    m = nq + pat.noise_flat.size
    normal = np.stack([g.standard_normal((sweeps, m + n * (n - 1) // 2)) for g, _ in gens], axis=1)
    root = np.sqrt(np.stack([g.chisquare(chi_df, (sweeps, chi_df.size)) for _, g in gens], axis=1))
    T = np.zeros((sweeps, C) + pat.noise.shape)
    flat = T.reshape(sweeps, C, -1)
    flat[..., pat.noise_flat] = normal[..., nq:m]
    flat[..., pat.chi_flat] = root[..., :k]
    A = np.zeros((sweeps, C, n, n))
    flat = A.reshape(sweeps, C, -1)
    rows, cols = np.tril_indices(n, -1)
    flat[..., rows * n + cols] = normal[..., m:]
    flat[..., ::n + 1] = root[..., k:]
    return normal[..., :nq], T, A


def _block_sweeps(pat: posterior._Patterns, chains: int) -> int:
    """Sweeps per block of random inputs: as many as fit _BLOCK_BYTES, at
    least one. A sweep's inputs take about twice T and A (the draws, then
    their layout) for each chain."""
    n = pat.noise.shape[1]
    return max(1, _BLOCK_BYTES // (16 * chains * (pat.noise.size + n * n)))


def gibbs_fit(d: Dataset, spec: ModelSpec) -> PosteriorDraws:
    """Fit the joint linear model on the rows with any observed response.

    Deterministic for a fixed spec. The chains advance together, one
    lockstep sweep per iteration, each on its own two generators spawned
    from SeedSequence(spec.seed) and read in the order a chain run alone
    would read them, so chain c's draws do not depend on the number of
    chains, and those of a shorter run are a prefix of a longer run's.
    A failed factorisation raises LinAlgError naming the earliest failing
    iteration and, within it, the lowest chain that failed at the first
    failing step.
    """
    fit_rows, pat, Sigma0, iw_scale, iw_df = posterior._fit_setup(d, spec)
    n, q = d.n_responses, d.X.shape[1]
    gens = [tuple(np.random.default_rng(s) for s in child.spawn(2))
            for child in np.random.SeedSequence(spec.seed).spawn(spec.chains)]
    chi_df = _chi_df(pat, iw_df)
    block = _block_sweeps(pat, spec.chains)
    per_chain = spec.kept_per_chain
    B_out = np.empty((spec.chains, per_chain, n, q))
    S_out = np.empty((spec.chains, per_chain, n, n))
    Sigma = np.repeat(Sigma0[None], spec.chains, axis=0)
    for start in range(0, spec.iterations, block):
        inputs = _random_inputs(pat, chi_df, gens, min(block, spec.iterations - start))
        for t, (z, T, A) in enumerate(zip(*inputs), start):
            try:
                Theta, Sigma = _sweep(pat, Sigma, spec.coef_prior_var, iw_scale, z, T, A)
            except posterior._ChainFailure as exc:
                raise np.linalg.LinAlgError(
                    f"chain {exc.chain}, iteration {t + 1}: {exc}") from exc
            r, skip = divmod(t - spec.burn_in, spec.thin)
            if r >= 0 and not skip:
                B_out[:, r] = Theta.swapaxes(-1, -2)
                S_out[:, r] = Sigma

    return PosteriorDraws(
        B_draws=B_out.reshape(-1, n, q),
        Sigma_draws=S_out.reshape(-1, n, n),
        chain=np.repeat(np.arange(spec.chains), per_chain),
        draw=np.tile(np.arange(per_chain), spec.chains),
        fit_rows=fit_rows, spec=spec,
        response_names=list(d.response_names),
        covariate_names=list(d.covariate_names),
    )


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------


def _split_diagnostics(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Split-R-hat, ESS, mean and sd of every parameter of a (params,
    chains, draws) array, all parameters at once.

    Each chain is split into two halves (an odd last draw is dropped). W is
    the mean within-half variance and var_plus the pooled variance estimate;
    R-hat is sqrt(var_plus / W), floored at 1. ESS is the draw count over 1
    + 2 tau, where tau sums Geyer's running minimum of the pair sums of
    consecutive autocorrelations (from one batched FFT) while it stays
    positive. A parameter whose draws are all equal has R-hat 1 and ESS the
    draw count; one with W = 0 whose draws still differ (chains stuck at
    different values) has R-hat inf.
    """
    # C order: each chain, each split half and each parameter's draws are
    # then summed as one contiguous row, as a lone chain is
    x = np.ascontiguousarray(x, dtype=float)
    m, N = x.shape[1:]
    if N < 4:
        raise ValueError("need at least 4 draws per chain")
    n = N // 2
    s = np.concatenate([x[..., :n], x[..., n:2 * n]], axis=1)
    W = s.var(axis=-1, ddof=1).mean(axis=-1)
    B = n * s.mean(axis=-1).var(axis=-1, ddof=1)
    var_plus = (n - 1) / n * W + B / n
    constant = (x == x[:, :1, :1]).all(axis=(1, 2))
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(s - s.mean(axis=-1, keepdims=True), nfft)
    acov = np.fft.irfft(f * np.conj(f), nfft)[..., :n] / n
    with np.errstate(divide="ignore", invalid="ignore"):
        split_rhat = np.where(constant, 1.0, np.maximum(1.0, np.sqrt(var_plus / W)))
        rho = 1.0 - (W[:, None] - acov.mean(axis=1)) / var_plus[:, None]
    # the running minimum never rises, so it is positive exactly up to the
    # first pair sum that is not
    k = (n - 1) // 2
    pair = np.minimum.accumulate(rho[:, 1:2 * k:2] + rho[:, 2:2 * k + 1:2], axis=-1)
    tau = np.where(pair > 0, pair, 0.0).sum(axis=-1)
    draws = x.reshape(len(x), -1)
    return (split_rhat, np.where(constant, m * N, m * N / (1.0 + 2.0 * tau)),
            draws.mean(axis=-1), draws.std(axis=-1, ddof=1))


def rhat(chains: np.ndarray) -> float:
    """Split-R-hat of one scalar parameter; chains is (n_chains, n_draws),
    or one chain's draws. Conventions as in _split_diagnostics."""
    return float(_split_diagnostics(np.atleast_2d(chains)[None])[0][0])


def ess(chains: np.ndarray) -> float:
    """Effective sample size of one scalar parameter, chains as for rhat, by
    Geyer's truncated paired autocorrelations (see _split_diagnostics)."""
    return float(_split_diagnostics(np.atleast_2d(chains)[None])[1][0])


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
            "params": [asdict(p) for p in self.params],
        }


def check_draw_counts(chains: int, per_chain: int) -> None:
    """Raise ValueError unless convergence_summary can diagnose `chains`
    chains of `per_chain` draws each: one chain needs 100 draws, and the
    split halves of every chain need 4 draws."""
    if chains < 2 and per_chain < 100:
        raise ValueError(f"need at least 2 chains or 100 draws for diagnostics, "
                         f"not {chains} chain of {per_chain}")
    if per_chain < 4:
        raise ValueError(f"need at least 4 draws per chain, not {per_chain}")


def _parameters(p: PosteriorDraws) -> tuple[list[str], np.ndarray]:
    """The names and the (A, k) draws of every parameter: B's entries row by
    row, then Sigma's upper triangle row by row (Sigma is symmetric)."""
    A, n, q = p.B_draws.shape
    upper = np.triu_indices(n)
    names = [f"B[{r},{c}]" for r in range(n) for c in range(q)]
    names += [f"Sigma[{r},{c}]" for r, c in zip(*upper)]
    return names, np.hstack([p.B_draws.reshape(A, n * q), p.Sigma_draws[:, upper[0], upper[1]]])


def convergence_summary(p: PosteriorDraws) -> ConvergenceSummary:
    """Split-R-hat, ESS, mean and sd for every parameter of _parameters,
    from _split_diagnostics over blocks of parameters."""
    chains, counts = np.unique(p.chain, return_counts=True)
    check_draw_counts(chains.size, min(counts, default=0))
    names, flat = _parameters(p)
    in_chain = [p.chain == c for c in chains]
    # the FFT's work arrays take up to 16 bytes per byte of draws: blocks of
    # parameters, each stacked (params, chains, draws), keep them within
    # about _BLOCK_BYTES
    per = max(1, _BLOCK_BYTES // (16 * flat[:, 0].nbytes))
    columns = zip(*(_split_diagnostics(np.stack([flat[r, i:i + per].T for r in in_chain], axis=1))
                    for i in range(0, flat.shape[1], per)))
    return ConvergenceSummary([ParamDiag(*row) for row in zip(
        names, *(np.concatenate(column).tolist() for column in columns))])


# ---------------------------------------------------------------------------
# Persistence: draws.csv + draws.npz + meta.json
# ---------------------------------------------------------------------------


def save_fit(p: PosteriorDraws, outdir, extra_meta: dict | None = None) -> None:
    """Write draws.csv, draws.npz and meta.json into outdir.

    draws.csv, one row per kept draw with columns draw, chain and the
    _parameters names, is the interchange file for other tools. draws.npz
    holds the draws in binary, full Sigma and fit_rows included, and is
    what load_fit reads. It is written uncompressed: deflate took most of
    its write time and saved about a third of its size (load_fit reads
    compressed files from earlier versions as well). Each file goes
    through a temp-file rename. Draws holding any non-finite value raise
    ValueError before a file is made.
    """
    for name, values in (("B", p.B_draws), ("Sigma", p.Sigma_draws)):
        bad = values.size - np.count_nonzero(np.isfinite(values))
        if bad:
            raise ValueError(f"{bad} non-finite {name} draw values; nothing written")
    os.makedirs(outdir, exist_ok=True)
    names, values = _parameters(p)
    _write_table(os.path.join(outdir, DRAWS_FILE), ["draw", "chain", *names],
                 [p.draw, p.chain, *values.T])
    with _atomic_open(os.path.join(outdir, NPZ_FILE), binary=True) as fh:
        np.savez(fh, **{key: getattr(p, key) for key in _NPZ_KEYS})
    meta = {
        "spec": _to_json(p.spec),
        "seed": int(p.spec.seed),
        "response_names": list(p.response_names),
        "covariate_names": list(p.covariate_names),
        "n_draws": int(p.n_draws),
    }
    if extra_meta:
        meta.update(extra_meta)
    _write_json(os.path.join(outdir, META_FILE), meta)


def load_fit(fitdir) -> tuple[PosteriorDraws, dict]:
    """Read a save_fit directory (meta.json and draws.npz) back into a
    PosteriorDraws plus the raw meta.

    draws.csv is never read. A directory without draws.npz, or whose
    draws.npz lacks fit_rows (both written by earlier versions), raises
    ValueError, as does a meta.json that is not JSON, has no list
    response_names or covariate_names, or whose spec is not a ModelSpec
    record (one written before store_z and z_thin went away is not), a
    draws.npz that _read_archive cannot read (cut short, say), and a
    draws.npz array whose dtype or shape is not the one save_fit writes
    for meta's names. Other arrays in draws.npz are ignored.
    """
    npz_path = os.path.join(fitdir, NPZ_FILE)
    if not os.path.exists(npz_path):
        raise ValueError(f"{npz_path} not found; re-run fit to write it")
    meta_path = os.path.join(fitdir, META_FILE)
    meta = _load_json(meta_path)
    absent = [key for key in ("response_names", "covariate_names")
              if not isinstance(meta, dict) or not isinstance(meta.get(key), list)]
    if absent:
        raise ValueError(f"{meta_path}: missing or malformed keys {absent}; "
                         "re-run fit to rewrite it")
    try:
        spec = _from_json(ModelSpec, meta.get("spec"), f"{meta_path} spec")
    except ValueError as exc:
        raise ValueError(f"{exc}; re-run fit to rewrite it") from None
    arrays = _read_archive(npz_path, _NPZ_KEYS)
    n, q = len(meta["response_names"]), len(meta["covariate_names"])
    try:
        _check_arrays(arrays, {"B_draws": ("f8", ("A", n, q)), "Sigma_draws": ("f8", ("A", n, n)),
                               "chain": (np.integer, ("A",)), "draw": (np.integer, ("A",)),
                               "fit_rows": (np.integer, ("rows",))})
    except ValueError as exc:
        raise ValueError(f"{npz_path} {exc}; re-run fit to rewrite it") from None
    return PosteriorDraws(**arrays, spec=spec, response_names=meta["response_names"],
                          covariate_names=meta["covariate_names"]), meta
