"""Predictive-variance extrapolation measures, cutoffs and indices.

Per location the sampler's draws yield a predictive covariance matrix of
the mean response vector. Its trace (MVPV-tr) and determinant (MVPV-D)
scalarize that matrix; CMVPV is the predictive variance of one response
conditioned on the responses observed alongside it. Cutoffs derived from
the observed locations turn each measure into a binary extrapolation
index and a relative (value / cutoff) score.

Determinants are computed and compared in log space throughout, and
a location is flagged when value > k. All operations are pure given the
posterior draws. Every measure is a quadratic form in the location: with
C the covariance of vec(B), V_i = (I_n kron x_i)' C (I_n kron x_i),
and CMVPV is z_i' Cov(c) z_i for per-draw coefficient rows c_a and
z_i = [x_i; y_g]. One kernel, _mvpv_arrays, turns C into the measures:
the sampled path passes the across-draw covariance of the draws, the
analytic path Sigma kron (X_f'X_f)^-1, and CMVPV Cov(c) with n = 1. The
trace is x_i' (sum_r C_rr) x_i, one q x q quadratic form per row, so no
V_i is built for it. Only the log-determinant builds the V_i, a block of
dataset._BLOCK_ROWS rows at a time: one BLAS product of the block with
C (q x n*n*q, 2*n*n*q*q flops per location), one batched product with
x_i (2*n*n*q), then a batched n x n Cholesky, so nothing of size
(l, n, n) is held. CMVPV groups its rows by sibling pattern with
posterior._pattern_groups, as the sampler groups its fit rows, and takes
each group's gains and Schur complements over the stack of Sigma draws
from posterior._conditional_gain, which conditional_mvn calls for one Sigma.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from extrapolmv import posterior
from extrapolmv.dataset import _BLOCK_ROWS, Dataset, _write_table, row_status
from extrapolmv.diagnostics import _inverse_cholesky, high_leverage_set, ivh_values

if TYPE_CHECKING:  # pragma: no cover
    from extrapolmv.sampler import PosteriorDraws

DEFAULT_CUTOFFS = ("max", "lev", "q99", "q95")
DEFAULT_MEASURES = ("det", "trace")

# Eigenvalues below -tol * trace mean the matrix is not a covariance.
_PSD_TOL = 1e-10


# ---------------------------------------------------------------------------
# Log-determinants of predictive covariances
# ---------------------------------------------------------------------------


def _check_symmetric(V: np.ndarray) -> np.ndarray:
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise ValueError("V must be square")
    scale = max(1.0, float(np.abs(V).max()))
    if float(np.abs(V - V.T).max()) > 1e-8 * scale:
        raise ValueError("V is asymmetric beyond tolerance")
    return 0.5 * (V + V.T)


def _logdet_psd(V: np.ndarray):
    """Log-determinant of a PSD matrix or of each in a stack; -inf when singular.

    A batched Cholesky gives 2 sum log diag L, which keeps each pivot's
    relative accuracy however the responses are scaled. A stack whose
    Cholesky fails is redone one matrix at a time, and only a matrix
    whose own Cholesky fails goes to eigvalsh: -inf when an eigenvalue is
    at most 0, ValueError when one lies below -_PSD_TOL * trace.
    """
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        if V.ndim > 2:
            return np.array([_logdet_psd(v) for v in V])
        lam = np.linalg.eigvalsh(V)
        if lam.min() < -_PSD_TOL * max(np.trace(V), 1.0):
            raise ValueError("matrix is not positive semidefinite within tolerance") from None
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(lam, 0.0)).sum()
    return 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)


# ---------------------------------------------------------------------------
# Conditional multivariate normal
# ---------------------------------------------------------------------------


def conditional_mvn(mu: np.ndarray, sigma: np.ndarray, target, given,
                    a) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean and covariance of target components given others.

    Returns (mu_bar, Sigma_bar) for the distribution of the ``target``
    components of a N(mu, sigma) vector given that the ``given``
    components equal ``a``:

        mu_bar    = mu_t + Sigma_tg Sigma_gg^-1 (a - mu_g)
        Sigma_bar = Sigma_tt - Sigma_tg Sigma_gg^-1 Sigma_gt

    An empty ``given`` set returns the marginal block unchanged, and a
    conditioning block Sigma_gg that is not positive definite raises
    LinAlgError naming the given components.
    """
    mu = np.asarray(mu, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float)
    t = np.asarray(target, dtype=int).ravel()
    g = np.asarray(given, dtype=int).ravel()
    if sigma.shape != (mu.size, mu.size):
        raise ValueError("sigma shape does not match mu")
    if np.intersect1d(t, g).size:
        raise ValueError("target and given sets must be disjoint")
    if g.size == 0:
        return mu[t].copy(), sigma[np.ix_(t, t)].copy()
    a = np.asarray(a, dtype=float).ravel()
    if a.size != g.size:
        raise ValueError("conditioning values do not match given set")
    try:
        np.linalg.cholesky(sigma[np.ix_(g, g)])
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"conditioning block of Sigma on components {g.tolist()} "
                                    "is not positive definite") from None
    G, S_bar = posterior._conditional_gain(sigma, t, g)
    mu_bar = mu[t] + G @ (a - mu[g])
    return mu_bar, S_bar


# ---------------------------------------------------------------------------
# Cutoffs and indices
# ---------------------------------------------------------------------------


# cutoff token -> CutoffSpec (kind, level); "q:<r>" is any other quantile
_CUTOFF_TOKENS = {"max": ("max", None), "lev": ("leverage_informed_max", None),
                  "q99": ("quantile", 0.99), "q95": ("quantile", 0.95)}


@dataclass
class CutoffSpec:
    """One cutoff rule: maximum, leverage-screened maximum, or quantile.

    Quantiles use linear interpolation between the closest order
    statistics (position p of the k-th of N values is (k-1)/(N-1)).
    """

    kind: str
    level: float | None = None

    def __post_init__(self):
        if self.kind not in {kind for kind, _ in _CUTOFF_TOKENS.values()}:
            raise ValueError(f"unknown cutoff kind {self.kind!r}")
        if self.kind == "quantile":
            if self.level is None or not 0.0 < self.level <= 1.0:
                raise ValueError("quantile level must lie in (0, 1]")

    @classmethod
    def parse(cls, token: str) -> "CutoffSpec":
        """Parse a cutoff token: "max", "lev", "q99", "q95" or "q:<r>"."""
        token = token.strip()
        if token in _CUTOFF_TOKENS:
            return cls(*_CUTOFF_TOKENS[token])
        unknown = ValueError(f"unknown cutoff token {token!r}")
        if not token.startswith("q:"):
            raise unknown
        try:
            level = float(token[2:])
        except ValueError:
            raise unknown from None
        return cls(kind="quantile", level=level)

    @property
    def name(self) -> str:
        if self.kind == "quantile":
            return "q" + f"{self.level * 100:g}".replace(".", "_")
        return next(t for t, (kind, _) in _CUTOFF_TOKENS.items() if kind == self.kind)


def _cutoff(v_obs: np.ndarray, spec: CutoffSpec, leverage: np.ndarray | None) -> float:
    """Cutoff k of the observed values ``v_obs``."""
    if v_obs.size == 0:
        raise ValueError("no observed values to derive a cutoff from")
    if spec.kind == "quantile":
        if not np.all(np.isfinite(v_obs)):
            raise ValueError(
                "quantile cutoff undefined: some observed predictive "
                "covariances are singular (log-determinant -inf)")
        return float(np.quantile(v_obs, spec.level))
    # the max over all rows, or over those outside the high-leverage set,
    # which h > 3 mean(h) never covers entirely
    if spec.kind == "leverage_informed_max":
        if leverage is None:
            raise ValueError("leverage-informed cutoff needs a leverage vector")
        leverage = np.asarray(leverage, dtype=float).ravel()
        if leverage.size != v_obs.size:
            raise ValueError("leverage vector must align with observed values")
        keep = np.ones(v_obs.size, dtype=bool)
        keep[high_leverage_set(leverage)] = False
        v_obs = v_obs[keep]
    return float(v_obs.max())


# ---------------------------------------------------------------------------
# Whole-dataset scoring
# ---------------------------------------------------------------------------


@dataclass
class CutoffResult:
    name: str
    k: float
    e: np.ndarray
    r: np.ndarray


@dataclass
class MeasureReport:
    """Scores for one measure: per-location values plus per-cutoff flags."""

    measure: str
    values: np.ndarray
    cutoffs: list[CutoffResult]
    first_flagging: list[str]


@dataclass
class ExtrapolationReport:
    ids: list[str]
    coords: np.ndarray | None
    status: list[str]
    measures: list[MeasureReport]

    @property
    def primary(self) -> MeasureReport:
        return self.measures[0]


def measure_column(measure: str) -> str:
    """CSV column name for a measure key: "trace", "det" or
    "cmvpv:<response>"; anything else raises ValueError."""
    if measure == "trace":
        return "mvpv_tr"
    if measure == "det":
        return "mvpv_logdet"
    if isinstance(measure, str) and measure.startswith("cmvpv:"):
        return "cmvpv_" + measure.split(":", 1)[1]
    raise ValueError(f"unknown measure {measure!r}")


def k_text(k) -> str:
    """Text of a cutoff value in its k_* cells and in the report:
    repr(float(k)), so a singular max reads "-inf"."""
    return repr(float(k))


def value_order(measures) -> list[str]:
    """Measure keys in scores.csv column order: trace, det, then the CMVPV
    measures in the order given (a stable sort), whichever is primary."""
    return sorted(measures, key=lambda m: {"trace": 0, "det": 1}.get(m, 2))


def _parse_measures(measures, response_names) -> list[str]:
    out = list(measures)
    for i, m in enumerate(out):
        if measure_column(m).startswith("cmvpv_") and m[6:] not in response_names:
            raise ValueError(f"measure {m!r} references unknown response {m[6:]!r}")
        if m in out[:i]:
            raise ValueError(f"measure {m!r} is given more than once")
    if not out:
        raise ValueError("at least one measure is required")
    return out


def _parse_cutoffs(cutoffs) -> list[CutoffSpec]:
    specs = []
    for c in cutoffs:
        specs.append(c if isinstance(c, CutoffSpec) else CutoffSpec.parse(c))
    if not specs:
        raise ValueError("at least one cutoff is required")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError("duplicate cutoff names")
    return specs


def _draw_cov(c: np.ndarray) -> np.ndarray:
    """Across-draw covariance (divisor A) of per-draw coefficient rows c (A, m)."""
    dev = c - c.mean(axis=0)
    return dev.T @ dev / c.shape[0]


def _mvpv_arrays(C: np.ndarray, X: np.ndarray,
                 need_det: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-row trace and log-determinant (None unless ``need_det``) of
    V_i = (I_n kron x_i)' C (I_n kron x_i), C the (n*q, n*q) Cov(vec B).

    The trace is x_i' (sum_r C_rr) x_i whatever else is asked for. For
    the log-determinant C is permuted once to Ct (q, n*n*q), so each
    block of rows is one gemm W = X Ct, read as (b, n, n, q), one batched
    matvec V = W x and one batched Cholesky (_logdet_psd).
    """
    q = X.shape[1]
    n = C.shape[0] // q
    C = C.reshape(n, q, n, q)
    T = np.einsum("rjrk->jk", C)
    traces = ((X @ T) * X).sum(axis=1)
    if not need_det:
        return traces, None
    Ct = np.ascontiguousarray(C.transpose(1, 0, 2, 3)).reshape(q, n * n * q)
    logdets = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _BLOCK_ROWS):
        x = X[lo:lo + _BLOCK_ROWS]
        W = (x @ Ct).reshape(x.shape[0], n, n, q)
        logdets[lo:lo + x.shape[0]] = _logdet_psd((W @ x[:, None, :, None])[..., 0])
    return traces, logdets


def _cmvpv_array(p: "PosteriorDraws", d: Dataset, target: int) -> np.ndarray:
    """CMVPV for every location, conditioning on its observed siblings.

    For sibling set g each draw's conditional mean is c_a' z with
    c_a = [B_a[t] - G_a B_a[g], G_a] and z = [x; y_g], so the measure is
    z' Cov(c) z (_mvpv_arrays with n = 1) plus the mean Schur complement;
    g may be empty. Rows are grouped by sibling pattern (posterior._pattern_groups).
    """
    B = p.B_draws
    others = np.delete(np.arange(B.shape[1]), target)
    patterns, order, bounds = posterior._pattern_groups(d.mask[:, others])
    vals = np.empty(d.n_rows)
    for seen, lo, hi in zip(patterns, bounds[:-1], bounds[1:]):
        rows, g = order[lo:hi], others[seen]
        G, S_bar = posterior._conditional_gain(p.Sigma_draws, [target], g)
        G = G[:, 0]
        c = np.concatenate(
            [B[:, target, :] - np.einsum("ag,agq->aq", G, B[:, g, :]), G], axis=1)
        z = np.concatenate([d.X[rows], d.Y[rows][:, g]], axis=1)
        vals[rows] = _mvpv_arrays(_draw_cov(c), z, False)[0] + float(S_bar.mean())
    return vals


def _flags_and_ratio(v: np.ndarray, k: float, log_space: bool):
    """Flags e = v > k and ratios r = exp(v - k) (log space) or v / k,
    where -inf against -inf and 0 against 0 read as 1."""
    e = (v > k).astype(int)
    if log_space:
        with np.errstate(over="ignore", invalid="ignore"):
            r = np.where(np.isneginf(v) & np.isneginf(k), 1.0, np.exp(v - k))
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where((v == 0) & (k == 0), 1.0, v / k)
    return e, r


def _assemble_report(d: Dataset, measures: list[str], traces, logdets, fit_rows,
                     cmvpv: dict, cutoff_specs) -> ExtrapolationReport:
    """Cutoffs and flags of each measure, from its (values, observed rows):
    trace and det over the fit rows; ``cmvpv`` maps each CMVPV measure to
    its own. The "lev" cutoff reads leverages against the fit rows' design."""
    hvals = ivh_values(d.X[fit_rows], d.X)
    table = {"trace": (traces, fit_rows), "det": (logdets, fit_rows), **cmvpv}
    reports = []
    for key in measures:
        values, obs = table[key]
        if obs.size == 0:
            raise ValueError(f"measure {key!r} has no observed locations")
        results = []
        for spec in cutoff_specs:
            k = _cutoff(values[obs], spec, hvals[obs])
            e, r = _flags_and_ratio(values, k, key == "det")
            results.append(CutoffResult(name=spec.name, k=k, e=e, r=r))
        # most conservative first: order by descending cutoff value
        order = sorted(range(len(results)), key=lambda i: (-results[i].k, i))
        E = np.stack([results[j].e for j in order]).astype(bool)
        names = np.array([results[j].name for j in order] + [""])
        first = names[np.where(E.any(axis=0), E.argmax(axis=0), len(order))].tolist()
        reports.append(MeasureReport(measure=key, values=values,
                                     cutoffs=results, first_flagging=first))
    return ExtrapolationReport(
        ids=list(d.ids),
        coords=None if d.coords is None else d.coords.copy(),
        status=row_status(d),
        measures=reports,
    )


def score_locations(p: "PosteriorDraws", d: Dataset, measures=DEFAULT_MEASURES,
                    cutoffs=DEFAULT_CUTOFFS, timings: dict | None = None) -> ExtrapolationReport:
    """Score every location of ``d`` against cutoffs from the observed ones.

    The first measure listed is the primary one: its flags populate the
    per-cutoff columns of the exported scores file. MVPV cutoffs are
    derived from all rows used in the fit; CMVPV cutoffs from the rows
    where the target response itself is observed. A ``timings`` dict
    receives the seconds spent on the measures and on the cutoffs, the
    leverages they read included.
    """
    start = time.perf_counter()
    measures = _parse_measures(measures, d.response_names)
    cutoff_specs = _parse_cutoffs(cutoffs)

    fit_rows = np.asarray(p.fit_rows, dtype=int)
    expected = np.flatnonzero(d.mask.any(axis=1))
    if not np.array_equal(fit_rows, expected):
        raise ValueError("draws were not fitted on this dataset's observed rows")
    A, n, q = p.B_draws.shape
    if q != d.n_covariates or n != d.n_responses:
        raise ValueError("draw dimensions do not match the dataset")
    if "det" in measures and A <= n:
        # Cov(vec B) has rank at most A - 1, so every V_i would be singular
        raise ValueError(f"measure 'det' needs more kept draws than the {n} responses, "
                         f"got {A}: every predictive covariance would be singular")

    traces = logdets = None
    if {"trace", "det"} & set(measures):
        traces, logdets = _mvpv_arrays(_draw_cov(p.B_draws.reshape(A, n * q)), d.X,
                                       "det" in measures)

    cmvpv = {}
    for m in measures:
        if m.startswith("cmvpv:"):
            t = d.response_names.index(m.split(":", 1)[1])
            cmvpv[m] = _cmvpv_array(p, d, t), np.flatnonzero(d.mask[:, t])
    middle = time.perf_counter()
    report = _assemble_report(d, measures, traces, logdets, fit_rows, cmvpv, cutoff_specs)
    if timings is not None:
        timings.update(measures=middle - start, cutoffs=time.perf_counter() - middle)
    return report


def score_locations_analytic(d: Dataset, measures=DEFAULT_MEASURES,
                             cutoffs=DEFAULT_CUTOFFS,
                             sigma: np.ndarray | None = None) -> ExtrapolationReport:
    """Scoring with a known (or OLS-estimated) error covariance.

    Here Cov(vec B) = Sigma kron (X'X)^-1 where X covers the observed
    rows, so V_i = x_i'(X'X)^-1 x_i * Sigma and both scalarizations are
    strictly increasing functions of that leverage-style quadratic form.
    The sampled path's kernel computes them. Supports the trace and det
    measures only; mainly a verification path for the sampled pipeline.
    Without ``sigma``, Sigma is the OLS estimate from the complete rows,
    which must number at least q + max(2, n) for it to be positive
    definite.
    """
    measures = _parse_measures(measures, d.response_names)
    if any(m.startswith("cmvpv:") for m in measures):
        raise ValueError("analytic mode supports 'trace' and 'det' measures only")
    cutoff_specs = _parse_cutoffs(cutoffs)

    fit_rows = np.flatnonzero(d.mask.any(axis=1))
    if fit_rows.size == 0:
        raise ValueError("no observed rows to derive cutoffs from")

    if sigma is None:
        complete = np.flatnonzero(d.mask.all(axis=1))
        need = d.n_covariates + max(2, d.n_responses)
        if complete.size < need:
            raise ValueError(f"too few complete rows to estimate Sigma: "
                             f"{complete.size}, need {need}")
        Xc, Yc = d.X[complete], d.Y[complete]
        R = _inverse_cholesky(Xc.T @ Xc)
        E = Yc - Xc @ (R.T @ (R @ (Xc.T @ Yc)))
        sigma = E.T @ E / complete.size
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (d.n_responses, d.n_responses):
            raise ValueError("sigma must be n x n")
    sigma = _check_symmetric(sigma)
    _logdet_psd(sigma)  # raises unless sigma is PSD within tolerance

    R = _inverse_cholesky(d.X[fit_rows].T @ d.X[fit_rows])
    traces, logdets = _mvpv_arrays(np.kron(sigma, R.T @ R), d.X, "det" in measures)
    return _assemble_report(d, measures, traces, logdets, fit_rows, {}, cutoff_specs)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_scores_csv(report: ExtrapolationReport, path) -> None:
    """Write per-location scores; cutoff columns come from the primary measure.

    Value columns appear in the value_order of the measures, independent
    of which measure is primary, so headers are stable across runs.
    """
    primary = report.primary
    values = {m.measure: m.values for m in report.measures}
    ordered = value_order([m.measure for m in report.measures])
    header = ["id", "lon", "lat", "status"] + [measure_column(m) for m in ordered]
    # float columns: a float's %s is its repr
    coords = [[""] * len(report.ids)] * 2 if report.coords is None else list(report.coords.T)
    columns = [report.ids, *coords, report.status]
    columns += [values[m] for m in ordered]
    for c in primary.cutoffs:
        header += [f"k_{c.name}", f"e_{c.name}", f"r_{c.name}"]
        columns += [[k_text(c.k)] * len(report.ids), c.e, c.r]
    header.append("first_flagging_cutoff")
    columns.append(primary.first_flagging)
    _write_table(path, header, columns)


def cutoff_summary(report: ExtrapolationReport) -> dict:
    """What scores.csv says of the primary measure's cutoffs: the location
    count and, in column order, each cutoff's name, value k (its k_* cell
    is k_text(k)) and the number of locations it flags, in all and
    out of sample (status other than "full")."""
    out_of_sample = np.array(report.status) != "full"
    return {"locations": len(report.ids),
            "cutoffs": [{"name": c.name, "k": float(c.k), "flagged": int(c.e.sum()),
                         "flagged_out_of_sample": int(c.e[out_of_sample].sum())}
                        for c in report.primary.cutoffs]}
