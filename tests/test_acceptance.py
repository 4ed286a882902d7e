"""Acceptance suite: one test per release criterion, strictest tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The expensive multivariate fit (criterion 4) is shared with
criteria 6 and 8 through a module-scoped fixture.
"""

import json
import time

import numpy as np
import pytest
import scipy.stats

from extrapolmv.cart import TreeParams, grow_tree, predict_tree, tree_splits
from extrapolmv.cli import main as cli_main
from extrapolmv.dataset import SynthSpec, synthesize
from extrapolmv.diagnostics import (
    HighLeverageRule,
    cooks_distance,
    hat_diagonal,
    high_leverage_set,
    ivh_values,
    leverage_from_mahalanobis,
    mahalanobis_sq,
)
from extrapolmv.extrapolation import (
    conditional_mvn,
    score_locations,
    score_locations_analytic,
)
from extrapolmv.sampler import ModelSpec, ess, gibbs_fit


def note(criterion, message):
    print(f"\n[ACCEPTANCE {criterion}] PASS - {message}")


@pytest.fixture(scope="module")
def big_fit():
    """The reference synthetic fit: l=500, n=4, q=6, 20k iterations x 2."""
    gen = SynthSpec(l=500, n=4, q=6,
                    Sigma=0.5 * np.eye(4) + 0.1,
                    missing_prob=[0.3, 0.15, 0.05, 0.0])
    d, truth = synthesize(gen, seed=2024)
    spec = ModelSpec(iterations=20_000, burn_in=10_000, chains=2, seed=7)
    start = time.monotonic()
    p = gibbs_fit(d, spec)
    elapsed = time.monotonic() - start
    return d, truth, p, elapsed


def test_criterion_01_hat_matrix_identities():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(50):
        l = int(rng.integers(12, 201))
        q = int(rng.integers(2, 11))
        while l < q + 2:
            l = int(rng.integers(12, 201))
        X = np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])
        h = hat_diagonal(X)
        assert abs(h.sum() - q) < 1e-8
        assert np.all(h >= 1.0 / l - 1e-12) and np.all(h <= 1.0)
        H = X @ np.linalg.inv(X.T @ X) @ X.T
        assert np.abs(H - H.T).max() < 1e-10
        assert np.abs(H @ H - H).max() < 1e-10
        assert np.abs(np.diag(H) - h).max() < 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    note(1, f"hat identities on 50 random designs in {elapsed:.2f}s")


def test_criterion_02_mahalanobis_leverage_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        l = int(rng.integers(10, 150))
        q = int(rng.integers(2, 8))
        while l < q + 2:
            l = int(rng.integers(10, 150))
        C = rng.standard_normal((l, q - 1)) * rng.uniform(0.5, 3.0, q - 1)
        X = np.column_stack([np.ones(l), C])
        h = hat_diagonal(X)
        xbar = C.mean(axis=0)
        S = np.cov(C.T).reshape(q - 1, q - 1)
        for i in range(l):
            md2 = mahalanobis_sq(C[i], xbar, S)
            worst = max(worst, abs(leverage_from_mahalanobis(md2, l) - h[i]))
    assert worst < 1e-10
    note(2, f"h = 1/l + MD^2/(l-1) on 20 datasets, worst error {worst:.2e}")


def test_criterion_03_cooks_distance_deletion_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(20):
        l = int(rng.integers(12, 80))
        q = int(rng.integers(2, 6))
        X = np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])
        y = X @ rng.standard_normal(q) + rng.standard_normal(l)
        D = cooks_distance(X, y)
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        r = y - X @ beta
        s2 = r @ r / (l - q)
        for i in range(l):
            keep = np.arange(l) != i
            beta_i = np.linalg.lstsq(X[keep], y[keep], rcond=None)[0]
            diff = beta_i - beta
            D_ref = diff @ (X.T @ X) @ diff / (q * s2)
            assert D[i] == pytest.approx(D_ref, rel=1e-8, abs=1e-12)
    note(3, "ratio form equals leave-one-out deletion form on 20 datasets")


def test_criterion_04_conjugacy_recovery(big_fit):
    d, truth, p, elapsed = big_fit
    assert elapsed < 300.0, f"fit took {elapsed:.0f}s"

    B_true = np.asarray(truth["B"])
    post_mean = p.B_draws.mean(axis=0)
    post_sd = p.B_draws.std(axis=0, ddof=1)
    within = np.abs(post_mean - B_true) <= 3 * post_sd
    frac = within.mean()
    assert frac >= 0.95, f"only {frac:.0%} of coefficients within 3 sd"

    # univariate flat-prior check against OLS
    d1, _ = synthesize(SynthSpec(l=500, n=1, q=6, missing_prob=0.0), seed=41)
    p1 = gibbs_fit(d1, ModelSpec(iterations=4000, burn_in=1000, chains=2,
                                 seed=43, coef_prior_var=1e6))
    ols = np.linalg.lstsq(d1.X, d1.Y[:, 0], rcond=None)[0]
    for c in range(6):
        series = p1.B_draws[:, 0, c]
        mc_se = series.std(ddof=1) / np.sqrt(ess(series.reshape(2, -1)))
        assert abs(series.mean() - ols[c]) <= 3 * mc_se
    note(4, f"20k-iteration fit in {elapsed:.0f}s; {frac:.0%} of coefficients "
            "within 3 posterior sd; flat-prior mean within 3 MC-SE of OLS")


def test_criterion_05_conditional_mvn_simulation_oracle():
    rng = np.random.default_rng(105)
    for cfg in range(10):
        n = int(rng.integers(3, 6))
        A = rng.standard_normal((n, n))
        sigma = A @ A.T + n * np.eye(n)
        mu = rng.uniform(1.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        n_t = 1 if n == 3 else int(rng.integers(1, 3))
        perm = rng.permutation(n)
        t, g = perm[:n_t], perm[n_t:]
        a = mu[g] + 0.4 * np.sqrt(np.diag(sigma)[g])

        mu_bar, S_bar = conditional_mvn(mu, sigma, t, g, a)

        draws = rng.multivariate_normal(mu, sigma, size=1_000_000)
        Z = np.column_stack([np.ones(draws.shape[0]), draws[:, g]])
        coef, *_ = np.linalg.lstsq(Z, draws[:, t], rcond=None)
        emp_mean = np.concatenate([[1.0], a]) @ coef
        resid = draws[:, t] - Z @ coef
        emp_cov = resid.T @ resid / resid.shape[0]

        assert np.all(np.abs(emp_mean - mu_bar) <= 0.01 * np.abs(mu_bar)), \
            f"config {cfg}: conditional mean off"
        scale = np.sqrt(np.outer(np.diag(S_bar), np.diag(S_bar)))
        assert np.all(np.abs(emp_cov - S_bar) <= 0.01 * scale), \
            f"config {cfg}: conditional covariance off"
    note(5, "conditional moments within 1% of 1e6-draw empirical "
            "conditionals on 10 random configurations")


def test_criterion_06_mvpv_leverage_agreement(big_fit):
    # analytic mode: flags identical to hull-membership flags, all cutoffs
    d_an, _ = synthesize(SynthSpec(l=500, n=4, q=6,
                                   missing_prob=[0.3, 0.15, 0.05, 0.0]),
                         seed=2025)
    report = score_locations_analytic(d_an, measures=("det", "trace"))
    fit_rows = np.flatnonzero(d_an.mask.any(axis=1))
    hvals = ivh_values(d_an.X[fit_rows], d_an.X)
    h_obs = hvals[fit_rows]
    keep = np.setdiff1d(np.arange(h_obs.size),
                        high_leverage_set(h_obs, HighLeverageRule()))
    k_by_name = {"max": h_obs.max(), "lev": h_obs[keep].max(),
                 "q99": np.quantile(h_obs, 0.99),
                 "q95": np.quantile(h_obs, 0.95)}
    for m in report.measures:
        for c in m.cutoffs:
            np.testing.assert_array_equal(
                c.e, (hvals > k_by_name[c.name]).astype(int),
                err_msg=f"{m.measure}/{c.name}")

    # sampled mode: MVPV(tr) rank-agrees with leverage
    d, _, p, _ = big_fit
    assert p.n_draws >= 5000
    report_mc = score_locations(p, d, measures=("trace",), cutoffs=("max",))
    hvals_mc = ivh_values(d.X[np.asarray(p.fit_rows)], d.X)
    rho = scipy.stats.spearmanr(report_mc.measures[0].values, hvals_mc).statistic
    assert rho >= 0.95
    note(6, f"analytic flags == hull flags for all cutoffs; "
            f"MCMC Spearman(MVPV-tr, leverage) = {rho:.4f}")


def test_criterion_07_determinant_scale_equivariance():
    gen = SynthSpec(l=400, n=4, q=5, missing_prob=[0.2, 0.1, 0.05, 0.0])
    d1, _ = synthesize(gen, seed=70)
    d2, _ = synthesize(gen, seed=70)
    d2.Y[:, 2] *= 10.0

    r1 = score_locations_analytic(d1, measures=("det",))
    r2 = score_locations_analytic(d2, measures=("det",))
    ratio = np.exp(r2.measures[0].values - r1.measures[0].values)
    np.testing.assert_allclose(ratio, 100.0, rtol=1e-8)
    for c1, c2 in zip(r1.measures[0].cutoffs, r2.measures[0].cutoffs):
        if c1.name.startswith("q"):
            np.testing.assert_array_equal(c1.e, c2.e, err_msg=c1.name)
    note(7, "x10 response rescale multiplies MVPV(D) by exactly 100 "
            "everywhere; quantile flags unchanged")


def test_criterion_08_flag_monotonicity(big_fit):
    d, _, p, _ = big_fit
    report = score_locations(p, d, measures=("det", "trace"))
    fit_rows = np.asarray(p.fit_rows)
    for m in report.measures:
        counts = {c.name: int(c.e.sum()) for c in m.cutoffs}
        assert counts["max"] <= counts["lev"] <= counts["q99"] <= counts["q95"], \
            f"{m.measure}: {counts}"
        by_name = {c.name: c for c in m.cutoffs}
        assert by_name["max"].e[fit_rows].sum() == 0
    counts = {c.name: int(c.e.sum()) for c in report.primary.cutoffs}
    note(8, f"counts monotone across cutoffs (det: "
            f"{counts['max']}, {counts['lev']}, {counts['q99']}, "
            f"{counts['q95']}); zero in-sample flags at max")


def test_criterion_09_cart_planted_rule_recovery():
    rng = np.random.default_rng(109)
    start = time.monotonic()
    X = np.column_stack([
        rng.gamma(4.0, 8.0, 2000),       # shoreline-like, positive skew
        rng.normal(300.0, 80.0, 2000),   # elevation-like
        rng.standard_normal((2000, 4)) @ np.diag([1.0, 2.0, 0.5, 3.0]),
    ])
    labels = ((X[:, 0] > 26.0) & (X[:, 1] >= 279.0)).astype(int)
    names = ["shoreline", "elevation", "c3", "c4", "c5", "c6"]
    tree = grow_tree(X, labels, TreeParams(max_depth=5, min_leaf=20),
                     feature_names=names)
    used = {s[0] for s in tree_splits(tree, max_depth=2)}
    assert {"shoreline", "elevation"} <= used
    preds = np.array([predict_tree(tree, dict(zip(names, row)))[0]
                      for row in X])
    acc = (preds == labels).mean()
    elapsed = time.monotonic() - start
    assert acc >= 0.90
    assert elapsed < 10.0
    note(9, f"both planted split variables in the first two levels; "
            f"training accuracy {acc:.1%} in {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    spec = tmp_path / "synth.json"
    spec.write_text(json.dumps({"l": 200, "n": 3, "q": 4,
                                "missing_prob": [0.25, 0.1, 0.0]}))

    def run_pipeline(tag):
        base = tmp_path / tag
        sim, fit, scores, tree, rep = (base / s for s in
                                       ("sim", "fit", "scores", "tree", "rep"))
        assert cli_main(["simulate", "--spec", str(spec), "--seed", "3",
                         "--out", str(sim)]) == 0
        assert cli_main(["fit", "--data", str(sim / "dataset.csv"),
                         "--config", str(sim / "config.json"),
                         "--iters", "200", "--burnin", "50", "--chains", "2",
                         "--seed", "6", "--out", str(fit)]) in (0, 2)
        assert cli_main(["score", "--draws", str(fit),
                         "--data", str(sim / "dataset.csv"),
                         "--out", str(scores)]) == 0
        assert cli_main(["tree", "--scores", str(scores),
                         "--data", str(sim / "dataset.csv"),
                         "--label", "e_q95", "--min-leaf", "10",
                         "--out", str(tree)]) == 0
        assert cli_main(["report", "--scores", str(scores),
                         "--tree", str(tree), "--out", str(rep)]) == 0
        return base

    a = run_pipeline("a")
    b = run_pipeline("b")
    compared = 0
    for rel in ("sim/dataset.csv", "sim/truth.json", "sim/config.json",
                "fit/draws.csv", "fit/meta.json",
                "scores/scores.csv",
                "tree/tree.json", "tree/tree.txt", "rep/report.md"):
        fa, fb = a / rel, b / rel
        assert fa.read_bytes() == fb.read_bytes(), f"{rel} differs"
        compared += 1
    note(10, f"{compared} primary output files byte-identical across reruns")
