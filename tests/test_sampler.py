import csv
import itertools

import numpy as np
import pytest

import extrapolmv.sampler as sampler
from extrapolmv.dataset import SynthSpec, synthesize
from extrapolmv.extrapolation import _conditional_gain, conditional_mvn
from extrapolmv.sampler import (
    ModelSpec,
    convergence_summary,
    ess,
    gibbs_fit,
    load_fit,
    rhat,
    save_fit,
)

from conftest import make_dataset, make_draws
import oracles
from oracles import draw_coefficients, invwishart, predictive_mean_draws, serial_gibbs_fit


# -- model spec -------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="burn-in"):
        ModelSpec(iterations=10, burn_in=20)
    with pytest.raises(ValueError, match="burn-in"):
        ModelSpec(iterations=10, burn_in=10)
    with pytest.raises(ValueError, match="prior variance"):
        ModelSpec(coef_prior_var=0.0)
    with pytest.raises(ValueError, match="prior variance"):
        ModelSpec(coef_prior_var=float("nan"))
    ModelSpec(coef_prior_var=float("inf"))  # a flat prior
    with pytest.raises(ValueError, match="chain"):
        ModelSpec(chains=0)
    with pytest.raises(ValueError, match="seed must be non-negative, not -1"):
        ModelSpec(seed=-1)
    # a spec read from a fit's meta.json may hold any JSON value
    with pytest.raises(ValueError, match="thin must be an integer"):
        ModelSpec(thin="2")
    with pytest.raises(ValueError, match="coef_prior_var must be a number"):
        ModelSpec(coef_prior_var=True)
    with pytest.raises(ValueError, match="iw_scale"):
        ModelSpec(iw_scale=[[1.0, "x"], ["x", 1.0]])
    for scale in ([["1", 0], [0, 1]], [[1, 0], [0, True]], [["1", 0], [0, True]]):
        with pytest.raises(ValueError, match="iw_scale must be a matrix of numbers"):
            ModelSpec(iw_scale=scale)  # not read as numbers


def test_default_iw_df_is_proper_without_covariates():
    # with the intercept alone (q = 1) and three responses, q + 1 = 2 does
    # not exceed n - 1 = 2: the default is max(q + 1, n)
    rng = np.random.default_rng(31)
    Y = rng.standard_normal((50, 3))
    mask = np.ones(Y.shape, dtype=bool)
    d = make_dataset(np.ones((50, 1)), Y, mask)
    assert sampler._fit_setup(d, ModelSpec())[-1] == 3.0
    gibbs_fit(d, ModelSpec(iterations=20, burn_in=5, seed=1))
    d = make_dataset(np.column_stack([np.ones(50), rng.standard_normal((50, 3))]), Y, mask)
    assert sampler._fit_setup(d, ModelSpec())[-1] == 5.0


# -- inverse-Wishart ----------------------------------------------------------------


def _bartlett_draw(df, scale, rng):
    """IW(scale, df) through the sweep's Bartlett step: the roots of
    chi-squares on the factor's diagonal, then normals below it, both
    drawn from rng."""
    p = scale.shape[0]
    A = np.diag(np.sqrt(rng.chisquare(df - np.arange(p))))
    A[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    return sampler._bartlett(scale, A)


def test_invwishart_mean_matches_formula():
    scale = np.array([[2.0, 0.3], [0.3, 1.0]])
    df = 8.0
    rng = np.random.default_rng(1)
    draws = np.mean([_bartlett_draw(df, scale, rng) for _ in range(40_000)],
                    axis=0)
    expected = scale / (df - 2 - 1)  # scale / (df - p - 1)
    np.testing.assert_allclose(draws, expected, rtol=0.03)


def test_invwishart_draws_pd_and_deterministic():
    scale = np.eye(3)
    s1 = _bartlett_draw(5.0, scale, np.random.default_rng(7))
    s2 = _bartlett_draw(5.0, scale, np.random.default_rng(7))
    np.testing.assert_array_equal(s1, s2)
    np.linalg.cholesky(s1)


# -- coefficient update -------------------------------------------------------------


def _complete_data_precision(XtX, XtY, Sigma, prior_var):
    """_precision for a one-chain stack on one pattern of complete rows,
    K = Sigma^-1."""
    return sampler._precision(XtX[None], XtY[None], np.linalg.inv(Sigma)[None, None],
                              prior_var)


def _one_chain_draw(P, h, z, n):
    """vec(Theta), ordered as the precision, that _coefficient_step draws
    from the normals z for the one-chain stacks P and h."""
    return sampler._coefficient_step(P, h, z[None], n)[0][0].T.ravel()


def test_coefficient_update_matches_closed_form_full_conditional():
    # 1e5 successive draws at fixed Sigma and Y against the dense
    # Kronecker-form Gaussian full conditional
    rng = np.random.default_rng(2)
    l, q, n = 40, 3, 2
    X = np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])
    Y = rng.standard_normal((l, n))
    Sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    prior_var = 50.0
    XtX, XtY = X.T @ X, X.T @ Y

    P = np.kron(np.linalg.inv(Sigma), XtX) + np.eye(n * q) / prior_var
    mean = np.linalg.solve(P, (XtY @ np.linalg.inv(Sigma)).ravel(order="F"))
    cov = np.linalg.inv(P)

    N = 100_000
    draw_rng = np.random.default_rng(3)
    P_code, h = _complete_data_precision(XtX, XtY, Sigma, prior_var)
    draws = np.empty((N, n * q))
    for i in range(N):
        draws[i] = _one_chain_draw(P_code, h, draw_rng.standard_normal(n * q), n)

    se_mean = np.sqrt(np.diag(cov) / N)
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 3 * se_mean)

    sample_cov = np.cov(draws.T)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / N)
    assert np.all(np.abs(sample_cov - cov) <= 3 * se_cov)


def test_coefficient_draw_is_the_dense_kronecker_form_exactly():
    # the draw is mean + M z; zero noise gives the mean, unit vectors give
    # the columns of M, and M M' must be P^-1
    rng = np.random.default_rng(31)
    l, q, n = 30, 4, 3
    X = np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])
    XtX, XtY = X.T @ X, X.T @ rng.standard_normal((l, n))
    A = rng.standard_normal((n, n))
    Sigma = A @ A.T + 0.5 * np.eye(n)
    prior_var = 10.0

    P = np.kron(np.linalg.inv(Sigma), XtX) + np.eye(n * q) / prior_var
    mean = np.linalg.solve(P, (XtY @ np.linalg.inv(Sigma)).ravel(order="F"))
    cov = np.linalg.inv(P)

    P_code, h = _complete_data_precision(XtX, XtY, Sigma, prior_var)

    def draw(z):
        return _one_chain_draw(P_code, h, z, n)

    got_mean = draw(np.zeros(n * q))
    M = np.column_stack([draw(e) - got_mean for e in np.eye(n * q)])
    np.testing.assert_allclose(got_mean, mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(M @ M.T, cov, rtol=1e-12, atol=1e-12 * np.abs(cov).max())


def test_coefficient_step_returns_each_chains_mean_and_factor():
    # three chains with different Sigma on the same patterns: for each,
    # P mu = h, L L' = P with L lower triangular, and Theta = mu + L'^-1 z
    rng = np.random.default_rng(36)
    n, q, prior_var = 3, 2, 10.0
    masks = [[1, 1, 1]] * 5 + [[0, 1, 1]] * 4 + [[1, 0, 0]] * 3
    order, patterns, bounds = _sorted_patterns(masks)
    M = np.asarray(masks, dtype=bool)[order]
    X = np.column_stack([np.ones(M.shape[0]), rng.standard_normal(M.shape[0])])
    pat = sampler._Patterns(X, np.where(M, rng.standard_normal(M.shape), 0.0), patterns, bounds)
    Sigmas = [A @ A.T + 0.5 * np.eye(n) for A in rng.standard_normal((3, n, n))]
    K = np.stack([_padded_precisions(S, patterns) for S in Sigmas])
    P, h = sampler._precision(pat.XtX, pat.XtY, K, prior_var)
    z = rng.standard_normal((3, n * q))
    Theta, mu, L = sampler._coefficient_step(P, h, z, n)
    assert Theta.shape == (3, q, n) and mu.shape == (3, n * q) and L.shape == P.shape
    for c in range(3):
        scale = np.abs(P[c]).max()
        np.testing.assert_allclose(P[c] @ mu[c], h[c], rtol=1e-12, atol=1e-12 * np.abs(h[c]).max())
        np.testing.assert_array_equal(np.tril(L[c]), L[c])
        np.testing.assert_allclose(L[c] @ L[c].T, P[c], rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(Theta[c].T.ravel(), mu[c] + np.linalg.solve(L[c].T, z[c]),
                                   rtol=1e-12, atol=1e-12)
        # and a chain draws the same bytes alone as beside the others
        alone = sampler._coefficient_step(P[c:c + 1], h[c:c + 1], z[c:c + 1], n)
        assert all(a[0].tobytes() == b[c].tobytes() for a, b in zip(alone, (Theta, mu, L)))


def test_sigma_log_density_is_the_complete_data_iw_posterior():
    # with every response observed, Sigma given B is IW(Psi + E'E, nu + l):
    # the oracle's prior plus row-by-row likelihood must differ from that
    # log density by one constant over Sigma
    from scipy.stats import invwishart as iw
    rng = np.random.default_rng(37)
    l, q, n = 30, 2, 3
    X = np.column_stack([np.ones(l), rng.standard_normal(l)])
    B = rng.standard_normal((n, q))
    Y = X @ B.T + rng.standard_normal((l, n))
    E = Y - X @ B.T
    nu, Psi = 6.0, np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 1.5]])
    Sigmas = [A @ A.T / n + 0.2 * np.eye(n) for A in rng.standard_normal((8, n, n))]
    mask = np.ones((l, n), dtype=bool)

    def spread(iw_scale, iw_df, df):
        diff = [oracles.sigma_log_density(S, B, X, Y, mask, iw_scale, iw_df)
                - iw.logpdf(S, df, Psi + E.T @ E) for S in Sigmas]
        return np.ptp(diff)

    assert spread(Psi, nu, nu + l) <= 1e-10
    # the check has teeth: the likelihood alone (the prior term vanishes
    # for a zero scale and df = -(n + 1)) or a posterior df off by one is
    # far from constant
    assert spread(np.zeros((n, n)), -(n + 1.0), nu + l) > 1.0
    assert spread(Psi, nu, nu + l + 1) > 0.1


def test_pattern_conditionals_match_conditional_mvn_for_every_pattern():
    rng = np.random.default_rng(32)
    n = 4
    A = rng.standard_normal((n, n))
    Sigma = A @ A.T + 0.3 * np.eye(n)
    # two rows in each pattern that misses some but not all responses
    patterns = np.array([p for p in itertools.product([False, True], repeat=n)
                         if 0 < sum(p) < n])
    mask = np.repeat(patterns, 2, axis=0)
    X = np.column_stack([np.ones(mask.shape[0]), rng.standard_normal(mask.shape[0])])
    pat = sampler._Patterns(X, np.where(mask, rng.standard_normal(mask.shape), 0.0),
                            patterns, np.arange(len(patterns) + 1) * 2)
    K, SK, Lc = (a[0] for a in sampler._conditionals(pat, Sigma[None]))
    mu = rng.standard_normal(n)
    y = rng.standard_normal(n)
    assert np.count_nonzero(pat.mm.any(axis=(1, 2))) == 2 ** n - 2
    for g, observed in enumerate(patterns):
        m, o = np.flatnonzero(~observed), np.flatnonzero(observed)
        G_ref, S_ref = _conditional_gain(Sigma, m, o)
        # the same helper on a stack: the gain is scale-free, and the
        # conditional covariance scales with Sigma
        G_st, S_st = _conditional_gain(np.stack([Sigma, 4.0 * Sigma]), m, o)
        np.testing.assert_allclose(G_st, [G_ref, G_ref], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(S_st, [S_ref, 4.0 * S_ref], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(K[g][np.ix_(o, o)] @ Sigma[np.ix_(o, o)],
                                   np.eye(o.size), atol=1e-12)
        np.testing.assert_allclose(SK[g][np.ix_(m, o)], G_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(SK[g][:, m], 0.0)
        np.testing.assert_allclose(SK[g][o], np.eye(n)[o], atol=1e-12)
        np.testing.assert_array_equal(np.tril(Lc[g]), Lc[g])
        Lm = Lc[g][np.ix_(m, m)]
        np.testing.assert_allclose(Lm @ Lm.T, S_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(Lc[g][o], np.eye(n)[o])
        # mu + SK_g (y - mu), with the missing cells of y at 0, lands on
        # the conditional mean in rows m
        mu_bar, _ = conditional_mvn(mu, Sigma, m, o, y[o])
        y0 = np.where(observed, y, 0.0)
        np.testing.assert_allclose((mu + SK[g] @ (y0 - mu))[m], mu_bar,
                                   rtol=1e-12, atol=1e-12)


def _joint_functionals(Theta, Sigma, Y):
    return np.array([Theta[0, 0], Theta[1, 1], Theta[0, 0] ** 2,
                     Sigma[0, 0], Sigma[0, 1], Sigma[0, 0] ** 2,
                     Y.mean(), (Y ** 2).mean()])


def test_gibbs_updates_preserve_joint_distribution():
    # marginal-conditional simulation (theta from the prior, Y from the
    # likelihood) and successive-conditional simulation (alternate the
    # Gibbs updates with fresh Y draws) must target the same joint
    # distribution when the full conditionals are correct
    rng = np.random.default_rng(12)
    l, q, n = 6, 2, 2
    X = np.column_stack([np.ones(l), rng.standard_normal(l)])
    XtX = X.T @ X
    prior_var = 4.0
    nu, Psi = 7.0, np.eye(n)
    N = 20_000  # correct chain sits near max|z| ~ 1.2, wrong df near 66

    def likelihood_draw(Theta, Sigma, r):
        return X @ Theta + r.standard_normal((l, n)) @ np.linalg.cholesky(Sigma).T

    r1 = np.random.default_rng(100)
    mc = np.empty((N, 8))
    for i in range(N):
        Theta = np.sqrt(prior_var) * r1.standard_normal((q, n))
        Sigma = invwishart(nu, Psi, r1)
        mc[i] = _joint_functionals(Theta, Sigma, likelihood_draw(Theta, Sigma, r1))

    def successive_chain(df_offset):
        r2 = np.random.default_rng(200)
        Theta = np.sqrt(prior_var) * r2.standard_normal((q, n))
        Sigma = invwishart(nu, Psi, r2)
        out = np.empty((N, 8))
        for i in range(N):
            Y = likelihood_draw(Theta, Sigma, r2)
            Theta = draw_coefficients(XtX[None], (X.T @ Y)[None], np.linalg.inv(Sigma)[None],
                                      prior_var, r2)
            E = Y - X @ Theta
            Sigma = invwishart(nu + l + df_offset, Psi + E.T @ E, r2)
            out[i] = _joint_functionals(Theta, Sigma, Y)
        return out

    def z_scores(sc):
        z = np.empty(8)
        for j in range(8):
            se1 = mc[:, j].std(ddof=1) / np.sqrt(N)
            se2 = sc[:, j].std(ddof=1) / np.sqrt(ess(sc[:, j][None, :]))
            z[j] = (mc[:, j].mean() - sc[:, j].mean()) / np.hypot(se1, se2)
        return np.abs(z)

    assert z_scores(successive_chain(0)).max() < 4.5
    # the check has teeth: a wrong posterior df blows it up
    assert z_scores(successive_chain(4)).max() > 6.0


def _one_sweep(pat, Sigma, prior_var, iw_scale, iw_df, normal, chi):
    """One chain's _sweep from Sigma, its random inputs for the one sweep
    drawn by _random_inputs from the generators normal and chi."""
    inputs = sampler._random_inputs(pat, sampler._chi_df(pat, iw_df), [(normal, chi)], 1)
    return (a[0] for a in sampler._sweep(pat, Sigma[None], prior_var, iw_scale,
                                          *(x[0] for x in inputs)))


def _sorted_patterns(masks):
    """Pattern-sorted rows as gibbs_fit lays them out: (order, patterns, bounds)."""
    masks = np.asarray(masks, dtype=bool)
    patterns, pattern_of = np.unique(masks, axis=0, return_inverse=True)
    order = np.argsort(pattern_of.ravel(), kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(pattern_of.ravel()))])
    return order, patterns, bounds


def _padded_precisions(Sigma, patterns):
    """K_g: Sigma_oo^-1 of each pattern's observed set, zero elsewhere."""
    K = np.zeros((len(patterns),) + Sigma.shape)
    for g, o in enumerate(patterns):
        K[g][np.ix_(o, o)] = np.linalg.inv(Sigma[np.ix_(o, o)])
    return K


def test_collapsed_coefficient_draw_is_the_dense_per_row_form_exactly():
    # with missing responses the B draw integrates them out: row i adds
    # (Sigma_oo^-1 padded) kron x_i x_i' to the precision of vec(Theta)
    rng = np.random.default_rng(35)
    n, q, prior_var = 3, 2, 10.0
    masks = [[1, 1, 1]] * 5 + [[0, 1, 1]] * 4 + [[1, 0, 0]] * 3 + [[0, 1, 0]] * 2
    order, patterns, bounds = _sorted_patterns(masks)
    M = np.asarray(masks, dtype=bool)[order]
    X = np.column_stack([np.ones(M.shape[0]), rng.standard_normal(M.shape[0])])
    Y = np.where(M, rng.standard_normal(M.shape), 0.0)
    A = rng.standard_normal((n, n))
    Sigma = A @ A.T + 0.5 * np.eye(n)
    pat = sampler._Patterns(X, Y, patterns, bounds)
    K = _padded_precisions(Sigma, patterns)

    K_row = K[np.repeat(np.arange(len(patterns)), np.diff(bounds))]
    P = sum(np.kron(k, np.outer(x, x)) for k, x in zip(K_row, X)) + np.eye(n * q) / prior_var
    b = sum((np.outer(x, y) @ k).ravel(order="F") for k, x, y in zip(K_row, X, Y))
    mean = np.linalg.solve(P, b)
    cov = np.linalg.inv(P)

    P_code, h = sampler._precision(pat.XtX, pat.XtY, K[None], prior_var)

    def draw(z):
        return _one_chain_draw(P_code, h, z, n)

    got_mean = draw(np.zeros(n * q))
    M_map = np.column_stack([draw(e) - got_mean for e in np.eye(n * q)])
    np.testing.assert_allclose(got_mean, mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(M_map @ M_map.T, cov, rtol=1e-12,
                               atol=1e-12 * np.abs(cov).max())


def test_pattern_gram_is_the_row_level_residual_gram():
    # the missing residuals are E_m = E_o A' + W C^1/2' with W standard
    # normal. With the pattern's rows Z = U F (F its virtual rows, U with
    # orthonormal columns), the same W gives U'W against the virtual rows
    # and a factor of W'(I - UU')W beside them, and the J_g J_g' form must
    # reproduce E'E from those normals
    rng = np.random.default_rng(34)
    n, q = 4, 2
    masks = ([[1, 0, 1, 0]] * 9     # Bartlett remainder
             + [[0, 1, 1, 1]] * 2   # fewer rows than responses
             + [[1, 1, 1, 0]] * 5   # two distinct rows: rank below |o|
             + [[1, 0, 0, 0]] * 4   # one repeated row: plain remainder
             + [[1, 1, 1, 1]] * 5)
    order, patterns, bounds = _sorted_patterns(masks)
    M = np.asarray(masks, dtype=bool)[order]
    X = np.column_stack([np.ones(M.shape[0]), rng.standard_normal(M.shape[0])])
    Y = np.where(M, rng.standard_normal(M.shape), 0.0)
    for g, o in enumerate(patterns):
        rows = np.arange(bounds[g], bounds[g + 1])
        if o.tolist() == [1, 1, 1, 0]:
            X[rows], Y[rows] = X[rows % 2 + rows[0]], Y[rows % 2 + rows[0]]
        elif o.tolist() == [1, 0, 0, 0]:
            X[rows[-1]], Y[rows[-1]] = X[rows[0]], Y[rows[0]]
    Theta = rng.standard_normal((q, n))
    A = rng.standard_normal((n, n))
    Sigma = A @ A.T + 0.5 * np.eye(n)
    pat = sampler._Patterns(X, Y, patterns, bounds)
    K = _padded_precisions(Sigma, patterns)

    Lc = np.tile(np.eye(n), (len(patterns), 1, 1))
    T = np.zeros(pat.noise.shape)
    EtE = np.zeros((n, n))
    ranks = []
    for g, o in enumerate(patterns):
        m = ~o
        rows = slice(bounds[g], bounds[g + 1])
        E = Y[rows] - X[rows] @ Theta
        gain = Sigma[np.ix_(m, o)] @ np.linalg.inv(Sigma[np.ix_(o, o)])
        C = Sigma[np.ix_(m, m)] - gain @ Sigma[np.ix_(o, m)]
        Lc[g][np.ix_(m, m)] = np.linalg.cholesky(C) if m.any() else 0.0
        W = rng.standard_normal((E.shape[0], m.sum()))
        E[:, m] = E[:, o] @ gain.T + W @ Lc[g][np.ix_(m, m)].T
        EtE += E.T @ E

        F = pat.rows[g][np.abs(pat.rows[g]).sum(axis=1) > 0]
        r, d = F.shape[0], E.shape[0] - F.shape[0]
        ranks.append(r)
        Z = np.column_stack([X[rows], Y[rows]])
        U = Z @ np.linalg.pinv(F)
        np.testing.assert_allclose(U.T @ U, np.eye(r), atol=1e-10)
        basis = np.linalg.svd(U, full_matrices=True)[0][:, r:]  # orthogonal to U
        T[g][np.ix_(m, np.arange(r))] = (U.T @ W).T
        rest = (basis.T @ W).T
        if d >= m.sum():
            rest = np.linalg.cholesky(rest @ rest.T)
        T[g][np.ix_(m, r + np.arange(rest.shape[1]))] = rest
    assert ranks == [2, 3, 4, 2, 5]  # sorted: 0111, 1000, 1010, 1110, 1111
    got = sampler._residual_gram(pat, Theta[None], (Sigma @ K)[None], Lc[None], T[None])[0]
    np.testing.assert_allclose(got, EtE, rtol=1e-12, atol=1e-12 * np.abs(EtE).max())
    # the sweep puts its normals and chi-squares exactly where these went
    chi = np.zeros(T.shape, dtype=bool)
    chi[pat.chi_at] = True
    np.testing.assert_array_equal(pat.noise | chi, T != 0)


def test_collapsed_sweep_preserves_joint_distribution_with_missing_data(monkeypatch):
    # Geweke's check as above on four missingness patterns, one of them
    # with fewer rows than responses and two with a Wishart remainder:
    # alternating the collapsed sweep with fresh observed responses must
    # target the prior-times-likelihood joint
    rng = np.random.default_rng(13)
    n, q = 3, 2
    masks = [[1, 1, 1]] * 4 + [[0, 1, 1]] * 8 + [[1, 1, 0]] * 8 + [[1, 0, 0]] * 2
    order, patterns, bounds = _sorted_patterns(masks)
    M = np.asarray(masks, dtype=bool)[order]
    l = M.shape[0]
    X = np.column_stack([np.ones(l), rng.standard_normal(l)])
    # nu > n + 7 keeps fourth moments of Sigma finite, so the z-scores of
    # squared entries are well defined
    prior_var, nu, Psi = 4.0, 14.0, 10.0 * np.eye(n)
    N = 4000  # correct sweep near max|z| ~ 1.5-3; the broken ones (N/2 draws) over 10

    def functionals(Theta, Sigma, Y):
        return np.array([Theta[0, 0], Theta[1, 2], Theta[0, 1] ** 2,
                         Sigma[0, 0], Sigma[1, 1], Sigma[2, 2], Sigma[0, 2],
                         Sigma[1, 2], Sigma[2, 2] ** 2, (Y ** 2).mean()])

    def observed_draw(Theta, Sigma, r):
        E = r.standard_normal((l, n)) @ np.linalg.cholesky(Sigma).T
        return np.where(M, X @ Theta + E, 0.0)

    def prior_draw(r):
        return np.sqrt(prior_var) * r.standard_normal((q, n)), invwishart(nu, Psi, r)

    r1 = np.random.default_rng(100)
    mc = np.empty((N, 10))
    for i in range(N):
        Theta, Sigma = prior_draw(r1)
        mc[i] = functionals(Theta, Sigma, observed_draw(Theta, Sigma, r1))

    def max_z(df_offset=None, draws=N):
        r2 = np.random.default_rng(200)
        Theta, Sigma = prior_draw(r2)
        sc = np.empty((draws, 10))
        for i in range(draws):
            Y = observed_draw(Theta, Sigma, r2)
            pat = sampler._Patterns(X, Y, patterns, bounds)
            if df_offset is not None:
                pat.chi_df = pat.chi_df + df_offset(pat)
            Theta, Sigma = _one_sweep(pat, Sigma, prior_var, Psi, nu, r2, r2)
            sc[i] = functionals(Theta, Sigma, Y)
        se1 = mc.std(axis=0, ddof=1) / np.sqrt(N)
        se2 = sc.std(axis=0, ddof=1) / np.sqrt([ess(c[None, :]) for c in sc.T])
        return np.max(np.abs(mc.mean(axis=0) - sc.mean(axis=0)) / np.hypot(se1, se2))

    assert max_z() < 4.5
    # the check has teeth: a Wishart remainder with N_g rather than
    # N_g - r_g degrees of freedom (r_g = 4 in both patterns that have one)
    # blows it up
    assert max_z(lambda pat: 4, N // 2) > 6.0
    # and so does dropping H'H, the Gram matrix of the imputation noise
    real = sampler._residual_gram

    def without_noise_gram(pat, Theta, SK, Lc, T):
        H = Lc @ T
        return real(pat, Theta, SK, Lc, T) - np.einsum("cgij,cgkj->cik", H, H)

    monkeypatch.setattr(sampler, "_residual_gram", without_noise_gram)
    assert max_z(draws=N // 2) > 6.0


# -- gibbs_fit ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def missing_dataset():
    d, truth = synthesize(SynthSpec(l=150, n=3, q=4,
                                    missing_prob=[0.3, 0.15, 0.05]), seed=5)
    return d, truth


def test_fit_is_deterministic(missing_dataset):
    d, _ = missing_dataset
    spec = ModelSpec(iterations=120, burn_in=40, chains=2, seed=11)
    p1 = gibbs_fit(d, spec)
    p2 = gibbs_fit(d, spec)
    np.testing.assert_array_equal(p1.B_draws, p2.B_draws)
    np.testing.assert_array_equal(p1.Sigma_draws, p2.Sigma_draws)


def test_a_chain_does_not_depend_on_the_chain_count(missing_dataset):
    # chain c runs on the c-th generator spawned from the seed, whatever
    # the number of chains after it
    d, _ = missing_dataset
    three = gibbs_fit(d, ModelSpec(iterations=60, burn_in=20, chains=3, seed=23))
    for c in range(3):
        fewer = gibbs_fit(d, ModelSpec(iterations=60, burn_in=20, chains=c + 1, seed=23))
        for name in ("B_draws", "Sigma_draws"):
            a = getattr(three, name)[three.chain == c]
            b = getattr(fewer, name)[fewer.chain == c]
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), (c, name)


@pytest.mark.parametrize("chains", [1, 2, 3])
def test_lockstep_chains_are_the_serial_chains_bit_for_bit(chains):
    # the Geweke test's masks: a pattern with fewer rows than responses and
    # two with a Wishart remainder. Chain c of the lockstep fit is, byte for
    # byte, chain c run alone by the one-chain sweep
    rng = np.random.default_rng(13)
    mask = np.array([[1, 1, 1]] * 4 + [[0, 1, 1]] * 8 + [[1, 1, 0]] * 8 + [[1, 0, 0]] * 2,
                    dtype=bool)
    X = np.column_stack([np.ones(len(mask)), rng.standard_normal(len(mask))])
    Y = np.where(mask, X @ rng.standard_normal((2, 3)) + rng.standard_normal(mask.shape),
                 np.nan)
    d = make_dataset(X, Y, mask)
    spec = ModelSpec(iterations=30, burn_in=7, thin=2, chains=chains, seed=8,
                     iw_scale=4.0 * np.eye(3), iw_df=6.0)
    p = gibbs_fit(d, spec)
    B, S = serial_gibbs_fit(d, spec)
    assert p.B_draws.shape == B.shape == (chains * 12, 3, 2)
    assert p.B_draws.tobytes() == B.tobytes()
    assert p.Sigma_draws.tobytes() == S.tobytes()


def test_draws_do_not_depend_on_the_block_length(monkeypatch, missing_dataset):
    # each chain's two streams are read strictly in order, so blocks of one
    # sweep, or of 7 sweeps (7 does not divide 60), give the bytes of the
    # run drawn as one block
    d, _ = missing_dataset
    spec = ModelSpec(iterations=60, burn_in=20, chains=2, seed=31)
    pat = sampler._fit_setup(d, spec)[1]
    assert sampler._block_sweeps(pat, 2) >= 60
    whole = gibbs_fit(d, spec)
    monkeypatch.setattr(sampler, "_BLOCK_BYTES", 1)
    assert sampler._block_sweeps(pat, 2) == 1
    one = gibbs_fit(d, spec)
    monkeypatch.setattr(sampler, "_block_sweeps", lambda pat, chains: 7)
    seven = gibbs_fit(d, spec)
    for blocks, p in (("one sweep", one), ("seven sweeps", seven)):
        for name in ("B_draws", "Sigma_draws"):
            assert getattr(p, name).tobytes() == getattr(whole, name).tobytes(), (blocks, name)


def test_a_shorter_run_draws_a_prefix_of_a_longer_run(missing_dataset):
    # the same seed and burn-in: the 60-iteration fit keeps exactly the
    # first 40 draws of each chain of the 75-iteration fit
    d, _ = missing_dataset
    short = gibbs_fit(d, ModelSpec(iterations=60, burn_in=20, chains=2, seed=29))
    long = gibbs_fit(d, ModelSpec(iterations=75, burn_in=20, chains=2, seed=29))
    for c in range(2):
        for name in ("B_draws", "Sigma_draws"):
            a = getattr(short, name)[short.chain == c]
            b = getattr(long, name)[long.chain == c]
            assert len(a) == 40 and len(b) == 55
            assert a.tobytes() == b[:40].tobytes(), (c, name)


def test_draw_count_and_shapes(missing_dataset):
    d, _ = missing_dataset
    spec = ModelSpec(iterations=100, burn_in=40, thin=2, chains=2, seed=1)
    p = gibbs_fit(d, spec)
    assert p.B_draws.shape == (2 * 30, 3, 4)
    assert p.Sigma_draws.shape == (2 * 30, 3, 3)
    assert np.bincount(p.chain).tolist() == [30, 30]


def test_every_sigma_draw_is_pd(missing_dataset):
    d, _ = missing_dataset
    p = gibbs_fit(d, ModelSpec(iterations=80, burn_in=20, chains=1, seed=2))
    for S in p.Sigma_draws:
        np.linalg.cholesky(S)


def test_complete_data_sweep_is_the_complete_data_gibbs_update():
    # fully observed rows are the one-pattern case: from the same two
    # generator states the sweep draws what the reference coefficient and
    # IW updates draw
    rng = np.random.default_rng(8)
    l, q, n = 60, 3, 2
    X = np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])
    Y = rng.standard_normal((l, n))
    Sigma = np.array([[1.0, 0.3], [0.3, 0.8]])
    pat = sampler._Patterns(X, Y, np.ones((1, n), dtype=bool), np.array([0, l]))
    Theta, S = _one_sweep(pat, Sigma, 10.0, np.eye(n), 4.0,
                          np.random.default_rng(21), np.random.default_rng(22))

    r, chi = np.random.default_rng(21), np.random.default_rng(22)
    Theta_ref = draw_coefficients((X.T @ X)[None], (X.T @ Y)[None], np.linalg.inv(Sigma)[None],
                                  10.0, r)
    E = Y - X @ Theta_ref
    S_ref = invwishart(4.0 + l, np.eye(n) + E.T @ E, r, chi)
    np.testing.assert_allclose(Theta, Theta_ref, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(S, S_ref, rtol=1e-10, atol=1e-12)


def test_sweep_failure_names_the_pattern(monkeypatch, missing_dataset):
    # Sigma_oo fails to be PD exactly for the patterns that observe
    # response 2; the first of them in sorted order misses response 0. The
    # sweep of iteration 2 meets the bad first Sigma draw.
    monkeypatch.setattr(sampler, "_bartlett",
                        lambda scale, A: np.diag([1.0, 1.0, -1.0]))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"chain 0, iteration 2: Sigma_oo is not positive "
                             r"definite for the pattern with missing responses \[0"):
        gibbs_fit(missing_dataset[0], ModelSpec(iterations=5, burn_in=0, chains=1, seed=1))


def test_singular_sigma_oo_names_the_pattern(monkeypatch, missing_dataset):
    # a Sigma_oo that cannot be inverted is named like one that is not PD
    monkeypatch.setattr(sampler, "_bartlett", lambda scale, A: np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"chain 0, iteration 2: Sigma_oo is not positive "
                             r"definite for the pattern with missing responses \[0"):
        gibbs_fit(missing_dataset[0], ModelSpec(iterations=5, burn_in=0, chains=1, seed=1))


def _singular_sigma_draws(monkeypatch, bad, chains):
    """Make the Sigma step return a matrix of ones, which is not PD, as the
    k-th draw of chain c for each (c, k) in bad. Calls are counted per
    chain: each sweep of `chains` chains calls _bartlett once per chain,
    chain 0 first, so the i-th call (from 0) is chain i % chains's draw
    i // chains + 1."""
    calls = []
    real = sampler._bartlett

    def singular(scale, A):
        k, c = divmod(len(calls), chains)
        calls.append(c)
        S = real(scale, A)
        return np.ones_like(S) if (c, k + 1) in bad else S

    monkeypatch.setattr(sampler, "_bartlett", singular)


@pytest.mark.parametrize("missing", [True, False])
def test_chain_failure_names_chain_and_iteration(monkeypatch, missing_dataset,
                                                 missing):
    # chain 1's 4th Sigma draw is singular; the 5th sweep fails on it, in
    # the Sigma_oo factors of its conditionals with or without missing data
    if missing:
        d, _ = missing_dataset
    else:
        d, _ = synthesize(SynthSpec(l=60, n=3, q=3, missing_prob=0.0), seed=2)
    _singular_sigma_draws(monkeypatch, {(1, 4)}, chains=2)
    with pytest.raises(np.linalg.LinAlgError, match=r"chain 1, iteration 5: .*Sigma"):
        gibbs_fit(d, ModelSpec(iterations=12, burn_in=2, chains=2, seed=1))


@pytest.mark.parametrize("bad, named", [({(1, 4), (0, 6)}, "chain 1, iteration 5"),
                                        ({(2, 3), (1, 3)}, "chain 1, iteration 4")])
def test_failure_names_the_earliest_iteration_then_the_lowest_chain(
        monkeypatch, missing_dataset, bad, named):
    # the chains advance together: a later failure of a lower chain, or a
    # failure of a higher chain in the same sweep, is not the one named
    _singular_sigma_draws(monkeypatch, bad, chains=3)
    with pytest.raises(np.linalg.LinAlgError, match=named + ": Sigma_oo"):
        gibbs_fit(missing_dataset[0], ModelSpec(iterations=12, burn_in=2, chains=3, seed=1))


def test_fit_requires_observed_rows():
    d, _ = synthesize(SynthSpec(l=30, n=2, q=3, missing_prob=0.0), seed=1)
    d.mask[:] = False
    d.Y[:] = np.nan
    with pytest.raises(ValueError, match="observed"):
        gibbs_fit(d, ModelSpec(iterations=10, burn_in=0, chains=1))


def test_improper_iw_prior_rejected():
    d, _ = synthesize(SynthSpec(l=40, n=3, q=3, missing_prob=0.0), seed=1)
    spec = ModelSpec(iterations=10, burn_in=0, chains=1, iw_df=1.0)
    with pytest.raises(ValueError, match="degrees of freedom"):
        gibbs_fit(d, spec)


@pytest.mark.parametrize("scale, error, match", [
    # a Cholesky factor reads one triangle: the 5 would be dropped unread
    ([[1.0, 5.0], [0.0, 1.0]], ValueError, "IW scale is not a finite symmetric"),
    ([[1.0, 0.0], [0.0, np.inf]], ValueError, "IW scale is not a finite symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], np.linalg.LinAlgError, "IW scale is not positive definite"),
], ids=["asymmetric", "infinite", "not_pd"])
def test_iw_scale_must_be_a_covariance(scale, error, match):
    d, _ = synthesize(SynthSpec(l=40, n=2, q=3, missing_prob=0.0), seed=1)
    with pytest.raises(error, match=match):
        gibbs_fit(d, ModelSpec(iterations=10, burn_in=0, chains=1, iw_scale=scale))


def test_univariate_flat_prior_matches_ols():
    d, _ = synthesize(SynthSpec(l=250, n=1, q=4, missing_prob=0.0), seed=6)
    spec = ModelSpec(iterations=3000, burn_in=500, chains=2, seed=9,
                     coef_prior_var=1e6)
    p = gibbs_fit(d, spec)
    ols = np.linalg.lstsq(d.X, d.Y[:, 0], rcond=None)[0]
    for c in range(4):
        series = p.B_draws[:, 0, c]
        chains = series.reshape(2, -1)
        mc_se = series.std(ddof=1) / np.sqrt(ess(chains))
        assert abs(series.mean() - ols[c]) <= 3 * mc_se


def test_posterior_concentrates_near_truth():
    gen = SynthSpec(l=300, n=2, q=3, Sigma=0.25 * np.eye(2), missing_prob=0.1)
    d, truth = synthesize(gen, seed=14)
    p = gibbs_fit(d, ModelSpec(iterations=1500, burn_in=500, chains=2, seed=15))
    B_true = np.asarray(truth["B"])
    post_mean = p.B_draws.mean(axis=0)
    post_sd = p.B_draws.std(axis=0, ddof=1)
    within = np.abs(post_mean - B_true) <= 3 * post_sd
    assert within.mean() >= 0.9
    np.testing.assert_allclose(post_mean, B_true, atol=0.2)


# -- predictive helpers ----------------------------------------------------------------


def test_predictive_mean_identical_draws():
    B = np.tile(np.array([[1.0, 2.0], [0.0, -1.0]]), (30, 1, 1))
    p = make_draws(B, np.tile(np.eye(2), (30, 1, 1)), [0])
    mu = predictive_mean_draws(p, np.array([1.0, 0.5]))
    np.testing.assert_array_equal(mu, np.tile([2.0, -0.5], (30, 1)))


def test_predictive_mean_zero_input():
    rng = np.random.default_rng(3)
    p = make_draws(rng.standard_normal((20, 2, 3)),
                   np.tile(np.eye(2), (20, 1, 1)), [0])
    mu = predictive_mean_draws(p, np.zeros(3))
    np.testing.assert_array_equal(mu, np.zeros((20, 2)))


def test_predictive_mean_linearity():
    rng = np.random.default_rng(4)
    p = make_draws(rng.standard_normal((200, 3, 4)),
                   np.tile(np.eye(3), (200, 1, 1)), [0])
    x = rng.standard_normal(4)
    mu = predictive_mean_draws(p, x)
    np.testing.assert_allclose(mu.mean(axis=0), p.B_draws.mean(axis=0) @ x,
                               rtol=1e-12)


def test_predictive_mean_dimension_check():
    p = make_draws(np.ones((5, 2, 3)), np.tile(np.eye(2), (5, 1, 1)), [0])
    with pytest.raises(ValueError):
        predictive_mean_draws(p, np.ones(2))


# -- convergence -----------------------------------------------------------------------


def test_rhat_iid_chains_near_one():
    rng = np.random.default_rng(6)
    chains = rng.standard_normal((2, 5000))
    assert 0.99 <= rhat(chains) <= 1.05


def test_rhat_separated_chains_large():
    rng = np.random.default_rng(7)
    chains = np.stack([rng.standard_normal(2000),
                       rng.standard_normal(2000) + 10.0])
    assert rhat(chains) > 1.5


def test_constant_chain_conventions():
    chains = np.full((2, 500), 3.14)
    assert rhat(chains) == 1.0
    assert ess(chains) == 1000.0


def test_stuck_chains_are_not_converged():
    # two chains stuck at different values have no within-half variance;
    # only draws that are all equal take the constant-chain convention
    chains = np.array([[1.0] * 500, [2.0] * 500])
    assert rhat(chains) == np.inf
    assert ess(chains) == 1000 / 497  # every autocorrelation is 1: 124 pairs of 2
    p = make_draws(np.repeat([1.0, 2.0], 100).reshape(200, 1, 1),
                   np.tile(np.eye(1), (200, 1, 1)), [0])
    p.chain = np.repeat([0, 1], 100)
    assert convergence_summary(p).max_rhat == np.inf


@pytest.mark.parametrize("chains, draws", [(1, 301), (2, 400), (2, 97), (3, 1001)])
def test_split_diagnostics_are_the_per_parameter_oracle(chains, draws):
    # every parameter at once against one at a time: AR(1) chains of five
    # correlations, one constant parameter and one whose halves are stuck
    rng = np.random.default_rng(draws)
    phi = np.array([0.0, 0.5, 0.9, 0.99, -0.6])[:, None]
    x = np.empty((phi.size + 2, chains, draws))
    x[:phi.size, :, 0] = rng.standard_normal((phi.size, chains))
    for t in range(1, draws):
        x[:phi.size, :, t] = phi * x[:phi.size, :, t - 1] + rng.standard_normal((phi.size, chains))
    x[-2] = 1.5
    x[-1] = np.arange(chains)[:, None] + (np.arange(draws) >= draws // 2)
    r, e, mean, sd = sampler._split_diagnostics(x)
    assert r.tolist() == [oracles.split_rhat(c) for c in x]
    assert (mean.tolist(), sd.tolist()) == ([c.mean() for c in x], [c.std(ddof=1) for c in x])
    np.testing.assert_allclose(e, [oracles.split_ess(c) for c in x], rtol=1e-14, atol=0)


def test_rhat_never_below_one():
    rng = np.random.default_rng(70)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(8, 300))
        assert rhat(rng.standard_normal((m, n))) >= 1.0 - 1e-6


def test_ess_bounded_and_sane():
    rng = np.random.default_rng(8)
    iid = rng.standard_normal((2, 4000))
    e = ess(iid)
    assert 0.5 * iid.size <= e <= iid.size
    # strongly autocorrelated chain has far smaller ESS
    ar = np.empty((1, 4000))
    ar[0, 0] = 0.0
    for t in range(1, 4000):
        ar[0, t] = 0.95 * ar[0, t - 1] + rng.standard_normal()
    assert ess(ar) < 0.2 * ar.size


def test_convergence_summary_shape(missing_dataset):
    d, _ = missing_dataset
    p = gibbs_fit(d, ModelSpec(iterations=300, burn_in=100, chains=2, seed=4))
    conv = convergence_summary(p)
    # n*q coefficients plus upper-triangle Sigma entries
    assert len(conv.params) == 3 * 4 + 6
    assert conv.max_rhat >= 1.0 - 1e-6
    assert all(pd.ess <= p.n_draws for pd in conv.params)
    names = {pd.name for pd in conv.params}
    assert "B[0,0]" in names and "Sigma[2,2]" in names


@pytest.mark.parametrize("per_block", [None, 5])
def test_convergence_summary_is_the_per_parameter_oracle(missing_dataset, monkeypatch,
                                                          per_block):
    # each parameter's chains as the loop over parameters stacked them: the
    # layout convergence_summary gives the kernel must leave R-hat, mean
    # and sd unchanged to the bit (3 chains of 201 draws, 18 parameters, in
    # one block or in blocks of 5)
    d, _ = missing_dataset
    p = gibbs_fit(d, ModelSpec(iterations=301, burn_in=100, chains=3, seed=4))
    if per_block:
        monkeypatch.setattr(sampler, "_BLOCK_BYTES", per_block * 16 * p.B_draws[:, 0, 0].nbytes)
    n, q = p.B_draws.shape[1:]
    entries = [p.B_draws[:, r, c] for r in range(n) for c in range(q)]
    entries += [p.Sigma_draws[:, r, c] for r in range(n) for c in range(r, n)]
    for diag, values in zip(convergence_summary(p).params, entries, strict=True):
        s = np.stack([values[p.chain == c] for c in range(3)])
        assert (diag.rhat, diag.mean, diag.sd) == (oracles.split_rhat(s), float(s.mean()),
                                                   float(s.std(ddof=1))), diag.name
        assert diag.ess == pytest.approx(oracles.split_ess(s), rel=1e-14, abs=0), diag.name


def test_convergence_needs_enough_draws():
    p = make_draws(np.ones((10, 2, 2)), np.tile(np.eye(2), (10, 1, 1)), [0])
    with pytest.raises(ValueError, match="at least 2 chains or 100 draws"):
        convergence_summary(p)


# -- persistence ------------------------------------------------------------------------


def test_draws_csv_matches_npz(tmp_path, missing_dataset):
    d, _ = missing_dataset
    p = gibbs_fit(d, ModelSpec(iterations=30, burn_in=10, chains=2, seed=23))
    save_fit(p, tmp_path)
    q, _meta = load_fit(tmp_path)  # reads draws.npz

    # one row per draw; after draw and chain, the convergence parameters
    # in their order, each column the draws.npz entry it names
    with open(tmp_path / "draws.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    names = [diag.name for diag in convergence_summary(q).params]
    assert header == ["draw", "chain", *names]
    assert len(rows) == q.n_draws
    columns = dict(zip(header, zip(*rows)))
    np.testing.assert_array_equal(np.array(columns["draw"], dtype=int), q.draw)
    np.testing.assert_array_equal(np.array(columns["chain"], dtype=int), q.chain)
    n = q.Sigma_draws.shape[1]
    assert len(set(names)) == q.B_draws[0].size + n * (n + 1) // 2
    for name in names:
        key, index = name[:-1].split("[")
        r, c = (int(i) for i in index.split(","))
        assert key == "B" or r <= c
        np.testing.assert_array_equal(np.array(columns[name], dtype=float),
                                      {"B": q.B_draws, "Sigma": q.Sigma_draws}[key][:, r, c])

    # an npz from before fit_rows moved out of meta.json
    with np.load(tmp_path / "draws.npz") as npz:
        arrays = {k: npz[k] for k in npz.files if k != "fit_rows"}
    np.savez_compressed(tmp_path / "draws.npz", **arrays)
    with pytest.raises(ValueError, match=r"draws\.npz has no fit_rows; re-run fit"):
        load_fit(tmp_path)

    # draws.csv alone, as earlier versions left it, is not loadable
    (tmp_path / "draws.npz").unlink()
    with pytest.raises(ValueError, match=r"draws\.npz.*re-run fit"):
        load_fit(tmp_path)


@pytest.mark.parametrize("field", ["B_draws", "Sigma_draws"])
def test_save_fit_rejects_non_finite_draws(tmp_path, missing_dataset, field):
    d, _ = missing_dataset
    p = gibbs_fit(d, ModelSpec(iterations=30, burn_in=10, chains=1, seed=3))
    getattr(p, field)[-1].flat[0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        save_fit(p, tmp_path)
    for name in ("draws.csv", "draws.npz", "meta.json"):
        assert not (tmp_path / name).exists()


def test_save_load_round_trip(tmp_path, missing_dataset):
    d, _ = missing_dataset
    p = gibbs_fit(d, ModelSpec(iterations=40, burn_in=10, chains=2, seed=19))
    save_fit(p, tmp_path, extra_meta={"dataset_hash": "abc"})
    q, meta = load_fit(tmp_path)
    np.testing.assert_array_equal(q.B_draws, p.B_draws)
    np.testing.assert_array_equal(q.Sigma_draws, p.Sigma_draws)
    np.testing.assert_array_equal(q.chain, p.chain)
    np.testing.assert_array_equal(q.fit_rows, p.fit_rows)
    assert q.spec == p.spec
    assert meta["dataset_hash"] == "abc"
    # the row indices live in draws.npz only
    assert "fit_rows" not in meta
    assert q.response_names == p.response_names


def test_fit_directory_holds_only_the_draws(tmp_path, missing_dataset):
    # missing cells are integrated out, never stored: draws.npz holds the
    # draws, their indices and fit_rows, and draws.csv only B and Sigma
    d, _ = missing_dataset
    save_fit(gibbs_fit(d, ModelSpec(iterations=20, burn_in=10, chains=2, seed=5)), tmp_path)
    with np.load(tmp_path / "draws.npz") as npz:
        assert sorted(npz.files) == ["B_draws", "Sigma_draws", "chain", "draw", "fit_rows"]
    assert "Z[" not in (tmp_path / "draws.csv").read_text(encoding="utf-8")
