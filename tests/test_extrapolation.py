import csv

import numpy as np
import pytest

from extrapolmv.dataset import _BLOCK_ROWS, SynthSpec, synthesize
from extrapolmv.diagnostics import high_leverage_set, ivh_values
from extrapolmv.extrapolation import (
    CutoffSpec,
    _draw_cov,
    _logdet_psd,
    _mvpv_arrays,
    conditional_mvn,
    measure_column,
    score_locations,
    score_locations_analytic,
    write_scores_csv,
)
from extrapolmv.posterior import _conditional_gain
from extrapolmv.sampler import ModelSpec, gibbs_fit

from conftest import make_dataset, make_draws
from oracles import cmvpv, compute_cutoff, predictive_mean_draws, predictive_variance


# -- predictive_variance -------------------------------------------------------


def test_identical_draws_give_zero_variance():
    pv = predictive_variance(np.tile([1.0, -2.0, 3.0], (50, 1)))
    np.testing.assert_array_equal(pv.V, np.zeros((3, 3)))
    assert pv.trace == 0.0
    assert pv.det == 0.0
    assert pv.logdet == -np.inf


def test_univariate_two_draws():
    pv = predictive_variance(np.array([-1.0, 1.0]))
    # mean 0, divisor A = 2
    np.testing.assert_array_equal(pv.V, [[1.0]])


def test_matches_two_pass_oracle():
    rng = np.random.default_rng(0)
    draws = rng.standard_normal((200, 3)) @ rng.standard_normal((3, 3))
    pv = predictive_variance(draws)
    mean = draws.mean(axis=0)
    V = np.zeros((3, 3))
    for row in draws:
        V += np.outer(row - mean, row - mean)
    V /= draws.shape[0]
    np.testing.assert_allclose(pv.V, V, atol=1e-10)


def test_output_is_psd():
    rng = np.random.default_rng(1)
    for _ in range(5):
        pv = predictive_variance(rng.standard_normal((30, 4)))
        lam = np.linalg.eigvalsh(pv.V)
        assert lam.min() >= -1e-10 * pv.trace


def test_needs_two_draws():
    with pytest.raises(ValueError):
        predictive_variance(np.array([[1.0, 2.0]]))


# -- trace / logdet -------------------------------------------------------------


def summaries(V):
    """predictive_variance of 2n draws +-sqrt(n) L e_k (V = L L'), whose
    divisor-A covariance is V, and the log-determinant of V itself."""
    D = np.sqrt(V.shape[0]) * np.linalg.cholesky(V).T
    return predictive_variance(np.vstack([D, -D])), float(_logdet_psd(V))


def test_diagonal_matrix_summaries():
    pv, logdet = summaries(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert pv.trace == pytest.approx(10.0, rel=1e-12)
    assert pv.det == pytest.approx(24.0, rel=1e-12)
    assert np.exp(logdet) == pytest.approx(24.0, rel=1e-12)


def test_two_by_two_summaries():
    pv, logdet = summaries(np.array([[2.0, 1.0], [1.0, 2.0]]))  # eigenvalues 1 and 3
    assert pv.trace == pytest.approx(4.0, rel=1e-12)
    assert pv.det == pytest.approx(3.0, rel=1e-12)
    assert np.exp(logdet) == pytest.approx(3.0, rel=1e-12)


def test_scaled_identity():
    c = 0.5
    pv, logdet = summaries(c * np.eye(4))
    assert pv.trace == pytest.approx(4 * c, rel=1e-12)
    assert pv.det == pytest.approx(c ** 4, rel=1e-12)
    assert np.exp(logdet) == pytest.approx(c ** 4, rel=1e-12)


def test_asymmetric_input_rejected():
    d, _ = synthesize(SynthSpec(l=20, n=2, q=3), seed=5)
    with pytest.raises(ValueError, match="asymmetric"):
        score_locations_analytic(d, sigma=np.array([[1.0, 0.5], [0.0, 1.0]]))


# -- conditional_mvn ------------------------------------------------------------


def test_independence_leaves_marginals():
    mu = np.array([1.0, -1.0, 2.0, 0.5])
    mu_bar, S_bar = conditional_mvn(mu, np.eye(4), [0, 2], [1, 3], [5.0, -5.0])
    np.testing.assert_array_equal(mu_bar, [1.0, 2.0])
    np.testing.assert_array_equal(S_bar, np.eye(2))


def test_bivariate_known_conditional():
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    mu_bar, S_bar = conditional_mvn([0.0, 0.0], sigma, [0], [1], [1.0])
    assert mu_bar[0] == pytest.approx(0.6)
    assert S_bar[0, 0] == pytest.approx(0.64)


def test_bivariate_against_simulation_oracle():
    # empirical conditional via least squares on 1e6 simulated pairs
    rng = np.random.default_rng(7)
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    draws = rng.multivariate_normal([0.0, 0.0], sigma, size=1_000_000)
    Z = np.column_stack([np.ones(draws.shape[0]), draws[:, 1]])
    coef, *_ = np.linalg.lstsq(Z, draws[:, 0], rcond=None)
    emp_mean = coef[0] + coef[1] * 1.0
    resid = draws[:, 0] - Z @ coef
    emp_var = resid.var()
    assert emp_mean == pytest.approx(0.6, rel=0.01)
    assert emp_var == pytest.approx(0.64, rel=0.01)
    mu_bar, S_bar = conditional_mvn([0.0, 0.0], sigma, [0], [1], [1.0])
    assert mu_bar[0] == pytest.approx(emp_mean, rel=0.01)
    assert S_bar[0, 0] == pytest.approx(emp_var, rel=0.01)


def test_empty_conditioning_returns_marginal():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((4, 4))
    sigma = A @ A.T + np.eye(4)
    mu = rng.standard_normal(4)
    mu_bar, S_bar = conditional_mvn(mu, sigma, [1, 3], [], [])
    np.testing.assert_array_equal(mu_bar, mu[[1, 3]])
    np.testing.assert_array_equal(S_bar, sigma[np.ix_([1, 3], [1, 3])])


def test_overlapping_sets_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        conditional_mvn(np.zeros(3), np.eye(3), [0, 1], [1], [1.0])


def test_singular_conditioning_block():
    sigma = np.eye(3)
    sigma[1, 1] = 0.0
    with pytest.raises(np.linalg.LinAlgError):
        conditional_mvn(np.zeros(3), sigma, [0], [1, 2], [1.0, 1.0])


def test_indefinite_conditioning_block_is_named():
    # Sigma_gg = [[-1, .2], [.2, 1]] is nonsingular but no covariance
    sigma = np.array([[2.0, 0.5, 0.1], [0.5, -1.0, 0.2], [0.1, 0.2, 1.0]])
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"conditioning block of Sigma on components \[1, 2\] "
                             "is not positive definite"):
        conditional_mvn(np.zeros(3), sigma, [0], [1, 2], [1.0, 1.0])


def test_conditional_gain_of_a_stack_is_the_gain_of_each_matrix():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((6, 4, 4))
    sigmas = A @ np.swapaxes(A, 1, 2) + 0.5 * np.eye(4)
    G, S_bar = _conditional_gain(sigmas, [2, 0], [3, 1])
    assert G.shape == S_bar.shape == (6, 2, 2)
    for k, sigma in enumerate(sigmas):
        G_k, S_k = _conditional_gain(sigma, [2, 0], [3, 1])
        np.testing.assert_allclose(G[k], G_k, rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(S_bar[k], S_k, rtol=1e-14, atol=1e-14)
    sigmas[4, 1, 1] = sigmas[4, 3, 3] = sigmas[4, 1, 3] = sigmas[4, 3, 1] = 1.0
    with pytest.raises(np.linalg.LinAlgError, match="conditioning block"):
        _conditional_gain(sigmas, [2, 0], [3, 1])


@pytest.mark.parametrize("seed", range(4))
def test_schur_shrinkage(seed):
    rng = np.random.default_rng(400 + seed)
    A = rng.standard_normal((4, 4))
    sigma = A @ A.T + 0.5 * np.eye(4)
    _, S_bar = conditional_mvn(np.zeros(4), sigma, [0], [1, 2, 3],
                               rng.standard_normal(3))
    assert S_bar[0, 0] <= sigma[0, 0] + 1e-12


# -- cmvpv ----------------------------------------------------------------------


def constant_draws(B, Sigma, A=20, fit_rows=(0, 1, 2)):
    return make_draws(np.tile(B, (A, 1, 1)), np.tile(Sigma, (A, 1, 1)), fit_rows)


def test_degenerate_draws_full_conditioning_equals_schur():
    B = np.array([[1.0, 0.5], [0.0, -1.0], [2.0, 0.3]])
    Sigma = np.array([[2.0, 0.4, 0.1], [0.4, 1.0, 0.2], [0.1, 0.2, 1.5]])
    p = constant_draws(B, Sigma)
    x = np.array([1.0, 2.0])
    vals = np.array([np.nan, 0.7, -0.2])
    _, S_bar = conditional_mvn(B @ x, Sigma, [0], [1, 2], vals[1:])
    assert cmvpv(p, x, 0, vals) == pytest.approx(S_bar[0, 0], abs=1e-14)


def test_identity_sigma_conditioning_is_noop():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((40, 3, 2))
    Sigma = np.tile(np.eye(3), (40, 1, 1))
    p = make_draws(B, Sigma, [0, 1, 2])
    x = np.array([1.0, -0.5])
    conditioned = cmvpv(p, x, 0, np.array([np.nan, 1.0, 2.0]))
    unconditioned = cmvpv(p, x, 0, np.array([np.nan, np.nan, np.nan]))
    assert conditioned == pytest.approx(unconditioned, rel=1e-12)


def test_fixed_draws_conditioning_shrinks():
    rho = 0.7
    Sigma = np.array([[1.0, rho], [rho, 1.0]])
    B = np.array([[1.0, 2.0], [0.5, -1.0]])
    p = constant_draws(B, Sigma)
    x = np.array([1.0, 0.5])
    conditioned = cmvpv(p, x, 0, np.array([np.nan, 0.3]))
    unconditioned = cmvpv(p, x, 0, np.array([np.nan, np.nan]))
    assert conditioned == pytest.approx(1 - rho ** 2, abs=1e-14)
    assert unconditioned == pytest.approx(1.0, abs=1e-14)
    assert conditioned < unconditioned


def test_target_in_conditioning_set_rejected():
    p = constant_draws(np.ones((2, 2)), np.eye(2))
    mask = np.array([True, True])
    with pytest.raises(ValueError, match="conditioned on itself"):
        cmvpv(p, np.ones(2), 0, np.array([1.0, 1.0]), given_mask=mask)


def test_nonfinite_conditioning_values_rejected():
    p = constant_draws(np.ones((2, 2)), np.eye(2))
    mask = np.array([False, True])
    with pytest.raises(ValueError, match="finite"):
        cmvpv(p, np.ones(2), 0, np.array([0.0, np.nan]), given_mask=mask)


def test_dimension_mismatch_rejected():
    p = constant_draws(np.ones((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="entries"):
        cmvpv(p, np.ones(3), 0, np.array([np.nan, 1.0]))


# -- cutoffs ----------------------------------------------------------------------


def test_cutoff_max():
    v = np.arange(1.0, 101.0)
    assert compute_cutoff(v, CutoffSpec(kind="max")) == 100.0


def test_cutoff_median_interpolates():
    v = np.arange(1.0, 11.0)
    assert compute_cutoff(v, CutoffSpec(kind="quantile", level=0.5)) == 5.5


def test_cutoff_q95_interpolates():
    v = np.arange(1.0, 101.0)
    k = compute_cutoff(v, CutoffSpec(kind="quantile", level=0.95))
    assert k == pytest.approx(95.05, abs=1e-12)


def test_leverage_informed_cutoff_drops_flagged_rows():
    v = np.array([1.0, 2.0, 50.0, 3.0])
    h = np.array([0.05, 0.05, 0.9, 0.05])  # mean 0.2625, 3x rule flags row 2
    spec = CutoffSpec(kind="leverage_informed_max")
    assert compute_cutoff(v, spec, leverage=h) == 3.0


def test_quantile_level_validated():
    with pytest.raises(ValueError):
        CutoffSpec(kind="quantile", level=0.0)
    with pytest.raises(ValueError):
        CutoffSpec(kind="quantile", level=1.2)
    assert CutoffSpec.parse("q:1").level == 1.0


def test_empty_values_rejected():
    with pytest.raises(ValueError):
        compute_cutoff(np.array([]), CutoffSpec(kind="max"))


def test_cutoff_token_parsing():
    assert CutoffSpec.parse("max").kind == "max"
    assert CutoffSpec.parse("lev").kind == "leverage_informed_max"
    assert CutoffSpec.parse("q99").level == 0.99
    assert CutoffSpec.parse("q:0.5").name == "q50"
    with pytest.raises(ValueError):
        CutoffSpec.parse("median")
    # a level that is no number names the token; one out of range keeps
    # its own message
    with pytest.raises(ValueError, match=r"^unknown cutoff token 'q:abc'$"):
        CutoffSpec.parse("q:abc")
    with pytest.raises(ValueError, match="quantile level"):
        CutoffSpec.parse("q:1.5")


# -- score_locations (sampled) --------------------------------------------------


@pytest.fixture(scope="module")
def fitted():
    # l large enough that the leverage rule removes well under 1% of the
    # observed rows; otherwise the lev cutoff can drop below q99
    d, _ = synthesize(SynthSpec(l=300, n=3, q=6, missing_prob=[0.3, 0.1, 0.0]),
                      seed=31)
    spec = ModelSpec(iterations=500, burn_in=200, chains=2, seed=17)
    p = gibbs_fit(d, spec)
    return d, p


def test_max_cutoff_never_flags_observed(fitted):
    d, p = fitted
    report = score_locations(p, d, measures=("trace", "det"), cutoffs=("max",))
    fit_rows = np.asarray(p.fit_rows)
    for m in report.measures:
        assert m.cutoffs[0].e[fit_rows].sum() == 0


def test_counts_monotone_in_cutoff_laxness(fitted):
    d, p = fitted
    report = score_locations(p, d, measures=("det", "trace"))
    for m in report.measures:
        counts = {c.name: int(c.e.sum()) for c in m.cutoffs}
        assert counts["max"] <= counts["lev"] <= counts["q99"] <= counts["q95"]


def test_flag_sets_nest_across_quantiles(fitted):
    d, p = fitted
    report = score_locations(p, d, measures=("trace",),
                             cutoffs=("q:0.9", "q:0.5"))
    strict, lax = report.measures[0].cutoffs
    assert strict.k >= lax.k
    assert np.all(lax.e >= strict.e)  # flagged under larger k => under smaller


def test_flags_and_ratios_follow_the_cutoff(fitted):
    # e is the strict v > k, also for a negative k, and r is v / k
    # (exp(v - k) for the log-determinant)
    d, p = fitted
    report = score_locations(p, d, measures=("trace", "det"), cutoffs=("q95", "q:0.5"))
    tr, ld = report.measures
    for c in tr.cutoffs:
        np.testing.assert_array_equal(c.e, tr.values > c.k)
        np.testing.assert_array_equal(c.r, tr.values / c.k)
    for c in ld.cutoffs:
        assert c.k < 0
        np.testing.assert_array_equal(c.e, ld.values > c.k)
        np.testing.assert_array_equal(c.r, np.exp(ld.values - c.k))


def test_first_flagging_is_most_conservative_hit(fitted):
    d, p = fitted
    report = score_locations(p, d)
    m = report.primary
    by_name = {c.name: c for c in m.cutoffs}
    order = sorted(by_name, key=lambda nm: -by_name[nm].k)
    for i in range(d.n_rows):
        hits = [nm for nm in order if by_name[nm].e[i]]
        assert m.first_flagging[i] == (hits[0] if hits else "")


def test_trace_values_match_per_location_op(fitted):
    d, p = fitted
    report = score_locations(p, d, measures=("trace", "det"))
    tr = report.measures[0].values
    ld = report.measures[1].values
    for i in range(d.n_rows):
        pv = predictive_variance(predictive_mean_draws(p, d.X[i]))
        assert tr[i] == pytest.approx(pv.trace, rel=1e-10)
        assert ld[i] == pytest.approx(pv.logdet, rel=1e-8)


def test_trace_does_not_depend_on_the_other_measures(fitted):
    # the trace comes from one formula whichever measures are asked for
    d, p = fitted
    traces = [next(m.values for m in score_locations(p, d, measures=ms).measures
                   if m.measure == "trace").tobytes()
              for ms in (("trace",), ("det", "trace"), ("trace", "cmvpv:y1"))]
    assert len(set(traces)) == 1


def test_cmvpv_values_match_per_location_op(fitted):
    # every row and every target covers every sibling pattern
    d, p = fitted
    measures = tuple(f"cmvpv:{name}" for name in d.response_names)
    report = score_locations(p, d, measures=measures)
    no_sibling = 0
    for t, m in enumerate(report.measures):
        for i in range(d.n_rows):
            mask = d.mask[i].copy()
            mask[t] = False
            no_sibling += not mask.any()
            expect = cmvpv(p, d.X[i], t, np.where(mask, d.Y[i], np.nan),
                           given_mask=mask)
            assert m.values[i] == pytest.approx(expect, rel=1e-10)
    assert no_sibling > 0


def test_cmvpv_cutoff_uses_rows_where_target_observed(fitted):
    d, p = fitted
    name = d.response_names[0]
    report = score_locations(p, d, measures=(f"cmvpv:{name}",), cutoffs=("max",))
    m = report.measures[0]
    obs = np.flatnonzero(d.mask[:, 0])
    assert m.cutoffs[0].k == pytest.approx(m.values[obs].max())
    assert m.cutoffs[0].e[obs].sum() == 0


def test_unknown_measure_and_response_rejected(fitted):
    d, p = fitted
    with pytest.raises(ValueError, match="unknown measure"):
        score_locations(p, d, measures=("eigen",))
    with pytest.raises(ValueError, match="unknown response"):
        score_locations(p, d, measures=("cmvpv:nope",))


def test_mismatched_dataset_rejected(fitted):
    d, p = fitted
    d2, _ = synthesize(SynthSpec(l=100, n=3, q=3, missing_prob=0.5), seed=99)
    with pytest.raises(ValueError, match="observed rows"):
        score_locations(p, d2)


def test_degenerate_draws_det_ties_resolved_by_trace():
    # all draws identical: V = 0 everywhere, logdet -inf; the max cutoff
    # is -inf and flags nothing, quantile cutoffs are undefined
    d, _ = synthesize(SynthSpec(l=20, n=2, q=3, missing_prob=0.0), seed=60)
    # dyadic entries and a power-of-two draw count: the draw mean is exact,
    # so deviations (and V) are exactly zero
    B = np.tile(np.array([[1.0, 0.25, -0.5], [0.5, 0.0, 2.0]]), (16, 1, 1))
    p = make_draws(B, np.tile(np.eye(2), (16, 1, 1)), np.arange(20))
    report = score_locations(p, d, measures=("det",), cutoffs=("max",))
    c = report.measures[0].cutoffs[0]
    assert c.k == -np.inf
    assert c.e.sum() == 0  # exact ties are interpolation
    assert np.all(np.isfinite(c.r))
    # V = 0 everywhere: trace cutoff k = 0 flags nothing and 0 / 0 reads as 1
    c = score_locations(p, d, measures=("trace",), cutoffs=("max",)).measures[0].cutoffs[0]
    assert c.k == 0.0
    assert c.e.sum() == 0
    np.testing.assert_array_equal(c.r, 1.0)
    with pytest.raises(ValueError, match="quantile cutoff undefined"):
        score_locations(p, d, measures=("det",), cutoffs=("q95",))


def test_singular_det_max_cutoff_flags_nothing_and_ratio_is_one():
    # only y1's coefficients vary: every V has a zero y2 row, so every
    # log-det and the max cutoff are -inf; no value exceeds k, and -inf
    # against -inf reads as 1, whatever the traces
    d, _ = synthesize(SynthSpec(l=20, n=2, q=3, missing_prob=0.0), seed=63)
    rng = np.random.default_rng(64)
    B = np.tile(np.array([[1.0, 0.25, -0.5], [0.5, 0.0, 2.0]]), (16, 1, 1))
    B[:, 0] += rng.standard_normal((16, 3))
    p = make_draws(B, np.tile(np.eye(2), (16, 1, 1)), np.arange(20))
    [det, trace] = score_locations(p, d, measures=("det", "trace"), cutoffs=("max",)).measures
    [c] = det.cutoffs
    assert np.all(det.values == -np.inf) and c.k == -np.inf
    assert np.ptp(trace.values) > 0
    np.testing.assert_array_equal(c.e, 0)
    np.testing.assert_array_equal(c.r, 1.0)


def test_det_needs_more_draws_than_responses():
    # A kept draws give Cov(vec B) rank at most A - 1, so with A <= n every
    # V_i is singular and only rounding would decide its log-determinant
    rng = np.random.default_rng(61)
    d, _ = synthesize(SynthSpec(l=30, n=4, q=3, missing_prob=0.0), seed=62)

    def draws(A):
        return make_draws(rng.standard_normal((A, 4, 3)),
                          np.tile(np.eye(4), (A, 1, 1)), np.arange(30))

    for A in (3, 4):
        with pytest.raises(ValueError, match=f"than the 4 responses, got {A}"):
            score_locations(draws(A), d, measures=("trace", "det"))
    assert np.all(score_locations(draws(3), d, measures=("trace",)).measures[0].values > 0)
    assert np.all(np.isfinite(score_locations(draws(5), d, measures=("det",)).measures[0].values))


def test_never_observed_response_has_no_cutoff_base():
    rng = np.random.default_rng(55)
    d, _ = synthesize(SynthSpec(l=40, n=3, q=3, missing_prob=0.0), seed=56)
    d.mask[:, 2] = False
    d.Y[:, 2] = np.nan
    p = make_draws(rng.standard_normal((30, 3, 3)),
                   np.tile(np.eye(3), (30, 1, 1)),
                   np.arange(40))
    with pytest.raises(ValueError, match="no observed locations"):
        score_locations(p, d, measures=("cmvpv:y3",))


# -- the blocked MVPV kernel ------------------------------------------------------


def _kernel_against_reference(A, n, q, seed):
    """_mvpv_arrays and the per-location covariance of B_a x on rows that
    fill two blocks and part of a third."""
    rng = np.random.default_rng(seed)
    l = 2 * _BLOCK_ROWS + 117
    X = np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])
    # draws spread around a common mean keep every V_i well conditioned,
    # so both computations round at the 1e-15 level
    B = rng.standard_normal((n, q)) + 0.1 * rng.standard_normal((A, n, q))
    p = make_draws(B, np.tile(np.eye(n), (A, 1, 1)), np.arange(l))
    ref = [predictive_variance(predictive_mean_draws(p, x)) for x in X]
    tr, ld = _mvpv_arrays(_draw_cov(B.reshape(A, n * q)), X, True)
    np.testing.assert_allclose(tr, [pv.trace for pv in ref], rtol=1e-14, atol=0)
    np.testing.assert_allclose(ld, [pv.logdet for pv in ref], rtol=1e-14, atol=0)
    return B


def test_blocked_kernel_is_the_per_location_covariance():
    _kernel_against_reference(A=40, n=3, q=5, seed=81)


def test_blocked_kernel_with_rank_deficient_draw_covariance():
    # fewer draws than coefficients: C has rank A - 1 < n q, V_i is still full rank
    B = _kernel_against_reference(A=10, n=3, q=5, seed=82)
    assert np.linalg.matrix_rank(_draw_cov(B.reshape(10, 15))) == 9


def test_blocked_kernel_constant_draws():
    # integer entries and a power-of-two draw count: the mean is exact, so V = 0
    rng = np.random.default_rng(83)
    l = 2 * _BLOCK_ROWS + 1
    X = np.column_stack([np.ones(l), rng.standard_normal((l, 3))])
    B = np.tile(rng.integers(-5, 6, (2, 4)).astype(float), (8, 1, 1))
    tr, ld = _mvpv_arrays(_draw_cov(B.reshape(8, 8)), X, True)
    assert np.all(tr == 0.0)
    assert np.all(ld == -np.inf)


# -- degenerate-draw constancy ---------------------------------------------------


def test_added_term_constant_across_locations():
    # with constant draws, conditioned-vs-unconditioned CMVPV differ by a
    # location-constant (the within-draw variance difference)
    rng = np.random.default_rng(11)
    B3 = rng.standard_normal((3, 4))
    A3 = rng.standard_normal((3, 3))
    Sigma3 = A3 @ A3.T + np.eye(3)
    p = constant_draws(B3, Sigma3)
    diffs = []
    for _ in range(6):
        x = rng.standard_normal(4)
        vals = rng.standard_normal(3)
        cond = cmvpv(p, x, 0, np.array([np.nan, vals[1], vals[2]]))
        uncond = cmvpv(p, x, 0, np.array([np.nan, np.nan, np.nan]))
        diffs.append(uncond - cond)
    np.testing.assert_allclose(diffs, diffs[0], atol=1e-14)


# -- analytic mode ----------------------------------------------------------------


@pytest.fixture(scope="module")
def analytic_setup():
    d, _ = synthesize(SynthSpec(l=220, n=3, q=5,
                                missing_prob=[0.25, 0.15, 0.1]), seed=77)
    return d


def test_analytic_mvpv_flags_equal_ivh_flags(analytic_setup):
    d = analytic_setup
    report = score_locations_analytic(d, measures=("det", "trace"))
    fit_rows = np.flatnonzero(d.mask.any(axis=1))
    hvals = ivh_values(d.X[fit_rows], d.X)
    h_obs = hvals[fit_rows]

    flagged = high_leverage_set(h_obs)
    keep = np.setdiff1d(np.arange(h_obs.size), flagged)
    k_by_name = {
        "max": h_obs.max(),
        "lev": h_obs[keep].max(),
        "q99": np.quantile(h_obs, 0.99),
        "q95": np.quantile(h_obs, 0.95),
    }
    for m in report.measures:
        for c in m.cutoffs:
            ivh_flags = (hvals > k_by_name[c.name]).astype(int)
            np.testing.assert_array_equal(c.e, ivh_flags,
                                          err_msg=f"{m.measure}/{c.name}")


def test_analytic_kernel_is_the_closed_form(analytic_setup):
    # Cov(vec B) = Sigma kron (X_f'X_f)^-1 makes V_i = h_i Sigma, so the
    # trace is h_i tr(Sigma) and the log-determinant n log h_i + log|Sigma|
    d = analytic_setup
    sigma = np.array([[2.0, 0.3, -0.4], [0.3, 0.5, 0.1], [-0.4, 0.1, 1.5]])
    report = score_locations_analytic(d, measures=("trace", "det"), sigma=sigma)
    hvals = ivh_values(d.X[np.flatnonzero(d.mask.any(axis=1))], d.X)
    tr, ld = (m.values for m in report.measures)
    np.testing.assert_allclose(tr, hvals * np.trace(sigma), rtol=1e-13, atol=0)
    np.testing.assert_allclose(ld, 3 * np.log(hvals) + np.log(np.linalg.det(sigma)),
                               rtol=0, atol=1e-12)


def test_analytic_values_increasing_in_leverage(analytic_setup):
    d = analytic_setup
    report = score_locations_analytic(d, measures=("trace", "det"))
    fit_rows = np.flatnonzero(d.mask.any(axis=1))
    hvals = ivh_values(d.X[fit_rows], d.X)
    order = np.argsort(hvals)
    for m in report.measures:
        assert np.all(np.diff(m.values[order]) >= -1e-10)


def test_determinant_scale_equivariance(analytic_setup):
    d = analytic_setup
    d2, _ = synthesize(SynthSpec(l=220, n=3, q=5,
                                 missing_prob=[0.25, 0.15, 0.1]), seed=77)
    d2.Y[:, 1] *= 10.0

    r1 = score_locations_analytic(d, measures=("det", "trace"))
    r2 = score_locations_analytic(d2, measures=("det", "trace"))
    # det scales by exactly 10^2 everywhere
    np.testing.assert_allclose(np.exp(r2.measures[0].values
                                      - r1.measures[0].values),
                               100.0, rtol=1e-8)
    for c1, c2 in zip(r1.measures[0].cutoffs, r2.measures[0].cutoffs):
        np.testing.assert_array_equal(c1.e, c2.e)
        np.testing.assert_allclose(c2.r, c1.r, rtol=1e-8)


def test_analytic_rejects_rank_deficient_complete_rows():
    # the complete rows share one covariate value, so their X'X is singular
    # while the design of all the rows is full rank
    x = np.array([3.0] * 4 + [-1.0, 0.5, 2.0, 4.0, -2.5, 1.5])
    Y = np.column_stack([x, -x]) + 0.1 * np.arange(20).reshape(10, 2)
    mask = np.ones((10, 2), dtype=bool)
    mask[4:, 1] = False
    d = make_dataset(np.column_stack([np.ones(10), x]), Y, mask)
    with pytest.raises(np.linalg.LinAlgError, match="X'X is singular"):
        score_locations_analytic(d)


@pytest.mark.parametrize("measures", [("det", "trace"), ("trace",)])
def test_analytic_needs_q_plus_n_complete_rows(measures):
    # 5 complete rows leave 2 residual degrees of freedom for 3 responses:
    # the OLS Sigma is singular (det failed at the cutoff, trace went on)
    d, _ = synthesize(SynthSpec(l=70, n=3, q=3, missing_prob=0.46875), seed=1616)
    assert np.count_nonzero(d.mask.all(axis=1)) == 5
    with pytest.raises(ValueError, match="too few complete rows to estimate Sigma: 5, need 6"):
        score_locations_analytic(d, measures=measures)


def test_analytic_rejects_cmvpv(analytic_setup):
    with pytest.raises(ValueError, match="analytic mode"):
        score_locations_analytic(analytic_setup, measures=("cmvpv:y1",))


def test_sampled_trace_rank_agrees_with_leverage():
    # 5000 retained draws on Gaussian covariates: the trace measure must
    # reproduce the leverage ordering almost exactly
    import scipy.stats

    d, _ = synthesize(SynthSpec(l=200, n=4, q=6, missing_prob=0.1), seed=88)
    p = gibbs_fit(d, ModelSpec(iterations=3500, burn_in=1000, chains=2,
                               seed=89))
    assert p.n_draws >= 5000
    report = score_locations(p, d, measures=("trace",), cutoffs=("max",))
    hvals = ivh_values(d.X[np.asarray(p.fit_rows)], d.X)
    rho = scipy.stats.spearmanr(report.measures[0].values, hvals).statistic
    assert rho >= 0.95


# -- CSV export ------------------------------------------------------------------


def read_columns(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, {name: list(col) for name, col in zip(header, zip(*rows))}


def floats(cells):
    return np.array([float(c) for c in cells])


@pytest.mark.parametrize("with_coords", [True, False])
def test_scores_round_trip_exactly(tmp_path, with_coords):
    d, _ = synthesize(SynthSpec(l=150, n=3, q=4, missing_prob=[0.6, 0.5, 0.4],
                                with_coords=with_coords), seed=12)
    p = gibbs_fit(d, ModelSpec(iterations=80, burn_in=20, chains=1, seed=4))
    report = score_locations(p, d, measures=("cmvpv:y2", "det", "trace"))
    write_scores_csv(report, tmp_path / "scores.csv")

    header, cols = read_columns(tmp_path / "scores.csv")
    assert header[:4] == ["id", "lon", "lat", "status"]
    assert cols["id"] == report.ids
    assert cols["status"] == report.status == [
        "full" if m.all() else "partial" if m.any() else "missing" for m in d.mask]
    assert set(report.status) == {"full", "partial", "missing"}
    for m in report.measures:
        np.testing.assert_array_equal(floats(cols[measure_column(m.measure)]), m.values)
    primary = report.primary
    for c in primary.cutoffs:
        assert cols[f"k_{c.name}"] == [repr(c.k)] * d.n_rows
        assert [int(v) for v in cols[f"e_{c.name}"]] == c.e.tolist()
        np.testing.assert_array_equal(floats(cols[f"r_{c.name}"]), c.r)
    assert cols["first_flagging_cutoff"] == primary.first_flagging

    if with_coords:
        np.testing.assert_array_equal(floats(cols["lon"]), d.coords[:, 0])
        np.testing.assert_array_equal(floats(cols["lat"]), d.coords[:, 1])
    else:
        assert cols["lon"] == cols["lat"] == [""] * d.n_rows
    assert not list(tmp_path.glob("*.tmp"))
