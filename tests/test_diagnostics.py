import ast
from pathlib import Path

import numpy as np
import pytest

import extrapolmv
from extrapolmv.diagnostics import (
    cooks_distance,
    hat_diagonal,
    high_leverage_set,
    ivh_contains,
    ivh_value,
    ivh_values,
    leverage_from_mahalanobis,
    mahalanobis_sq,
)

THREE_POINT = np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]])


def random_design(rng, l, q):
    return np.column_stack([np.ones(l), rng.standard_normal((l, q - 1))])


def dense_hat(X):
    return X @ np.linalg.inv(X.T @ X) @ X.T


# -- hat_diagonal -------------------------------------------------------------


def test_square_design_has_unit_leverage():
    rng = np.random.default_rng(0)
    X = np.column_stack([np.ones(3), rng.standard_normal((3, 2))])
    np.testing.assert_allclose(hat_diagonal(X), np.ones(3), atol=1e-10)


def test_three_point_leverages():
    np.testing.assert_allclose(hat_diagonal(THREE_POINT),
                               [5 / 6, 1 / 3, 5 / 6], rtol=1e-14)
    np.testing.assert_allclose(np.diag(dense_hat(THREE_POINT)),
                               [5 / 6, 1 / 3, 5 / 6], rtol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_trace_identity_and_bounds(seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(20, 200))
    q = int(rng.integers(2, 10))
    X = random_design(rng, l, q)
    h = hat_diagonal(X)
    assert abs(h.sum() - q) < 1e-8
    assert np.all(h >= 1.0 / l - 1e-12)
    assert np.all(h <= 1.0)


@pytest.mark.parametrize("seed", range(3))
def test_dense_hat_symmetric_idempotent(seed):
    rng = np.random.default_rng(100 + seed)
    X = random_design(rng, 25, 4)
    H = dense_hat(X)
    np.testing.assert_allclose(H, H.T, atol=1e-10)
    np.testing.assert_allclose(H @ H, H, atol=1e-10)
    np.testing.assert_allclose(hat_diagonal(X), np.diag(H), atol=1e-10)


def test_singular_design_raises():
    X = np.column_stack([np.ones(5), np.full(5, 2.0)])
    with pytest.raises(np.linalg.LinAlgError):
        hat_diagonal(X)


# -- ivh ----------------------------------------------------------------------


def test_ivh_value_on_observed_row_is_leverage():
    rng = np.random.default_rng(1)
    X = random_design(rng, 30, 4)
    h = hat_diagonal(X)
    for i in (0, 7, 29):
        assert ivh_value(X, X[i]) == pytest.approx(h[i], rel=1e-12)


def test_ivh_value_at_column_means_is_one_over_l():
    rng = np.random.default_rng(2)
    X = random_design(rng, 40, 5)
    xbar = X.mean(axis=0)
    assert ivh_value(X, xbar) == pytest.approx(1 / 40, rel=1e-10)
    # dense oracle
    assert xbar @ np.linalg.inv(X.T @ X) @ xbar == pytest.approx(1 / 40, rel=1e-10)


def test_scaling_away_from_center_increases_value():
    rng = np.random.default_rng(3)
    X = random_design(rng, 50, 4)
    X[:, 1:] -= X[:, 1:].mean(axis=0)  # centered covariates
    x0 = X[4].copy()
    x_far = x0.copy()
    x_far[1:] *= 10.0
    assert ivh_value(X, x_far) > ivh_value(X, x0)


def test_ivh_contains_observed_rows():
    rng = np.random.default_rng(4)
    X = random_design(rng, 30, 4)
    assert all(ivh_contains(X, X[i]) for i in range(30))


def test_ivh_contains_boundary_at_argmax_row():
    rng = np.random.default_rng(5)
    X = random_design(rng, 30, 4)
    i = int(np.argmax(hat_diagonal(X)))
    assert ivh_contains(X, X[i])


def test_ivh_contains_boundary_when_leverage_clamped():
    # seed picked so a design row's leverage rounds a hair above 1:
    # the clamp must keep that row inside its own hull
    for seed in (27, 123, 212):
        rng = np.random.default_rng(seed)
        l = int(rng.integers(5, 120))
        q = int(rng.integers(2, 9))
        l = max(l, q)
        X = np.column_stack([np.ones(l),
                             rng.standard_normal((l, q - 1))
                             * rng.uniform(0.1, 20)])
        for i in range(l):
            assert ivh_contains(X, X[i])


def test_ivh_excludes_far_point():
    rng = np.random.default_rng(6)
    X = random_design(rng, 30, 4)
    x0 = np.concatenate([[1.0], 100.0 * np.abs(X[:, 1:]).max(axis=0)])
    assert not ivh_contains(X, x0)


def test_ivh_invariant_to_reparameterization():
    rng = np.random.default_rng(7)
    X = random_design(rng, 40, 4)
    A = rng.standard_normal((3, 3)) + 2 * np.eye(3)
    M = np.eye(4)
    M[1:, 1:] = A
    for x0 in (X[3], np.array([1.0, 4.0, -2.0, 0.5])):
        v = ivh_value(X, x0)
        v2 = ivh_value(X @ M, x0 @ M)
        assert v2 == pytest.approx(v, rel=1e-8)
        assert ivh_contains(X, x0) == ivh_contains(X @ M, x0 @ M)


def test_ivh_value_dimension_mismatch():
    with pytest.raises(ValueError, match="entries"):
        ivh_value(THREE_POINT, np.array([1.0, 2.0, 3.0]))


def test_ivh_values_needs_a_matrix_of_candidates():
    with pytest.raises(ValueError, match="candidate rows must be a matrix"):
        ivh_values(THREE_POINT, np.array([1.0, 2.0]))


def test_ivh_values_matches_scalar():
    rng = np.random.default_rng(8)
    X = random_design(rng, 25, 3)
    X0 = random_design(rng, 10, 3)
    batched = ivh_values(X, X0)
    singles = [ivh_value(X, x) for x in X0]
    np.testing.assert_allclose(batched, singles, rtol=1e-13)


# -- mahalanobis --------------------------------------------------------------


def test_mahalanobis_zero_at_center():
    S = np.array([[2.0, 0.3], [0.3, 1.0]])
    x = np.array([1.5, -0.5])
    assert mahalanobis_sq(x, x, S) == 0.0


def test_mahalanobis_identity_is_euclidean():
    x = np.array([3.0, 4.0])
    assert mahalanobis_sq(x, np.zeros(2), np.eye(2)) == pytest.approx(25.0)


def test_mahalanobis_three_point():
    xs = np.array([[-1.0], [0.0], [1.0]])
    S = np.cov(xs.T).reshape(1, 1)  # sample variance 1
    assert mahalanobis_sq([-1.0], [0.0], S) == pytest.approx(1.0)


def test_mahalanobis_singular_covariance():
    with pytest.raises(np.linalg.LinAlgError):
        mahalanobis_sq([1.0, 2.0], [0.0, 0.0], np.ones((2, 2)))


# -- leverage identity --------------------------------------------------------


def test_leverage_from_mahalanobis_trivial():
    assert leverage_from_mahalanobis(0.0, 10) == pytest.approx(0.1)


def test_leverage_from_mahalanobis_three_point():
    # cross-module identity on the 3-point design
    assert leverage_from_mahalanobis(1.0, 3) == pytest.approx(5 / 6)
    assert leverage_from_mahalanobis(1.0, 3) == pytest.approx(
        hat_diagonal(THREE_POINT)[0])


@pytest.mark.parametrize("seed", range(4))
def test_leverage_mahalanobis_identity_all_rows(seed):
    rng = np.random.default_rng(200 + seed)
    l = int(rng.integers(15, 120))
    q = int(rng.integers(2, 7))
    X = random_design(rng, l, q)
    h = hat_diagonal(X)
    C = X[:, 1:]
    xbar = C.mean(axis=0)
    S = np.cov(C.T).reshape(q - 1, q - 1)
    for i in range(l):
        md2 = mahalanobis_sq(C[i], xbar, S)
        assert leverage_from_mahalanobis(md2, l) == pytest.approx(h[i], abs=1e-10)


def test_leverage_from_mahalanobis_requires_two_rows():
    with pytest.raises(ValueError):
        leverage_from_mahalanobis(1.0, 1)


# -- cook's distance ----------------------------------------------------------


def test_cooks_zero_for_exact_fit():
    rng = np.random.default_rng(9)
    X = random_design(rng, 20, 3)
    y = X @ np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(cooks_distance(X, y), np.zeros(20), atol=1e-18)


def deletion_cooks(X, y):
    l, q = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    r = y - X @ beta
    s2 = r @ r / (l - q)
    D = np.empty(l)
    for i in range(l):
        keep = np.arange(l) != i
        beta_i = np.linalg.lstsq(X[keep], y[keep], rcond=None)[0]
        diff = beta_i - beta
        D[i] = diff @ (X.T @ X) @ diff / (q * s2)
    return D


@pytest.mark.parametrize("seed", range(5))
def test_cooks_matches_deletion_form(seed):
    rng = np.random.default_rng(300 + seed)
    l = int(rng.integers(15, 60))
    q = int(rng.integers(2, 6))
    X = random_design(rng, l, q)
    y = X @ rng.standard_normal(q) + rng.standard_normal(l)
    np.testing.assert_allclose(cooks_distance(X, y), deletion_cooks(X, y),
                               rtol=1e-8, atol=1e-12)


def test_cooks_invariant_to_response_scaling():
    rng = np.random.default_rng(10)
    X = random_design(rng, 30, 3)
    y = X @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(30)
    np.testing.assert_allclose(cooks_distance(X, 2 * y), cooks_distance(X, y),
                               rtol=1e-12)


def test_cooks_requires_residual_dof():
    X = THREE_POINT
    with pytest.raises(ValueError):
        cooks_distance(X[:2], np.array([1.0, 2.0]))


# -- high-leverage rule --------------------------------------------------------


def test_balanced_design_flags_nothing():
    h = np.full(12, 3 / 12)  # all leverages equal q/l
    assert high_leverage_set(h).size == 0


def test_planted_extreme_row_is_flagged():
    from extrapolmv.dataset import SynthSpec, synthesize
    d, _ = synthesize(SynthSpec(l=150, n=2, q=4, planted_high_leverage=1),
                      seed=21)
    h = hat_diagonal(d.X)
    assert 149 in high_leverage_set(h)
    assert h.sum() == pytest.approx(4.0, abs=1e-8)


def test_empty_leverage_vector_rejected():
    with pytest.raises(ValueError):
        high_leverage_set(np.array([]))


# -- scipy stays with the sweep -------------------------------------------------


def test_only_the_sampler_imports_a_scipy_submodule():
    # leverage, Cook's distance and the analytic path are numpy only;
    # cli.py imports the bare package for the version its manifests record
    submodule, bare = set(), set()
    for path in Path(extrapolmv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            submodule.update(path.name for name in names if name.startswith("scipy."))
            bare.update(path.name for name in names if name == "scipy")
    assert submodule == {"sampler.py"}
    assert bare == {"cli.py"}
