import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covscatter.errors import InvalidK, ShapeError, SingularSystem
from covscatter.readout import (
    mae,
    mse,
    pca_fit,
    pca_fit_transform,
    pca_transform,
    ridge_fit,
)
from covscatter.spectral import SampleCovariance, eig_sym, sample_covariance

from conftest import random_spd


def ridge_gradient_descent(z, y, alpha, tol=1e-10):
    """Oracle: minimize |Zc^T w - yc|^2 + alpha |w|^2 by plain gradient descent."""
    zc = z - z.mean(axis=1)[:, None]
    yc = y - y.mean()
    gram = zc @ zc.T
    step = 1.0 / (2.0 * (np.linalg.eigvalsh(gram).max() + alpha))
    w = np.zeros(z.shape[0])
    for _ in range(200000):
        grad = 2.0 * (gram @ w - zc @ yc) + 2.0 * alpha * w
        if np.linalg.norm(grad) <= tol:
            break
        w = w - step * grad
    return w, y.mean() - w @ z.mean(axis=1)


class TestPca:
    def test_axis_aligned_projection(self):
        cov = SampleCovariance(np.diag([4.0, 1.0]), np.array([0.0, 5.0]), 10)
        out = pca_transform(pca_fit(cov, 1), np.array([2.0, 5.0]))
        npt.assert_allclose(out, [2.0], atol=1e-12)

    def test_full_rank_is_isometry(self, rng):
        x = rng.standard_normal((6, 40))
        cov = sample_covariance(x)
        model = pca_fit(cov, 6)
        projected = pca_transform(model, x)
        centered = x - cov.mean[:, None]
        npt.assert_allclose(
            np.linalg.norm(projected, axis=0), np.linalg.norm(centered, axis=0), atol=1e-10
        )

    def test_projection_variance_equals_eigenvalues(self, rng):
        x = rng.standard_normal((6, 40))
        cov = sample_covariance(x)
        projected = pca_fit_transform(cov, 3, x)
        variances = np.mean(projected**2, axis=1)
        expected = eig_sym(cov.matrix).eigenvalues[:3]
        npt.assert_allclose(variances, expected, atol=1e-8)

    def test_invalid_k(self):
        cov = SampleCovariance(np.eye(4), np.zeros(4), 10)
        with pytest.raises(InvalidK):
            pca_fit(cov, 0)
        with pytest.raises(InvalidK):
            pca_fit(cov, 5)

    def test_instability_grows_as_gap_shrinks(self):
        # median projector distance between true and sample subspaces must
        # increase across three shrinking eigengap levels
        n, k, t = 10, 3, 200
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        medians = []
        for gap in (1.0, 0.3, 0.05):
            w = np.concatenate([[3.0, 2.5, 2.0 + gap], np.full(n - k, 2.0 - gap / 2)])
            true_cov = (q * w) @ q.T
            vk = eig_sym((true_cov + true_cov.T) / 2.0).eigenvectors[:, :k]
            chol = np.linalg.cholesky(true_cov + 1e-12 * np.eye(n))
            errs = []
            for seed in range(20):
                draws = chol @ np.random.default_rng(100 + seed).standard_normal((n, t))
                vk_hat = eig_sym(sample_covariance(draws).matrix).eigenvectors[:, :k]
                errs.append(np.linalg.norm(vk @ vk.T - vk_hat @ vk_hat.T, 2))
            medians.append(np.median(errs))
        assert medians[0] < medians[1] < medians[2]


class TestRidge:
    def test_heavy_regularization_shrinks_weights(self, rng):
        z = rng.standard_normal((4, 60))
        y = rng.standard_normal(60)
        model = ridge_fit(z, y, 1e9)
        assert np.linalg.norm(model.weights) <= 1e-6 * np.linalg.norm(z) * np.linalg.norm(y)

    def test_exact_line(self):
        z = np.array([[0.0, 1.0, 2.0, 3.0]])
        model = ridge_fit(z, 3.0 * z[0], 0.0)
        assert model.weights[0] == pytest.approx(3.0, abs=1e-12)
        assert model.intercept == pytest.approx(0.0, abs=1e-12)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((5, 50))
        y = rng.standard_normal(50)
        model = ridge_fit(z, y, 1.0)
        w_oracle, b_oracle = ridge_gradient_descent(z, y, 1.0)
        npt.assert_allclose(model.weights, w_oracle, atol=1e-6)
        assert model.intercept == pytest.approx(b_oracle, abs=1e-6)

    def test_affine_equivariance_in_targets(self, rng):
        z = rng.standard_normal((4, 30))
        y = rng.standard_normal(30)
        base = ridge_fit(z, y, 2.0)
        scaled = ridge_fit(z, 2.5 * y - 1.75, 2.0)
        npt.assert_allclose(scaled.weights, 2.5 * base.weights, atol=1e-10)
        assert scaled.intercept == pytest.approx(2.5 * base.intercept - 1.75, abs=1e-10)

    def test_singular_without_regularization(self):
        z = np.vstack([np.arange(5.0), np.arange(5.0)])  # duplicated feature
        with pytest.raises(SingularSystem):
            ridge_fit(z, np.arange(5.0), 0.0)

    def test_dual_solve_matches_primal(self, rng):
        # d > t takes the dual path; check it against the primal normal equations
        z = rng.standard_normal((40, 8))
        y = rng.standard_normal(8)
        dual = ridge_fit(z, y, 3.0)
        zc = z - z.mean(axis=1)[:, None]
        weights = np.linalg.solve(zc @ zc.T + 3.0 * np.eye(40), zc @ (y - y.mean()))
        npt.assert_allclose(dual.weights, weights, atol=1e-8)
        assert dual.intercept == pytest.approx(y.mean() - weights @ z.mean(axis=1), abs=1e-8)

    def test_predict_shape_check(self, rng):
        model = ridge_fit(rng.standard_normal((3, 20)), rng.standard_normal(20), 1.0)
        with pytest.raises(ShapeError):
            model.predict(np.ones((4, 5)))


class TestMetrics:
    def test_identical_inputs(self):
        x = np.arange(5.0)
        assert mae(x, x) == 0.0
        assert mse(x, x) == 0.0

    def test_unit_errors(self):
        assert mae(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert mse(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    @given(st.floats(-1e3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_constant_offset(self, c):
        x = np.linspace(-1.0, 1.0, 7)
        assert mae(x + c, x) == pytest.approx(abs(c), rel=1e-12, abs=1e-12)
        assert mse(x + c, x) == pytest.approx(c * c, rel=1e-9, abs=1e-12)

    def test_matrix_inputs(self):
        a = np.zeros((3, 4))
        b = np.full((3, 4), 2.0)
        assert mse(a, b) == 4.0

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.ones(3), np.ones(4))
