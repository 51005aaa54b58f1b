import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covscatter.errors import ConfigError, InvalidData, InvalidK, ShapeError, SingularSystem
from covscatter.readout import (
    dual_ridge_predict,
    mae,
    mse,
    pca_fit,
    pca_transform,
    ridge_fit,
    ridge_path,
)
from covscatter.scattering import CstConfig, cst_fit, cst_transform_batch, decide_layout
from covscatter.spectral import SampleCovariance, eig_sym, sample_covariance
from covscatter.wavelets import Diffusion

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
        projected = pca_transform(pca_fit(cov, 3), x)
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


def ridge_per_alpha(z, y, alpha):
    """Reference: centre, form and factor the normal equations afresh for one alpha."""
    d, t = z.shape
    z_bar = z.mean(axis=1)
    y_bar = float(y.mean())
    zc = z - z_bar[:, None]
    yc = y - y_bar
    if d <= t:
        weights = np.linalg.solve(zc @ zc.T + alpha * np.eye(d), zc @ yc)
    else:
        weights = zc @ np.linalg.solve(zc.T @ zc + alpha * np.eye(t), yc)
    return weights, y_bar - float(weights @ z_bar)


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
        # one singular alpha in a grid fails the whole path
        with pytest.raises(SingularSystem):
            ridge_path(z, np.arange(5.0), [1.0, 0.0])

    def test_dual_solve_matches_primal(self, rng):
        # d > t takes the dual path; check it against the primal normal equations
        z = rng.standard_normal((40, 8))
        y = rng.standard_normal(8)
        dual = ridge_fit(z, y, 3.0)
        zc = z - z.mean(axis=1)[:, None]
        weights = np.linalg.solve(zc @ zc.T + 3.0 * np.eye(40), zc @ (y - y.mean()))
        npt.assert_allclose(dual.weights, weights, atol=1e-8)
        assert dual.intercept == pytest.approx(y.mean() - weights @ z.mean(axis=1), abs=1e-8)

    @pytest.mark.parametrize("shape", [(6, 40), (40, 8)], ids=["primal", "dual"])
    def test_path_is_bit_equal_to_single_fits(self, rng, shape):
        z = rng.standard_normal(shape)
        y = rng.standard_normal(shape[1])
        alphas = [0.5, 3.0, 100.0]
        path = ridge_path(z, y, alphas)
        assert [m.alpha for m in path] == alphas
        for model, alpha in zip(path, alphas):
            single = ridge_fit(z, y, alpha)
            weights, intercept = ridge_per_alpha(z, y, alpha)
            assert np.array_equal(model.weights, single.weights)
            assert np.array_equal(model.weights, weights)
            assert model.intercept == single.intercept == intercept

    @pytest.mark.parametrize("alphas", [[-1.0], [1.0, -0.5], [1.0, 10.0, -1e-12]])
    def test_path_rejects_any_negative_alpha(self, rng, alphas):
        with pytest.raises(ConfigError):
            ridge_path(rng.standard_normal((3, 20)), rng.standard_normal(20), alphas)

    def test_predict_shape_check(self, rng):
        model = ridge_fit(rng.standard_normal((3, 20)), rng.standard_normal(20), 1.0)
        with pytest.raises(ShapeError):
            model.predict(np.ones((4, 5)))


class TestDualRidgePredict:
    # every case has more features than train samples: 13 paths of 12 features
    # for 20 samples, 13 path means for 8, and the root's 12 features for 8
    CASES = {
        "identity": ("identity", None, 20),
        "mean": ("mean", None, 8),
        "one-path": ("identity", ((),), 8),
    }

    @pytest.mark.parametrize("aggregation, layout, n_train", CASES.values(), ids=CASES.keys())
    def test_equals_ridge_path_on_materialized_blocks(self, rng, aggregation, layout, n_train):
        x = rng.standard_normal((12, 100))
        y = rng.standard_normal(n_train)
        config = CstConfig(family=Diffusion(), J=3, L=3, aggregation=aggregation)
        model = cst_fit(sample_covariance(x), config)
        layout = layout or decide_layout(model, x).paths
        z_train = cst_transform_batch(model, x[:, :n_train], layout=layout).T
        z_valid = cst_transform_batch(model, x[:, n_train:], layout=layout).T
        assert z_train.shape[0] > n_train
        width = model.feature_width
        cuts = range(0, z_train.shape[0], width)
        train_blocks = [z_train[i : i + width].T for i in cuts]
        joint_blocks = [np.vstack([z_train[i : i + width].T, z_valid[i : i + width].T]) for i in cuts]
        alphas = [0.5, 3.0, 100.0]
        streamed = dual_ridge_predict(train_blocks, joint_blocks, y, alphas)
        assert streamed.shape == (len(alphas), z_valid.shape[1])
        for prediction, ridge in zip(streamed, ridge_path(z_train, y, alphas)):
            expected = ridge.predict(z_valid)
            assert np.abs(prediction - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_checks(self, rng):
        blocks = [rng.standard_normal((10, 3)) for _ in range(4)]
        joint = [np.vstack([b, rng.standard_normal((5, 3))]) for b in blocks]
        y = rng.standard_normal(10)
        # shared with ridge_path: alphas in [0, inf) and finite targets
        for alphas in ([1.0, -0.5], [np.inf]):
            with pytest.raises(ConfigError):
                dual_ridge_predict(blocks, joint, y, alphas)
        with pytest.raises(InvalidData):
            dual_ridge_predict(blocks, joint, np.r_[y[:-1], np.nan], [1.0])
        # every train block is checked
        with pytest.raises(InvalidData):
            dual_ridge_predict([*blocks[:3], np.full((10, 3), np.inf)], joint, y, [1.0])
        with pytest.raises(ShapeError):
            dual_ridge_predict([*blocks[:3], blocks[3][:9]], joint, y, [1.0])
        # the second pass must repeat the first
        for mismatched in (joint[:3], [*joint, joint[0]], [j[:, :2] for j in joint]):
            with pytest.raises(ShapeError):
                dual_ridge_predict(blocks, mismatched, y, [1.0])

    def test_singular_without_regularization(self):
        # one block of width 1 for 4 train rows: a rank-one kernel, exact in floats
        block = np.arange(4.0)[:, None]
        joint = np.vstack([block, [[4.0]]])
        y = np.arange(4.0)
        assert dual_ridge_predict([block], [joint], y, [1.0]).shape == (1, 1)
        with pytest.raises(SingularSystem):
            dual_ridge_predict([block], [joint], y, [1.0, 0.0])


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
