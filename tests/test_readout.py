import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covscatter.errors import ConfigError, InvalidData, InvalidK, ShapeError, SingularSystem
from covscatter.readout import mae, pca_fit, pca_transform, ridge_path
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
        out = pca_transform(pca_fit(cov, 1), np.array([[2.0], [5.0]]))
        npt.assert_allclose(out, [[2.0]], atol=1e-12)

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

    def test_transform_checks_the_row_count(self):
        model = pca_fit(SampleCovariance(np.eye(4), np.zeros(4), 10), 2)
        with pytest.raises(ShapeError, match="expected 4 rows"):
            pca_transform(model, np.ones((3, 5)))

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


def ridge_per_alpha(x, y, alpha):
    """Reference: centre, form and factor the normal equations afresh for one alpha."""
    t, d = x.shape
    x_bar = x.mean(axis=0)
    y_bar = float(y.mean())
    xc = x - x_bar
    yc = y - y_bar
    if d <= t:
        weights = np.linalg.solve(xc.T @ xc + alpha * np.eye(d), xc.T @ yc)
    else:
        weights = xc.T @ np.linalg.solve(xc @ xc.T + alpha * np.eye(t), yc)
    return weights, y_bar - float(weights @ x_bar)


class Passes:
    """Re-iterable blocks: the first iteration yields ``first``, every later one ``later``."""

    def __init__(self, first, later):
        self.first, self.later = first, later
        self.count = 0

    def __iter__(self):
        self.count += 1
        return iter(self.first if self.count == 1 else self.later)


@st.composite
def blocked_matrices(draw):
    """(t, D, column cuts, seed), with D on both sides of t."""
    t = draw(st.integers(2, 8))
    d = draw(st.integers(1, 2 * t + 2))
    cuts = draw(st.sets(st.integers(1, d - 1), max_size=4)) if d > 1 else set()
    return t, d, sorted(cuts), draw(st.integers(0, 2**32 - 1))


def assert_close(got, want, rel=1e-12):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestRidge:
    def test_heavy_regularization_shrinks_weights(self, rng):
        x = rng.standard_normal((60, 4))
        y = rng.standard_normal(60)
        weights = ridge_path([x], y, [1e9]).weights[0]
        assert np.linalg.norm(weights) <= 1e-6 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_exact_line(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        path = ridge_path([x], 3.0 * x[:, 0], [0.0])
        assert path.weights[0, 0] == pytest.approx(3.0, abs=1e-12)
        assert path.intercepts[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((5, 50))
        y = rng.standard_normal(50)
        path = ridge_path([z.T], y, [1.0])
        w_oracle, b_oracle = ridge_gradient_descent(z, y, 1.0)
        npt.assert_allclose(path.weights[0], w_oracle, atol=1e-6)
        assert path.intercepts[0] == pytest.approx(b_oracle, abs=1e-6)

    def test_affine_equivariance_in_targets(self, rng):
        x = rng.standard_normal((30, 4))
        y = rng.standard_normal(30)
        base = ridge_path([x], y, [2.0])
        scaled = ridge_path([x], 2.5 * y - 1.75, [2.0])
        npt.assert_allclose(scaled.weights, 2.5 * base.weights, atol=1e-10)
        assert scaled.intercepts[0] == pytest.approx(2.5 * base.intercepts[0] - 1.75, abs=1e-10)

    def test_singular_without_regularization(self):
        x = np.vstack([np.arange(5.0), np.arange(5.0)]).T  # duplicated feature
        with pytest.raises(SingularSystem, match="use a positive alpha_R"):
            ridge_path([x], np.arange(5.0), [0.0])
        # one singular alpha in a grid fails the whole path
        with pytest.raises(SingularSystem):
            ridge_path([x], np.arange(5.0), [1.0, 0.0])

    def test_singular_at_a_positive_alpha_names_the_scale(self):
        # a duplicated feature whose Gram entries are 2**1002: adding 1 to them
        # changes no bit, so the system is exactly singular at alpha 1
        column = np.array([0.0, 0.0, 2.0**501, 2.0**501])
        with pytest.raises(SingularSystem) as excinfo:
            ridge_path([np.stack([column, column], axis=1)], np.arange(4.0), [1.0])
        message = str(excinfo.value)
        assert "alpha_R 1," in message and f"scale of {2.0**1002:.3g}" in message
        assert "use a positive alpha_R" not in message

    def test_singular_solve_after_a_passing_factor(self, rng, monkeypatch):
        # rounding can leave a near-singular system a positive Cholesky factor
        # and an LU solve a zero pivot; both are one SingularSystem
        def singular(system, rhs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SingularSystem, match="alpha_R 1, which regularizes nothing"):
            ridge_path([rng.standard_normal((30, 4))], rng.standard_normal(30), [1.0])

    def test_dual_solve_matches_primal(self, rng):
        # D > t takes the dual path; check it against the primal normal equations
        x = rng.standard_normal((8, 40))
        y = rng.standard_normal(8)
        dual = ridge_path([x], y, [3.0])
        xc = x - x.mean(axis=0)
        weights = np.linalg.solve(xc.T @ xc + 3.0 * np.eye(40), xc.T @ (y - y.mean()))
        npt.assert_allclose(dual.weights[0], weights, atol=1e-8)
        assert dual.intercepts[0] == pytest.approx(y.mean() - weights @ x.mean(axis=0), abs=1e-8)

    @pytest.mark.parametrize("shape", [(40, 6), (8, 40)], ids=["primal", "dual"])
    def test_path_is_bit_equal_to_single_fits(self, rng, shape):
        x = rng.standard_normal(shape)
        y = rng.standard_normal(shape[0])
        alphas = [0.5, 3.0, 100.0]
        path = ridge_path([x], y, alphas)
        assert path.weights.shape == (len(alphas), shape[1])
        for i, alpha in enumerate(alphas):
            single = ridge_path([x], y, [alpha])
            weights, intercept = ridge_per_alpha(x, y, alpha)
            assert np.array_equal(path.weights[i], single.weights[0])
            assert np.array_equal(path.weights[i], weights)
            assert path.intercepts[i] == single.intercepts[0] == intercept

    @given(blocked_matrices())
    # three features kept, then the second block passes t and starts the kernel
    @example((5, 9, [3, 7], 0))
    @settings(max_examples=25, deadline=None)
    def test_blocked_fit_equals_one_block(self, drawn):
        t, d, cuts, seed = drawn
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((t, d))
        y = rng.standard_normal(t)
        new = rng.standard_normal((3, d))
        alphas = [0.5, 3.0]
        blocks = np.split(x, cuts, axis=1)
        one = ridge_path([x], y, alphas)
        blocked = ridge_path(blocks, y, alphas)
        assert_close(blocked.weights, one.weights)
        assert_close(blocked.intercepts, one.intercepts)
        assert_close(blocked.predict(np.split(new, cuts, axis=1)), one.predict([new]))
        if d > t:
            # the weights come from a second iteration, which must repeat the first
            for later in (blocks[:-1], [np.hstack([b, b[:, :1]]) for b in blocks]):
                with pytest.raises(ShapeError):
                    ridge_path(Passes(blocks, later), y, alphas)

    @pytest.mark.parametrize("alphas", [[-1.0], [1.0, -0.5], [1.0, 10.0, -1e-12]])
    def test_path_rejects_any_negative_alpha(self, rng, alphas):
        with pytest.raises(ConfigError):
            ridge_path([rng.standard_normal((20, 3))], rng.standard_normal(20), alphas)

    def test_predict_shape_check(self, rng):
        path = ridge_path([rng.standard_normal((20, 3))], rng.standard_normal(20), [1.0])
        assert path.predict([np.ones((5, 1)), np.ones((5, 2))]).shape == (1, 5)
        bad = ([np.ones((5, 4))], [np.ones((5, 2))], [], [np.ones((5, 2)), np.ones((4, 1))])
        for blocks in bad:
            with pytest.raises(ShapeError):
                path.predict(blocks)


class TestDualRidgePredict:
    # ridge_path's dual on streamed blocks: every case has more features than
    # train samples, 13 paths of 12 features for 20 samples, 13 path means
    # for 8, and the root's 12 features for 8
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
        z_train = cst_transform_batch(model, x[:, :n_train], layout=layout)
        z_valid = cst_transform_batch(model, x[:, n_train:], layout=layout)
        assert z_train.shape[1] > n_train
        width = model.feature_width
        cuts = range(width, z_train.shape[1], width)
        alphas = [0.5, 3.0, 100.0]
        streamed = ridge_path(np.split(z_train, cuts, axis=1), y, alphas)
        prediction = streamed.predict(np.split(z_valid, cuts, axis=1))
        assert prediction.shape == (len(alphas), z_valid.shape[0])
        assert_close(prediction, ridge_path([z_train], y, alphas).predict([z_valid]))

    def test_checks(self, rng):
        # 12 features for 10 train rows: the dual
        blocks = [rng.standard_normal((10, 3)) for _ in range(4)]
        y = rng.standard_normal(10)
        for alphas in ([1.0, -0.5], [np.inf]):
            with pytest.raises(ConfigError):
                ridge_path(blocks, y, alphas)
        with pytest.raises(InvalidData):
            ridge_path(blocks, np.r_[y[:-1], np.nan], [1.0])
        with pytest.raises(ShapeError, match="targets must be a vector"):
            ridge_path(blocks, y[:, None], [1.0])
        with pytest.raises(InvalidData, match="need at least one sample"):
            ridge_path([np.ones((0, 3))], np.ones(0), [1.0])
        # every train block is checked
        with pytest.raises(InvalidData):
            ridge_path([*blocks[:3], np.full((10, 3), np.inf)], y, [1.0])
        for bad in ([*blocks[:3], blocks[3][:9]], [], [np.ones(10)]):
            with pytest.raises(ShapeError):
                ridge_path(bad, y, [1.0])
        # the second iteration must repeat the first
        for later in (blocks[:3], [*blocks, blocks[0]], [b[:, :2] for b in blocks]):
            with pytest.raises(ShapeError):
                ridge_path(Passes(blocks, later), y, [1.0])

    def test_singular_without_regularization(self):
        # four features for two train rows: a centred kernel of rank one, exact in floats
        block = np.array([[0.0, 0.0, 0.0, 0.0], [2.0, 2.0, 2.0, 2.0]])
        y = np.array([0.0, 1.0])
        assert ridge_path([block], y, [1.0]).predict([np.ones((1, 4))]).shape == (1, 1)
        with pytest.raises(SingularSystem, match="use a positive alpha_R"):
            ridge_path([block], y, [1.0, 0.0])


class TestMetrics:
    def test_identical_inputs(self):
        x = np.arange(5.0)
        assert mae(x, x) == 0.0

    def test_unit_errors(self):
        assert mae(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    @given(st.floats(-1e3, 1e3))
    @settings(max_examples=100, deadline=None)
    def test_constant_offset(self, c):
        x = np.linspace(-1.0, 1.0, 7)
        assert mae(x + c, x) == pytest.approx(abs(c), rel=1e-12, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mae(np.ones(3), np.ones(4))
