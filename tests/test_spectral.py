import warnings

import numpy as np
import numpy.testing as npt
import pytest

from covscatter.cli import main
from covscatter.errors import (
    ConfigError,
    DegenerateCovariance,
    InsufficientSamples,
    InvalidData,
    NoConvergence,
    NotSymmetric,
    ShapeError,
)
from covscatter.io import write_data_csv
from covscatter.readout import pca_fit
from covscatter.spectral import (
    INVERTED,
    NORMALIZED,
    DataMatrix,
    SampleCovariance,
    eig_sym,
    sample_covariance,
    wavelet_operator,
)

from conftest import random_spd


def two_pass_covariance(x):
    """Independent oracle: explicit mean pass then outer-product accumulation."""
    n, t = x.shape
    mean = np.zeros(n)
    for col in x.T:
        mean += col
    mean /= t
    cov = np.zeros((n, n))
    for col in x.T:
        d = col - mean
        cov += np.outer(d, d)
    return cov / t


def _eigh_fails(_):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class TestSampleCovariance:
    def test_two_symmetric_points(self):
        cov = sample_covariance(np.array([[1.0, -1.0], [0.0, 0.0]]))
        npt.assert_array_equal(cov.mean, [0.0, 0.0])
        npt.assert_array_equal(cov.matrix, [[1.0, 0.0], [0.0, 0.0]])

    def test_constant_columns_zero_matrix(self):
        x = np.tile(np.array([[2.0], [3.0], [-1.0]]), (1, 7))
        cov = sample_covariance(x)
        npt.assert_array_equal(cov.matrix, np.zeros((3, 3)))

    def test_underflow_to_zero_rejected(self):
        # products of 1e-200 deviations are below the smallest subnormal
        x = np.array([[1e-200, -1e-200, 0.0], [0.0, 2e-200, -2e-200]])
        with pytest.raises(InvalidData, match="at most 2e-200 underflows float64 to zero"):
            sample_covariance(x)
        assert sample_covariance(x * 1e50).matrix.any()

    def test_underflow_to_subnormal_rejected(self):
        # products of 1e-158 deviations are nonzero but subnormal, below the
        # smallest normal float64, so they have lost most of their digits
        x = np.array([[1e-158, -1e-158, 0.0], [0.0, 2e-158, -2e-158]])
        centered = x - x.mean(axis=1)[:, None]
        assert 0.0 < np.abs(centered @ centered.T).max() < np.finfo(np.float64).tiny
        message = "at most 2e-158 underflows float64 to zero or to subnormal values"
        with pytest.raises(InvalidData, match=message):
            sample_covariance(x)
        assert np.abs(sample_covariance(x * 1e8).matrix).max() >= np.finfo(np.float64).tiny

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(7).standard_normal((5, 50))
        cov = sample_covariance(x)
        npt.assert_allclose(cov.matrix, two_pass_covariance(x), atol=1e-12)

    def test_exactly_symmetric(self):
        x = np.random.default_rng(3).standard_normal((6, 30))
        cov = sample_covariance(x)
        npt.assert_array_equal(cov.matrix, cov.matrix.T)

    def test_too_few_samples(self):
        with pytest.raises(InsufficientSamples):
            sample_covariance(np.array([[1.0], [2.0]]))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidData):
            sample_covariance(np.array([[1.0, np.nan], [0.0, 1.0]]))

    @pytest.mark.parametrize(
        "matrix, mean, count, error",
        [
            (np.ones((2, 3)), np.zeros(2), 10, ShapeError),
            (np.eye(2), np.zeros(3), 10, ShapeError),
            (np.eye(2), np.zeros(2), 0, InsufficientSamples),
        ],
        ids=["non-square", "mean-length", "no-samples"],
    )
    def test_invalid_estimate(self, matrix, mean, count, error):
        with pytest.raises(error):
            SampleCovariance(matrix=matrix, mean=mean, sample_count=count)

    def test_consistency_as_samples_double(self):
        # median estimation error must not increase when T quadruples
        true = random_spd(8, 0)
        chol = np.linalg.cholesky(true)
        errors = {t: [] for t in (100, 400, 1600)}
        for seed in range(20):
            draws = chol @ np.random.default_rng(seed).standard_normal((8, 1600))
            for t in errors:
                est = sample_covariance(draws[:, :t])
                errors[t].append(np.linalg.norm(est.matrix - true, 2))
        medians = [np.median(errors[t]) for t in (100, 400, 1600)]
        assert medians[0] >= medians[1] >= medians[2]


class TestEigSym:
    def test_2x2_closed_form(self):
        dec = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        npt.assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1.0 / np.sqrt(2.0)
        npt.assert_allclose(dec.eigenvectors[:, 0], [s, s], atol=1e-12)
        npt.assert_allclose(dec.eigenvectors[:, 1], [s, -s], atol=1e-12)

    def test_identity_canonical_basis(self):
        dec = eig_sym(np.eye(4))
        npt.assert_array_equal(dec.eigenvalues, np.ones(4))
        npt.assert_array_equal(dec.eigenvectors, np.eye(4))

    def test_reconstruction(self):
        m = random_spd(10, 3)
        dec = eig_sym(m)
        recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - m) <= 1e-8 * max(1.0, np.linalg.norm(m))

    def test_eigenpair_residual_and_order(self):
        m = random_spd(12, 9)
        dec = eig_sym(m)
        scale = max(1.0, np.linalg.norm(m))
        for i in range(12):
            resid = m @ dec.eigenvectors[:, i] - dec.eigenvalues[i] * dec.eigenvectors[:, i]
            assert np.linalg.norm(resid) <= 1e-8 * scale
        assert np.all(np.diff(dec.eigenvalues) <= 1e-12)

    def test_orthogonality(self):
        dec = eig_sym(random_spd(15, 4))
        npt.assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(15), atol=1e-8)

    def test_sign_convention(self):
        dec = eig_sym(random_spd(9, 5))
        lead = np.argmax(np.abs(dec.eigenvectors), axis=0)
        assert np.all(dec.eigenvectors[lead, np.arange(9)] > 0)

    def test_involution_on_synthetic_eigensystem(self):
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        w = np.sort(rng.uniform(0.5, 4.0, 8))[::-1]
        m = (q * w) @ q.T
        dec = eig_sym((m + m.T) / 2.0)
        npt.assert_allclose(dec.eigenvalues, w, atol=1e-8)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(ShapeError):
            eig_sym(np.ones((2, 3)))

    @pytest.mark.parametrize("scale", [1.0, 1e160, 1e300])
    def test_symmetry_check_holds_at_any_scale(self, scale):
        # the squares of entries above 1e154 overflow, so the norms are taken scaled
        m = random_spd(4, 3) * scale
        SampleCovariance(m, np.zeros(4), 10)
        eig_sym(m)
        skewed = m.copy()
        skewed[0, 1] *= 1.0 + 1e-6
        with pytest.raises(NotSymmetric):
            SampleCovariance(skewed, np.zeros(4), 10)
        with pytest.raises(NotSymmetric):
            eig_sym(skewed)

    def test_near_float_max_symmetrized_without_overflow(self):
        # the sum a + a.T of these entries overflows float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = eig_sym(np.array([[1e308, 5e307], [5e307, 1e308]]))
        npt.assert_allclose(dec.eigenvalues, [1.5e308, 5e307], rtol=1e-15)
        assert np.all(np.isfinite(dec.eigenvectors))

    def test_eigenvalue_past_float_max_no_convergence(self):
        # finite entries whose largest eigenvalue, 3.4e308, is past float64's range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="non-finite"):
                eig_sym(np.full((2, 2), 1.7e308))

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_symmetric_input_keeps_its_bits(self, scale, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def recording_eigh(a):
            seen.append(a.copy())
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        m = random_spd(6, 8) * scale
        eig_sym(m)
        assert seen[0].tobytes() == m.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_no_convergence(self, bad):
        m = random_spd(5, 1)
        m[1, 3] = m[3, 1] = bad
        with pytest.raises(NoConvergence, match=r"\(1, 3\), \(3, 1\)"):
            eig_sym(m)

    def test_lapack_failure_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", _eigh_fails)
        with pytest.raises(NoConvergence, match="did not converge"):
            eig_sym(random_spd(4, 2))

    def test_lapack_failure_exits_4_without_traceback(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "data.csv"
        write_data_csv(path, DataMatrix(np.random.default_rng(4).standard_normal((4, 20))))

        monkeypatch.setattr(np.linalg, "eigh", _eigh_fails)
        code = main(["pca", "--data", str(path), "--out", str(tmp_path / "o"), "--k", "2"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestWaveletOperator:
    def _identity_cov(self, n=3):
        return SampleCovariance(matrix=np.eye(n), mean=np.zeros(n), sample_count=10)

    @pytest.mark.parametrize("kind, gamma", [("laplacian", 1.0), (NORMALIZED, 0.0)])
    def test_invalid_settings(self, kind, gamma):
        with pytest.raises(ConfigError):
            wavelet_operator(self._identity_cov(), kind, gamma)

    def test_identity_normalized(self):
        op = wavelet_operator(self._identity_cov(), NORMALIZED, 1.0)
        npt.assert_allclose(op.matrix, np.eye(3), atol=1e-12)
        npt.assert_allclose(op.decomposition.eigenvalues, np.ones(3), atol=1e-12)

    def test_identity_inverted(self):
        op = wavelet_operator(self._identity_cov(), INVERTED, 1.0)
        npt.assert_allclose(op.matrix, np.zeros((3, 3)), atol=1e-12)
        npt.assert_allclose(op.decomposition.eigenvalues, np.zeros(3), atol=1e-12)

    def test_diagonal_normalized(self):
        cov = SampleCovariance(np.diag([4.0, 1.0]), np.zeros(2), 10)
        op = wavelet_operator(cov, NORMALIZED, 0.5)
        npt.assert_allclose(op.matrix, np.diag([0.5, 0.125]), atol=1e-12)

    def test_eigenvalues_sum_pairwise_to_gamma(self):
        cov = SampleCovariance(random_spd(7, 2), np.zeros(7), 10)
        gamma = 0.8
        norm_op = wavelet_operator(cov, NORMALIZED, gamma)
        inv_op = wavelet_operator(cov, INVERTED, gamma)
        total = norm_op.decomposition.eigenvalues + inv_op.decomposition.eigenvalues[::-1]
        npt.assert_allclose(total, gamma, atol=1e-10)

    def test_covariance_decomposition_shared(self, eig_calls):
        cov = SampleCovariance(random_spd(6, 8), np.zeros(6), 10)
        norm_op = wavelet_operator(cov, NORMALIZED, 0.7)
        inv_op = wavelet_operator(cov, INVERTED, 0.7)
        pca = pca_fit(cov, 3)
        assert len(eig_calls) == 1
        vectors = cov.decomposition.eigenvectors
        npt.assert_array_equal(norm_op.decomposition.eigenvectors, vectors)
        npt.assert_array_equal(inv_op.decomposition.eigenvectors, vectors[:, ::-1])
        npt.assert_array_equal(pca.components, vectors[:, :3])
        assert not vectors.flags.writeable

    def test_degenerate(self):
        cov = SampleCovariance(np.zeros((3, 3)), np.zeros(3), 10)
        with pytest.raises(DegenerateCovariance):
            wavelet_operator(cov, NORMALIZED, 1.0)

    def test_spectrum_in_domain(self):
        cov = SampleCovariance(random_spd(9, 13), np.zeros(9), 10)
        for kind in (NORMALIZED, INVERTED):
            op = wavelet_operator(cov, kind, 0.9)
            lam = op.decomposition.eigenvalues
            assert np.all(lam >= 0.0) and np.all(lam <= 0.9 + 1e-10)


class TestDataMatrix:
    def test_rejects_single_feature(self):
        with pytest.raises(InvalidData):
            DataMatrix(np.ones((1, 5)))

    def test_immutable(self):
        dm = DataMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 2.0

    def test_rejects_three_dimensions(self):
        with pytest.raises(InvalidData, match="2-D"):
            DataMatrix(np.ones((2, 3, 2)))

    def test_feature_name_count(self):
        with pytest.raises(InvalidData):
            DataMatrix(np.ones((2, 3)), feature_names=["a"])
