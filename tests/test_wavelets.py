import numpy as np
import numpy.testing as npt
import pytest

from covscatter.errors import (
    ConfigError,
    DegenerateSpectrum,
    DomainError,
    InvalidScaleCount,
    ShapeError,
)
from covscatter.spectral import (
    INVERTED,
    NORMALIZED,
    SampleCovariance,
    SpectralDecomposition,
    WaveletOperator,
    wavelet_operator,
)
from covscatter import wavelets
from covscatter.wavelets import (
    Diffusion,
    Hann,
    Monic,
    build_filterbank,
    diffusion_apply,
    kernel_eval,
    localization_profile,
    wavelet_matrices,
)

from conftest import random_spd, spd_covariance

FAMILIES = [Diffusion(), Hann(), Hann(warp=False), Monic()]


def make_operator(n, seed, family, J, kind=NORMALIZED):
    cov = spd_covariance(n, seed)
    return wavelet_operator(cov, kind, family.default_gamma(J))


def diag_operator(eigenvalues, gamma):
    """Operator with V = I and a prescribed spectrum."""
    lam = np.asarray(eigenvalues, dtype=np.float64)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    return WaveletOperator(
        gamma=gamma,
        matrix=np.diag(lam),
        decomposition=SpectralDecomposition(np.eye(lam.shape[0]), lam),
    )


class TestDiffusionGamma:
    def test_j2(self):
        assert Diffusion().default_gamma(2) == 0.5

    def test_j3(self):
        npt.assert_allclose(Diffusion().default_gamma(3), 0.5**0.5, atol=1e-12)

    def test_j4(self):
        npt.assert_allclose(Diffusion().default_gamma(4), 0.5**0.25, atol=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidScaleCount):
            Diffusion().default_gamma(1)


class TestKernelEval:
    def test_diffusion_direct(self):
        op = diag_operator([0.8, 0.4], Diffusion().default_gamma(3))
        fb = build_filterbank(op, Diffusion(), 3)
        assert kernel_eval(fb, 1, 0.5) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_diffusion_peak_value(self, j):
        op = diag_operator([0.8, 0.4], Diffusion().default_gamma(5))
        fb = build_filterbank(op, Diffusion(), 5)
        peak = 0.5 ** (1.0 / 2 ** (j - 1))
        assert kernel_eval(fb, j, peak) == pytest.approx(0.25, abs=1e-12)

    def test_monic_normalization_point(self):
        op = diag_operator(np.linspace(0.05, 1.0, 16), 1.0)
        fb = build_filterbank(op, Monic(), 4)
        for j, t in enumerate(fb.facts["monic.scales"]):
            lam = fb.facts["monic.lambda_bar1"] / t
            if lam <= 1.0:
                assert kernel_eval(fb, j, lam) == pytest.approx(1.0, abs=1e-10)

    def test_hann_peak_and_edges(self):
        J, R = 6, 3.0
        op = diag_operator(np.linspace(0.5, 10.0, 12), 10.0)
        fb = build_filterbank(op, Hann(R=R, warp=False), J)
        gamma = 10.0
        width = R * gamma / (J + 1 - R)
        for j in range(1, J):
            t = fb.facts["hann.translations"][j - 1]
            center = t - width / 2.0
            if 0.0 <= center <= gamma:
                assert kernel_eval(fb, j, center) == pytest.approx(1.0, abs=1e-12)
            if t <= gamma:
                assert kernel_eval(fb, j, t) == 0.0
            if 0.0 <= t - width <= gamma:
                assert kernel_eval(fb, j, t - width) == 0.0

    def test_out_of_domain(self):
        op = diag_operator([0.8, 0.4], Diffusion().default_gamma(3))
        fb = build_filterbank(op, Diffusion(), 3)
        with pytest.raises(DomainError):
            kernel_eval(fb, 1, 1.5)

    def test_bad_scale_index(self):
        op = diag_operator([0.8, 0.4], Diffusion().default_gamma(3))
        fb = build_filterbank(op, Diffusion(), 3)
        with pytest.raises(IndexError):
            kernel_eval(fb, 3, 0.5)


class TestBuildFilterbank:
    def test_diffusion_analytic_bounds(self):
        for J in (2, 4, 6):
            op = make_operator(10, J, Diffusion(), J)
            fb = build_filterbank(op, Diffusion(), J)
            assert fb.frame_upper == 1.0
            assert fb.frame_lower == 1.0 - op.gamma

    def test_diffusion_lipschitz_vector(self):
        op = make_operator(10, 1, Diffusion(), 4)
        fb = build_filterbank(op, Diffusion(), 4)
        npt.assert_array_equal(fb.lipschitz, [1.0, 1.0, 2.0, 4.0])

    def test_hann_tight_frame_interior(self):
        # eigenvalues inside the fully covered region: G(lambda) = 3R/8
        J, R, gamma = 8, 3.0, 10.0
        delta = gamma / (J + 1 - R)
        lam = np.linspace(1.2 * delta, 4.8 * delta, 9)
        fb = build_filterbank(diag_operator(lam, gamma), Hann(R=R, warp=False), J)
        tight = np.sqrt(3.0 * R / 8.0)
        assert fb.frame_lower == pytest.approx(tight, rel=0.05)
        assert fb.frame_upper == pytest.approx(tight, rel=0.05)

    def test_hann_requires_r_below_j_plus_one(self):
        op = diag_operator([0.5, 1.0], 10.0)
        with pytest.raises(ConfigError):
            build_filterbank(op, Hann(R=3.0), 2)

    def test_monic_zero_spectrum_rejected(self):
        op = diag_operator(np.zeros(8), 1.0)
        with pytest.raises(DegenerateSpectrum):
            build_filterbank(op, Monic(), 3)

    def test_monic_flat_spectrum_rejected(self):
        op = diag_operator(np.full(8, 0.7), 1.0)
        with pytest.raises(DegenerateSpectrum):
            build_filterbank(op, Monic(), 3)

    def test_monic_zero_lower_quartile_rejected(self):
        op = diag_operator([0.0, 0.0, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0], 1.0)
        with pytest.raises(DegenerateSpectrum, match="lambda_bar1"):
            build_filterbank(op, Monic(), 3)

    def test_monic_infinite_cubic_coefficient_rejected(self, monkeypatch):
        # the cubic's solve overflows inside LAPACK, which raises no floating-point flag
        family, tiny = Monic(alpha=1.0, beta=1.0), [1e-305, 1e-305, *[0.01] * 6]
        overflowed = wavelets._monic_cubic_coeffs(1e-305, 0.01, 1.0, 1.0)
        assert np.isinf(overflowed).any()
        # a quartile that small is round-off, rejected before the solve
        with pytest.raises(DegenerateSpectrum, match="lambda_bar1"):
            build_filterbank(diag_operator(tiny, 1.0), family, 3)
        # so the overflowed solve is handed to a spectrum that passes the checks
        monkeypatch.setattr(wavelets, "_monic_cubic_coeffs", lambda *args: overflowed)
        with pytest.raises(ConfigError, match="leaves the float64 range"):
            build_filterbank(diag_operator([0.001, 0.001, *[0.01] * 6], 1.0), family, 3)

    def test_needs_two_scales(self):
        with pytest.raises(InvalidScaleCount):
            build_filterbank(diag_operator([0.5, 1.0], 0.5), Diffusion(), 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel family"):
            build_filterbank(diag_operator([0.5, 1.0], 0.5), "diffusion", 3)

    @pytest.mark.parametrize(
        "make", [lambda: Hann(R=0.0), lambda: Monic(alpha=0.5), lambda: Monic(beta=0.5)],
        ids=["hann-r", "monic-alpha", "monic-beta"],
    )
    def test_family_parameters_checked(self, make):
        with pytest.raises(ConfigError):
            make()

    def test_hann_warp_falls_back_on_a_flat_spectrum(self):
        gamma = Hann().default_gamma(3)
        op = wavelet_operator(SampleCovariance(np.eye(5), np.zeros(5), 10), NORMALIZED, gamma)
        fb = build_filterbank(op, Hann(), 3)
        plain = build_filterbank(op, Hann(warp=False), 3)
        # the fallback is the log map anchored at 0 and gamma, which it maps onto themselves
        eps = 1e-6 * gamma
        lams = np.linspace(0.0, gamma, 9)
        warped = gamma * (np.log(lams + eps) - np.log(eps)) / (np.log(gamma + eps) - np.log(eps))
        ends = np.array([0.0, gamma])
        for j in range(3):
            npt.assert_array_equal(kernel_eval(fb, j, ends), kernel_eval(plain, j, ends))
            npt.assert_allclose(kernel_eval(fb, j, lams), kernel_eval(plain, j, warped), atol=1e-12)
        assert np.all(np.isfinite(fb.responses))

    def test_diffusion_gamma_above_one_rejected(self):
        op = diag_operator([0.5, 1.0], 1.2)
        with pytest.raises(ConfigError):
            build_filterbank(op, Diffusion(), 3)

    def test_provenance_keys(self):
        op = make_operator(12, 5, Monic(), 4)
        fb = build_filterbank(op, Monic(), 4)
        prov = fb.provenance()
        assert "monic.lambda_bar1" in prov and "lipschitz" in prov and "gamma" in prov
        # the family and its parameters are settings, recorded by the caller
        assert not {"family", "J", "monic.alpha", "monic.beta", "monic.K"} & set(prov)


class TestFrameProperty:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: repr(f))
    def test_frame_inequality_random_vectors(self, family, rng):
        J = 4
        op = make_operator(14, 3, family, J)
        fb = build_filterbank(op, family, J)
        mats = wavelet_matrices(fb)
        x = rng.standard_normal((14, 100))
        x /= np.linalg.norm(x, axis=0)
        total = sum(np.sum((mats[j] @ x) ** 2, axis=0) for j in range(J))
        assert np.all(total >= fb.frame_lower**2 - 1e-8)
        assert np.all(total <= fb.frame_upper**2 + 1e-8)


class TestLipschitzProperty:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: repr(f))
    def test_sampled_pairs(self, family, rng):
        J = 5
        op = make_operator(16, 7, family, J)
        fb = build_filterbank(op, family, J)
        a = rng.uniform(0.0, op.gamma, 1000)
        b = rng.uniform(0.0, op.gamma, 1000)
        for j in range(J):
            va = kernel_eval(fb, j, a)
            vb = kernel_eval(fb, j, b)
            assert np.all(np.abs(va - vb) <= fb.lipschitz[j] * np.abs(a - b) + 1e-10)


class TestDiffusionAdmissibility:
    def test_bandpass_endpoints_exact(self):
        op = diag_operator([0.8, 0.4], Diffusion().default_gamma(6))
        fb = build_filterbank(op, Diffusion(), 6)
        for j in range(1, 6):
            assert kernel_eval(fb, j, 0.0) == 0.0
            assert kernel_eval(fb, j, 1.0) == 0.0
        assert kernel_eval(fb, 0, 0.0) == 1.0


class TestWaveletMatrices:
    def test_zero_operator_diffusion(self):
        op = diag_operator(np.zeros(5), 0.5)
        fb = build_filterbank(op, Diffusion(), 3)
        mats = wavelet_matrices(fb)
        npt.assert_array_equal(mats[0], np.eye(5))
        npt.assert_array_equal(mats[1], np.zeros((5, 5)))
        npt.assert_array_equal(mats[2], np.zeros((5, 5)))

    def test_identity_operator_diffusion(self):
        op = diag_operator(np.ones(4), 1.0)
        fb = build_filterbank(op, Diffusion(), 3)
        mats = wavelet_matrices(fb)
        for j in range(3):
            npt.assert_allclose(mats[j], np.zeros((4, 4)), atol=1e-15)

    def test_spectral_vs_polynomial_12x12(self, rng):
        J = 4
        cov = spd_covariance(12, 11)
        op = wavelet_operator(cov, NORMALIZED, Diffusion().default_gamma(J))
        fb = build_filterbank(op, Diffusion(), J)
        mats = wavelet_matrices(fb)
        x = rng.standard_normal(12)
        poly = diffusion_apply(op.matrix, x, J)
        for j in range(J):
            assert np.linalg.norm(mats[j] @ x - poly[j]) <= 1e-8 * np.linalg.norm(x)

    @pytest.mark.parametrize("n", [16, 64])
    def test_spectral_vs_polynomial_large(self, n, rng):
        J = 6
        cov = spd_covariance(n, n)
        op = wavelet_operator(cov, NORMALIZED, Diffusion().default_gamma(J))
        fb = build_filterbank(op, Diffusion(), J)
        mats = wavelet_matrices(fb)
        x = rng.standard_normal((n, 5))
        poly = diffusion_apply(op.matrix, x, J)
        for j in range(J):
            err = np.linalg.norm(mats[j] @ x - poly[j])
            assert err <= 1e-8 * np.linalg.norm(x)

    def test_polynomial_checks(self):
        with pytest.raises(ShapeError):
            diffusion_apply(np.eye(3), np.ones(4), 3)
        with pytest.raises(InvalidScaleCount):
            diffusion_apply(np.eye(3), np.ones(3), 1)

    def test_matrices_symmetric(self):
        for family in FAMILIES:
            op = make_operator(9, 2, family, 4)
            fb = build_filterbank(op, family, 4)
            mats = wavelet_matrices(fb)
            for j in range(4):
                npt.assert_array_equal(mats[j], mats[j].T)


class TestMonicKernel:
    def test_piece_continuity_and_slopes(self):
        op = diag_operator(np.linspace(0.05, 1.0, 20), 1.0)
        family = Monic()
        fb = build_filterbank(op, family, 4)
        l1, l2 = fb.facts["monic.lambda_bar1"], fb.facts["monic.lambda_bar2"]
        c3, c2, c1, c0 = wavelets._monic_cubic_coeffs(l1, l2, family.alpha, family.beta)

        def cubic(u):
            return ((c3 * u + c2) * u + c1) * u + c0

        assert cubic(l1) == pytest.approx(1.0, abs=1e-10)
        assert cubic(l2) == pytest.approx(1.0, abs=1e-10)

        def cubic_slope(u):
            return (3 * c3 * u + 2 * c2) * u + c1

        assert cubic_slope(l1) == pytest.approx(family.alpha / l1, abs=1e-8)
        assert cubic_slope(l2) == pytest.approx(-family.beta / l2, abs=1e-8)

    def test_quartile_selection(self):
        lam = np.linspace(0.05, 1.0, 20)
        fb = build_filterbank(diag_operator(lam, 1.0), Monic(), 4)
        ascending = np.sort(lam)
        assert fb.facts["monic.lambda_bar1"] == ascending[5 - 1]  # floor(20/4), 1-based
        assert fb.facts["monic.lambda_bar2"] == ascending[15 - 1]  # ceil(60/4), 1-based

    def test_scale_endpoints(self):
        family = Monic(K=20.0)
        fb = build_filterbank(diag_operator(np.linspace(0.05, 1.0, 16), 1.0), family, 5)
        l2 = fb.facts["monic.lambda_bar2"]
        npt.assert_allclose(fb.facts["monic.scales"][0], l2 * family.K / 1.0, rtol=1e-12)
        npt.assert_allclose(fb.facts["monic.scales"][-1], l2 / 1.0, rtol=1e-12)


class TestLocalization:
    def test_diagonal_operator_profile(self):
        op = diag_operator([0.9, 0.5, 0.2, 0.1], 0.9)
        fb = build_filterbank(op, Diffusion(), 3)
        prof = localization_profile(fb, 1, 2)
        mask = np.ones(4, dtype=bool)
        mask[1] = False
        npt.assert_allclose(prof.values[mask], 0.0, atol=1e-15)

    def test_center_bound_trivial(self):
        op = make_operator(6, 3, Diffusion(), 4)
        fb = build_filterbank(op, Diffusion(), 4)
        prof = localization_profile(fb, 2, 2)
        assert abs(prof.values[2]) <= prof.bound[2] + 1e-12

    def test_random_operator_bound_everywhere(self):
        op = make_operator(8, 5, Diffusion(), 4)
        fb = build_filterbank(op, Diffusion(), 4)
        prof = localization_profile(fb, 0, 2)
        assert np.all(np.abs(prof.values) <= prof.bound + 1e-12)
        assert set(prof.distances) == {2, 4}

    def test_index_out_of_range(self):
        op = make_operator(6, 3, Diffusion(), 3)
        fb = build_filterbank(op, Diffusion(), 3)
        with pytest.raises(IndexError):
            localization_profile(fb, 6, 1)
        with pytest.raises(IndexError):
            localization_profile(fb, 0, 3)

    def test_other_families_have_no_bound(self):
        fb = build_filterbank(make_operator(6, 3, Hann(), 3), Hann(), 3)
        prof = localization_profile(fb, 2, 1)
        npt.assert_array_equal(prof.values, wavelet_matrices(fb)[1][:, 2])
        assert prof.bound is None and prof.distances is None
