import numpy as np
import numpy.testing as npt
import pytest

from covscatter.errors import ConfigError
from covscatter.spectral import sample_covariance
from covscatter.synthdata import SynthSpec, eigenvalue_profile, synth_generate


class TestProfile:
    def test_tail_one_is_pure_exponential(self):
        lam = eigenvalue_profile(10, 1.0, 5.0)
        npt.assert_allclose(lam, np.exp(-0.1 * np.arange(10) / 5.0), atol=1e-15)
        assert np.all(lam > 0)

    def test_tail_zero_tiny_rank_is_near_rank_one(self):
        lam = eigenvalue_profile(10, 0.0, 0.05)
        assert lam[0] == 1.0
        assert np.all(lam[1:] < 1e-100)

    def test_descending(self):
        for tail in (0.0, 0.3, 0.7, 1.0):
            lam = eigenvalue_profile(25, tail, 6.0)
            assert np.all(np.diff(lam) < 0)

    def test_mean_gap_decreases_with_tail(self):
        gaps = [
            np.mean(-np.diff(eigenvalue_profile(20, tail, 10.0)))
            for tail in (0.1, 0.5, 0.9)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestGenerate:
    def test_deterministic(self):
        spec = SynthSpec(n_features=8, n_samples=50, tail=0.4, noise_sigma=0.2, seed=11)
        a = synth_generate(spec)
        b = synth_generate(spec)
        npt.assert_array_equal(a.data.values, b.data.values)
        npt.assert_array_equal(a.targets, b.targets)
        npt.assert_array_equal(a.true_cov, b.true_cov)

    def test_true_cov_spd_with_requested_spectrum(self):
        ds = synth_generate(SynthSpec(n_features=12, n_samples=10, tail=0.6, seed=2))
        w = np.linalg.eigvalsh(ds.true_cov)[::-1]
        npt.assert_allclose(w, eigenvalue_profile(12, 0.6, 6.0), atol=1e-10)

    def test_sampler_matches_true_cov(self):
        ds = synth_generate(SynthSpec(n_features=10, n_samples=100_000, tail=0.5, seed=4))
        est = sample_covariance(ds.data).matrix
        err = np.linalg.norm(est - ds.true_cov, 2)
        assert err <= 0.05 * np.linalg.norm(ds.true_cov, 2)

    def test_noiseless_targets_are_linear(self):
        ds = synth_generate(SynthSpec(n_features=6, n_samples=40, tail=0.3, seed=7))
        npt.assert_allclose(ds.targets, ds.true_weights @ ds.data.values, atol=1e-12)

    def test_unit_weights(self):
        ds = synth_generate(SynthSpec(n_features=9, n_samples=20, tail=0.2, seed=1))
        assert np.linalg.norm(ds.true_weights) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            SynthSpec(n_features=5, n_samples=10, tail=1.5)
        with pytest.raises(ConfigError):
            SynthSpec(n_features=1, n_samples=10, tail=0.5)
        with pytest.raises(ConfigError):
            SynthSpec(n_features=5, n_samples=10, tail=0.5, noise_sigma=-1.0)
        with pytest.raises(ConfigError):
            SynthSpec(n_features=5, n_samples=10, tail=0.5, effective_rank=0.0)
