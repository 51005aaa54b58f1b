import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from covscatter.bounds import (
    BoundConstants,
    bound_probability,
    bound_table,
    cst_stability_bound,
    estimate_kmax,
    measured_wavelet_delta,
    pca_gap_scale,
    pruning_preserved,
    signal_stability_bound,
    wavelet_delta,
)
from covscatter.cli import main
from covscatter.errors import ConfigError, InvalidK, NotSymmetric, ShapeError
from covscatter.io import read_data_csv
from covscatter.scattering import CstConfig, cst_fit
from covscatter.spectral import SampleCovariance, eig_sym, sample_covariance
from covscatter.synthdata import SynthSpec, eigenvalue_profile, synth_generate
from covscatter.wavelets import Diffusion

from conftest import batch_of_one, full_layout, node_signals, random_spd


class TestEstimateKmax:
    def test_deterministic_pattern_has_zero_fluctuation(self):
        # equal numbers of +c v1 and -c v1: E|x x^T v1|^2 = c^4 = w1^2
        v = np.array([1.0, 0.0, 0.0])
        c = 2.0
        x = np.stack([c * v, -c * v] * 10, axis=1)
        dec = eig_sym(sample_covariance(x).matrix)
        assert estimate_kmax(x, dec) == pytest.approx(0.0, abs=1e-10)

    def test_standard_normal_matches_monte_carlo(self):
        n = 5
        x = np.random.default_rng(4).standard_normal((n, 10_000))
        dec = eig_sym(sample_covariance(x).matrix)
        estimated = estimate_kmax(x, dec)

        # oracle: fresh Monte-Carlo draw of E[|z z^T v|^2] - w^2 per eigenvector
        z = np.random.default_rng(999).standard_normal((n, 200_000))
        proj = dec.eigenvectors.T @ z
        sq = np.sum(z * z, axis=0)
        moments = np.mean(sq * proj * proj, axis=1)
        oracle = np.sqrt(np.clip(moments - dec.eigenvalues**2, 0.0, None)).max()
        assert estimated == pytest.approx(oracle, rel=0.05)

    def test_always_finite(self, rng):
        x = rng.standard_normal((4, 3))
        dec = eig_sym(sample_covariance(x).matrix)
        value = estimate_kmax(x, dec)
        assert np.isfinite(value) and value >= 0.0


class TestWaveletDelta:
    def test_quadrupling_samples_halves_delta(self):
        constants = BoundConstants()
        one = wavelet_delta(2.0, 10, 500, constants, 0.8)
        four = wavelet_delta(2.0, 10, 2000, constants, 0.8)
        assert four == pytest.approx(one / 2.0, rel=1e-12)

    def test_zero_lipschitz_zero_delta(self):
        assert wavelet_delta(0.0, 10, 100, BoundConstants(), 1.0) == 0.0

    def test_arithmetic_example(self):
        constants = BoundConstants(Q=1.0, G=1.0, k_max=1.0, epsilon=1.0, u=1.0)
        value = wavelet_delta(1.0, 20, 1000, constants, 1.0)
        expected = (20.0 / math.sqrt(1000.0)) * (
            math.exp(0.5) + 2.0 * math.sqrt(math.log(20.0) + 1.0)
        )
        assert value == pytest.approx(expected, rel=1e-12)

    def test_probability_metadata(self):
        constants = BoundConstants(epsilon=2.0, u=3.0)
        expected = (1.0 - math.exp(-2.0)) * (1.0 - 2.0 * math.exp(-3.0))
        assert bound_probability(constants) == pytest.approx(expected, rel=1e-12)

    def test_invalid_constants(self):
        with pytest.raises(ConfigError):
            BoundConstants(G=0.5)
        with pytest.raises(ConfigError):
            BoundConstants(epsilon=1e308)  # exp(epsilon / 2) overflows

    @pytest.mark.parametrize("name", ["Q", "G", "k_max", "epsilon", "u"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_constants_rejected(self, name, value):
        with pytest.raises(ConfigError):
            BoundConstants(**{name: value})

    @pytest.mark.parametrize(
        "name, value", [("Q", 0.0), ("k_max", -1.0), ("epsilon", 0.0), ("u", -1.0)]
    )
    def test_non_positive_constants_rejected(self, name, value):
        with pytest.raises(ConfigError, match="must be positive"):
            BoundConstants(**{name: value})

    @pytest.mark.parametrize("n, t", [(0, 100), (10, 0)])
    def test_non_positive_counts_rejected(self, n, t):
        with pytest.raises(ConfigError, match="n and t must be positive"):
            wavelet_delta(1.0, n, t, BoundConstants(), 1.0)


class TestPruningPreserved:
    def test_zero_delta_true_when_positive(self):
        assert pruning_preserved(1e-9, 2, 0.0, 1.0, 0.1, 1.0)

    def test_boundary_false(self):
        assert not pruning_preserved(0.0, 1, 0.0, 1.0, 0.0, 1.0)

    def test_condition_implies_identical_pruned_sets(self):
        # the code keeps a child iff ||H_j s|| / ||s|| > tau, which is the
        # energy rule ||H_j s||^2 > tau^2 ||s||^2; when the bound's margin for
        # that rule holds at every node of the exact tree, both trees keep
        # exactly the children of positive margin, so they coincide
        ds = synth_generate(SynthSpec(n_features=20, n_samples=20000, tail=0.5, seed=5))
        config = CstConfig(family=Diffusion(), J=3, L=3)
        true_cov = SampleCovariance(ds.true_cov, np.zeros(20), ds.data.n_samples)
        model_true = cst_fit(true_cov, config)
        model_est = cst_fit(sample_covariance(ds.data), config)
        delta = measured_wavelet_delta(model_true.matrices, model_est.matrices)
        frame_upper = max(
            model_true.filterbank.frame_upper, model_est.filterbank.frame_upper
        )
        x = ds.data.values[:, 0]
        mats = model_true.matrices
        full_nodes = node_signals(model_true, x, full_layout(config.J, config.L))
        checked = 0
        for tau in (0.05, 0.2, 0.4, 0.5, 0.8):
            at_tau = dataclasses.replace(config, tau=tau)
            tree_true, _ = batch_of_one(dataclasses.replace(model_true, config=at_tau), x)
            tree_est, _ = batch_of_one(dataclasses.replace(model_est, config=at_tau), x)
            margins = {}
            all_hold = True
            for path, signal in full_nodes.items():
                if len(path) >= config.L - 1:
                    continue
                norm = float(np.linalg.norm(signal))
                for j in range(config.J):
                    margin = float(np.linalg.norm(mats[j] @ signal)) ** 2 - tau**2 * norm**2
                    margins[path + (j,)] = margin
                    if not pruning_preserved(
                        abs(margin), len(path), delta, frame_upper, tau**2, float(np.linalg.norm(x))
                    ):
                        all_hold = False
            if not all_hold:
                continue
            assert set(tree_true.pruned) == set(tree_est.pruned)
            assert set(tree_true.paths) == set(tree_est.paths)
            for tree in (tree_true, tree_est):
                for path in [*tree.paths[1:], *tree.pruned]:
                    assert (path in tree.paths) == (margins[path] > 0.0)
            if len(tree_true.paths) > 1 and tree_true.pruned:
                checked += 1  # kept and pruned children coexist
        assert checked >= 1


class TestCstStabilityBound:
    def test_single_layer_is_zero(self):
        assert cst_stability_bound(0.5, 1.2, 1.0, 3.0, []) == 0.0

    def test_halving_counts_scales_by_sqrt_half(self):
        full = cst_stability_bound(0.1, 1.0, 1.0, 1.0, [3.0, 9.0])
        half = cst_stability_bound(0.1, 1.0, 1.0, 1.0, [1.5, 4.5])
        assert half == pytest.approx(full / math.sqrt(2.0), rel=1e-12)

    def test_arithmetic_example(self):
        value = cst_stability_bound(0.1, 1.0, 1.0, 1.0, [3, 9])
        assert value == pytest.approx(0.1 * math.sqrt(39.0), rel=1e-12)


class TestSignalStabilityBound:
    def test_zero_perturbation(self):
        assert signal_stability_bound(1.5, 1.0, 0.0, [1, 2, 4]) == 0.0

    def test_single_layer_identity(self):
        assert signal_stability_bound(2.0, 1.0, 0.7, [1]) == pytest.approx(0.7)

    def test_arithmetic_example(self):
        value = signal_stability_bound(1.0, 1.0, 2.0, [1, 2, 4])
        assert value == pytest.approx(2.0 * math.sqrt(7.0), rel=1e-12)


class TestPcaGapScale:
    def test_simple(self):
        # gaps 2 and 1: the second eigenvector is set up to the gap below it
        assert pca_gap_scale(np.array([4.0, 2.0, 1.0]), 2) == pytest.approx(1.0)

    def test_gap_below_the_kth_eigenvalue(self):
        # v2 is set only up to the 2 vs 1.99 split
        assert pca_gap_scale(np.array([4.0, 2.0, 1.99]), 2) == pytest.approx(100.0)
        # every eigenvalue kept: no gap below the last
        assert pca_gap_scale(np.array([4.0, 2.0, 1.99]), 3) == pytest.approx(100.0)
        assert pca_gap_scale(np.array([4.0, 3.0, 2.9]), 1) == pytest.approx(1.0)

    def test_degenerate_flagged_infinite(self):
        assert math.isinf(pca_gap_scale(np.array([3.0, 3.0, 1.0]), 2))
        # a first eigenvector whose eigenvalue is repeated is not set at all
        assert math.isinf(pca_gap_scale(np.array([3.0, 3.0, 1.0]), 1))

    @pytest.mark.parametrize(
        "eigenvalues, k", [([3.0, 1.0], 0), ([3.0], 1)], ids=["k-zero", "one-eigenvalue"]
    )
    def test_needs_a_gap(self, eigenvalues, k):
        with pytest.raises(InvalidK):
            pca_gap_scale(np.array(eigenvalues), k)

    def test_k_beyond_the_eigenvalues(self):
        with pytest.raises(InvalidK, match="exceeds the 2 available"):
            pca_gap_scale(np.array([3.0, 1.0]), 3)

    def test_heavier_tail_has_larger_scale(self):
        low = pca_gap_scale(eigenvalue_profile(20, 0.1, 4.0), 5)
        high = pca_gap_scale(eigenvalue_profile(20, 0.9, 4.0), 5)
        assert high > low


class TestMeasuredWaveletDelta:
    def test_matches_numpy(self, rng):
        # symmetric differences, as wavelet_matrices makes them; a difference
        # that is not exactly symmetric is rejected, not measured
        for seed in range(5):
            gen = np.random.default_rng(seed)
            a, b = gen.standard_normal((2, 3, 12, 12))
            with pytest.raises(NotSymmetric):
                measured_wavelet_delta(a, b)
            a, b = a + np.swapaxes(a, 1, 2), b + np.swapaxes(b, 1, 2)
            expected = max(np.linalg.norm(a[j] - b[j], 2) for j in range(3))
            assert measured_wavelet_delta(a, b) == pytest.approx(expected, rel=1e-12)

    def test_zero_matrix(self):
        # identical sets: the harness reports delta_measured == 0.0 at fraction 1.0
        a = np.stack([random_spd(4, s) for s in range(3)])
        assert measured_wavelet_delta(a, a.copy()) == 0.0

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        """The batch size of each ``np.linalg.eigvalsh`` call made while the test runs."""
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(matrices):
            calls.append(len(matrices))
            return eigvalsh(matrices)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        return calls

    def test_identical_sets_run_no_eigensolve(self, eigensolves):
        a = np.stack([random_spd(4, s) for s in range(3)])
        assert measured_wavelet_delta(a, a.copy()) == 0.0
        assert eigensolves == []

    def test_one_changed_scale_gives_the_whole_batch_value(self, eigensolves):
        # only the changed scale is eigensolved; its value has the bits of the
        # eigensolve of every scale at once
        a = np.stack([random_spd(6, s) for s in range(4)])
        b = a.copy()
        b[2] += 1e-3 * random_spd(6, 9)
        whole_batch = float(np.abs(np.linalg.eigvalsh(a - b)).max())
        assert measured_wavelet_delta(a, b) == whole_batch
        assert eigensolves == [4, 1]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            measured_wavelet_delta(np.zeros((3, 4, 4)), np.zeros((2, 4, 4)))

    def test_measured_delta_symmetric_sets(self):
        a = np.stack([random_spd(6, s) for s in range(3)])
        b = np.stack([random_spd(6, s + 10) for s in range(3)])
        expected = max(np.linalg.norm(a[j] - b[j], 2) for j in range(3))
        assert measured_wavelet_delta(a, b) == pytest.approx(expected, rel=1e-8)


class TestBoundTable:
    def test_matches_the_bounds_report(self, tmp_path):
        # README's `bounds` example, on README's synthetic data
        data_dir, out = tmp_path / "data", tmp_path / "bounds"
        synth = ["synth", "--out", str(data_dir), "--seed", "7", "--n", "20", "--t", "1000"]
        assert main([*synth, "--tail", "0.9"]) == 0
        flags = ["--family", "diffusion", "--j", "4", "--l", "3", "--pca-k", "5"]
        assert main(["bounds", "--data", str(data_dir / "data.csv"), "--out", str(out), *flags]) == 0
        data = read_data_csv(data_dir / "data.csv")
        cov = sample_covariance(data)
        model = cst_fit(cov, CstConfig(family=Diffusion(), J=4, L=3))
        constants = BoundConstants(k_max=estimate_kmax(data, cov.decomposition))
        rows = bound_table(cov, model, constants, pca_k=5)
        header, *lines = (out / "bounds.csv").read_text().splitlines()
        assert header == "quantity,value"
        assert [f"{name},{value!r}" for name, value in rows] == lines
        assert [name for name, _ in rows][-3:] == [
            "cst_stability_bound_unit_signal",
            "signal_stability_bound_unit_perturbation",
            "pca_gap_scale",
        ]
