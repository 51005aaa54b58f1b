import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covscatter.errors import ConfigError, ShapeError
from covscatter.scattering import (
    CstConfig,
    cst_fit,
    cst_transform,
    cst_transform_batch,
    decide_layout,
    feature_count,
    path_name,
)
from covscatter.spectral import INVERTED, SampleCovariance, sample_covariance
from covscatter.synthdata import SynthSpec, synth_generate
from covscatter.wavelets import Diffusion, Hann, Monic

from conftest import spd_covariance


def brute_force_features(model, x, max_layer):
    """Non-recursive oracle: recompute every scale tuple from scratch."""
    mats = model.matrices.matrices
    blocks = [x]
    for ell in range(1, max_layer):
        for combo in itertools.product(range(model.config.J), repeat=ell):
            signal = x
            for j in combo:
                signal = np.abs(mats[j] @ signal)
            blocks.append(signal)
    return np.concatenate(blocks)


class TestCstFit:
    def test_identity_covariance_inverted(self):
        cov = SampleCovariance(np.eye(5), np.zeros(5), 10)
        config = CstConfig(family=Diffusion(), J=3, L=2, operator_kind=INVERTED)
        model = cst_fit(cov, config)
        npt.assert_allclose(model.operator.matrix, np.zeros((5, 5)), atol=1e-12)
        npt.assert_array_equal(model.matrices.matrices[0], np.eye(5))
        npt.assert_array_equal(model.matrices.matrices[1], np.zeros((5, 5)))
        npt.assert_array_equal(model.matrices.matrices[2], np.zeros((5, 5)))

    def test_brain_shaped_model_builds(self):
        rng = np.random.default_rng(68)
        data = rng.standard_normal((68, 150))
        model = cst_fit(sample_covariance(data), CstConfig(family=Diffusion(), J=4, L=4))
        assert model.n_features == 68
        assert model.filterbank.frame_upper == 1.0

    def test_tau_out_of_range(self):
        with pytest.raises(ConfigError):
            CstConfig(family=Diffusion(), J=3, L=2, tau=1.0)
        with pytest.raises(ConfigError):
            CstConfig(family=Diffusion(), J=3, L=2, tau=-0.1)


class TestCstTransform:
    def _model(self, n=16, seed=2, J=3, L=3, **kwargs):
        return cst_fit(spd_covariance(n, seed), CstConfig(family=Diffusion(), J=J, L=L, **kwargs))

    def test_single_layer_is_input_only(self, rng):
        model = self._model(L=1)
        x = rng.standard_normal(16)
        _, fv = cst_transform(model, x)
        assert fv.layout == ((),)
        npt.assert_array_equal(fv.coefficients, x)

    def test_full_tree_path_count(self, rng):
        model = self._model()
        _, fv = cst_transform(model, rng.standard_normal(16), tau=0.0)
        assert len(fv.layout) == feature_count(3, 3) == 13

    def test_zero_signal_keeps_root_only(self):
        model = self._model()
        tree, fv = cst_transform(model, np.zeros(16))
        assert list(tree.nodes) == [()]
        assert fv.layout == ((),)
        npt.assert_array_equal(fv.coefficients, np.zeros(16))

    def test_matches_brute_force_enumeration(self, rng):
        model = self._model()
        x = rng.standard_normal(16)
        _, fv = cst_transform(model, x, tau=0.0)
        npt.assert_allclose(
            fv.coefficients, brute_force_features(model, x, 3), atol=1e-10
        )

    def test_mean_aggregation_width(self, rng):
        model = self._model(aggregation="mean")
        _, fv = cst_transform(model, rng.standard_normal(16))
        assert fv.width == 1
        assert fv.coefficients.shape == (13,)

    def test_layout_order_breadth_first_lexicographic(self, rng):
        model = self._model(J=2, L=3)
        _, fv = cst_transform(model, rng.standard_normal(16), tau=0.0)
        assert fv.layout == ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))

    def test_norm_propagation(self, rng):
        for family in (Diffusion(), Hann(), Monic()):
            model = cst_fit(spd_covariance(12, 4), CstConfig(family=family, J=3, L=3))
            x = rng.standard_normal(12)
            tree, _ = cst_transform(model, x, tau=0.0)
            upper = model.filterbank.frame_upper
            for path, (_, energy) in tree.nodes.items():
                bound = upper ** len(path) * np.linalg.norm(x) + 1e-8
                assert energy <= bound

    def test_pruning_monotone_in_tau(self, rng):
        model = self._model()
        x = rng.standard_normal(16)
        previous = None
        for tau in (0.0, 0.1, 0.3, 0.5, 0.8):
            _, fv = cst_transform(model, x, tau=tau)
            retained = set(fv.layout)
            if previous is not None:
                assert retained <= previous
            previous = retained

    def test_pruned_ratios_recorded(self, rng):
        model = self._model()
        tree, fv = cst_transform(model, rng.standard_normal(16), tau=0.5)
        assert set(tree.pruned_paths).isdisjoint(set(fv.layout))
        for ratio in tree.pruned_paths.values():
            assert 0.0 <= ratio <= 0.5

    def test_shape_mismatch(self):
        model = self._model()
        with pytest.raises(ShapeError):
            cst_transform(model, np.ones(5))


class TestPermutationEquivariance:
    def test_identity_and_mean_aggregation(self, rng):
        ds = synth_generate(SynthSpec(n_features=30, n_samples=400, tail=0.4, seed=3))
        perm = rng.permutation(30)
        pmat = np.eye(30)[perm]
        x = ds.data.values[:, 0]

        for kind in ("normalized", "inverted"):
            config = CstConfig(family=Diffusion(), J=3, L=3, operator_kind=kind)
            model = cst_fit(sample_covariance(ds.data.values), config)
            model_p = cst_fit(sample_covariance(pmat @ ds.data.values), config)
            _, fv = cst_transform(model, x, tau=0.0)
            _, fv_p = cst_transform(model_p, pmat @ x, tau=0.0)
            expected = np.concatenate(
                [
                    fv.coefficients[i * 30 : (i + 1) * 30][perm]
                    for i in range(len(fv.layout))
                ]
            )
            npt.assert_allclose(fv_p.coefficients, expected, atol=1e-8)

            mean_cfg = CstConfig(family=Diffusion(), J=3, L=3, aggregation="mean", operator_kind=kind)
            model_m = cst_fit(sample_covariance(ds.data.values), mean_cfg)
            model_mp = cst_fit(sample_covariance(pmat @ ds.data.values), mean_cfg)
            _, fv_m = cst_transform(model_m, x, tau=0.0)
            _, fv_mp = cst_transform(model_mp, pmat @ x, tau=0.0)
            npt.assert_allclose(fv_mp.coefficients, fv_m.coefficients, atol=1e-8)


class TestNonlinearity:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    @settings(max_examples=200, deadline=None)
    def test_abs_nonexpansive(self, a, b):
        size = min(len(a), len(b))
        va = np.array(a[:size])
        vb = np.array(b[:size])
        assert np.linalg.norm(np.abs(va) - np.abs(vb)) <= np.linalg.norm(va - vb)


class TestBatch:
    def _model(self, n=20, seed=6, **kwargs):
        return cst_fit(spd_covariance(n, seed), CstConfig(family=Diffusion(), J=3, L=3, **kwargs))

    def test_identical_columns_identical_rows(self):
        model = self._model()
        x = np.tile(np.arange(20, dtype=float)[:, None], (1, 8))
        batch = cst_transform_batch(model, x)
        for row in batch.matrix:
            npt.assert_array_equal(row, batch.matrix[0])

    def test_tau_zero_matches_per_sample_layout(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 12))
        batch = cst_transform_batch(model, x, tau=0.0)
        _, fv = cst_transform(model, x[:, 3], tau=0.0)
        assert batch.layout == fv.layout
        npt.assert_allclose(batch.matrix[3], fv.coefficients, atol=1e-12)

    def test_batch_pruning_matches_energy_oracle(self):
        ds = synth_generate(SynthSpec(n_features=20, n_samples=200, tail=0.5, seed=9))
        model = cst_fit(sample_covariance(ds.data.values), CstConfig(family=Diffusion(), J=3, L=3))
        tau = 0.1
        batch = cst_transform_batch(model, ds.data.values, tau=tau)

        # oracle: full per-sample trees, then average child/parent ratios
        mats = model.matrices.matrices
        expected = {(): True}
        ratios = {}
        level = {(): ds.data.values}
        for _ in range(1, 3):
            nxt = {}
            for path, signals in level.items():
                parent_norm = np.linalg.norm(signals, axis=0)
                for j in range(3):
                    children = np.abs(mats[j] @ signals)
                    ratio = np.where(
                        parent_norm > 0,
                        np.linalg.norm(children, axis=0) / np.where(parent_norm > 0, parent_norm, 1.0),
                        0.0,
                    ).mean()
                    ratios[path + (j,)] = ratio
                    nxt[path + (j,)] = children
            level = nxt
        retained_oracle = {()}
        for path in sorted(ratios, key=lambda p: (len(p), p)):
            if path[:-1] in retained_oracle and ratios[path] > tau:
                retained_oracle.add(path)
        assert set(batch.layout) == retained_oracle

    def test_fixed_layout_reembedding(self, rng):
        model = self._model()
        pool = rng.standard_normal((20, 30))
        layout = decide_layout(model, pool, tau=0.2).paths
        fresh = rng.standard_normal((20, 4))
        z = cst_transform_batch(model, fresh, layout=layout)
        assert z.matrix.shape == (4, len(layout) * 20)
        assert z.layout == layout and z.pruned == {}
        # each retained path's block is that path's recursion on the fresh signals
        mats = model.matrices.matrices
        for k, path in enumerate(layout):
            signals = fresh
            for j in path:
                signals = np.abs(mats[j] @ signals)
            npt.assert_array_equal(z.matrix[:, k * 20 : (k + 1) * 20], signals.T)

    def test_decide_layout_matches_batch_decision(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 30))
        decided = decide_layout(model, x, tau=0.2)
        batch = cst_transform_batch(model, x, tau=0.2)
        assert decided.paths == batch.layout
        assert decided.pruned == batch.pruned

    def test_following_own_layout_is_bit_equal(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 30))
        b = cst_transform_batch(model, x, tau=0.2)
        assert len(b.layout) < feature_count(3, 3)  # some paths were pruned
        followed = cst_transform_batch(model, x, layout=b.layout)
        npt.assert_array_equal(followed.matrix, b.matrix)
        assert followed.layout == b.layout

    def test_following_layout_on_subset_is_bit_equal(self, rng):
        # train is a subset of the fit pool: its rows must not depend on the rest
        model = self._model()
        x = rng.standard_normal((20, 30))
        b = cst_transform_batch(model, x, tau=0.2)
        subset = np.array([1, 4, 5, 11, 17, 29])
        followed = cst_transform_batch(model, x[:, subset], layout=b.layout)
        npt.assert_array_equal(followed.matrix, b.matrix[subset])

    def test_single_signal_is_batch_of_one(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 30))
        tree, fv = cst_transform(model, x[:, 0], tau=0.3)
        batch = cst_transform_batch(model, x[:, :1], tau=0.3)
        assert tree.pruned_paths  # the threshold prunes something
        assert fv.layout == batch.layout
        assert tree.pruned_paths == batch.pruned
        npt.assert_array_equal(fv.coefficients, batch.matrix[0])

    def test_layout_outside_the_tree_rejected(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 5))
        with pytest.raises(ConfigError):
            cst_transform_batch(model, x, layout=((), (0, 1)))  # (0,) missing
        with pytest.raises(ConfigError):
            cst_transform_batch(model, x, layout=((), (1,), (0,)))  # out of order


class TestFeatureCount:
    @pytest.mark.parametrize("j,l,expected", [(4, 2, 5), (3, 3, 13), (7, 4, 400)])
    def test_examples(self, j, l, expected):
        assert feature_count(j, l) == expected

    @given(st.integers(2, 8), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_layer_sum(self, j, l):
        assert feature_count(j, l) == sum(j**ell for ell in range(l))

    def test_path_names(self):
        assert path_name(()) == "p_root"
        assert path_name((0, 2, 1)) == "p_0.2.1"
