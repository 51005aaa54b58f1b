import dataclasses
import gc
import itertools
import pickle
import sys
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covscatter.errors import ConfigError, InvalidData, InvalidScaleCount, ShapeError
from covscatter.scattering import (
    CstConfig,
    _aggregate,
    _scatter,
    cst_fit,
    cst_transform_batch,
    decide_layout,
    feature_count,
    layout_blocks,
    path_name,
)
from covscatter.spectral import INVERTED, NORMALIZED, SampleCovariance, sample_covariance
from covscatter.synthdata import SynthSpec, synth_generate
from covscatter.wavelets import Diffusion, Hann, Monic, kernel_eval

from conftest import batch_of_one, full_layout, node_signals, spd_covariance


def brute_force_features(model, x, max_layer):
    """Non-recursive oracle: recompute every scale tuple from scratch."""
    mats = model.matrices
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
        npt.assert_allclose(model.filterbank.operator.matrix, np.zeros((5, 5)), atol=1e-12)
        npt.assert_array_equal(model.matrices[0], np.eye(5))
        npt.assert_array_equal(model.matrices[1], np.zeros((5, 5)))
        npt.assert_array_equal(model.matrices[2], np.zeros((5, 5)))

    @pytest.mark.parametrize("family", [Diffusion(), Hann(), Monic()], ids=repr)
    def test_each_kernel_evaluated_once(self, family, monkeypatch):
        calls = []
        kernels = type(family).kernels

        def counted(self, *args):
            kernel, lipschitz, facts = kernels(self, *args)

            def counted_kernel(j, lams):
                calls.append(j)
                return kernel(j, lams)

            return counted_kernel, lipschitz, facts

        monkeypatch.setattr(type(family), "kernels", counted)
        J = 4
        model = cst_fit(spd_covariance(9, 4), CstConfig(family=family, J=J, L=3))
        assert len(calls) == J
        bank = model.filterbank
        assert not bank.responses.flags.writeable
        eigenvalues = bank.operator.decomposition.eigenvalues
        expected = np.stack([kernel_eval(bank, j, eigenvalues) for j in range(J)])
        npt.assert_array_equal(bank.responses, expected)

    @pytest.mark.parametrize("family", [Diffusion(), Hann(), Hann(warp=False), Monic()], ids=repr)
    def test_a_fitted_model_pickles(self, family):
        model = cst_fit(spd_covariance(9, 4), CstConfig(family=family, J=3, L=3))
        x = np.random.default_rng(4).standard_normal((9, 5))
        layout = full_layout(3, 3)
        copy = pickle.loads(pickle.dumps(model))
        expected = cst_transform_batch(model, x, layout).tobytes()
        assert cst_transform_batch(copy, x, layout).tobytes() == expected

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

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("J", 1, InvalidScaleCount),
            ("L", 0, ConfigError),
            ("aggregation", "max", ConfigError),
            ("operator_kind", "laplacian", ConfigError),
        ],
    )
    def test_invalid_config(self, field, value, error):
        with pytest.raises(error):
            CstConfig(**{"family": Diffusion(), "J": 3, "L": 2, field: value})

    @pytest.mark.parametrize("family", ["diffusion", Diffusion, None], ids=["name", "class", "none"])
    def test_unknown_family_rejected(self, family):
        # a family's name or class is not a family: the config, not cst_fit, says so
        with pytest.raises(ConfigError, match="unknown kernel family"):
            CstConfig(family=family, J=3, L=2)


class TestCstTransform:
    def _model(self, n=16, seed=2, J=3, L=3, **kwargs):
        return cst_fit(spd_covariance(n, seed), CstConfig(family=Diffusion(), J=J, L=L, **kwargs))

    def test_single_layer_is_input_only(self, rng):
        model = self._model(L=1)
        x = rng.standard_normal(16)
        decision, row = batch_of_one(model, x)
        assert decision.paths == ((),)
        npt.assert_array_equal(row, x)

    def test_full_tree_path_count(self, rng):
        model = self._model()
        decision, _ = batch_of_one(model, rng.standard_normal(16))
        assert len(decision.paths) == feature_count(3, 3) == 13

    def test_zero_signal_keeps_root_only(self):
        model = self._model()
        zero = np.zeros(16)
        decision, row = batch_of_one(model, zero)
        assert list(node_signals(model, zero, decision.paths)) == [()]
        assert decision.paths == ((),)
        npt.assert_array_equal(row, zero)
        # unpruned, the same signal keeps every path, in layout order
        full = full_layout(3, 3)
        _, row = batch_of_one(model, zero, full)
        assert len(full) == feature_count(3, 3)
        assert list(full) == sorted(full, key=lambda path: (len(path), path))
        assert list(node_signals(model, zero, full)) == list(full) and not row.any()

    def test_matches_brute_force_enumeration(self, rng):
        model = self._model()
        x = rng.standard_normal(16)
        _, row = batch_of_one(model, x)
        npt.assert_allclose(row, brute_force_features(model, x, 3), atol=1e-10)

    def test_mean_aggregation_width(self, rng):
        model = self._model(aggregation="mean")
        _, row = batch_of_one(model, rng.standard_normal(16))
        assert model.feature_width == 1
        assert row.shape == (13,)

    def test_layout_order_breadth_first_lexicographic(self, rng):
        model = self._model(J=2, L=3)
        decision, _ = batch_of_one(model, rng.standard_normal(16))
        assert decision.paths == ((), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1))

    def test_norm_propagation(self, rng):
        for family in (Diffusion(), Hann(), Monic()):
            model = cst_fit(spd_covariance(12, 4), CstConfig(family=family, J=3, L=3))
            x = rng.standard_normal(12)
            decision, _ = batch_of_one(model, x)
            upper = model.filterbank.frame_upper
            for path, signal in node_signals(model, x, decision.paths).items():
                bound = upper ** len(path) * np.linalg.norm(x) + 1e-8
                assert np.linalg.norm(signal) <= bound

    def test_pruning_monotone_in_tau(self, rng):
        x = rng.standard_normal(16)
        previous = None
        for tau in (0.0, 0.1, 0.3, 0.5, 0.8):
            decision, _ = batch_of_one(self._model(tau=tau), x)
            retained = set(decision.paths)
            if previous is not None:
                assert retained <= previous
            previous = retained

    def test_pruned_ratios_recorded(self, rng):
        model = self._model(tau=0.5)
        decision, _ = batch_of_one(model, rng.standard_normal(16))
        assert set(decision.pruned).isdisjoint(set(decision.paths))
        for ratio in decision.pruned.values():
            assert 0.0 <= ratio <= 0.5

    def test_shape_mismatch(self):
        model = self._model()
        with pytest.raises(ShapeError):
            batch_of_one(model, np.ones(5))


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
            decision, row = batch_of_one(model, x)
            _, row_p = batch_of_one(model_p, pmat @ x)
            expected = np.concatenate(
                [row[i * 30 : (i + 1) * 30][perm] for i in range(len(decision.paths))]
            )
            npt.assert_allclose(row_p, expected, atol=1e-8)

            mean_cfg = CstConfig(family=Diffusion(), J=3, L=3, aggregation="mean", operator_kind=kind)
            model_m = cst_fit(sample_covariance(ds.data.values), mean_cfg)
            model_mp = cst_fit(sample_covariance(pmat @ ds.data.values), mean_cfg)
            _, row_m = batch_of_one(model_m, x)
            _, row_mp = batch_of_one(model_mp, pmat @ x)
            npt.assert_allclose(row_mp, row_m, atol=1e-8)


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
        matrix = cst_transform_batch(model, x, decide_layout(model, x).paths)
        for row in matrix:
            npt.assert_array_equal(row, matrix[0])

    def test_tau_zero_matches_per_sample_layout(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 12))
        layout = decide_layout(model, x).paths
        matrix = cst_transform_batch(model, x, layout)
        decision, row = batch_of_one(model, x[:, 3])
        assert layout == decision.paths
        npt.assert_allclose(matrix[3], row, atol=1e-12)

    def test_batch_pruning_matches_energy_oracle(self):
        ds = synth_generate(SynthSpec(n_features=20, n_samples=200, tail=0.5, seed=9))
        tau = 0.1
        config = CstConfig(family=Diffusion(), J=3, L=3, tau=tau)
        model = cst_fit(sample_covariance(ds.data.values), config)
        layout = decide_layout(model, ds.data.values).paths

        # oracle: full per-sample trees, then average child/parent ratios
        mats = model.matrices
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
        assert set(layout) == retained_oracle

    def test_fixed_layout_reembedding(self, rng):
        model = self._model(tau=0.2)
        pool = rng.standard_normal((20, 30))
        layout = decide_layout(model, pool).paths
        fresh = rng.standard_normal((20, 4))
        z = cst_transform_batch(model, fresh, layout=layout)
        assert isinstance(z, np.ndarray)
        assert z.shape == (4, len(layout) * 20)
        # each retained path's block is that path's recursion on the fresh signals
        mats = model.matrices
        for k, path in enumerate(layout):
            signals = fresh
            for j in path:
                signals = np.abs(mats[j] @ signals)
            npt.assert_array_equal(z[:, k * 20 : (k + 1) * 20], signals.T)

    def test_following_layout_on_subset_is_bit_equal(self, rng):
        # train is a subset of the fit pool: its rows must not depend on the rest
        model = self._model(tau=0.2)
        x = rng.standard_normal((20, 30))
        layout = decide_layout(model, x).paths
        whole = cst_transform_batch(model, x, layout)
        subset = np.array([1, 4, 5, 11, 17, 29])
        followed = cst_transform_batch(model, x[:, subset], layout=layout)
        npt.assert_array_equal(followed, whole[subset])

    def test_layout_outside_the_tree_rejected(self, rng):
        model = self._model()
        x = rng.standard_normal((20, 5))
        with pytest.raises(ConfigError):
            cst_transform_batch(model, x, layout=((), (0, 1)))  # (0,) missing
        with pytest.raises(ConfigError):
            cst_transform_batch(model, x, layout=((), (1,), (0,)))  # out of order
        with pytest.raises(ConfigError):
            cst_transform_batch(model, x, layout=((0,),))  # root missing
        with pytest.raises(ConfigError):
            cst_transform_batch(model, x, layout=())

    @pytest.mark.parametrize("aggregation", ["identity", "mean"])
    def test_followed_matrix_equals_concatenated_blocks(self, rng, aggregation):
        model = self._model(aggregation=aggregation, tau=0.1)
        pool = rng.standard_normal((20, 30))
        layout = decide_layout(model, pool).paths
        x = rng.standard_normal((20, 7))
        followed = cst_transform_batch(model, x, layout=layout)
        # reference: one block per yielded path, joined by np.concatenate in layout order
        blocks = {path: _aggregate(model, s) for path, s in _scatter(model, x, layout, {})}
        assert list(blocks) != list(layout)  # depth-first yields differ from layout order
        reference = np.concatenate([blocks[path] for path in layout], axis=1)
        assert followed.shape == (7, len(layout) * model.feature_width)
        assert followed.flags.c_contiguous
        assert np.array_equal(followed, reference)


class CountingMatrices:
    """Stand-in for ``model.matrices`` that counts the H_j it hands out for a product."""

    def __init__(self, matrices):
        self.matrices = matrices
        self.products = 0

    def __getitem__(self, j):
        self.products += 1
        return self.matrices[j]

    def __len__(self):
        return len(self.matrices)


def explicit_ratio(model, x, path):
    """Batch-mean norm ratio of ``path`` to its parent, from explicit |H_j s| products."""
    parent = x
    for j in path[:-1]:
        parent = np.abs(model.matrices[j] @ parent)
    child = np.abs(model.matrices[path[-1]] @ parent)
    parent_norms = np.linalg.norm(parent, axis=0)
    safe_parent = np.where(parent_norms > 0.0, parent_norms, 1.0)
    return float(
        np.where(parent_norms > 0.0, np.linalg.norm(child, axis=0) / safe_parent, 0.0).mean()
    )


class TestSpectralDecision:
    """The deciding pass reads child energies from the parent's covariance Fourier coefficients."""

    @given(
        family=st.sampled_from([Diffusion(), Hann(R=2.0), Monic()]),  # R < J + 1 at J = 2
        operator=st.sampled_from([NORMALIZED, INVERTED]),
        J=st.integers(2, 7),
        L=st.integers(2, 3),
        tau=st.sampled_from([0.0, 0.1, 0.3]),
        seed=st.integers(0, 2**16),
        zero_sample=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_ratios_equal_explicit_products(self, family, operator, J, L, tau, seed, zero_sample):
        config = CstConfig(family=family, J=J, L=L, tau=tau, operator_kind=operator)
        model = cst_fit(spd_covariance(12, seed), config)
        x = np.random.default_rng(seed).standard_normal((12, 9))
        if zero_sample:
            x[:, 0] = 0.0  # every node of this sample is a zero-energy parent
        decided = decide_layout(model, x)
        parents = [path for path in decided.paths if len(path) < L - 1]
        assert list(decided.ratios) == [path + (j,) for path in parents for j in range(J)]
        for path, ratio in decided.ratios.items():
            # a ratio near zero is only known to the explicit product's roundoff
            assert ratio == pytest.approx(explicit_ratio(model, x, path), rel=1e-12, abs=1e-15)
        for larger in (tau, tau + 0.05, 0.5):
            at_tau = dataclasses.replace(model, config=dataclasses.replace(config, tau=larger))
            fresh = decide_layout(at_tau, x)
            assert decided.tightened(larger).paths == fresh.paths
            assert decided.tightened(larger).pruned == fresh.pruned

    def test_zero_energy_parent_prunes_its_children(self):
        model = cst_fit(spd_covariance(12, 1), CstConfig(family=Diffusion(), J=3, L=3))
        decided = decide_layout(model, np.zeros((12, 4)))
        assert decided.paths == ((),)
        assert decided.ratios == {(0,): 0.0, (1,): 0.0, (2,): 0.0}

    def test_zero_kernel_child_pruned_at_tau_zero(self, rng):
        # inverted operator of an identity covariance: H_1 = H_2 = 0
        cov = SampleCovariance(np.eye(5), np.zeros(5), 10)
        config = CstConfig(family=Diffusion(), J=3, L=3, operator_kind=INVERTED)
        decided = decide_layout(cst_fit(cov, config), rng.standard_normal((5, 6)))
        assert decided.paths == ((), (0,), (0, 0))
        assert all(decided.ratios[path] == 0.0 for path in ((1,), (2,), (0, 1), (0, 2)))


class TestWorkCount:
    """How many H_j products each pass forms, counted, not timed."""

    def _model(self, **kwargs):
        model = cst_fit(spd_covariance(20, 6), CstConfig(family=Diffusion(), J=3, **kwargs))
        return dataclasses.replace(model, matrices=CountingMatrices(model.matrices))

    def test_decision_forms_no_last_layer_child(self, rng):
        model = self._model(L=2)
        assert len(decide_layout(model, rng.standard_normal((20, 30))).paths) > 1
        assert model.matrices.products == 0

    def test_decision_forms_only_retained_parents(self, rng):
        model = self._model(L=3, tau=0.2)
        decided = decide_layout(model, rng.standard_normal((20, 30)))
        assert model.matrices.products == sum(len(path) == 1 for path in decided.paths)

    def test_pruned_child_is_never_formed(self, rng):
        # deciding forms the retained inner paths, following every retained path
        model = self._model(L=4, tau=0.2)
        x = rng.standard_normal((20, 30))
        decided = decide_layout(model, x)
        cst_transform_batch(model, x, decided.paths)
        assert decided.pruned
        inner = sum(1 <= len(path) < model.config.L - 1 for path in decided.paths)
        assert inner and any(len(path) == model.config.L - 1 for path in decided.paths)
        assert model.matrices.products == inner + len(decided.paths) - 1

    def test_faulty_layout_rejected_before_any_product(self, rng):
        model = self._model(L=3)
        x = rng.standard_normal((20, 5))
        faulty = [
            ((), (1,), (0,)),  # out of order
            ((), (0, 0), (0,)),  # a child before its parent
            ((), (0,), (1, 0)),  # (1,) missing
            ((), (0,), (0,), (0, 0)),  # a path twice
            ((), (3,)),  # scale index outside range(J)
            ((), (0,), (0, 0), (0, 0, 0)),  # deeper than L - 1
            ((0,),),  # root missing
            ((0,), ()),
            (),
        ]
        for layout in faulty:
            with pytest.raises(ConfigError):
                layout_blocks(model, x, layout)
        # faulty signals over a sound layout raise at the call too
        layout = ((), (0,), (0, 0))
        bad_signals = ((np.full((20, 3), np.nan), InvalidData), (np.ones((19, 3)), ShapeError))
        for signals, error in bad_signals:
            with pytest.raises(error):
                layout_blocks(model, signals, layout)
            with pytest.raises(error):
                cst_transform_batch(model, signals, layout)
        assert model.matrices.products == 0

    def test_followed_pass_forms_each_path_once(self, rng):
        model = self._model(L=3, tau=0.2)
        layout = decide_layout(model, rng.standard_normal((20, 30))).paths
        model.matrices.products = 0
        blocks = list(layout_blocks(model, rng.standard_normal((20, 7)), layout))
        assert len(blocks) == len(layout)
        assert model.matrices.products == len(layout) - 1


class TestTraversal:
    """The pass walks depth-first; what it returns is in layout order."""

    def _model(self, J=3, L=4, tau=0.1):
        return cst_fit(spd_covariance(20, 6), CstConfig(family=Diffusion(), J=J, L=L, tau=tau))

    def test_decision_in_layout_order(self, rng):
        decided = decide_layout(self._model(), rng.standard_normal((20, 30)))
        assert any(len(path) == 3 for path in decided.paths)
        assert any(len(path) > 1 for path in decided.pruned)
        for paths in (decided.paths, list(decided.ratios), list(decided.pruned)):
            assert list(paths) == sorted(paths, key=lambda path: (len(path), path))

    def test_blocks_come_in_sorted_layout_order(self, rng):
        model = self._model()
        layout = decide_layout(model, rng.standard_normal((20, 30))).paths
        assert list(layout) != sorted(layout)
        x = rng.standard_normal((20, 7))
        blocks = list(layout_blocks(model, x, layout))
        assert len(blocks) == len(layout)
        for path, block in zip(sorted(layout), blocks):
            signals = x
            for j in path:
                signals = np.abs(model.matrices[j] @ signals)
            npt.assert_array_equal(block, signals.T)

    def test_memory_holds_one_chain_of_signals(self, rng):
        N, n, L = 20, 2000, 4
        model = self._model(J=4, L=L, tau=0.0)
        x = rng.standard_normal((N, n))
        layout = decide_layout(model, x).paths
        assert len(layout) == feature_count(4, L)
        # a whole layer of the tree would be J^(L-2) = 16 batches of N x n
        bound = (L + 2) * N * n * 8
        tracemalloc.start()
        try:
            decide_layout(model, x)
            deciding_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            for _ in layout_blocks(model, x, layout):
                pass
            followed_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert deciding_peak < bound
        assert followed_peak < bound

    @pytest.mark.parametrize("aggregation", ["identity", "mean"])
    def test_followed_pass_holds_one_batch_per_depth(self, rng, aggregation):
        N, n, J, L = 20, 2000, 4, 4
        config = CstConfig(family=Diffusion(), J=J, L=L, tau=0.0, aggregation=aggregation)
        model = cst_fit(spd_covariance(N, 6), config)
        x = rng.standard_normal((N, n))
        layout = decide_layout(model, x).paths
        assert len(layout) == feature_count(J, L)
        tracemalloc.start()
        try:
            matrix = cst_transform_batch(model, x, layout)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the chain above the deepest node plus that node: L - 1 batches of
        # N x n; a finished sibling still held would make it L
        assert peak - matrix.nbytes < (L - 0.5) * N * n * 8

    def test_a_chain_deeper_than_the_recursion_limit(self):
        # on this data the chain (0,), (0, 0), ... keeps ratios above 0.8 and
        # every other child's stays below 0.2, so one path is retained per layer
        x = synth_generate(SynthSpec(n_features=8, n_samples=60, tail=0.9, seed=7)).data.values
        L = sys.getrecursionlimit() + 10
        config = CstConfig(
            family=Diffusion(), J=2, L=L, tau=0.5, aggregation="mean", operator_kind=INVERTED
        )
        model = cst_fit(sample_covariance(x), config)
        layout = decide_layout(model, x).paths
        assert layout == tuple((0,) * depth for depth in range(L))
        matrix = cst_transform_batch(model, x, layout)
        signals = x
        for _ in range(L - 1):
            signals = np.abs(model.matrices[0] @ signals)
        npt.assert_array_equal(matrix[:, -1], signals.mean(axis=0))

    def test_pass_leaves_no_reference_cycle(self, rng):
        # a cycle would keep every pass's model and signals until the collector runs
        model = self._model()
        x = rng.standard_normal((20, 30))
        gc.disable()
        try:
            ref = weakref.ref(model)
            layout = decide_layout(model, x).paths
            cst_transform_batch(model, x, layout=layout)
            for _ in layout_blocks(model, x, layout):
                pass
            del model
            assert ref() is None
        finally:
            gc.enable()


class TestTightenedLayout:
    TAUS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7)

    @pytest.fixture(scope="class")
    def data(self):
        return synth_generate(SynthSpec(n_features=20, n_samples=200, tail=0.5, seed=9)).data

    @pytest.mark.parametrize("operator", [NORMALIZED, INVERTED])
    @pytest.mark.parametrize(
        "family", [Diffusion(), Hann(), Monic()], ids=["diffusion", "hann", "monic"]
    )
    def test_equals_deciding_at_each_tau(self, data, family, operator):
        config = CstConfig(family=family, J=3, L=3, tau=self.TAUS[0], operator_kind=operator)
        model = cst_fit(sample_covariance(data), config)
        decided = decide_layout(model, data.values)
        layouts = set()
        for tau in self.TAUS:
            at_tau = dataclasses.replace(model, config=dataclasses.replace(config, tau=tau))
            fresh = decide_layout(at_tau, data.values)
            tightened = decided.tightened(tau)
            assert tightened.paths == fresh.paths
            assert tightened.pruned == fresh.pruned
            layouts.add(fresh.paths)
        assert len(layouts) >= 3  # the taus do not all give the same layout

    def test_smaller_tau_rejected(self, data):
        model = cst_fit(sample_covariance(data), CstConfig(family=Diffusion(), J=3, L=3, tau=0.2))
        decided = decide_layout(model, data.values)
        assert decided.tightened(0.2).paths == decided.paths
        for tau in (0.1, float("nan")):
            with pytest.raises(ConfigError, match="decided at tau 0.2"):
                decided.tightened(tau)


class TestFeatureCount:
    @pytest.mark.parametrize("j,l,expected", [(4, 2, 5), (3, 3, 13), (7, 4, 400)])
    def test_examples(self, j, l, expected):
        assert feature_count(j, l) == expected

    @given(st.integers(2, 8), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_matches_layer_sum(self, j, l):
        assert feature_count(j, l) == sum(j**ell for ell in range(l))

    def test_invalid(self):
        with pytest.raises(InvalidScaleCount):
            feature_count(1, 2)
        with pytest.raises(ConfigError):
            feature_count(3, 0)

    def test_path_names(self):
        assert path_name(()) == "p_root"
        assert path_name((0, 2, 1)) == "p_0.2.1"
