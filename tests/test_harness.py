import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from covscatter import bounds, harness
from covscatter.cli import main
from covscatter.errors import ConfigError, InvalidData, InvalidK, ShapeError
from covscatter.io import read_data_csv, read_targets_csv
from covscatter.readout import mae, pca_fit, pca_transform, ridge_path
from covscatter.harness import (
    CstMethod,
    PcaMethod,
    RawMethod,
    SplitSpec,
    derived_rng,
    grid_search,
    make_split,
    run_labeled_sweep,
    run_pruning_sweep,
    run_stability,
)
from covscatter.scattering import (
    CstConfig,
    cst_fit,
    cst_transform_batch,
    decide_layout,
    feature_count,
)
from covscatter.spectral import sample_covariance
from covscatter.synthdata import SynthSpec, synth_generate
from covscatter.wavelets import Diffusion, Hann, Monic

from conftest import assert_contract

DEFAULT_SPLIT = SplitSpec(0.5, 0.1, 0.2, 0.2, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return synth_generate(
        SynthSpec(n_features=12, n_samples=300, tail=0.5, noise_sigma=0.1, seed=42)
    )


@pytest.fixture
def decisions(monkeypatch):
    """The tau of every layout decision the harness makes while the test runs."""
    calls = []
    decide = harness.decide_layout

    def counting_decide_layout(model, x):
        calls.append(model.config.tau)
        return decide(model, x)

    monkeypatch.setattr(harness, "decide_layout", counting_decide_layout)
    return calls


def _four_methods():
    return [
        CstMethod("diffusion-cst", CstConfig(family=Diffusion(), J=3, L=2), alpha=1.0),
        CstMethod("hann-cst", CstConfig(family=Hann(), J=3, L=2, tau=0.2), alpha=1.0),
        PcaMethod("pca", k=4, alpha=1.0),
        RawMethod("raw", alpha=1.0),
    ]


class TestSplit:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [10, 97, 300])
    def test_exact_partition(self, seed, n):
        split = make_split(SplitSpec(0.5, 0.1, 0.2, 0.2, seed=seed), n)
        combined = np.concatenate([split.unlabeled, split.train, split.valid, split.test])
        npt.assert_array_equal(np.sort(combined), np.arange(n))

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.2, 0.2, 0.2, seed=0)

    def test_test_fraction_required(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.6, 0.2, 0.2, 0.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.1, 0.2, 0.2, seed=-1)

    def test_derived_rng_stable(self):
        a = derived_rng(3, "subsample", 1).standard_normal(4)
        b = derived_rng(3, "subsample", 1).standard_normal(4)
        npt.assert_array_equal(a, b)


def _methods():
    return [
        CstMethod("diff-cst", CstConfig(family=Diffusion(), J=3, L=2), alpha=1.0),
        PcaMethod("pca", k=6, alpha=1.0),
        RawMethod("raw", alpha=1.0),
    ]


def _reference_fit(method, cov):
    """``method``'s model on ``cov``, as the stability protocol fits it."""
    if isinstance(method, CstMethod):
        return cst_fit(cov, method.config)
    if isinstance(method, PcaMethod):
        return pca_fit(cov, method.k)
    return None


def _reference_matrix(model, xs, layout):
    """The (n, D) feature matrix of the signals ``xs``."""
    if model is None:
        return xs.T
    if layout is None:
        return pca_transform(model, xs).T
    return cst_transform_batch(model, xs, layout)


def _reference_stability_rows(data, targets, methods, split_spec, subsample_fracs, seeds):
    """The stability rows with bounds, recomputed from (n, D) feature matrices
    and one-block ridge fits, in the harness's row order."""
    x, y = data.values, np.asarray(targets, dtype=np.float64)
    split = make_split(split_spec, data.n_samples)
    pool, test_x = split.fit_pool, x[:, split.test]
    norm_max = float(np.linalg.norm(test_x, axis=0).max())
    fractions = sorted(set(subsample_fracs) | {1.0})
    pool_cov = sample_covariance(x[:, pool])
    rows = []
    for method in methods:
        clean = _reference_fit(method, pool_cov)
        is_cst = isinstance(method, CstMethod)
        layout = decide_layout(clean, x[:, pool]).paths if is_cst else None
        train = _reference_matrix(clean, x[:, split.train], layout)
        ridge = ridge_path([train], y[split.train], [method.alpha])
        z = _reference_matrix(clean, test_x, layout)
        for fraction in fractions:
            for seed in seeds:
                size = int(round(fraction * pool.shape[0]))
                if size < 2:
                    rows.append(
                        harness.StabilityRow(method.name, fraction, seed, "skipped", None, None)
                    )
                    continue
                rng = derived_rng(seed, "subsample", fractions.index(fraction))
                subsample = np.sort(rng.choice(pool, size=size, replace=False))
                refit = _reference_fit(method, sample_covariance(x[:, subsample]))
                z_hat = _reference_matrix(refit, test_x, layout)
                dist = float(np.linalg.norm(z_hat - z, axis=1).max())
                delta = bound = None
                if is_cst:
                    delta, bound = bounds.measured_stability_bound(clean, refit, layout, norm_max)
                row_mae = mae(ridge.predict([z_hat])[0], y[split.test])
                row_mse = float(np.mean(np.square(z_hat - z)))
                rows.append(
                    harness.StabilityRow(
                        method.name, fraction, seed, "ok", row_mae, row_mse, delta, dist, bound
                    )
                )
    rows.sort(key=lambda r: (r.method, r.fraction, r.seed))
    return rows


class TestStability:
    def test_a_refit_that_cannot_be_fitted_names_itself(self, tmp_path):
        # 12 of the fit pool's 600 samples span at most 11 of the 20 dimensions, so
        # each refit's lower monic quartile is 0 or round-off of it (8.8e-18 at
        # seed 1); both rows are `failed`, with blank values, and every other row
        # is kept. The pool's own fit passes
        data = tmp_path / "d"
        assert main(["synth", "--out", str(data), "--seed", "7", "--n", "20", "--t", "1000",
                     "--tail", "0.9"]) == 0
        families = {"diffusion": Diffusion(), "hann": Hann(), "monic": Monic()}
        methods = [
            CstMethod(f"{name}-cst", CstConfig(family=family, J=4, L=2), alpha=1.0)
            for name, family in families.items()
        ]
        report = run_stability(
            read_data_csv(data / "data.csv"),
            read_targets_csv(data / "targets.csv"),
            methods,
            DEFAULT_SPLIT,
            subsample_fracs=[0.02, 0.5],
            seeds=[0, 1],
        )
        statuses = [(r.method, r.fraction, r.seed, r.status) for r in report.rows]
        cells = [(f"{name}-cst", f, seed) for name in families for f in (0.02, 0.5, 1.0) for seed in (0, 1)]
        assert statuses == [
            (*cell, "failed" if cell[:2] == ("monic-cst", 0.02) else "ok") for cell in cells
        ]
        failed = [r for r in report.rows if r.status == "failed"]
        assert len(failed) == 2
        assert all((r.mae, r.embedding_mse) == (None, None) for r in failed)
        argv = [
            "stability", "--data", str(data / "data.csv"), "--targets", str(data / "targets.csv"),
            "--seed", "0", "--families", ",".join(families), "--fractions", "0.02,0.5", "--runs", "2",
        ]
        assert assert_contract(argv, tmp_path / "r") == (0, "")
        csv_rows = (tmp_path / "r" / "stability.csv").read_text().splitlines()[1:]
        # the command appends the raw baseline, whose rows sort last
        statuses += [("raw", f, seed, "ok") for f in (0.02, 0.5, 1.0) for seed in (0, 1)]
        assert [row.split(",")[3] for row in csv_rows] == [status[-1] for status in statuses]
        assert "monic-cst,0.02,0,failed,,,,," in csv_rows
        assert "monic-cst,0.02,1,failed,,,,," in csv_rows
        provenance = (tmp_path / "r" / "stability.provenance.txt").read_text()
        assert "\n[derived]\nfailed_rows = 2\n" in provenance

    def test_full_fraction_mse_exactly_zero(self, dataset):
        report = run_stability(
            dataset.data,
            dataset.targets,
            _methods(),
            DEFAULT_SPLIT,
            subsample_fracs=[1.0],
            seeds=[0, 1],
        )
        assert report.rows
        for row in report.rows:
            assert row.status == "ok"
            assert row.embedding_mse == 0.0

    def test_deterministic_rows(self, dataset):
        kwargs = dict(
            methods=_methods(),
            split_spec=DEFAULT_SPLIT,
            subsample_fracs=[0.2, 1.0],
            seeds=[0, 1, 2],
        )
        a = run_stability(dataset.data, dataset.targets, **kwargs)
        b = run_stability(dataset.data, dataset.targets, **kwargs)
        assert a == b

    def test_clean_row_present_and_schema_fixed(self, dataset):
        report = run_stability(
            dataset.data,
            dataset.targets,
            _methods(),
            DEFAULT_SPLIT,
            subsample_fracs=[0.2],
            seeds=[0],
        )
        fractions = {row.fraction for row in report.rows}
        assert 1.0 in fractions
        assert harness.columns(harness.StabilityRow) == [
            "method",
            "fraction",
            "seed",
            "status",
            "mae",
            "embedding_mse",
            "delta_measured",
            "embedding_dist_max",
            "stability_bound",
        ]

    def test_tiny_subsample_skipped(self, dataset):
        report = run_stability(
            dataset.data,
            dataset.targets,
            [_methods()[0]],
            DEFAULT_SPLIT,
            subsample_fracs=[0.001],
            seeds=[0],
        )
        statuses = {row.fraction: row.status for row in report.rows}
        assert statuses[0.001] == "skipped"
        assert statuses[1.0] == "ok"

    def test_bound_columns(self, dataset):
        report = run_stability(
            dataset.data,
            dataset.targets,
            [_methods()[0]],
            DEFAULT_SPLIT,
            subsample_fracs=[0.3],
            seeds=[0],
            include_bounds=True,
        )
        ok = [r for r in report.rows if r.fraction == 0.3]
        assert all(r.delta_measured is not None and r.stability_bound is not None for r in ok)
        assert all(r.embedding_dist_max is not None for r in ok)

    def test_pca_rows_record_the_largest_test_distance(self, dataset):
        method = PcaMethod("pca", k=6, alpha=1.0)
        report = run_stability(
            dataset.data,
            dataset.targets,
            [method],
            DEFAULT_SPLIT,
            subsample_fracs=[0.3],
            seeds=[0, 1],
            include_bounds=True,
        )
        x = dataset.data.values
        split = make_split(DEFAULT_SPLIT, dataset.data.n_samples)
        pool, test_x = split.fit_pool, x[:, split.test]
        z = pca_transform(pca_fit(sample_covariance(x[:, pool]), method.k), test_x)
        size = int(round(0.3 * pool.shape[0]))
        for row in report.rows:
            assert row.delta_measured is None and row.stability_bound is None
            if row.fraction == 1.0:
                assert row.embedding_dist_max == 0.0
                continue
            rng = derived_rng(row.seed, "subsample", 0)  # 0.3 is the first of [0.3, 1.0]
            subsample = np.sort(rng.choice(pool, size=size, replace=False))
            refit = pca_fit(sample_covariance(x[:, subsample]), method.k)
            z_hat = pca_transform(refit, test_x)
            expected = np.linalg.norm(z_hat - z, axis=0).max()
            npt.assert_allclose(row.embedding_dist_max, expected, rtol=1e-12, atol=0.0)


    def test_subsample_estimates_shared_across_methods(self, dataset, eig_calls):
        methods = [
            CstMethod("diff-cst", CstConfig(family=Diffusion(), J=3, L=2), alpha=1.0),
            CstMethod("hann-cst", CstConfig(family=Hann(), J=3, L=2), alpha=1.0),
        ]
        run_stability(
            dataset.data,
            dataset.targets,
            methods,
            DEFAULT_SPLIT,
            subsample_fracs=[0.5, 1.0],
            seeds=[0, 1],
        )
        # the pool, then each (fraction, seed) subsample once
        assert len(eig_calls) == 1 + 2 * 2

    def test_methods_run_as_given(self, dataset, decisions):
        # the protocol replaces no config: a CST method is decided at its own tau
        method = CstMethod("hann-cst", CstConfig(family=Hann(), J=3, L=2, tau=0.2), alpha=1.0)
        report = run_stability(
            dataset.data, dataset.targets, [method], DEFAULT_SPLIT, subsample_fracs=[0.5], seeds=[0]
        )
        assert decisions == [0.2]
        assert [row.status for row in report.rows] == ["ok", "ok"]

    def test_bad_method_rejected_before_any_refit(self, dataset, eig_calls):
        with pytest.raises(InvalidK):
            run_stability(
                dataset.data,
                dataset.targets,
                [_methods()[0], PcaMethod("pca", k=0, alpha=1.0)],
                DEFAULT_SPLIT,
                subsample_fracs=[0.5],
                seeds=[0, 1],
            )
        assert len(eig_calls) == 1

    def test_rows_equal_one_method_runs(self, dataset):
        kwargs = dict(
            split_spec=DEFAULT_SPLIT,
            subsample_fracs=[0.001, 0.3, 1.0],
            seeds=[0, 1],
            include_bounds=True,
        )
        together = run_stability(dataset.data, dataset.targets, _four_methods(), **kwargs)
        apart = [
            row
            for method in _four_methods()
            for row in run_stability(dataset.data, dataset.targets, [method], **kwargs).rows
        ]
        apart.sort(key=lambda r: (r.method, r.fraction, r.seed))
        assert together.rows == tuple(apart)

    def test_rows_equal_a_materialized_reference(self, dataset):
        # 30 train samples: diff-cst's 48 features take the dual, the others the primal
        methods = [
            CstMethod("diff-cst", CstConfig(family=Diffusion(), J=3, L=2), alpha=1.0),
            CstMethod(
                "hann-mean", CstConfig(family=Hann(), J=3, L=3, aggregation="mean"), alpha=1.0
            ),
            PcaMethod("pca", k=6, alpha=1.0),
            RawMethod("raw", alpha=1.0),
        ]
        kwargs = dict(split_spec=DEFAULT_SPLIT, subsample_fracs=[0.001, 0.3, 1.0], seeds=[0, 1])
        report = run_stability(
            dataset.data, dataset.targets, methods, include_bounds=True, **kwargs
        )
        reference = _reference_stability_rows(dataset.data, dataset.targets, methods, **kwargs)
        assert len(report.rows) == len(reference) == 4 * 3 * 2
        floats = ("mae", "embedding_mse", "embedding_dist_max")
        for row, expected in zip(report.rows, reference):
            # every other field, the measured delta and the bound included, exactly
            assert row == dataclasses.replace(expected, **{n: getattr(row, n) for n in floats})
            for name in floats:
                got, want = getattr(row, name), getattr(expected, name)
                assert (got is None) == (want is None), name
                if want is not None:
                    npt.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=name)

    def test_holds_no_test_feature_matrix(self, dataset):
        # J=4 and L=4 keep 85 paths of 12 features, D = 1,020, for 180 test samples
        spec = SplitSpec(0.2, 0.2, 0.0, 0.6, seed=0)
        n_test = make_split(spec, dataset.data.n_samples).test.shape[0]
        method = CstMethod("diff-cst", CstConfig(family=Diffusion(), J=4, L=4), alpha=1.0)
        d = feature_count(4, 4) * dataset.data.n_features
        tracemalloc.start()
        try:
            report = run_stability(
                dataset.data,
                dataset.targets,
                [method],
                spec,
                subsample_fracs=[0.5],
                seeds=[0],
                include_bounds=True,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.status == "ok" for r in report.rows)
        # the clean test blocks are one (n_test, D) matrix's worth; a refit
        # that concatenated its blocks would hold at least two more
        assert peak < 2 * n_test * d * 8


class TestPruningSweep:
    def test_counts_and_tau_zero_width(self, dataset):
        method = CstMethod("cst", CstConfig(family=Diffusion(), J=3, L=3), alpha=1.0)
        rows = run_pruning_sweep(
            dataset.data,
            dataset.targets,
            method,
            taus=[0.0, 0.1, 0.3, 0.6],
            split_spec=DEFAULT_SPLIT,
            seeds=[0, 1],
        )
        for seed in (0, 1):
            per_seed = [r for r in rows if r.seed == seed]
            per_seed.sort(key=lambda r: r.tau)
            assert per_seed[0].feature_count == feature_count(3, 3) * 12
            counts = [r.feature_count for r in per_seed]
            assert all(b <= a for a, b in zip(counts, counts[1:]))

    def test_taus_are_a_set(self, dataset, decisions):
        method = CstMethod("cst", CstConfig(family=Diffusion(), J=3, L=3), alpha=1.0)
        kwargs = dict(split_spec=DEFAULT_SPLIT, seeds=[0, 1])
        taus = [0.0, 0.1, 0.3]
        expected = run_pruning_sweep(dataset.data, dataset.targets, method, taus, **kwargs)
        assert len({r.feature_count for r in expected}) > 1  # the taus prune differently
        for taus in ([0.3, 0.1, 0.0], [0.1, 0.0, 0.1, 0.3, 0.3]):
            decisions.clear()
            rows = run_pruning_sweep(dataset.data, dataset.targets, method, taus, **kwargs)
            assert rows == expected
            assert decisions == [0.0, 0.0]  # decided at the smallest tau

    @pytest.mark.parametrize("taus", [[0.0, 1.5], [0.0, float("nan"), 0.5]], ids=["one", "nan"])
    def test_out_of_range_tau_rejected_before_any_fit(self, dataset, eig_calls, taus):
        method = CstMethod("cst", CstConfig(family=Diffusion(), J=3, L=2), alpha=1.0)
        # the range check names the tau before any fit
        with pytest.raises(ConfigError, match=f"got {taus[1]}"):
            run_pruning_sweep(dataset.data, dataset.targets, method, taus, DEFAULT_SPLIT, [0])
        assert eig_calls == []

    def test_rows_equal_one_tau_runs(self, dataset, eig_calls, decisions):
        method = CstMethod("cst", CstConfig(family=Diffusion(), J=3, L=3), alpha=1.0)
        kwargs = dict(split_spec=DEFAULT_SPLIT, seeds=[0, 1])
        taus = [0.05, 0.1, 0.3, 0.6]
        together = run_pruning_sweep(dataset.data, dataset.targets, method, taus, **kwargs)
        # one fit per seed, decided at the smallest tau
        assert len(eig_calls) == 2 and decisions == [0.05, 0.05]
        apart = [
            row
            for tau in taus
            for row in run_pruning_sweep(dataset.data, dataset.targets, method, [tau], **kwargs)
        ]
        apart.sort(key=lambda r: (r.tau, r.seed))
        assert together == apart
        assert len({r.feature_count for r in together}) > 1  # the taus prune differently


class TestLabeledSweep:
    def test_raw_equals_full_rank_pca(self, dataset):
        methods = [
            PcaMethod("pca-full", k=12, alpha=1.0),
            RawMethod("raw", alpha=1.0),
        ]
        rows = run_labeled_sweep(
            dataset.data,
            dataset.targets,
            methods,
            train_fracs=[0.4],
            split_template=DEFAULT_SPLIT,
            seeds=[0, 1],
        )
        by = {(r.method, r.seed): r.mae for r in rows}
        for seed in (0, 1):
            assert by[("pca-full", seed)] == pytest.approx(by[("raw", seed)], abs=1e-8)

    def test_mean_aggregation_width_is_path_count(self, dataset):
        config = CstConfig(family=Diffusion(), J=3, L=2, aggregation="mean")
        rows = run_labeled_sweep(
            dataset.data,
            dataset.targets,
            [CstMethod("cst-mean", config, alpha=1.0)],
            train_fracs=[0.2],
            split_template=DEFAULT_SPLIT,
            seeds=[0],
        )
        assert rows[0].feature_width == feature_count(3, 2)

    def test_tiny_training_set_skipped(self, dataset):
        rows = run_labeled_sweep(
            dataset.data,
            dataset.targets,
            [RawMethod("raw", alpha=1.0)],
            train_fracs=[0.001],
            split_template=DEFAULT_SPLIT,
            seeds=[0],
        )
        assert rows[0].status == "skipped"


    def test_rows_equal_one_method_runs(self, dataset):
        kwargs = dict(
            train_fracs=[0.001, 0.2],
            split_template=DEFAULT_SPLIT,
            seeds=[0, 1],
        )
        together = run_labeled_sweep(dataset.data, dataset.targets, _four_methods(), **kwargs)
        apart = [
            row
            for method in _four_methods()
            for row in run_labeled_sweep(dataset.data, dataset.targets, [method], **kwargs)
        ]
        apart.sort(key=lambda r: (r.method, r.train_frac, r.seed))
        assert together == apart

    def test_rows_equal_one_fraction_runs(self, dataset, eig_calls, decisions):
        # a split per fraction would round these fractions' fit pools to 236
        # and 235 of the 300 samples; one split per seed leaves one pool
        template = SplitSpec(0.685, 0.1, 0.1, 0.115, seed=0)
        fracs = [0.1, 0.2]
        methods = _four_methods()
        kwargs = dict(split_template=template, seeds=[0, 1])
        together = run_labeled_sweep(dataset.data, dataset.targets, methods, fracs, **kwargs)
        # each seed's pool is estimated once and fitted once per CST method
        assert len(eig_calls) == 2 and len(decisions) == 2 * 2
        apart = [
            row
            for f in fracs
            for row in run_labeled_sweep(dataset.data, dataset.targets, methods, [f], **kwargs)
        ]
        apart.sort(key=lambda r: (r.method, r.train_frac, r.seed))
        assert together == apart

    def test_shared_pool_fitted_once_per_seed(self, dataset, eig_calls, decisions):
        # with the default template every train fraction leaves the same fit pool
        run_labeled_sweep(
            dataset.data, dataset.targets, _four_methods(), [0.05, 0.1, 0.2], DEFAULT_SPLIT, [0, 1]
        )
        assert len(eig_calls) == 2 and len(decisions) == 2 * 2

    def test_test_set_embedded_once_per_method_and_seed(self, dataset, monkeypatch):
        # every embedding of a CST method is a followed pass
        calls = []
        follow = harness.layout_blocks

        def counting_follow(model, x, layout):
            calls.append(np.array(x))
            return follow(model, x, layout)

        monkeypatch.setattr(harness, "layout_blocks", counting_follow)
        methods = [
            CstMethod(f"cst-{agg}", CstConfig(Diffusion(), J=3, L=2, aggregation=agg), alpha=1.0)
            for agg in ("identity", "mean")
        ]
        # README's train fractions, each of which leaves one test set per seed
        rows = run_labeled_sweep(
            dataset.data, dataset.targets, methods, [0.006, 0.05, 0.2, 0.4], DEFAULT_SPLIT, [0, 1]
        )
        for seed in (0, 1):
            split = make_split(dataclasses.replace(DEFAULT_SPLIT, seed=seed), 300)
            test_x = dataset.data.values[:, split.test]
            assert sum(np.array_equal(c, test_x) for c in calls) == len(methods)
        # and every other call follows one row's train set: once for a primal
        # readout (D <= t), twice for a dual one
        pool_size = make_split(DEFAULT_SPLIT, 300).fit_pool.size
        train_passes = 0
        for row in rows:
            if row.status == "ok":
                t = min(round(row.train_frac * 300), pool_size)
                train_passes += 1 + (row.feature_width > t)
        assert 0 < sum(r.status == "ok" for r in rows) < train_passes
        assert len(calls) == train_passes + 2 * len(methods)

    def test_pool_is_the_template_unlabeled_and_train_parts(self, dataset, monkeypatch):
        estimated = []
        estimate = harness.sample_covariance

        def recording_sample_covariance(x):
            estimated.append(np.array(x))
            return estimate(x)

        monkeypatch.setattr(harness, "sample_covariance", recording_sample_covariance)
        template = SplitSpec(0.3, 0.3, 0.2, 0.2, seed=0)
        rows = run_labeled_sweep(
            dataset.data, dataset.targets, [RawMethod("raw", alpha=1.0)], [0.5], template, [1]
        )
        split = make_split(dataclasses.replace(template, seed=1), 300)
        assert split.train.size == 90 and split.fit_pool.size == 180
        assert len(estimated) == 1
        npt.assert_array_equal(estimated[0], dataset.data.values[:, split.fit_pool])
        # half of the 300 samples are labeled, all from the pool
        assert rows[0].status == "ok"

    def test_repeated_fractions_count_once(self, dataset):
        kwargs = dict(methods=_four_methods(), split_template=DEFAULT_SPLIT, seeds=[0, 1])
        once = run_labeled_sweep(dataset.data, dataset.targets, train_fracs=[0.1, 0.2], **kwargs)
        twice = run_labeled_sweep(
            dataset.data, dataset.targets, train_fracs=[0.2, 0.1, 0.2, 0.1], **kwargs
        )
        assert twice == once

    def test_every_fraction_checked_before_any_fit(self, dataset, eig_calls):
        for fracs, message in [
            ([0.1, 0.7], "train fraction 0.7"),
            ([0.1, -0.1], "must be non-negative"),
            ([0.1, float("nan")], "must be non-negative"),
        ]:
            with pytest.raises(ConfigError, match=message):
                run_labeled_sweep(
                    dataset.data, dataset.targets, _four_methods(), fracs, DEFAULT_SPLIT, [0]
                )
        assert eig_calls == []


class TestGridSearch:
    def test_repeated_grid_values_count_once(self, dataset):
        base = CstConfig(family=Diffusion(), J=3, L=2)
        once = grid_search(
            dataset.data, dataset.targets, base, [3, 2], [2], ["normalized"], [10.0, 1.0],
            DEFAULT_SPLIT,
        )
        # the rows follow the grids' first-seen order
        assert [(r.J, r.alpha) for r in once[0]] == [(3, 10.0), (3, 1.0), (2, 10.0), (2, 1.0)]
        twice = grid_search(
            dataset.data, dataset.targets, base, [3, 2, 3], [2, 2], ["normalized"] * 2,
            [10.0, 1.0, 10.0], DEFAULT_SPLIT,
        )
        assert twice == once

    def test_selects_minimum_validation_mae(self, dataset):
        rows, best = grid_search(
            dataset.data,
            dataset.targets,
            CstConfig(family=Diffusion(), J=3, L=2),
            j_grid=[2, 3],
            l_grid=[1, 2],
            operator_grid=["normalized"],
            alpha_grid=[1.0, 10.0],
            split_spec=DEFAULT_SPLIT,
        )
        assert best.selected
        best_mae = min(r.valid_mae for r in rows)
        assert best.valid_mae == best_mae
        ties = [r for r in rows if r.valid_mae == best_mae]
        assert best.feature_count == min(r.feature_count for r in ties)

    # primal: mean aggregation gives one feature per path, at most 13 <= 30 train
    # samples; dual: identity aggregation gives 12 per path, more than 30. The
    # dual branch sums its kernel path by path, so its MAEs equal the
    # materialized solve's only up to the order of the sums.
    @pytest.mark.parametrize(
        "aggregation, rel", [("mean", 0.0), ("identity", 1e-12)], ids=["primal", "dual"]
    )
    def test_rows_equal_per_alpha_ridge_fits(self, dataset, aggregation, rel):
        config = CstConfig(family=Diffusion(), J=3, L=3, tau=0.1, aggregation=aggregation)
        alphas = [1.0, 10.0]
        rows, _ = grid_search(
            dataset.data,
            dataset.targets,
            config,
            j_grid=[3],
            l_grid=[3],
            operator_grid=["normalized"],
            alpha_grid=alphas,
            split_spec=DEFAULT_SPLIT,
        )
        # reference: one ridge_path per alpha on the materialized features, cut
        # into the followed passes' path blocks, which come in sorted path order
        x, y = dataset.data.values, dataset.targets
        split = make_split(DEFAULT_SPLIT, dataset.data.n_samples)
        model = cst_fit(sample_covariance(x[:, split.fit_pool]), config)
        layout = decide_layout(model, x[:, split.fit_pool]).paths
        width = model.feature_width

        slots = sorted(range(len(layout)), key=layout.__getitem__)

        def path_blocks(signals):
            z = cst_transform_batch(model, signals, layout=layout)
            return [z[:, s * width : (s + 1) * width] for s in slots]

        train_blocks, valid_blocks = path_blocks(x[:, split.train]), path_blocks(x[:, split.valid])
        d = len(layout) * width
        assert (d > split.train.shape[0]) == (aggregation == "identity")
        expected = [
            mae(
                ridge_path(train_blocks, y[split.train], [alpha]).predict(valid_blocks)[0],
                y[split.valid],
            )
            for alpha in alphas
        ]
        assert [r.alpha for r in rows] == alphas
        if rel == 0.0:
            assert [r.valid_mae for r in rows] == expected
        else:
            assert [r.valid_mae for r in rows] == pytest.approx(expected, rel=rel, abs=0.0)
        assert all(r.feature_count == d for r in rows)

    def test_repeated_runs_equal(self, dataset):
        # L=1 keeps the root alone, 12 features for 30 train samples (primal); L=3 more (dual)
        grid = dict(
            j_grid=[2, 3], l_grid=[1, 3], operator_grid=["normalized"],
            alpha_grid=[1.0, 10.0], split_spec=DEFAULT_SPLIT,
        )
        base = CstConfig(family=Diffusion(), J=3, L=3, tau=0.1)
        first, _ = grid_search(dataset.data, dataset.targets, base, **grid)
        second, _ = grid_search(dataset.data, dataset.targets, base, **grid)
        assert first == second
        train = make_split(DEFAULT_SPLIT, dataset.data.n_samples).train.shape[0]
        counts = {r.feature_count for r in first}
        assert min(counts) <= train < max(counts)  # both readout branches ran

    def test_dual_branch_holds_no_feature_matrix(self, dataset):
        # J=4 and L=4 keep up to 85 paths of 12 features for 60 train samples (dual)
        spec = SplitSpec(0.0, 0.2, 0.6, 0.2, seed=0)
        split = make_split(spec, dataset.data.n_samples)
        config = CstConfig(family=Diffusion(), J=4, L=4)
        tracemalloc.start()
        try:
            rows, _ = grid_search(
                dataset.data, dataset.targets, config, [4], [4], ["normalized"], [1.0, 10.0], spec
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d = rows[0].feature_count
        assert d > split.train.shape[0]
        # the (D, n_train) and (D, n_valid) matrices a materialized readout holds;
        # the streamed call peaks near a third of their size
        assert peak < d * (split.train.shape[0] + split.valid.shape[0]) * 8

    def test_rows_equal_one_point_grids(self, dataset):
        base = CstConfig(family=Diffusion(), J=3, L=3, tau=0.1)
        grid = dict(l_grid=[3], alpha_grid=[1.0, 10.0], split_spec=DEFAULT_SPLIT)
        rows, _ = grid_search(
            dataset.data,
            dataset.targets,
            base,
            j_grid=[2, 3],
            operator_grid=["normalized", "inverted"],
            **grid,
        )
        apart = [
            row
            for j in (2, 3)
            for kind in ("normalized", "inverted")
            for row in grid_search(
                dataset.data, dataset.targets, base, j_grid=[j], operator_grid=[kind], **grid
            )[0]
        ]

        def unselected(rs):
            return [dataclasses.replace(r, selected=False) for r in rs]

        assert unselected(rows) == unselected(apart)


PROTOCOLS = {
    "stability": lambda data, y: run_stability(
        data, y, _methods(), DEFAULT_SPLIT, subsample_fracs=[1.0], seeds=[0]
    ),
    "pruning-sweep": lambda data, y: run_pruning_sweep(
        data, y, _methods()[0], [0.0], DEFAULT_SPLIT, seeds=[0]
    ),
    "labeled-sweep": lambda data, y: run_labeled_sweep(
        data, y, _methods(), [0.1], DEFAULT_SPLIT, seeds=[0]
    ),
    "grid-search": lambda data, y: grid_search(
        data, y, _methods()[0].config, [3], [2], ["normalized"], [1.0], DEFAULT_SPLIT
    ),
}


class TestTargetsLength:
    # the dataset has 300 samples: too few targets, then too many
    @pytest.mark.parametrize("n_targets", [150, 400])
    @pytest.mark.parametrize("protocol", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_mismatch_is_shape_error(self, dataset, protocol, n_targets):
        targets = np.resize(dataset.targets, n_targets)
        with pytest.raises(ShapeError, match="expected 300 targets"):
            protocol(dataset.data, targets)


class TestNonFiniteTargets:
    # a valid-set sample, which no protocol trains on: only a check of the
    # targets themselves can catch it
    @pytest.mark.parametrize("protocol", PROTOCOLS.values(), ids=PROTOCOLS.keys())
    def test_nan_target_is_data_error(self, dataset, eig_calls, protocol):
        targets = dataset.targets.copy()
        targets[make_split(DEFAULT_SPLIT, dataset.data.n_samples).valid[20]] = np.nan
        with pytest.raises(InvalidData, match="targets contain non-finite entries"):
            protocol(dataset.data, targets)
        assert eig_calls == []
