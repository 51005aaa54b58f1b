"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import functools
import itertools
import time

import numpy as np
import numpy.testing as npt
import pytest

from covscatter.bounds import (
    cst_stability_bound,
    measured_wavelet_delta,
    signal_stability_bound,
)
from covscatter.harness import CstMethod, PcaMethod, SplitSpec, run_pruning_sweep, run_stability
from covscatter.readout import mae, pca_fit, pca_transform, ridge_path
from covscatter.scattering import (
    AGG_MEAN,
    CstConfig,
    cst_fit,
    cst_transform_batch,
    decide_layout,
    feature_count,
)
from covscatter.spectral import (
    NORMALIZED,
    SampleCovariance,
    eig_sym,
    sample_covariance,
    wavelet_operator,
)
from covscatter.synthdata import SynthSpec, eigenvalue_profile, synth_generate
from covscatter.wavelets import (
    Diffusion,
    Hann,
    Monic,
    build_filterbank,
    diffusion_apply,
    localization_profile,
    wavelet_matrices,
)

from conftest import batch_of_one, full_layout, random_spd, spd_covariance
from test_readout import ridge_gradient_descent
from test_scattering import brute_force_features
from test_spectral import two_pass_covariance

FAMILIES = {"diffusion": Diffusion(), "hann": Hann(), "monic": Monic()}


def _passed(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_01_frame_property():
    start = time.perf_counter()
    sizes = [8, 8, 8, 32, 32, 32, 64, 64, 64, 32]
    rng = np.random.default_rng(101)
    for name, family in FAMILIES.items():
        J = 4
        for idx, n in enumerate(sizes):
            cov = spd_covariance(n, 100 * idx + n)
            operator = wavelet_operator(cov, NORMALIZED, family.default_gamma(J))
            fb = build_filterbank(operator, family, J)
            mats = wavelet_matrices(fb)
            x = rng.standard_normal((n, 100))
            x /= np.linalg.norm(x, axis=0)
            total = sum(np.sum((mats[j] @ x) ** 2, axis=0) for j in range(J))
            assert np.all(total >= fb.frame_lower**2 - 1e-8), name
            assert np.all(total <= fb.frame_upper**2 + 1e-8), name
            if name == "diffusion":
                assert fb.frame_upper == 1.0
                assert fb.frame_lower == 1.0 - operator.gamma
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(1, f"frame bounds hold for all families on 10 operators x 3 ({elapsed:.2f}s)")


def test_criterion_02_diffusion_spectral_polynomial_equivalence():
    start = time.perf_counter()
    J = 6  # scales j = 0..5
    rng = np.random.default_rng(202)
    for n in (16, 48, 64):
        cov = spd_covariance(n, n)
        operator = wavelet_operator(cov, NORMALIZED, Diffusion().default_gamma(J))
        mats = wavelet_matrices(build_filterbank(operator, Diffusion(), J))
        x = rng.standard_normal((n, 50))
        poly = diffusion_apply(operator.matrix, x, J)
        for j in range(J):
            err = np.linalg.norm(mats[j] @ x - poly[j], axis=0)
            assert np.all(err <= 1e-8 * np.linalg.norm(x, axis=0))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(2, f"spectral and polynomial paths agree to 1e-8 up to j=5, N=64 ({elapsed:.2f}s)")


def test_criterion_03_permutation_equivariance():
    start = time.perf_counter()
    ds = synth_generate(SynthSpec(n_features=30, n_samples=400, tail=0.4, seed=30))
    perm = np.random.default_rng(303).permutation(30)
    pmat = np.eye(30)[perm]
    x = ds.data.values[:, 5]

    config = CstConfig(family=Diffusion(), J=3, L=3)
    model = cst_fit(sample_covariance(ds.data.values), config)
    model_p = cst_fit(sample_covariance(pmat @ ds.data.values), config)
    decision, row = batch_of_one(model, x)
    _, row_p = batch_of_one(model_p, pmat @ x)
    expected = np.concatenate(
        [row[i * 30 : (i + 1) * 30][perm] for i in range(len(decision.paths))]
    )
    npt.assert_allclose(row_p, expected, atol=1e-8)

    mean_cfg = CstConfig(family=Diffusion(), J=3, L=3, aggregation="mean")
    _, mv = batch_of_one(cst_fit(sample_covariance(ds.data.values), mean_cfg), x)
    _, mv_p = batch_of_one(cst_fit(sample_covariance(pmat @ ds.data.values), mean_cfg), pmat @ x)
    npt.assert_allclose(mv_p, mv, atol=1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _passed(3, f"permuted inputs permute (identity) or preserve (mean) outputs ({elapsed:.2f}s)")


def test_criterion_04_feature_count_formula():
    rng = np.random.default_rng(404)
    expected = {(3, 3): 13, (4, 2): 5, (7, 4): 400}
    for (J, L), count in expected.items():
        assert feature_count(J, L) == count
        model = cst_fit(spd_covariance(8, J + L), CstConfig(family=Diffusion(), J=J, L=L))
        decision, _ = batch_of_one(model, rng.standard_normal(8))
        assert len(decision.paths) == count
    _passed(4, "unpruned path counts are 13, 5 and 400 for (3,3), (4,2), (7,4)")


def test_criterion_05_signal_perturbation_bound():
    start = time.perf_counter()
    J, L, n = 3, 3, 16
    rng = np.random.default_rng(505)
    cov = spd_covariance(n, 55)
    for family in FAMILIES.values():
        model = cst_fit(cov, CstConfig(family=family, J=J, L=L))
        frame_upper = model.filterbank.frame_upper
        counts = [J**ell for ell in range(L)]
        full = full_layout(J, L)
        for _ in range(100):
            x = rng.standard_normal(n)
            delta = rng.standard_normal(n) * rng.uniform(0.01, 1.0)
            _, row = batch_of_one(model, x, full)
            _, row_d = batch_of_one(model, x + delta, full)
            measured = np.linalg.norm(row - row_d)
            bound = signal_stability_bound(frame_upper, 1.0, np.linalg.norm(delta), counts)
            assert measured <= bound * (1.0 + 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(5, f"signal-perturbation bound dominates on 100 pairs x 3 families ({elapsed:.2f}s)")


def test_criterion_06_covariance_stability_dominance():
    start = time.perf_counter()
    J, L = 3, 3
    full = full_layout(J, L)
    for family in FAMILIES.values():
        for t in (100, 1000):
            for seed in range(20):
                ds = synth_generate(
                    SynthSpec(n_features=20, n_samples=t, tail=0.5, noise_sigma=0.1, seed=seed)
                )
                config = CstConfig(family=family, J=J, L=L)
                m_true = cst_fit(SampleCovariance(ds.true_cov, np.zeros(20), t), config)
                m_est = cst_fit(sample_covariance(ds.data), config)
                delta = measured_wavelet_delta(m_true.matrices, m_est.matrices)
                frame_upper = max(
                    m_true.filterbank.frame_upper, m_est.filterbank.frame_upper
                )
                rng = np.random.default_rng(6000 + seed)
                for _ in range(3):
                    x = rng.standard_normal(20)
                    _, row_t = batch_of_one(m_true, x, full)
                    _, row_e = batch_of_one(m_est, x, full)
                    measured = np.linalg.norm(row_t - row_e)
                    bound = cst_stability_bound(
                        delta,
                        frame_upper,
                        1.0,
                        np.linalg.norm(x),
                        [J**ell for ell in range(1, L)],
                    )
                    assert measured <= bound * (1.0 + 1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(6, f"measured-delta stability bound dominates, 20 seeds x 2 sizes ({elapsed:.2f}s)")


def test_criterion_07_stability_rate():
    start = time.perf_counter()
    sizes = [50, 200, 800, 3200]
    medians = []
    config = CstConfig(family=Diffusion(), J=4, L=2)
    for t in sizes:
        errors = []
        for seed in range(20):
            ds = synth_generate(
                SynthSpec(n_features=20, n_samples=t, tail=0.5, noise_sigma=0.1, seed=seed)
            )
            m_true = cst_fit(SampleCovariance(ds.true_cov, np.zeros(20), t), config)
            m_est = cst_fit(sample_covariance(ds.data), config)
            errors.append(
                measured_wavelet_delta(m_true.matrices, m_est.matrices)
            )
        medians.append(np.median(errors))
    slope = np.polyfit(np.log(sizes), np.log(medians), 1)[0]
    assert -0.8 <= slope <= -0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(7, f"operator-error log-log slope vs T is {slope:.3f} ({elapsed:.2f}s)")


def test_criterion_08_synthetic_stability_ordering():
    start = time.perf_counter()
    split = SplitSpec(0.5, 0.1, 0.2, 0.2, seed=0)
    methods = [
        CstMethod("diff-cst", CstConfig(family=Diffusion(), J=7, L=2), alpha=1.0),
        CstMethod("hann-cst", CstConfig(family=Hann(), J=4, L=2), alpha=1.0),
        CstMethod("monic-cst", CstConfig(family=Monic(), J=4, L=2), alpha=1.0),
        PcaMethod("pca", k=20, alpha=1.0),
    ]
    medians = {}
    for tail in (0.1, 0.9):
        ds = synth_generate(
            SynthSpec(
                n_features=20,
                n_samples=1000,
                tail=tail,
                effective_rank=5.0,
                noise_sigma=0.1,
                seed=77,
            )
        )
        report = run_stability(
            ds.data, ds.targets, methods, split, subsample_fracs=[0.05], seeds=list(range(10))
        )
        for method in ("diff-cst", "hann-cst", "monic-cst", "pca"):
            values = [
                r.embedding_mse
                for r in report.rows
                if r.method == method and r.fraction == 0.05 and r.status == "ok"
            ]
            assert len(values) == 10
            medians[(tail, method)] = float(np.median(values))
    for cst in ("diff-cst", "hann-cst", "monic-cst"):
        assert medians[(0.9, "pca")] > medians[(0.9, cst)]
    assert medians[(0.9, "pca")] > medians[(0.1, "pca")]
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _passed(
        8,
        "at 5% subsampling PCA embedding MSE exceeds every CST family and grows "
        f"with tail ({elapsed:.2f}s)",
    )


def test_criterion_09_pruning_sweep():
    start = time.perf_counter()
    ds = synth_generate(
        SynthSpec(n_features=20, n_samples=1000, tail=0.5, noise_sigma=0.1, seed=21)
    )
    taus = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7]
    method = CstMethod("cst", CstConfig(family=Diffusion(), J=4, L=3), alpha=1.0)
    rows = run_pruning_sweep(
        ds.data, ds.targets, method, taus, SplitSpec(0.5, 0.1, 0.2, 0.2, seed=0), seeds=range(5)
    )
    for seed in range(5):
        counts = [r.feature_count for r in sorted(
            (r for r in rows if r.seed == seed), key=lambda r: r.tau
        )]
        assert all(b <= a for a, b in zip(counts, counts[1:]))
    base_count = np.median([r.feature_count for r in rows if r.tau == 0.0])
    base_mae = np.median([r.mae for r in rows if r.tau == 0.0])
    qualifying = [
        tau
        for tau in taus[1:]
        if np.median([r.feature_count for r in rows if r.tau == tau]) <= 0.5 * base_count
        and np.median([r.mae for r in rows if r.tau == tau]) <= 1.1 * base_mae
    ]
    assert qualifying
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(
        9,
        f"tau in {qualifying} keeps MAE within 10% at <= 50% features; counts "
        f"non-increasing ({elapsed:.2f}s)",
    )


def test_criterion_10_oracle_suite():
    start = time.perf_counter()
    # eigensolver reconstruction
    m = random_spd(24, 10)
    dec = eig_sym(m)
    recon = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
    assert np.linalg.norm(recon - m) <= 1e-8 * max(1.0, np.linalg.norm(m))

    # ridge closed form vs gradient-descent oracle
    rng = np.random.default_rng(9)
    z = rng.standard_normal((5, 50))
    y = rng.standard_normal(50)
    weights = ridge_path([z.T], y, [1.0]).weights[0]
    w_oracle, _ = ridge_gradient_descent(z, y, 1.0)
    assert np.max(np.abs(weights - w_oracle)) <= 1e-6

    # recursive scattering vs brute-force path enumeration
    cst = cst_fit(spd_covariance(16, 2), CstConfig(family=Diffusion(), J=3, L=3))
    x = rng.standard_normal(16)
    _, row = batch_of_one(cst, x)
    assert np.max(np.abs(row - brute_force_features(cst, x, 3))) <= 1e-10

    # sample covariance vs two-pass oracle
    data = rng.standard_normal((5, 50))
    assert np.max(np.abs(sample_covariance(data).matrix - two_pass_covariance(data))) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _passed(10, f"all four independent oracles agree at stated tolerances ({elapsed:.2f}s)")


def test_criterion_11_localization_bound():
    J = 4
    cov = spd_covariance(8, 11)
    operator = wavelet_operator(cov, NORMALIZED, Diffusion().default_gamma(J))
    filterbank = build_filterbank(operator, Diffusion(), J)
    for center, scale in itertools.product(range(8), (1, 2, 3)):
        profile = localization_profile(filterbank, center, scale)
        assert np.all(np.abs(profile.values) <= profile.bound + 1e-12)
    _passed(11, "diffusion localization bound holds at every center for j in {1,2,3}")


def _median_relative_error(z_true, z_estimates):
    """Median over estimates and samples of ||z - z_true|| / ||z_true||, rows being samples."""
    true_norms = np.linalg.norm(z_true, axis=1)
    return np.median([np.linalg.norm(z - z_true, axis=1) / true_norms for z in z_estimates])


def test_criterion_12_close_eigenvalues_move_pca_not_cst():
    # the abstract's claim: as two covariance eigenvalues close, a CST's
    # estimation error stays flat while PCA's grows; k=1 splits the close pair
    start = time.perf_counter()
    N, T = 20, 2000
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((N, N)))[0]
    signals = np.random.default_rng(1).standard_normal((N, 200))
    gaps = (0.3, 0.1, 0.03, 0.01, 0.003, 0.001)
    errors = {name: [] for name in ("pca", *FAMILIES)}
    for gap in gaps:
        eigenvalues = np.array([1.0, 1.0 - gap, *np.linspace(0.6, 0.05, 18)])
        matrix = (basis * eigenvalues) @ basis.T
        true_cov = SampleCovariance((matrix + matrix.T) / 2.0, np.zeros(N), T)
        chol = np.linalg.cholesky(true_cov.matrix)
        # both models are centred at the true mean, zero
        estimates = []
        for s in range(20):
            draws = chol @ np.random.default_rng(100 + s).standard_normal((N, T))
            estimates.append(SampleCovariance(sample_covariance(draws).matrix, np.zeros(N), T))
        errors["pca"].append(
            _median_relative_error(
                pca_transform(pca_fit(true_cov, 1), signals).T,
                [pca_transform(pca_fit(cov, 1), signals).T for cov in estimates],
            )
        )
        for name, family in FAMILIES.items():
            config = CstConfig(family=family, J=4, L=2)
            m_true = cst_fit(true_cov, config)
            layout = decide_layout(m_true, signals).paths
            z_true = cst_transform_batch(m_true, signals, layout)
            z_estimates = [
                cst_transform_batch(cst_fit(cov, config), signals, layout) for cov in estimates
            ]
            errors[name].append(_median_relative_error(z_true, z_estimates))
    growth = errors["pca"][-1] / errors["pca"][0]
    assert growth >= 3.0, errors["pca"]
    spreads = {name: max(errors[name]) / min(errors[name]) for name in FAMILIES}
    for name, spread in spreads.items():
        assert spread <= 1.1, (name, errors[name])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(
        12,
        f"as the top eigengap closes from 0.3 to 0.001, PCA error grows {growth:.2f}x "
        f"and CST max/min error is {', '.join(f'{s:.3f}' for s in spreads.values())} "
        f"({elapsed:.2f}s)",
    )


def test_criterion_13_cst_fits_a_target_nonlinear_in_the_spectrum():
    # the abstract's claim: untrained CSTs fit functions of the covariance
    # spectrum that linear features do not, with few labels. The target is the
    # energy of x in a band of eigendirections, which no linear model fits
    start = time.perf_counter()
    N, band, alphas, train_sizes = 20, slice(6, 12), 10.0 ** np.arange(-4, 4), (20, 200)
    basis = np.linalg.qr(np.random.default_rng(0).standard_normal((N, N)))[0]
    eigenvalues = eigenvalue_profile(N, 0.9, 1.0)
    # 5% of the energy's standard deviation, sqrt(2 sum lam^2) over the band
    noise = 0.05 * np.sqrt(2.0 * np.sum(eigenvalues[band] ** 2))

    def draw(rng, n):
        x = basis @ (np.sqrt(eigenvalues)[:, None] * rng.standard_normal((N, n)))
        y = np.sum(np.square(basis[:, band].T @ x), axis=0) + noise * rng.standard_normal(n)
        return x, y

    rng = np.random.default_rng(1)
    pool = draw(rng, 1000)[0]
    valid_x, valid_y = draw(rng, 200)
    test_x, test_y = draw(rng, 500)
    cov = sample_covariance(pool)
    pca = pca_fit(cov, 5)
    embeddings = {"raw": lambda x: x.T, "pca5": lambda x: pca_transform(pca, x).T}
    for name, family in FAMILIES.items():
        model = cst_fit(cov, CstConfig(family=family, J=6, L=2, aggregation=AGG_MEAN))
        layout = decide_layout(model, pool).paths
        embeddings[name] = functools.partial(cst_transform_batch, model, layout=layout)
    maes = {(name, t): [] for name in embeddings for t in train_sizes}
    for seed in range(5):
        train_x, train_y = draw(np.random.default_rng(100 + seed), max(train_sizes))
        for (name, embed), t in itertools.product(embeddings.items(), train_sizes):
            ridge = ridge_path([embed(train_x[:, :t])], train_y[:t], alphas)
            # alpha is picked on valid
            best = np.argmin([mae(p, valid_y) for p in ridge.predict([embed(valid_x)])])
            maes[name, t].append(mae(ridge.predict([embed(test_x)])[best], test_y))
    median = {key: float(np.median(values)) for key, values in maes.items()}
    ratios = {
        (name, t): median[name, t] / min(median["raw", t], median["pca5", t])
        for name in FAMILIES
        for t in train_sizes
    }
    # a probe of this setup read 0.80, 0.75, 0.71 at t=20 and 0.71, 0.62, 0.60 at t=200
    for key, ratio in ratios.items():
        assert ratio <= 0.9, (key, ratios)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(
        13,
        "on a band-energy target every CST family's median MAE is at most 0.9x the "
        f"better of raw and PCA k=5, at most {max(ratios.values()):.3f}x ({elapsed:.2f}s)",
    )
