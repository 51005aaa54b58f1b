"""Experiment protocols: covariance-perturbation stability, pruning and
labeled-size sweeps, and grid search over transform configurations.

All randomness flows from explicit seeds through :func:`derived_rng`, so a
repeated run emits byte-identical reports. Subsample indices are sorted
before fitting, which makes the full-pool refit bit-identical to the clean
fit (embedding MSE exactly zero at fraction 1.0).

Each fit pool and each subsample is estimated once: one
:class:`~covscatter.spectral.SampleCovariance`, and so one eigensolve,
serves every method and configuration fitted on it. The full-pool refit
is estimated apart from the clean fit, so its bit-identity is measured,
not assumed.

Each protocol returns frozen row dataclasses; a report's columns are its row
class's fields, in order (:func:`columns`).
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, ShapeError
from .readout import (
    PcaModel,
    dual_ridge_predict,
    mae,
    mse,
    pca_fit,
    pca_transform,
    ridge_fit,
    ridge_path,
)
from .scattering import (
    CstConfig,
    CstModel,
    Path,
    cst_fit,
    cst_transform_batch,
    decide_layout,
    layout_blocks,
)
from .spectral import DataMatrix, SampleCovariance, sample_covariance
from .wavelets import family_name
from . import bounds as bounds_mod


def columns(row_type) -> list[str]:
    """The CSV header of a report: its row dataclass's field names, in order."""
    return [field.name for field in dataclasses.fields(row_type)]


def derived_rng(*labels) -> np.random.Generator:
    """Generator derived from a tuple of ints/strings; stable across runs."""
    entropy = [
        part if isinstance(part, (int, np.integer)) else zlib.crc32(str(part).encode())
        for part in labels
    ]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass(frozen=True)
class SplitSpec:
    unlabeled_frac: float
    train_frac: float
    valid_frac: float
    test_frac: float
    seed: int

    def __post_init__(self):
        fracs = (self.unlabeled_frac, self.train_frac, self.valid_frac, self.test_frac)
        if not all(f >= 0.0 for f in fracs):
            raise ConfigError("split fractions must be non-negative")
        if not abs(sum(fracs) - 1.0) <= 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)}")
        if not self.test_frac > 0.0:
            raise ConfigError("test fraction must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Split:
    unlabeled: np.ndarray
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    @property
    def fit_pool(self) -> np.ndarray:
        """Union of unlabeled and training indices, in canonical order."""
        return np.sort(np.concatenate([self.unlabeled, self.train]))


def make_split(spec: SplitSpec, n_samples: int) -> Split:
    """Exact partition of the index set by cumulative rounding."""
    perm = np.random.default_rng(spec.seed).permutation(n_samples)
    cuts = np.round(
        np.cumsum([spec.unlabeled_frac, spec.train_frac, spec.valid_frac]) * n_samples
    ).astype(int)
    return Split(
        unlabeled=perm[: cuts[0]],
        train=perm[cuts[0] : cuts[1]],
        valid=perm[cuts[1] : cuts[2]],
        test=perm[cuts[2] :],
    )


# ---------------------------------------------------------------------------
# methods


@dataclass(frozen=True)
class CstMethod:
    name: str
    config: CstConfig
    alpha: float


@dataclass(frozen=True)
class PcaMethod:
    name: str
    k: int
    alpha: float


@dataclass(frozen=True)
class RawMethod:
    name: str
    alpha: float


Method = Union[CstMethod, PcaMethod, RawMethod]


@dataclass(frozen=True)
class _Embedding:
    """A method's unsupervised embedding, fitted on one covariance estimate."""

    model: CstModel | PcaModel | None  # None: the raw features
    layout: tuple[Path, ...] | None = None  # a CST model's retained paths

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Features as columns: (D, n_samples)."""
        if self.model is None:
            return x
        if isinstance(self.model, PcaModel):
            return pca_transform(self.model, x)
        return cst_transform_batch(self.model, x, layout=self.layout).matrix.T


def _fit(method: Method, cov: SampleCovariance, pool_x=None, layout=None) -> _Embedding:
    """Fit ``method`` on ``cov``; a CST method without ``layout`` decides it on ``pool_x``."""
    if isinstance(method, RawMethod):
        return _Embedding(None)
    if isinstance(method, PcaMethod):
        return _Embedding(pca_fit(cov, method.k))
    model = cst_fit(cov, method.config)
    if layout is None:
        layout = decide_layout(model, pool_x).paths
    return _Embedding(model, layout)


def _xy(data: DataMatrix, targets) -> tuple[np.ndarray, np.ndarray]:
    """The signals and the targets as float arrays, one target per sample."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (data.n_samples,):
        raise ShapeError(f"expected {data.n_samples} targets, got shape {y.shape}")
    return data.values, y


DEFAULT_SUBSAMPLE_FRACS = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)


@dataclass(frozen=True)
class StabilityRow:
    method: str
    fraction: float
    seed: int
    status: str
    mae: float | None
    embedding_mse: float | None
    delta_measured: float | None = None
    stability_bound: float | None = None


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[StabilityRow, ...]
    include_bounds: bool

    def header(self) -> list[str]:
        """The row fields, without the two bound columns unless they were computed."""
        names = columns(StabilityRow)
        return names if self.include_bounds else names[:-2]


def _layer_counts(layout_paths, n_layers: int) -> list[int]:
    """Retained path counts for layers 1 .. n_layers - 1."""
    counts = [0] * n_layers
    for path in layout_paths:
        counts[len(path)] += 1
    return counts[1:]


def run_stability(
    data: DataMatrix,
    targets: np.ndarray,
    methods: Sequence[Method],
    split_spec: SplitSpec,
    subsample_fracs: Sequence[float] = DEFAULT_SUBSAMPLE_FRACS,
    seeds: Sequence[int] = tuple(range(10)),
    include_bounds: bool = False,
) -> StabilityReport:
    """Covariance-perturbation stability protocol.

    Fits each method and its ridge readout once on the full fit pool, then
    freezes the regressor and re-embeds the test set with models refitted on
    random subsamples of the pool, recording the regression MAE under the
    frozen regressor and the embedding MSE against the clean embeddings.
    Every method's model is fitted on the pool before any refit, so a method
    that cannot be fitted fails before the refits start.
    """
    x, y = _xy(data, targets)
    if not all(0.0 <= f <= 1.0 for f in subsample_fracs):
        raise ConfigError("subsample fractions must be in [0, 1]")
    if not seeds:
        raise ConfigError("at least one seed is needed")
    split = make_split(split_spec, data.n_samples)
    pool = split.fit_pool
    fractions = sorted(set(float(f) for f in subsample_fracs) | {1.0})
    # protocol: no thresholding during the stability runs
    methods = [
        dataclasses.replace(m, config=dataclasses.replace(m.config, tau=0.0))
        if isinstance(m, CstMethod)
        else m
        for m in methods
    ]
    pool_cov = sample_covariance(x[:, pool])
    clean_fits = [_fit(method, pool_cov, x[:, pool]) for method in methods]
    # one estimate per subsample serves every method; the full-pool refit
    # gets its own, so its bit-identity with the clean fit stays a check
    subsample_covs = {}
    for fraction in fractions:
        size = int(round(fraction * pool.shape[0]))
        for seed in seeds:
            if size < 2:
                subsample_covs[fraction, seed] = None
                continue
            subsample = np.sort(
                derived_rng(seed, "subsample", fractions.index(fraction)).choice(
                    pool, size=size, replace=False
                )
            )
            subsample_covs[fraction, seed] = sample_covariance(x[:, subsample])
    test_norm_max = float(np.linalg.norm(x[:, split.test], axis=0).max())

    rows = []
    for method, clean in zip(methods, clean_fits):
        ridge = ridge_fit(clean.embed(x[:, split.train]), y[split.train], method.alpha)
        clean_test = clean.embed(x[:, split.test])
        for (fraction, seed), cov in subsample_covs.items():
            if cov is None:
                rows.append(StabilityRow(method.name, fraction, seed, "skipped", None, None))
                continue
            # the frozen regressor needs the clean feature schema
            perturbed = _fit(method, cov, layout=clean.layout)
            embedded = perturbed.embed(x[:, split.test])
            row_mae = mae(ridge.predict(embedded), y[split.test])
            row_mse = mse(embedded, clean_test)
            delta = bound = None
            if include_bounds and isinstance(method, CstMethod):
                delta = bounds_mod.measured_wavelet_delta(
                    clean.model.matrices, perturbed.model.matrices
                )
                frame_upper = max(
                    clean.model.filterbank.frame_upper,
                    perturbed.model.filterbank.frame_upper,
                )
                bound = bounds_mod.cst_stability_bound(
                    delta,
                    frame_upper,
                    clean.model.aggregation_norm_bound,
                    test_norm_max,
                    _layer_counts(clean.layout, method.config.L),
                    method.config.L,
                )
            rows.append(
                StabilityRow(method.name, fraction, seed, "ok", row_mae, row_mse, delta, bound)
            )
    rows.sort(key=lambda r: (r.method, r.fraction, r.seed))
    return StabilityReport(rows=tuple(rows), include_bounds=include_bounds)


# ---------------------------------------------------------------------------
# pruning sweep

@dataclass(frozen=True)
class PruningRow:
    tau: float
    seed: int
    mae: float
    feature_count: int


def run_pruning_sweep(
    data: DataMatrix,
    targets: np.ndarray,
    method: CstMethod,
    taus: Sequence[float],
    split_spec: SplitSpec,
    seeds: Sequence[int] = tuple(range(10)),
) -> list[PruningRow]:
    """Regression quality and feature count as tau increases.

    The model is fitted and its layout decided on the fit pool once per seed,
    at the smallest tau, which replaces the tau of ``method.config``; each
    tau's layout is that decision tightened (:meth:`ScatterLayout.tightened`).
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ConfigError("at least one tau is needed")
    if not all(a <= b for a, b in zip(taus, taus[1:])):
        raise ConfigError("taus must be ascending")
    if not seeds:
        raise ConfigError("at least one seed is needed")
    # ascending, so the config's range check on the two ends covers every tau
    dataclasses.replace(method.config, tau=taus[-1])
    config = dataclasses.replace(method.config, tau=taus[0])
    x, y = _xy(data, targets)
    rows = []
    for seed in seeds:
        split = make_split(dataclasses.replace(split_spec, seed=seed), data.n_samples)
        pool_x = x[:, split.fit_pool]
        model = cst_fit(sample_covariance(pool_x), config)
        decided = decide_layout(model, pool_x)
        for tau in taus:
            embedding = _Embedding(model, decided.tightened(tau).paths)
            z_train = embedding.embed(x[:, split.train])
            ridge = ridge_fit(z_train, y[split.train], method.alpha)
            rows.append(
                PruningRow(
                    tau=tau,
                    seed=seed,
                    mae=mae(ridge.predict(embedding.embed(x[:, split.test])), y[split.test]),
                    feature_count=z_train.shape[0],
                )
            )
    rows.sort(key=lambda r: (r.tau, r.seed))
    return rows


# ---------------------------------------------------------------------------
# labeled-size sweep

@dataclass(frozen=True)
class LabeledRow:
    method: str
    train_frac: float
    seed: int
    status: str
    mae: float | None
    feature_width: int | None


def run_labeled_sweep(
    data: DataMatrix,
    targets: np.ndarray,
    methods: Sequence[Method],
    train_fracs: Sequence[float],
    split_template: SplitSpec,
    seeds: Sequence[int] = tuple(range(10)),
) -> list[LabeledRow]:
    """Re-train the readout at several labeled-set sizes.

    Validation and test fractions come from the template; the training
    fraction varies and the unlabeled fraction absorbs the remainder. Every
    fraction is checked before any fit. At one seed the fit pool (unlabeled
    plus train) is usually the same index set for every fraction, so each
    method is fitted once per distinct pool and only the readout is refitted
    per fraction. The test set is the same at every fraction too, so each
    fitted method embeds it once per distinct test set.
    """
    if not seeds:
        raise ConfigError("at least one seed is needed")
    if not train_fracs:
        raise ConfigError("at least one train fraction is needed")
    x, y = _xy(data, targets)
    specs = []
    for train_frac in train_fracs:
        unlabeled = 1.0 - split_template.valid_frac - split_template.test_frac - train_frac
        if unlabeled < -1e-9:
            raise ConfigError(f"train fraction {train_frac} leaves no room for the split")
        specs.append(
            dataclasses.replace(
                split_template, unlabeled_frac=max(unlabeled, 0.0), train_frac=train_frac
            )
        )
    rows = []
    for seed in seeds:
        fits = {}  # sorted fit-pool indices -> each method's embedding
        z_tests = {}  # (fit pool, test indices) -> each method's test embedding
        for spec in specs:
            train_frac = float(spec.train_frac)
            split = make_split(dataclasses.replace(spec, seed=seed), data.n_samples)
            if split.train.shape[0] < 2:
                for method in methods:
                    rows.append(LabeledRow(method.name, train_frac, seed, "skipped", None, None))
                continue
            pool = split.fit_pool.tobytes()
            if pool not in fits:
                pool_x = x[:, split.fit_pool]
                cov = sample_covariance(pool_x)
                fits[pool] = [_fit(method, cov, pool_x) for method in methods]
            tested = (pool, split.test.tobytes())
            if tested not in z_tests:
                z_tests[tested] = [embedding.embed(x[:, split.test]) for embedding in fits[pool]]
            for method, embedding, z_test in zip(methods, fits[pool], z_tests[tested]):
                z_train = embedding.embed(x[:, split.train])
                ridge = ridge_fit(z_train, y[split.train], method.alpha)
                rows.append(
                    LabeledRow(
                        method.name,
                        train_frac,
                        seed,
                        "ok",
                        mae(ridge.predict(z_test), y[split.test]),
                        z_train.shape[0],
                    )
                )
    rows.sort(key=lambda r: (r.method, r.train_frac, r.seed))
    return rows


# ---------------------------------------------------------------------------
# grid search

@dataclass(frozen=True)
class GridRow:
    family: str
    J: int
    L: int
    operator: str
    alpha: float
    valid_mae: float
    feature_count: int
    selected: bool = False


def grid_search(
    data: DataMatrix,
    targets: np.ndarray,
    base_config: CstConfig,
    j_grid: Sequence[int],
    l_grid: Sequence[int],
    operator_grid: Sequence[str],
    alpha_grid: Sequence[float],
    split_spec: SplitSpec,
) -> tuple[list[GridRow], GridRow]:
    """Validation-MAE grid search; ties go to the smaller feature count.

    Every configuration is fitted on one covariance of the fit pool and
    decides its layout there. The readout then takes one of two branches,
    chosen once the layout gives the feature count D. With D at most the
    train count t, the train and valid feature matrices are embedded and
    :func:`ridge_path` solves the primal. With D > t, no feature matrix is
    formed: :func:`dual_ridge_predict` sums the t x t dual kernel over the
    path blocks of one followed pass over train, then predicts from a
    second pass over train and valid as one batch (:func:`layout_blocks`).
    Each pass walks the tree depth-first and holds at most L formed signal
    batches of N x n, never a whole layer; both followed passes yield blocks
    in ``sorted(layout)`` order. The dual rows equal the materialized
    solve's up to the order of the sums.
    """
    if not all(len(grid) for grid in (j_grid, l_grid, operator_grid, alpha_grid)):
        raise ConfigError("every grid needs at least one value")
    x, y = _xy(data, targets)
    split = make_split(split_spec, data.n_samples)
    pool_x = x[:, split.fit_pool]
    cov = sample_covariance(pool_x)
    train_x, valid_x = x[:, split.train], x[:, split.valid]
    joint_x = np.concatenate([train_x, valid_x], axis=1)
    y_train, y_valid = y[split.train], y[split.valid]
    rows: list[GridRow] = []
    for j in j_grid:
        for layers in l_grid:
            for kind in operator_grid:
                config = dataclasses.replace(
                    base_config, J=int(j), L=int(layers), operator_kind=kind
                )
                model = cst_fit(cov, config)
                layout = decide_layout(model, pool_x).paths
                d = len(layout) * model.feature_width
                if d > y_train.shape[0]:
                    predictions = dual_ridge_predict(
                        layout_blocks(model, train_x, layout),
                        layout_blocks(model, joint_x, layout),
                        y_train,
                        alpha_grid,
                    )
                else:
                    embedding = _Embedding(model, layout)
                    z_valid = embedding.embed(valid_x)
                    ridges = ridge_path(embedding.embed(train_x), y_train, alpha_grid)
                    predictions = [ridge.predict(z_valid) for ridge in ridges]
                for alpha, prediction in zip(alpha_grid, predictions):
                    rows.append(
                        GridRow(
                            family=family_name(config.family),
                            J=int(j),
                            L=int(layers),
                            operator=kind,
                            alpha=float(alpha),
                            valid_mae=mae(prediction, y_valid),
                            feature_count=d,
                        )
                    )
    best = min(rows, key=lambda r: (r.valid_mae, r.feature_count, r.J, r.L, r.operator, r.alpha))
    rows = [dataclasses.replace(r, selected=(r is best)) for r in rows]
    best = next(r for r in rows if r.selected)
    return rows, best
