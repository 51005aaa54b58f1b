"""Experiment protocols: covariance-perturbation stability, pruning and
labeled-size sweeps, and grid search over transform configurations.

All randomness flows from explicit seeds: a split permutes the samples with
a generator seeded by its own seed, and every other draw comes from
:func:`derived_rng`, so a repeated run emits byte-identical reports.
Subsample indices are sorted before fitting, which makes the full-pool
refit bit-identical to the clean fit (embedding MSE exactly zero at
fraction 1.0).

Each fit pool and each subsample is estimated once: one
:class:`~covscatter.spectral.SampleCovariance`, and so one eigensolve,
serves every method and configuration fitted on it. The full-pool refit
is estimated apart from the clean fit, so its bit-identity is measured,
not assumed.

Every protocol fits and predicts on a method's feature blocks, one per
retained path of a CST method, so none forms a test feature matrix: the
stability protocol compares each refitted block with its clean block as the
block passes to the frozen regressor.

Each protocol returns frozen row dataclasses; a report's columns are its row
class's fields, in order (:func:`columns`).
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, CovScatterError, InvalidData, ShapeError
from .readout import PcaModel, mae, pca_fit, pca_transform, ridge_path
from .scattering import CstConfig, CstModel, Path, cst_fit, decide_layout, layout_blocks
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
    """Exact partition of the index set by cumulative rounding; the test set must not be empty.

    The cuts do not depend on the seed, so a split that fails fails at every seed.
    """
    perm = np.random.default_rng(spec.seed).permutation(n_samples)
    cuts = np.round(
        np.cumsum([spec.unlabeled_frac, spec.train_frac, spec.valid_frac]) * n_samples
    ).astype(int)
    test = perm[cuts[2] :]
    _require_samples(test, "test", spec.test_frac, n_samples)
    return Split(
        unlabeled=perm[: cuts[0]],
        train=perm[cuts[0] : cuts[1]],
        valid=perm[cuts[1] : cuts[2]],
        test=test,
    )


def _require_samples(indices: np.ndarray, role: str, fraction: float, n_samples: int) -> None:
    """Raise :class:`ConfigError` when the ``role`` set ("train", "valid" or "test") is empty."""
    if not indices.size:
        name = "validation" if role == "valid" else role
        raise ConfigError(
            f"{role} fraction {fraction} of {n_samples} samples leaves an empty {name} set"
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


@dataclass(frozen=True, eq=False)
class _Followed:
    """The path blocks of ``x``: each iteration is a fresh :func:`layout_blocks` pass."""

    model: CstModel
    x: np.ndarray
    layout: tuple[Path, ...]

    def __iter__(self):
        return layout_blocks(self.model, self.x, self.layout)


@dataclass(frozen=True)
class _Embedding:
    """A method's unsupervised embedding, fitted on one covariance estimate."""

    model: CstModel | PcaModel | None  # None: the raw features
    layout: tuple[Path, ...] | None = None  # a CST model's retained paths

    def blocks(self, x: np.ndarray):
        """The features of the signals ``x`` (N, n) as re-iterable (n, width) blocks.

        A CST model gives one block per retained path, in ``sorted(layout)``
        order, from a followed pass per iteration, so no feature matrix is
        held; PCA and the raw features give one (n, D) block.
        """
        if isinstance(self.model, CstModel):
            return _Followed(self.model, x, self.layout)
        if isinstance(self.model, PcaModel):
            return (pca_transform(self.model, x).T,)
        return (x.T,)


def _compared(blocks, clean_blocks, squared: np.ndarray):
    """Yield ``blocks`` as they come, adding into ``squared`` (n,) each one's
    per-sample squared distance to the matching block of ``clean_blocks``.

    Neither block is written: a root or raw block is a view of its signals.
    """
    for block, clean_block in zip(blocks, clean_blocks):
        difference = block - clean_block
        squared += np.square(difference, out=difference).sum(axis=1)
        yield block


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
    """The signals and the targets as float arrays, one finite target per sample."""
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (data.n_samples,):
        raise ShapeError(f"expected {data.n_samples} targets, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise InvalidData("targets contain non-finite entries")
    return data.values, y


def _readout(train_blocks, y_train, test_blocks, y_test, alphas) -> tuple[list[float], int]:
    """Fit :func:`ridge_path` on train blocks; each alpha's held-out MAE, and the width D."""
    ridge = ridge_path(train_blocks, y_train, alphas)
    return [mae(p, y_test) for p in ridge.predict(test_blocks)], ridge.weights.shape[1]


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
    embedding_dist_max: float | None = None  # largest test-sample ||z - z_hat||_2
    stability_bound: float | None = None


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple[StabilityRow, ...]

    def plotdata(self, metric: str) -> list[list]:
        """``[fraction, method, median, lower quartile, upper quartile]`` of ``metric``.

        One row per (method, fraction) in sorted order, over its ``ok`` rows.
        """
        series = {}
        for row in self.rows:
            if row.status == "ok":
                series.setdefault((row.method, row.fraction), []).append(getattr(row, metric))
        rows = []
        for (method, fraction), values in sorted(series.items()):
            lower, upper = np.quantile(values, [0.25, 0.75])
            rows.append([fraction, method, float(np.median(values)), float(lower), float(upper)])
        return rows


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

    Fits each method once on the fit pool and its ridge readout once on the
    train set, then freezes the regressor and re-embeds the test set with
    models refitted on random subsamples of the pool, recording the
    regression MAE under the frozen regressor and the embedding MSE against
    the clean embeddings. Every method's model is fitted on the pool before
    any refit, so a method that cannot be fitted fails before the refits
    start; a refit that cannot be fitted gives a ``failed`` row with blank
    values, as a subsample under 2 samples gives a ``skipped`` one. Each
    ``ok`` row also records the largest per-sample embedding distance
    ``||z - z_hat||_2`` over the test set. With ``include_bounds``, each
    CST row records the measured wavelet delta and the bound on that
    distance at the largest test-sample norm
    (:func:`bounds.measured_stability_bound`); otherwise both are blank.

    No test feature matrix is formed. Each method's clean test embedding is
    held as its blocks (one per retained path for CST, one for PCA and the
    raw features). Each refit embeds the test set in one followed pass whose
    blocks go straight to the frozen regressor's ``predict``; as each block
    passes, its per-sample squared distance to the matching clean block is
    added into one length-n_test sum, which gives the embedding MSE (its
    total over n_test * D) and the largest distance (the root of its max).
    """
    x, y = _xy(data, targets)
    if not all(0.0 <= f <= 1.0 for f in subsample_fracs):
        raise ConfigError("subsample fractions must be in [0, 1]")
    if not seeds:
        raise ConfigError("at least one seed is needed")
    split = make_split(split_spec, data.n_samples)
    _require_samples(split.train, "train", split_spec.train_frac, data.n_samples)
    pool = split.fit_pool
    fractions = sorted(set(float(f) for f in subsample_fracs) | {1.0})
    # protocol: no thresholding during the stability runs
    methods = [
        dataclasses.replace(m, config=dataclasses.replace(m.config, tau=0.0))
        if isinstance(m, CstMethod)
        else m
        for m in methods
    ]
    pool_x = x[:, pool]
    pool_cov = sample_covariance(pool_x)
    clean_fits = [_fit(method, pool_cov, pool_x) for method in methods]
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
            # np.take gathers in C order, which DataMatrix would copy x[:, subsample] into
            subsample_covs[fraction, seed] = sample_covariance(np.take(x, subsample, axis=1))
    train_x, y_train = x[:, split.train], y[split.train]
    test_x, y_test = x[:, split.test], y[split.test]
    if include_bounds:
        test_norm_max = float(np.linalg.norm(test_x, axis=0).max())

    rows = []
    for method, clean in zip(methods, clean_fits):
        ridge = ridge_path(clean.blocks(train_x), y_train, [method.alpha])
        clean_test = tuple(clean.blocks(test_x))
        for (fraction, seed), cov in subsample_covs.items():
            if cov is None:
                rows.append(StabilityRow(method.name, fraction, seed, "skipped", None, None))
                continue
            # the frozen regressor needs the clean feature schema
            try:
                perturbed = _fit(method, cov, layout=clean.layout)
            except CovScatterError:
                rows.append(StabilityRow(method.name, fraction, seed, "failed", None, None))
                continue
            # one pass predicts and sums each test sample's ||z - z_hat||^2
            squared = np.zeros(test_x.shape[1])
            predicted = ridge.predict(_compared(perturbed.blocks(test_x), clean_test, squared))
            row_mae = mae(predicted[0], y_test)
            row_mse = float(squared.sum() / (squared.size * ridge.weights.shape[1]))
            dist = float(np.sqrt(squared.max()))
            delta = bound = None
            if include_bounds and isinstance(method, CstMethod):
                delta, bound = bounds_mod.measured_stability_bound(
                    clean.model, perturbed.model, clean.layout, test_norm_max
                )
            rows.append(
                StabilityRow(
                    method.name, fraction, seed, "ok", row_mae, row_mse, delta, dist, bound
                )
            )
    rows.sort(key=lambda r: (r.method, r.fraction, r.seed))
    return StabilityReport(rows=tuple(rows))


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

    The taus are a set: a repeated tau counts once, and their order does not
    matter. Each tau's range is checked before any fit. The model is fitted
    and its layout decided on the fit pool once per seed, at the smallest
    tau, which replaces the tau of ``method.config``; each tau's layout is
    that decision tightened (:meth:`ScatterLayout.tightened`).
    """
    # the config checks each tau's range
    configs = {tau: dataclasses.replace(method.config, tau=tau) for tau in map(float, taus)}
    if not configs:
        raise ConfigError("at least one tau is needed")
    taus = sorted(configs)
    if not seeds:
        raise ConfigError("at least one seed is needed")
    x, y = _xy(data, targets)
    rows = []
    for seed in seeds:
        split = make_split(dataclasses.replace(split_spec, seed=seed), data.n_samples)
        _require_samples(split.train, "train", split_spec.train_frac, data.n_samples)
        pool_x, train_x, test_x = x[:, split.fit_pool], x[:, split.train], x[:, split.test]
        y_train, y_test = y[split.train], y[split.test]
        model = cst_fit(sample_covariance(pool_x), configs[taus[0]])
        decided = decide_layout(model, pool_x)
        for tau in taus:
            embedding = _Embedding(model, decided.tightened(tau).paths)
            (row_mae,), width = _readout(
                embedding.blocks(train_x), y_train, embedding.blocks(test_x), y_test, [method.alpha]
            )
            rows.append(PruningRow(tau=tau, seed=seed, mae=row_mae, feature_count=width))
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

    Per seed, which replaces the template's, ``split_template`` gives one
    split: its unlabeled and train parts, in the seed's permuted order, are
    the pool, and valid and test are left out. A fraction labels the pool's
    last ``round(fraction * n_samples)`` samples, so a larger fraction
    labels a superset. The fractions are a set: a repeated fraction counts
    once. Every fraction and every seed's split is checked before any fit.
    Each method is fitted on the pool, and embeds the test set, once per
    seed; only the readout is refitted per fraction.
    """
    if not seeds:
        raise ConfigError("at least one seed is needed")
    if not train_fracs:
        raise ConfigError("at least one train fraction is needed")
    x, y = _xy(data, targets)
    room = split_template.unlabeled_frac + split_template.train_frac
    for train_frac in train_fracs:
        if not train_frac >= 0.0:
            raise ConfigError("split fractions must be non-negative")
        if train_frac > room + 1e-9:
            raise ConfigError(f"train fraction {train_frac} leaves no room for the split")
    train_fracs = sorted(set(map(float, train_fracs)))
    specs = [dataclasses.replace(split_template, seed=seed) for seed in seeds]
    splits = [make_split(spec, data.n_samples) for spec in specs]  # each checks its test set
    rows = []
    for seed, split in zip(seeds, splits):
        pool = np.concatenate([split.unlabeled, split.train])
        fits = z_tests = None
        for train_frac in train_fracs:
            train = pool[max(pool.size - int(np.round(train_frac * data.n_samples)), 0) :]
            if train.shape[0] < 2:
                for method in methods:
                    rows.append(LabeledRow(method.name, train_frac, seed, "skipped", None, None))
                continue
            if fits is None:
                pool_x = x[:, split.fit_pool]
                cov = sample_covariance(pool_x)
                fits = [_fit(method, cov, pool_x) for method in methods]
                test_x, y_test = x[:, split.test], y[split.test]
                z_tests = [tuple(fit.blocks(test_x)) for fit in fits]
            train_x, y_train = x[:, train], y[train]
            for method, embedding, z_test in zip(methods, fits, z_tests):
                (row_mae,), width = _readout(
                    embedding.blocks(train_x), y_train, z_test, y_test, [method.alpha]
                )
                rows.append(LabeledRow(method.name, train_frac, seed, "ok", row_mae, width))
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

    A repeated grid value counts once; the rows follow the grids' first-seen
    order, J outermost and alpha innermost.

    Every configuration is fitted on one covariance of the fit pool and
    decides its layout there. One :func:`ridge_path` call then fits every
    alpha on the path blocks of followed passes over train
    (:func:`layout_blocks`), and the fitted path predicts valid from one
    more followed pass. The solver keeps train's blocks and solves the
    primal while the feature count D is at most the train count t; past
    that it sums the t x t dual kernel over one pass and takes the weights
    from a second, so train is followed once or twice and valid once. Each
    pass walks the tree depth-first, yields blocks in ``sorted(layout)``
    order and holds at most L - 1 formed signal batches of N x n, never a
    whole layer; in the dual no feature matrix is formed.
    """
    grids = [list(dict.fromkeys(g)) for g in (j_grid, l_grid, operator_grid, alpha_grid)]
    if not all(grids):
        raise ConfigError("every grid needs at least one value")
    j_grid, l_grid, operator_grid, alpha_grid = grids
    x, y = _xy(data, targets)
    split = make_split(split_spec, data.n_samples)
    _require_samples(split.train, "train", split_spec.train_frac, data.n_samples)
    _require_samples(split.valid, "valid", split_spec.valid_frac, data.n_samples)
    pool_x = x[:, split.fit_pool]
    cov = sample_covariance(pool_x)
    train_x, valid_x = x[:, split.train], x[:, split.valid]
    y_train, y_valid = y[split.train], y[split.valid]
    family = family_name(base_config.family)
    rows: list[GridRow] = []
    for j in j_grid:
        for layers in l_grid:
            for kind in operator_grid:
                config = dataclasses.replace(
                    base_config, J=int(j), L=int(layers), operator_kind=kind
                )
                model = cst_fit(cov, config)
                embedding = _Embedding(model, decide_layout(model, pool_x).paths)
                train_blocks, valid_blocks = embedding.blocks(train_x), embedding.blocks(valid_x)
                maes, width = _readout(train_blocks, y_train, valid_blocks, y_valid, alpha_grid)
                rows += [
                    GridRow(family, int(j), int(layers), kind, float(alpha), valid_mae, width)
                    for alpha, valid_mae in zip(alpha_grid, maes)
                ]
    best = min(rows, key=lambda r: (r.valid_mae, r.feature_count, r.J, r.L, r.operator, r.alpha))
    rows = [dataclasses.replace(r, selected=(r is best)) for r in rows]
    best = next(r for r in rows if r.selected)
    return rows, best
