"""Experiment protocols: covariance-perturbation stability, pruning and
labeled-size sweeps, and grid search over transform configurations.

All randomness flows from explicit seeds through :func:`derived_rng`, so a
repeated run emits byte-identical reports. Subsample indices are sorted
before fitting, which makes the full-pool refit bit-identical to the clean
fit (embedding MSE exactly zero at fraction 1.0).
"""

from __future__ import annotations

import dataclasses
import time
import zlib
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, ShapeError
from .readout import RidgeModel, mae, mse, pca_fit, pca_transform, ridge_fit
from .scattering import (
    CstConfig,
    CstModel,
    cst_fit,
    cst_transform_batch,
    decide_layout,
)
from .spectral import DataMatrix, sample_covariance
from . import bounds as bounds_mod


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
        if any(f < 0.0 for f in fracs):
            raise ConfigError("split fractions must be non-negative")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {sum(fracs)}")
        if not self.test_frac > 0.0:
            raise ConfigError("test fraction must be positive")


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


class _FittedEmbedder:
    """Unsupervised embedding fitted on one sample pool."""

    def __init__(
        self,
        method: Method,
        pool: np.ndarray,
        force_tau: float | None = None,
        layout=None,
    ):
        self.method = method
        self.model: CstModel | None = None
        self.layout = layout
        if isinstance(method, RawMethod):
            self._embed = lambda x: x
        elif isinstance(method, PcaMethod):
            pca = pca_fit(sample_covariance(pool), method.k)
            self._embed = lambda x: pca_transform(pca, x)
        else:
            tau = method.config.tau if force_tau is None else force_tau
            self.model = cst_fit(sample_covariance(pool), method.config)
            if self.layout is None:
                self.layout = decide_layout(self.model, pool, tau=tau).paths
            self._embed = lambda x: cst_transform_batch(self.model, x, layout=self.layout).matrix.T

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Features as columns: (D, n_samples)."""
        return self._embed(x)


STABILITY_HEADER = [
    "method",
    "fraction",
    "seed",
    "status",
    "mae",
    "embedding_mse",
]
STABILITY_BOUND_COLUMNS = ["delta_measured", "stability_bound"]

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
        return STABILITY_HEADER + (STABILITY_BOUND_COLUMNS if self.include_bounds else [])

    def table(self) -> list[list]:
        out = []
        for row in self.rows:
            record = [
                row.method,
                row.fraction,
                row.seed,
                row.status,
                "" if row.mae is None else row.mae,
                "" if row.embedding_mse is None else row.embedding_mse,
            ]
            if self.include_bounds:
                record.append("" if row.delta_measured is None else row.delta_measured)
                record.append("" if row.stability_bound is None else row.stability_bound)
            out.append(record)
        return out


def _layer_counts(layout_paths, n_layers: int, include_root: bool) -> list[int]:
    counts = [0] * n_layers
    for path in layout_paths:
        counts[len(path)] += 1
    return counts if include_root else counts[1:]


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
    """
    x = data.values
    y = np.asarray(targets, dtype=np.float64)
    if y.shape[0] != data.n_samples:
        raise ShapeError("targets length does not match sample count")
    split = make_split(split_spec, data.n_samples)
    pool = split.fit_pool
    fractions = sorted(set(float(f) for f in subsample_fracs) | {1.0})

    rows = []
    for method in methods:
        # protocol: no thresholding during the stability runs
        clean = _FittedEmbedder(method, x[:, pool], force_tau=0.0)
        ridge = ridge_fit(clean.embed(x[:, split.train]), y[split.train], method.alpha)
        clean_test = clean.embed(x[:, split.test])
        test_norm_max = float(np.linalg.norm(x[:, split.test], axis=0).max())
        for fraction in fractions:
            size = int(round(fraction * pool.shape[0]))
            for seed in seeds:
                if size < 2:
                    rows.append(
                        StabilityRow(method.name, fraction, seed, "skipped", None, None)
                    )
                    continue
                subsample = np.sort(
                    derived_rng(seed, "subsample", fractions.index(fraction)).choice(
                        pool, size=size, replace=False
                    )
                )
                # the frozen regressor needs the clean feature schema
                perturbed = _FittedEmbedder(
                    method, x[:, subsample], force_tau=0.0, layout=clean.layout
                )
                embedded = perturbed.embed(x[:, split.test])
                row_mae = mae(ridge.predict(embedded), y[split.test])
                row_mse = mse(embedded, clean_test)
                delta = bound = None
                if include_bounds and isinstance(method, CstMethod):
                    delta = bounds_mod.measured_wavelet_delta(
                        clean.model.matrices.matrices, perturbed.model.matrices.matrices
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
                        _layer_counts(clean.layout, method.config.L, include_root=False),
                        method.config.L,
                    )
                rows.append(
                    StabilityRow(
                        method.name, fraction, seed, "ok", row_mae, row_mse, delta, bound
                    )
                )
    rows.sort(key=lambda r: (r.method, r.fraction, r.seed))
    return StabilityReport(rows=tuple(rows), include_bounds=include_bounds)


# ---------------------------------------------------------------------------
# pruning sweep

PRUNING_HEADER = ["tau", "seed", "mae", "transform_time", "feature_count"]


@dataclass(frozen=True)
class PruningRow:
    tau: float
    seed: int
    mae: float
    transform_time: float
    feature_count: int


def run_pruning_sweep(
    data: DataMatrix,
    targets: np.ndarray,
    method: CstMethod,
    taus: Sequence[float],
    split_spec: SplitSpec,
    seeds: Sequence[int] = tuple(range(10)),
) -> list[PruningRow]:
    """Regression quality, transform time and feature count as tau increases.

    The retention decision is made on the fit pool at each tau; timing
    covers the train+test transforms only (the per-row representation
    work), not the model fit.
    """
    taus = [float(t) for t in taus]
    if any(b < a for a, b in zip(taus, taus[1:])):
        raise ConfigError("taus must be ascending")
    x = data.values
    y = np.asarray(targets, dtype=np.float64)
    rows = []
    for seed in seeds:
        split = make_split(dataclasses.replace(split_spec, seed=seed), data.n_samples)
        pool = split.fit_pool
        model = cst_fit(sample_covariance(x[:, pool]), method.config)
        for tau in taus:
            layout = decide_layout(model, x[:, pool], tau=tau).paths
            start = time.perf_counter()
            z_train = cst_transform_batch(model, x[:, split.train], layout=layout).matrix.T
            z_test = cst_transform_batch(model, x[:, split.test], layout=layout).matrix.T
            elapsed = time.perf_counter() - start
            ridge = ridge_fit(z_train, y[split.train], method.alpha)
            rows.append(
                PruningRow(
                    tau=tau,
                    seed=seed,
                    mae=mae(ridge.predict(z_test), y[split.test]),
                    transform_time=elapsed,
                    feature_count=len(layout) * model.feature_width,
                )
            )
    rows.sort(key=lambda r: (r.tau, r.seed))
    return rows


# ---------------------------------------------------------------------------
# labeled-size sweep

LABELED_HEADER = ["method", "train_frac", "seed", "status", "mae", "feature_width"]


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
    fraction varies and the unlabeled fraction absorbs the remainder.
    """
    x = data.values
    y = np.asarray(targets, dtype=np.float64)
    rows = []
    for train_frac in train_fracs:
        unlabeled = 1.0 - split_template.valid_frac - split_template.test_frac - train_frac
        if unlabeled < -1e-9:
            raise ConfigError(f"train fraction {train_frac} leaves no room for the split")
        for seed in seeds:
            spec = SplitSpec(
                unlabeled_frac=max(unlabeled, 0.0),
                train_frac=train_frac,
                valid_frac=split_template.valid_frac,
                test_frac=split_template.test_frac,
                seed=seed,
            )
            split = make_split(spec, data.n_samples)
            if split.train.shape[0] < 2:
                for method in methods:
                    rows.append(
                        LabeledRow(method.name, float(train_frac), seed, "skipped", None, None)
                    )
                continue
            pool = split.fit_pool
            for method in methods:
                embedder = _FittedEmbedder(method, x[:, pool])
                z_train = embedder.embed(x[:, split.train])
                ridge = ridge_fit(z_train, y[split.train], method.alpha)
                z_test = embedder.embed(x[:, split.test])
                rows.append(
                    LabeledRow(
                        method.name,
                        float(train_frac),
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

GRID_HEADER = ["family", "J", "L", "operator", "alpha", "valid_mae", "feature_count", "selected"]


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
    """Validation-MAE grid search; ties go to the smaller feature count."""
    from .wavelets import family_name

    x = data.values
    y = np.asarray(targets, dtype=np.float64)
    split = make_split(split_spec, data.n_samples)
    pool = split.fit_pool
    rows: list[GridRow] = []
    for j in j_grid:
        for layers in l_grid:
            for kind in operator_grid:
                config = dataclasses.replace(
                    base_config, J=int(j), L=int(layers), operator_kind=kind
                )
                model = cst_fit(sample_covariance(x[:, pool]), config)
                layout = decide_layout(model, x[:, pool], tau=config.tau).paths
                z_train = cst_transform_batch(model, x[:, split.train], layout=layout).matrix.T
                z_valid = cst_transform_batch(model, x[:, split.valid], layout=layout).matrix.T
                width = len(layout) * model.feature_width
                for alpha in alpha_grid:
                    ridge = ridge_fit(z_train, y[split.train], float(alpha))
                    rows.append(
                        GridRow(
                            family=family_name(config.family),
                            J=int(j),
                            L=int(layers),
                            operator=kind,
                            alpha=float(alpha),
                            valid_mae=mae(ridge.predict(z_valid), y[split.valid]),
                            feature_count=width,
                        )
                    )
    best = min(rows, key=lambda r: (r.valid_mae, r.feature_count, r.J, r.L, r.operator, r.alpha))
    rows = [dataclasses.replace(r, selected=(r is best)) for r in rows]
    best = next(r for r in rows if r.selected)
    return rows, best
