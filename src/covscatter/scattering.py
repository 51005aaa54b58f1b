"""Pruned covariance scattering transforms.

A model holds one wavelet operator with its filterbank and dense wavelet
matrices. One layer-wise pass over a batch of signals (:func:`_scatter`)
applies every kernel followed by an absolute-value nonlinearity,
discarding branches whose energy ratio to their parent does not exceed
the pruning threshold; the public transforms are its consumers.
Coefficients are laid out breadth-first by layer, then lexicographically
by scale indices, so serialized features are comparable across runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidData, InvalidScaleCount, ShapeError
from .spectral import (
    NORMALIZED,
    OPERATOR_KINDS,
    SampleCovariance,
    wavelet_operator,
)
from .wavelets import (
    Filterbank,
    KernelFamily,
    WaveletMatrixSet,
    build_filterbank,
    default_gamma,
    wavelet_matrices,
)

AGG_IDENTITY = "identity"
AGG_MEAN = "mean"
AGGREGATIONS = (AGG_IDENTITY, AGG_MEAN)

Path = tuple[int, ...]


@dataclass(frozen=True)
class CstConfig:
    family: KernelFamily
    J: int
    L: int
    tau: float = 0.0
    aggregation: str = AGG_IDENTITY
    operator_kind: str = NORMALIZED
    gamma_override: float | None = None

    def __post_init__(self):
        if self.J < 2:
            raise InvalidScaleCount(f"need J >= 2, got {self.J}")
        if self.L < 1:
            raise ConfigError(f"need L >= 1, got {self.L}")
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError(f"pruning threshold must be in [0, 1), got {self.tau}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unsupported aggregation {self.aggregation!r}")
        if self.operator_kind not in OPERATOR_KINDS:
            raise ConfigError(f"unknown operator kind {self.operator_kind!r}")
        if self.gamma_override is not None and not self.gamma_override > 0.0:
            raise ConfigError("gamma override must be positive")


@dataclass(frozen=True)
class CstModel:
    """Reusable operator + filterbank + wavelet matrices bundle."""

    config: CstConfig
    gamma: float
    operator: object
    filterbank: Filterbank
    matrices: WaveletMatrixSet

    @property
    def n_features(self) -> int:
        return self.operator.n_features

    @property
    def feature_width(self) -> int:
        return self.n_features if self.config.aggregation == AGG_IDENTITY else 1

    @property
    def aggregation_norm_bound(self) -> float:
        """Operator norm of the per-path aggregation U."""
        if self.config.aggregation == AGG_IDENTITY:
            return 1.0
        return 1.0 / np.sqrt(self.n_features)


@dataclass(frozen=True)
class ScatterTree:
    """Retained scattering signals keyed by path, plus what pruning removed."""

    nodes: dict  # path -> (signal, energy)
    pruned_paths: dict  # path -> energy ratio that removed it


@dataclass(frozen=True)
class FeatureVector:
    coefficients: np.ndarray
    layout: tuple[Path, ...]
    width: int


@dataclass(frozen=True)
class ScatterLayout:
    """Shared retention decision for a batch: retained paths in output order."""

    paths: tuple[Path, ...]
    pruned: dict  # path -> batch-mean energy ratio that removed it


@dataclass(frozen=True)
class BatchFeatures:
    matrix: np.ndarray  # (n_samples, n_paths * width)
    layout: tuple[Path, ...]
    width: int
    pruned: dict


def feature_count(J: int, L: int) -> int:
    """Path count of an unpruned tree with no zero-energy nodes: (J^L - 1)/(J - 1)."""
    if J < 2:
        raise InvalidScaleCount(f"need J >= 2, got {J}")
    if L < 1:
        raise ConfigError(f"need L >= 1, got {L}")
    return (J**L - 1) // (J - 1)


def path_name(path: Path) -> str:
    return "p_root" if not path else "p_" + ".".join(str(j) for j in path)


def cst_fit(cov: SampleCovariance, config: CstConfig) -> CstModel:
    """Build the operator, filterbank and wavelet matrices once for reuse."""
    gamma = (
        config.gamma_override
        if config.gamma_override is not None
        else default_gamma(config.family, config.J)
    )
    operator = wavelet_operator(cov, config.operator_kind, gamma)
    filterbank = build_filterbank(operator, config.family, config.J)
    matrices = wavelet_matrices(filterbank, operator)
    return CstModel(
        config=config,
        gamma=float(gamma),
        operator=operator,
        filterbank=filterbank,
        matrices=matrices,
    )


def _aggregate(model: CstModel, signals: np.ndarray) -> np.ndarray:
    """Per-path feature block of a batch of signals: (n_samples, width)."""
    if model.config.aggregation == AGG_IDENTITY:
        return signals.T
    return signals.mean(axis=0)[:, None]


def _scatter(
    model: CstModel,
    x: np.ndarray,
    tau: float | None,
    prune: bool,
    layout: tuple[Path, ...] | None,
    pruned: dict,
):
    """The scattering recursion, run layer by layer over a batch ``x`` of shape (N, n).

    Yields ``(path, signals, norms)`` for the root and then every retained
    child, in layout order (breadth-first, then lexicographic). Each child
    is computed once. Without ``layout``, a child is retained iff the batch
    mean of its per-sample energy ratio (child norm over parent norm, zero
    where the parent has zero energy) strictly exceeds ``tau``, or always
    when ``prune`` is false; every pruned path is recorded in ``pruned`` with
    that ratio. With ``layout``, a child is retained iff its path is in the
    layout, and no other child is computed. Only the signals of layers that
    still have children to compute are kept, so a caller that drops the
    yielded signals holds no more than two layers at a time.
    """
    if tau is None:
        tau = model.config.tau
    elif not 0.0 <= tau < 1.0:
        raise ConfigError(f"pruning threshold must be in [0, 1), got {tau}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.n_features:
        raise ShapeError(f"expected {model.n_features} rows, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidData("signals contain non-finite entries")
    follow = None if layout is None else frozenset(layout)

    mats = model.matrices.matrices
    norms = np.linalg.norm(x, axis=0)
    yield (), x, norms
    frontier = deque([((), x, norms)])
    for layer in range(1, model.config.L):
        keep = layer < model.config.L - 1
        next_frontier = deque()
        while frontier:
            path, signals, parent_norms = frontier.popleft()
            safe_parent = np.where(parent_norms > 0.0, parent_norms, 1.0)
            for j in range(model.config.J):
                child_path = path + (j,)
                if follow is not None and child_path not in follow:
                    continue
                children = np.abs(mats[j] @ signals)
                child_norms = np.linalg.norm(children, axis=0)
                if follow is None and prune:
                    ratios = np.where(parent_norms > 0.0, child_norms / safe_parent, 0.0)
                    ratio = float(ratios.mean())
                    if not ratio > tau:
                        pruned[child_path] = ratio
                        continue
                yield child_path, children, child_norms
                if keep:
                    next_frontier.append((child_path, children, child_norms))
        frontier = next_frontier


def cst_transform(
    model: CstModel,
    x: np.ndarray,
    tau: float | None = None,
    prune: bool = True,
) -> tuple[ScatterTree, FeatureVector]:
    """Scatter one signal: the batch-of-one case of :func:`cst_transform_batch`.

    A child is retained iff its energy exceeds ``tau`` times its parent's
    (strict inequality), so zero-energy children are always pruned; children
    of a zero-energy node are pruned by the same convention. ``prune=False``
    keeps the full tree regardless of energies, which the perturbation-bound
    checks rely on to compare identically shaped outputs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != model.n_features:
        raise ShapeError(f"expected a length-{model.n_features} signal, got shape {x.shape}")
    pruned: dict[Path, float] = {}
    nodes: dict[Path, tuple[np.ndarray, float]] = {}
    blocks = []
    for path, signals, norms in _scatter(model, x[:, None], tau, prune, None, pruned):
        nodes[path] = (signals[:, 0], float(norms[0]))
        blocks.append(_aggregate(model, signals)[0])
    features = FeatureVector(
        coefficients=np.concatenate(blocks),
        layout=tuple(nodes),
        width=model.feature_width,
    )
    return ScatterTree(nodes=nodes, pruned_paths=pruned), features


def decide_layout(
    model: CstModel,
    x: np.ndarray,
    tau: float | None = None,
    prune: bool = True,
) -> ScatterLayout:
    """Shared retention decision for a batch of signals, without its features.

    Decides as :func:`cst_transform_batch` does, keeping no signal of the
    last layer. Every sample then yields an identically shaped feature
    vector, which downstream regression needs.
    """
    pruned: dict[Path, float] = {}
    paths = tuple(path for path, _, _ in _scatter(model, x, tau, prune, None, pruned))
    return ScatterLayout(paths=paths, pruned=pruned)


def cst_transform_batch(
    model: CstModel,
    data,
    tau: float | None = None,
    prune: bool = True,
    layout: tuple[Path, ...] | None = None,
) -> BatchFeatures:
    """Scatter a batch in one pass; rows of the matrix are samples.

    Without ``layout`` the pass decides which paths to keep from the batch
    itself (see :func:`_scatter`). With ``layout``, a tuple of paths in
    layout order such as ``decide_layout(...).paths``, it follows that fixed
    schema instead, so samples embedded apart share one feature layout.
    """
    x = data.values if hasattr(data, "values") else data
    pruned: dict[Path, float] = {}
    paths, blocks = [], []
    for path, signals, _ in _scatter(model, x, tau, prune, layout, pruned):
        paths.append(path)
        blocks.append(_aggregate(model, signals))
    if layout is not None and tuple(paths) != tuple(layout):
        raise ConfigError("layout must list retained paths in breadth-first, lexicographic order")
    return BatchFeatures(
        matrix=np.concatenate(blocks, axis=1),
        layout=tuple(paths),
        width=model.feature_width,
        pruned=pruned,
    )
