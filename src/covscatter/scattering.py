"""Pruned covariance scattering transforms.

A model holds one filterbank, which holds its wavelet operator and kernel
responses, and the dense wavelet matrices computed from it. One
depth-first recursion (:func:`_scatter`) applies every kernel followed by
an absolute-value nonlinearity to a batch of signals. A pass decides or
follows, never both: a deciding pass (:func:`decide_layout`) discards
branches whose norm ratio to their parent does not exceed the pruning
threshold ``CstConfig.tau``, and a followed pass (:func:`layout_blocks`)
embeds over a decided layout.
Since ``H_j = V h_j(Lambda) V^T``, a child's energy (squared norm)
``||H_j s||^2 = sum_k h_j(lambda_k)^2 (v_k^T s)^2`` is read from its
parent's covariance Fourier coefficients, so a decision takes one product
per parent and a pruned child is never formed. A child's ratio does not
depend on tau, so a layout decided at one tau yields the layout at any
larger tau by thresholding (:meth:`ScatterLayout.tightened`).
Coefficients are laid out breadth-first by layer, then lexicographically
by scale indices, so serialized features are comparable across runs.
"""

from __future__ import annotations

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
    MAX_SCALE,
    Filterbank,
    KernelFamily,
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
        if self.gamma_override is not None and not 0.0 < self.gamma_override <= MAX_SCALE:
            raise ConfigError(f"gamma override must be in (0, {MAX_SCALE:g}]")


@dataclass(frozen=True)
class CstModel:
    """Reusable filterbank + wavelet matrices bundle.

    The operator is ``filterbank.operator``, with its ``gamma``.
    ``matrices`` is the read-only (J, N, N) array of :func:`wavelet_matrices`.
    """

    config: CstConfig
    filterbank: Filterbank
    matrices: np.ndarray

    @property
    def n_features(self) -> int:
        return self.filterbank.operator.n_features

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
class ScatterLayout:
    """Shared retention decision for a batch at ``tau``: retained paths in output order.

    ``ratios`` holds the batch-mean norm ratio of every child the deciding
    pass computed, in output order; ``pruned`` is the part of it that this
    decision removed.
    """

    tau: float
    ratios: dict  # path -> batch-mean norm ratio
    paths: tuple[Path, ...]
    pruned: dict  # path -> batch-mean norm ratio that removed it

    def tightened(self, tau: float) -> ScatterLayout:
        """The decision at ``tau``, equal to deciding afresh there.

        A smaller tau than this layout's own is a :class:`ConfigError`: its
        decision would need the children of paths pruned here, which the
        deciding pass never computed.
        """
        if not tau >= self.tau:
            raise ConfigError(
                f"a layout decided at tau {self.tau} cannot give the one at tau {tau}"
            )
        return _threshold(self.ratios, tau)


def _kept(ratio: float, tau: float) -> bool:
    """The pruning rule: keep a child iff its norm ratio exceeds tau (its energy ratio, tau**2)."""
    return ratio > tau


def _layout_key(path: Path) -> tuple:
    """Sort key of layout order: breadth-first by layer, then lexicographic."""
    return len(path), path


def _threshold(ratios: dict, tau: float) -> ScatterLayout:
    """The decision at ``tau`` from a deciding pass's ``ratios``, in layout order.

    A path is kept iff its parent is kept and its ratio passes :func:`_kept`;
    a child of a kept path that fails is pruned.
    """
    ratios = {path: ratios[path] for path in sorted(ratios, key=_layout_key)}
    paths: list[Path] = [()]
    pruned: dict[Path, float] = {}
    kept = {()}
    for path, ratio in ratios.items():
        if path[:-1] not in kept:
            continue
        if _kept(ratio, tau):
            kept.add(path)
            paths.append(path)
        else:
            pruned[path] = ratio
    return ScatterLayout(tau=tau, ratios=ratios, paths=tuple(paths), pruned=pruned)


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
    """Build the operator, its filterbank and wavelet matrices once for reuse.

    The operator comes from ``cov.decomposition``, so models fitted on one
    estimate share its eigensolve. A filterbank whose frame upper bound
    overflows float64 when raised to ``2 * (L - 1)``, the gain of the deepest
    layer, is a :class:`ConfigError`.
    """
    gamma = (
        config.gamma_override
        if config.gamma_override is not None
        else default_gamma(config.family, config.J)
    )
    operator = wavelet_operator(cov, config.operator_kind, gamma)
    filterbank = build_filterbank(operator, config.family, config.J)
    try:
        filterbank.frame_upper ** (2 * (config.L - 1))
    except OverflowError:
        raise ConfigError(
            f"frame upper bound {filterbank.frame_upper:g} overflows float64 over "
            f"{config.L} layers; use a smaller kernel or fewer layers"
        ) from None
    return CstModel(config=config, filterbank=filterbank, matrices=wavelet_matrices(filterbank))


def _aggregate(model: CstModel, signals: np.ndarray) -> np.ndarray:
    """Per-path feature block of a batch of signals: (n_samples, width)."""
    if model.config.aggregation == AGG_IDENTITY:
        return signals.T
    return signals.mean(axis=0)[:, None]


def _scatter(model: CstModel, x: np.ndarray, layout: tuple[Path, ...] | None, ratios: dict):
    """The scattering recursion, run depth-first over a batch ``x`` of shape (N, n).

    ``x`` is checked for shape and finiteness at the call, before any
    product. The returned iterator yields ``(path, signals)`` for the root
    and then every child it forms in pre-order, which is ``sorted`` path
    order: ``()``, ``(0,)``, ``(0, 0)``, ..., ``(1,)``. Each child is
    formed at most once. Without ``layout`` the pass decides: a child is
    retained iff the batch mean of its per-sample norm ratio (zero where
    the parent has zero energy) passes :func:`_kept` at
    ``model.config.tau``, and every child decided on is recorded in
    ``ratios``, from which :func:`_threshold` reads the decision. One
    product ``V^T s`` per parent, squared, times the square of
    ``model.filterbank.responses`` gives the energies of all J children,
    whose roots are their norms, so only retained children that are
    parents of the next layer are formed.
    With ``layout`` the pass follows: a child is formed iff its path is in
    the layout, and no norm is computed. Only the current root-to-node
    chain is held, and a finished child is dropped before its next sibling
    is formed, so a caller that keeps no yielded signals across the next
    one holds, besides ``x``, at most L - 1 formed signal batches of
    (N, n): the chain above the node being formed, and that node. A
    deciding pass, which forms no last-layer child, holds at most L - 2 of
    them plus one (N, n) array of Fourier coefficients and the (J, n)
    child norms of each chain parent.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.n_features:
        raise ShapeError(f"expected {model.n_features} rows, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidData("signals contain non-finite entries")
    follow = None if layout is None else frozenset(layout)
    norms = np.linalg.norm(x, axis=0) if follow is None else None
    return _walk(model, (), x, norms, follow, ratios)


def _walk(model: CstModel, path: Path, signals, norms, follow, ratios: dict):
    """:func:`_scatter` from ``path`` down, whose ``signals`` have ``norms`` when deciding.

    A module-level function, not a closure: a closure that calls itself is
    a reference cycle, which would keep each pass's model alive until the
    cyclic garbage collector runs.
    """
    yield path, signals
    last = model.config.L - 1
    if len(path) == last:
        return
    decide = follow is None
    if decide:
        # squared in place and dropped before any H_j product, so no second
        # (N, n) array lives beside the children
        coeffs = model.filterbank.operator.decomposition.eigenvectors.T @ signals
        np.square(coeffs, out=coeffs)
        child_norms = np.sqrt(np.square(model.filterbank.responses) @ coeffs)
        del coeffs
        safe_parent = np.where(norms > 0.0, norms, 1.0)
        child_ratios = np.where(norms > 0.0, child_norms / safe_parent, 0.0)
    for j in range(model.config.J):
        child_path = path + (j,)
        if decide:
            ratio = float(child_ratios[j].mean())
            ratios[child_path] = ratio
            if not _kept(ratio, model.config.tau) or len(child_path) == last:
                continue
        elif child_path not in follow:
            continue
        children = model.matrices[j] @ signals
        np.abs(children, out=children)
        child_norm = child_norms[j] if decide else None
        yield from _walk(model, child_path, children, child_norm, follow, ratios)
        del children  # before the next sibling's product allocates


def decide_layout(model: CstModel, x: np.ndarray) -> ScatterLayout:
    """Shared retention decision for a batch of signals ``x`` (N, n), in layout order.

    Decides at ``model.config.tau`` from spectral energies (see
    :func:`_scatter`): it forms only the retained children that are parents
    of the next layer, and no child of the last layer at all. Following the
    decision's ``paths`` (:func:`cst_transform_batch`, :func:`layout_blocks`)
    gives every sample an identically shaped feature vector, which
    downstream regression needs.
    The decision at a larger tau is ``.tightened(tau)`` of the result, with
    no further pass. To decide at a smaller tau, pass a fitted model whose
    config has only its ``tau`` (or ``aggregation``) replaced
    (``dataclasses.replace``); the matrices need no refit. Any other field
    must be changed by refitting.
    """
    ratios: dict[Path, float] = {}
    for _ in _scatter(model, x, None, ratios):
        pass
    return _threshold(ratios, model.config.tau)


def layout_blocks(model: CstModel, x: np.ndarray, layout: tuple[Path, ...]):
    """Follow ``layout`` over a batch ``x`` (N, n): an iterator of (n, width) blocks.

    ``layout`` lists paths in layout order, such as ``decide_layout(...).paths``.
    The layout and the signals are checked at the call, before any product:
    a layout that does not start at the root, is out of order, or has a
    path whose parent is missing or that lies outside the model's tree
    raises :class:`ConfigError`, and ``x`` raises as in :func:`_scatter`.
    The blocks then come depth-first, in ``sorted(layout)`` order, one path
    at a time, so a consumer that keeps only what it sums holds no feature
    matrix. The iterator releases each node once its block is made, so the
    pass and a consumer that keeps no block across the next one hold at
    most L - 1 formed signal batches of (N, n) besides ``x``.
    """
    paths = tuple(layout)
    known = {()}
    for before, path in zip(paths, paths[1:]):
        if not (
            _layout_key(before) < _layout_key(path)
            and len(path) < model.config.L
            and path[:-1] in known
            and path[-1] in range(model.config.J)
        ):
            break
        known.add(path)
    if paths[:1] != ((),) or len(known) != len(paths):
        raise ConfigError(
            "layout must list paths of the tree from the root in breadth-first, "
            "lexicographic order, each after its parent"
        )
    return map(lambda node: _aggregate(model, node[1]), _scatter(model, x, paths, {}))


def cst_transform_batch(model: CstModel, x: np.ndarray, layout: tuple[Path, ...]) -> np.ndarray:
    """Embed a batch ``x`` (N, n) over ``layout``, such as ``decide_layout(...).paths``: (n, D).

    Rows are samples, and samples embedded apart share one feature layout.
    The signals and the layout are checked at the call, by
    :func:`layout_blocks`, whose blocks come depth-first; each is written
    into its column slot of one preallocated matrix as it is made, so beside
    the input and the matrix the pass holds at most L - 1 formed signal
    batches of (N, n).
    """
    paths = tuple(layout)
    width = model.feature_width
    blocks = layout_blocks(model, x, paths)
    matrix = np.empty((np.shape(x)[1], len(paths) * width))
    for slot in sorted(range(len(paths)), key=paths.__getitem__):
        matrix[:, slot * width : (slot + 1) * width] = next(blocks)
    return matrix
