"""Evaluators for the computable stability quantities.

These implement the closed-form bounds as stated: the per-wavelet
covariance-estimation error Delta, the condition under which pruning
decisions survive estimation error, the transform-level stability bounds
for covariance and signal perturbations, and the inverse-eigengap scale of
the PCA instability bound.

The constants Q, G, epsilon and u have no data-driven estimator; Q defaults
to 1, so the Delta formula is a shape/rate evaluator rather than a
certified bound. For dominance checks use the measured per-wavelet operator
error (:func:`measured_wavelet_delta`) instead of the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, InvalidK, ShapeError
from .spectral import DataMatrix, SpectralDecomposition

# largest accepted epsilon: exp(epsilon / 2) in the Delta formula overflows
# float64 a little above 1419
MAX_EPSILON = 1400.0


@dataclass(frozen=True)
class BoundConstants:
    """User-supplied constants of the wavelet stability formula."""

    Q: float = 1.0
    G: float = 1.0
    k_max: float = 1.0
    epsilon: float = 1.0
    u: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.Q, self.G, self.k_max, self.epsilon, self.u)):
            raise ConfigError("bound constants must be finite")
        if not (self.Q > 0.0 and self.k_max >= 0.0 and self.epsilon > 0.0 and self.u > 0.0):
            raise ConfigError("bound constants must be positive")
        if not self.G >= 1.0:
            raise ConfigError("G must be at least 1")
        if not self.epsilon <= MAX_EPSILON:
            raise ConfigError(f"epsilon must be at most {MAX_EPSILON:g}, got {self.epsilon}")


def bound_probability(constants: BoundConstants) -> float:
    """Nominal confidence attached to the Delta formula (metadata only).

    Assumes independence of the two concentration events, which need not
    hold in practice.
    """
    return (1.0 - math.exp(-constants.epsilon)) * (1.0 - 2.0 * math.exp(-constants.u))


def estimate_kmax(data: DataMatrix | np.ndarray, decomposition: SpectralDecomposition) -> float:
    """Plug-in estimate of the kurtosis-related constant.

    For each eigenvector v_j, k_j^2 is the mean over samples of
    ``|x|^2 (x . v_j)^2`` minus the squared eigenvalue, clamped at zero
    before the square root; the maximum over j is returned.
    """
    x = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=np.float64)
    centered = x - x.mean(axis=1)[:, None]
    proj = decomposition.eigenvectors.T @ centered  # (N, T)
    sq_norms = np.sum(centered * centered, axis=0)  # (T,)
    moments = np.mean(sq_norms * proj * proj, axis=1)
    k_sq = np.clip(moments - decomposition.eigenvalues**2, 0.0, None)
    return float(np.sqrt(k_sq.max()))


def wavelet_delta(
    lipschitz: float,
    n: int,
    t: int,
    constants: BoundConstants,
    gamma: float,
    cov_norm: float,
    w1: float,
) -> float:
    """Formula-mode per-wavelet operator error (O(1/T) remainder omitted)."""
    if t < 1 or n < 1:
        raise ConfigError("n and t must be positive")
    head = constants.k_max * math.exp(constants.epsilon / 2.0)
    tail = (2.0 * constants.Q * constants.G * gamma * cov_norm / w1) * math.sqrt(
        math.log(n) + constants.u
    )
    return (lipschitz * n / math.sqrt(t)) * (head + tail)


def pruning_preserved(
    node_energy_lhs: float,
    layer: int,
    delta: float,
    frame_upper: float,
    tau: float,
    x_norm: float,
) -> bool:
    """Condition under which one pruning decision is unaffected by estimation error.

    ``node_energy_lhs`` is ``| |H_j x_path|^2 - tau |x_path|^2 |`` for a node
    at ``layer``. When the condition holds at every node of the tree, the
    pruned trees computed from the true and estimated operators coincide.
    ``tau`` is an energy threshold: the transform's norm-ratio threshold
    ``CstConfig.tau`` enters here, and in the margin, as ``CstConfig.tau ** 2``.
    """
    rhs = (delta * frame_upper ** (layer - 1) * x_norm) ** 2 * (
        (layer + 1) * frame_upper + layer * tau
    )
    return bool(node_energy_lhs > rhs)


def cst_stability_bound(
    delta: float,
    frame_upper: float,
    agg_norm: float,
    x_norm: float,
    layer_counts: Sequence[float],
    n_layers: int,
) -> float:
    """Transform-level bound on the output distance under covariance estimation error.

    ``layer_counts`` holds the retained path counts for layers 1 .. L-1.
    """
    if len(layer_counts) != n_layers - 1:
        raise ShapeError(f"expected {n_layers - 1} layer counts, got {len(layer_counts)}")
    total = sum(
        ell**2 * frame_upper ** (2 * ell - 2) * f
        for ell, f in enumerate(layer_counts, start=1)
    )
    return agg_norm * delta * x_norm * math.sqrt(total)


def signal_stability_bound(
    frame_upper: float,
    agg_norm: float,
    delta_norm: float,
    layer_counts: Sequence[float],
    n_layers: int,
) -> float:
    """Transform-level bound under input perturbation; counts include layer 0."""
    if len(layer_counts) != n_layers:
        raise ShapeError(f"expected {n_layers} layer counts, got {len(layer_counts)}")
    total = sum(
        f * frame_upper ** (2 * ell) for ell, f in enumerate(layer_counts)
    )
    return agg_norm * delta_norm * math.sqrt(total)


def pca_gap_scale(eigenvalues: np.ndarray, k: int) -> float:
    """Inverse of the smallest eigengap among the top k eigenvalues.

    This is the scale factor of the PCA instability bound. Duplicate
    eigenvalues among the top k make the bound vacuous; infinity is returned
    as the flagged sentinel in that case.
    """
    w = np.sort(np.asarray(eigenvalues, dtype=np.float64))[::-1]
    if k < 2:
        raise InvalidK("gap scale needs k >= 2")
    if k > w.shape[0]:
        raise InvalidK(f"k={k} exceeds the {w.shape[0]} available eigenvalues")
    gaps = np.diff(w[:k])
    min_gap = float(np.abs(gaps).min())
    if min_gap == 0.0:
        return math.inf
    return 1.0 / min_gap


def measured_wavelet_delta(mats_a: np.ndarray, mats_b: np.ndarray) -> float:
    """Largest per-scale operator-norm difference between two wavelet matrix sets.

    Exact: the 2-norm of each difference is its largest singular value.
    """
    a = np.asarray(mats_a, dtype=np.float64)
    b = np.asarray(mats_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b, ord=2, axis=(1, 2)).max())
