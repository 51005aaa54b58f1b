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

from .errors import ConfigError, InvalidK, NotSymmetric, ShapeError
from .spectral import DataMatrix, SpectralDecomposition, sample_slices

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
    before the square root; the maximum over j is returned. Data whose
    fourth moments overflow float64 give a non-finite value, and no warning.
    The moments are summed over ``spectral.SLICE``-sample slices, so beside
    the data the estimate holds at most two (N, SLICE) arrays, not three
    (N, T) ones; up to SLICE samples that is one sum, and more move only in
    the last bits of the sums.
    """
    x = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=np.float64)
    t = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1)
        moments = np.zeros(x.shape[0])
        for part in sample_slices(t):
            centered = x[:, part] - mean[:, None]
            sq_norms = np.sum(centered * centered, axis=0)  # (slice,)
            proj = decomposition.eigenvectors.T @ centered  # (N, slice)
            del centered  # before the products are formed
            moments += np.sum(sq_norms * proj * proj, axis=1)
            del proj  # before the next slice is centred
        moments /= t
        k_sq = np.clip(moments - decomposition.eigenvalues**2, 0.0, None)
        return float(np.sqrt(k_sq.max()))


def wavelet_delta(
    lipschitz: float,
    n: int,
    t: int,
    constants: BoundConstants,
    gamma: float,
) -> float:
    """Formula-mode per-wavelet operator error (O(1/T) remainder omitted).

    Scale-free: the formula's covariance norm over top eigenvalue is 1 for the estimate.
    """
    if t < 1 or n < 1:
        raise ConfigError("n and t must be positive")
    head = constants.k_max * math.exp(constants.epsilon / 2.0)
    tail = 2.0 * constants.Q * constants.G * gamma * math.sqrt(math.log(n) + constants.u)
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


def _layer_sum(terms) -> float:
    """The sum of ``terms``; inf where a path count or a frame power leaves float64."""
    try:
        return sum(terms)
    except OverflowError:
        return math.inf


def cst_stability_bound(
    delta: float,
    frame_upper: float,
    agg_norm: float,
    x_norm: float,
    layer_counts: Sequence[float],
) -> float:
    """Transform-level bound on the output distance under covariance estimation error.

    ``layer_counts`` holds the retained path counts for layers 1 .. L-1.
    """
    total = _layer_sum(
        ell**2 * frame_upper ** (2 * ell - 2) * f
        for ell, f in enumerate(layer_counts, start=1)
    )
    return agg_norm * delta * x_norm * math.sqrt(total)


def signal_stability_bound(
    frame_upper: float,
    agg_norm: float,
    delta_norm: float,
    layer_counts: Sequence[float],
) -> float:
    """Transform-level bound under input perturbation; ``layer_counts`` holds layers 0 .. L-1."""
    total = _layer_sum(
        f * frame_upper ** (2 * ell) for ell, f in enumerate(layer_counts)
    )
    return agg_norm * delta_norm * math.sqrt(total)


def layer_counts(model, layout=None) -> list[int]:
    """Path counts for layers 0 .. L-1: of ``layout``, or of the unpruned tree (J**ell)."""
    if layout is None:
        return [model.config.J**ell for ell in range(model.config.L)]
    counts = [0] * model.config.L
    for path in layout:
        counts[len(path)] += 1
    return counts


def measured_stability_bound(clean, perturbed, layout, x_norm: float) -> tuple[float, float]:
    """The measured delta between two CST fits of one config, and the bound at ``x_norm``.

    ``clean`` and ``perturbed`` are models fitted on two covariance estimates
    and ``layout`` is the clean model's retained paths. The bound is
    :func:`cst_stability_bound` at the measured delta, the larger of the two
    frame upper bounds and the layout's path counts.
    """
    delta = measured_wavelet_delta(clean.matrices, perturbed.matrices)
    frame_upper = max(clean.filterbank.frame_upper, perturbed.filterbank.frame_upper)
    counts = layer_counts(clean, layout)[1:]
    bound = cst_stability_bound(delta, frame_upper, clean.aggregation_norm_bound, x_norm, counts)
    return delta, bound


def bound_table(cov, model, constants: BoundConstants, pca_k: int | None = None) -> list[list]:
    """The ``[quantity, value]`` rows of the ``bounds`` report for ``model`` fitted on ``cov``.

    In order: ``k_max``, the probability, the frame bounds, each wavelet's
    Lipschitz constant and Delta formula, the covariance bound at a unit
    signal and the signal bound at a unit perturbation, both on the unpruned
    tree; with ``pca_k``, the PCA gap scale comes last. A value that overflows
    float64 raises :class:`ConfigError` naming it, except the gap scale,
    whose inf is the documented sentinel of a repeated eigenvalue. The error
    names the constants, or J and the layers where the tree's path counts
    and frame powers overflow a bound at any constants.
    """
    bank, config = model.filterbank, model.config
    n, t, gamma = cov.n_features, cov.sample_count, bank.gamma
    deltas = [wavelet_delta(float(p), n, t, constants, gamma) for p in bank.lipschitz]
    counts = layer_counts(model)
    agg = model.aggregation_norm_bound
    rows = [
        ["k_max", constants.k_max],
        ["probability", bound_probability(constants)],
        ["frame_lower", bank.frame_lower],
        ["frame_upper", bank.frame_upper],
        *([f"lipschitz_{j}", float(p)] for j, p in enumerate(bank.lipschitz)),
        *([f"wavelet_delta_{j}", d] for j, d in enumerate(deltas)),
        [
            "cst_stability_bound_unit_signal",
            cst_stability_bound(max(deltas), bank.frame_upper, agg, 1.0, counts[1:]),
        ],
        [
            "signal_stability_bound_unit_perturbation",
            signal_stability_bound(bank.frame_upper, agg, 1.0, counts),
        ],
    ]
    overflowed = [name for name, value in rows if not np.isfinite(value)]
    # the covariance bound overflows at any constants when its unit-delta value does
    unit_delta = cst_stability_bound(1.0, bank.frame_upper, agg, 1.0, counts[1:])
    tree_overflows = not np.isfinite(unit_delta)
    from_constants = [
        name
        for name in overflowed
        if name.startswith("wavelet_delta_") or (name.startswith("cst_") and not tree_overflows)
    ]
    if from_constants:
        raise ConfigError(
            f"float64 overflow in {', '.join(from_constants)} with Q={constants.Q:g}, "
            f"G={constants.G:g}, k_max={constants.k_max:g}, epsilon={constants.epsilon:g}, "
            f"u={constants.u:g}; use smaller constants"
        )
    if overflowed:
        raise ConfigError(
            f"float64 overflow in {', '.join(overflowed)} with frame upper bound "
            f"{bank.frame_upper:g}, J={config.J} and {config.L} layers; "
            f"use a smaller kernel or fewer layers"
        )
    if pca_k is not None:
        rows.append(["pca_gap_scale", pca_gap_scale(cov.decomposition.eigenvalues, pca_k)])
    return rows


def pca_gap_scale(eigenvalues: np.ndarray, k: int) -> float:
    """Inverse of the smallest eigengap that sets the top k eigenvectors.

    Each of the top k eigenvectors is set only up to the gaps on either side
    of its eigenvalue (Davis-Kahan), so the gaps are those between
    consecutive eigenvalues among the k + 1 largest (the k largest when k is
    every eigenvalue). This is the scale factor of the PCA instability
    bound. A zero gap makes the bound vacuous; infinity is returned as the
    flagged sentinel in that case. With one eigenvalue there is no gap, and
    :class:`InvalidK` is raised.
    """
    w = np.sort(np.asarray(eigenvalues, dtype=np.float64))[::-1]
    if k < 1:
        raise InvalidK(f"gap scale needs k >= 1, got {k}")
    if k > w.shape[0]:
        raise InvalidK(f"k={k} exceeds the {w.shape[0]} available eigenvalues")
    gaps = np.diff(w[: k + 1])
    if not gaps.size:
        raise InvalidK("gap scale needs at least two eigenvalues")
    min_gap = float(np.abs(gaps).min())
    if min_gap == 0.0:
        return math.inf
    return 1.0 / min_gap


def measured_wavelet_delta(mats_a: np.ndarray, mats_b: np.ndarray) -> float:
    """Largest per-scale operator-norm difference between two symmetric wavelet matrix sets.

    The 2-norm of a symmetric difference is its largest absolute
    eigenvalue, so the scales whose difference is not exactly zero are
    eigensolved in one ``eigvalsh``, and identical sets give 0.0 with no
    eigensolve. A difference that is not exactly symmetric raises
    :class:`NotSymmetric`; ``wavelets.wavelet_matrices`` makes every matrix
    exactly symmetric, and so the difference of two of its sets.
    """
    a = np.asarray(mats_a, dtype=np.float64)
    b = np.asarray(mats_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    diffs = a - b
    diffs = diffs[diffs.any(axis=(1, 2))]
    if not diffs.size:
        return 0.0
    if not np.array_equal(diffs, np.swapaxes(diffs, 1, 2)):
        raise NotSymmetric("wavelet matrix differences are not symmetric")
    return float(np.abs(np.linalg.eigvalsh(diffs)).max())
