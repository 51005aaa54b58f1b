"""PCA baseline transform, closed-form ridge readout and the MAE metric."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidData, InvalidK, ShapeError, SingularSystem
from .spectral import SampleCovariance


@dataclass(frozen=True)
class PcaModel:
    components: np.ndarray  # (N, k) leading eigenvector columns
    mean: np.ndarray


def pca_fit(cov: SampleCovariance, k: int) -> PcaModel:
    """Leading ``k`` eigenvectors of ``cov.decomposition`` and the sample mean.

    Both are read-only views of ``cov``'s arrays; the eigenvalues stay with
    ``cov.decomposition``, their one owner.
    """
    n = cov.n_features
    if not 1 <= k <= n:
        raise InvalidK(f"k must be in [1, {n}], got {k}")
    cov.top_eigenvalue  # DegenerateCovariance unless positive: no direction leads
    return PcaModel(components=cov.decomposition.eigenvectors[:, :k], mean=cov.mean)


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project the (N, T) signals ``x``, centred, onto the leading eigenvectors; returns (k, T)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != model.mean.shape[0]:
        raise ShapeError(f"expected {model.mean.shape[0]} rows, got shape {x.shape}")
    return model.components.T @ (x - model.mean[:, None])


def _ridge_solve(gram, rhs, alphas) -> np.ndarray:
    """The (n_alphas, m) solutions of ``(gram + alpha I) s = rhs``, one alpha at a time.

    Each system's Cholesky factor checks that it is positive definite. A system found singular
    by the factor, or by the solve where rounding let the factor pass, raises SingularSystem.
    """
    solutions = np.empty((len(alphas), gram.shape[0]))
    for i, alpha in enumerate(alphas):
        system = gram + alpha * np.eye(gram.shape[0])
        try:
            np.linalg.cholesky(system)
            solutions[i] = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError as exc:
            if alpha > 0:
                message = (
                    f"normal equations are singular at alpha_R {alpha:g}, which regularizes "
                    f"nothing at the Gram matrix's scale of {np.diagonal(gram).max():.3g}"
                )
            else:
                message = "normal equations are singular; use a positive alpha_R"
            raise SingularSystem(message) from exc
    return solutions


def _train_block(block, t: int) -> np.ndarray:
    """``block`` as a float (t, width) array, checked for its row count and finite values."""
    b = np.asarray(block, dtype=np.float64)
    if b.ndim != 2 or b.shape[0] != t:
        raise ShapeError(f"expected blocks of {t} train rows, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise InvalidData("features contain non-finite entries")
    return b


@dataclass(frozen=True)
class RidgePath:
    """One ridge fit per alpha of a grid: predictions ``weights[i] @ z + intercepts[i]``."""

    weights: np.ndarray  # (n_alphas, D), alpha-major
    intercepts: np.ndarray  # (n_alphas,)

    def predict(self, blocks) -> np.ndarray:
        """The (n_alphas, n) predictions for features given as (n, width) column blocks.

        The blocks take the weights' columns in order, so they must list the
        D features in the order of the train blocks, in any widths.
        """
        d = self.weights.shape[1]
        predictions = None
        start = 0
        for block in blocks:
            b = np.asarray(block, dtype=np.float64)
            if b.ndim != 2 or start + b.shape[1] > d:
                raise ShapeError(f"model fitted with {d} features, got a block of shape {b.shape}")
            if predictions is not None and b.shape[0] != predictions.shape[1]:
                raise ShapeError("the blocks must share one sample count")
            stop = start + b.shape[1]
            part = self.weights[:, start:stop] @ b.T
            predictions = part if predictions is None else predictions + part
            start = stop
        if predictions is None or start != d:
            raise ShapeError(f"model fitted with {d} features, got {start}")
        return predictions + self.intercepts[:, None]


def ridge_path(blocks, targets, alphas) -> RidgePath:
    """Closed-form ridge on centred features and targets, fitted for every alpha of a grid.

    ``blocks`` yields the features of the t train samples as (t, width)
    column blocks, such as one scattering path each (:func:`layout_blocks`),
    one row per target. Each block is checked for finite values and centred
    on its own mean. While the feature count D is at most t the centred
    blocks are kept, and the D x D normal equations are solved. Once D
    exceeds t the kept blocks are folded into the t x t dual kernel and
    dropped, each later block is added to it as it comes, and a second
    iteration over ``blocks``, which must yield the same blocks again, gives
    each block's weights from the dual solutions (Saunders, Gammerman &
    Vovk, "Ridge Regression Learning Algorithm in Dual Variables", ICML
    1998). Either way each solve is cubic in min(D, t), and past the switch
    the dual holds one block at a time besides the t x t kernel.

    Targets must be finite and every alpha in [0, inf). Each alpha's system
    is factored and solved apart, and its weights and intercept come from
    one product each, so a grid's fits equal one-alpha fits bit for bit.
    """
    y = np.asarray(targets, dtype=np.float64)
    if y.ndim != 1:
        raise ShapeError(f"targets must be a vector, got shape {y.shape}")
    if y.shape[0] < 1:
        raise InvalidData("need at least one sample")
    if not np.all(np.isfinite(y)):
        raise InvalidData("targets contain non-finite entries")
    alphas = list(alphas)
    if not all(0.0 <= alpha < math.inf for alpha in alphas):
        raise ConfigError("alpha_R must be finite and non-negative")

    t = y.shape[0]
    y_bar = float(y.mean())
    yc = y - y_bar
    kept, means = [], []
    kernel = None
    d = 0
    for block in blocks:
        b = _train_block(block, t)
        means.append(b.mean(axis=0))
        kept.append(b - means[-1])
        d += b.shape[1]
        if d > t:
            if kernel is None:
                kernel = np.zeros((t, t))
            for centred in kept:
                kernel += centred @ centred.T
            kept = []
    if not means:
        raise ShapeError("need at least one feature block")
    mean = np.concatenate(means)
    if kernel is None:
        zc = np.concatenate(kept, axis=1)
        weights = _ridge_solve(zc.T @ zc, zc.T @ yc, alphas)
    else:
        solutions = _ridge_solve(kernel, yc, alphas)
        weights = np.empty((len(alphas), d))
        mismatch = ShapeError("a second iteration over the blocks must repeat the first")
        start = count = 0
        for block in blocks:
            b = _train_block(block, t)
            if count == len(means) or b.shape[1] != means[count].shape[0]:
                raise mismatch
            centred = b - means[count]
            stop = start + b.shape[1]
            for i, solution in enumerate(solutions):
                weights[i, start:stop] = centred.T @ solution
            start, count = stop, count + 1
        if count != len(means):
            raise mismatch
    intercepts = np.array([y_bar - float(w @ mean) for w in weights])
    return RidgePath(weights=weights, intercepts=intercepts)


def mae(predictions: np.ndarray, truth: np.ndarray) -> float:
    a = np.asarray(predictions, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))
