"""PCA baseline transform, closed-form ridge readout and regression metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidData, InvalidK, ShapeError, SingularSystem
from .spectral import SampleCovariance


@dataclass(frozen=True)
class PcaModel:
    components: np.ndarray  # (N, k) leading eigenvector columns
    k: int
    source_eigenvalues: np.ndarray
    mean: np.ndarray


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    alpha: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        z = np.asarray(features, dtype=np.float64)
        if z.shape[0] != self.weights.shape[0]:
            raise ShapeError(
                f"model fitted with {self.weights.shape[0]} features, got {z.shape[0]}"
            )
        return self.weights @ z + self.intercept


def pca_fit(cov: SampleCovariance, k: int) -> PcaModel:
    """Leading ``k`` eigenvectors of ``cov.decomposition``, with every eigenvalue."""
    n = cov.n_features
    if not 1 <= k <= n:
        raise InvalidK(f"k must be in [1, {n}], got {k}")
    dec = cov.decomposition
    return PcaModel(
        components=dec.eigenvectors[:, :k].copy(),
        k=k,
        source_eigenvalues=dec.eigenvalues.copy(),
        mean=cov.mean.copy(),
    )


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Project (centered) signals onto the leading eigenvectors; returns (k, T)."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x.T).T if squeeze else x
    if x.shape[0] != model.mean.shape[0]:
        raise ShapeError(f"expected {model.mean.shape[0]} features, got {x.shape[0]}")
    out = model.components.T @ (x - model.mean[:, None])
    return out[:, 0] if squeeze else out


def _ridge_solve(gram, rhs, alphas) -> np.ndarray:
    """The (m, n_alphas) solutions of ``(gram + alpha I) s = rhs``, one alpha at a time.

    Each system's Cholesky factor checks that it is positive definite.
    """
    solutions = np.empty((gram.shape[0], len(alphas)))
    for i, alpha in enumerate(alphas):
        system = gram + alpha * np.eye(gram.shape[0])
        try:
            np.linalg.cholesky(system)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("normal equations are singular; use a positive alpha_R") from exc
        solutions[:, i] = np.linalg.solve(system, rhs)
    return solutions


def _checked(targets, alphas) -> tuple[np.ndarray, list]:
    """The targets as a float vector and the alpha grid as a list, checked for a ridge solve.

    Both solvers share this: at least one target, every target finite, and
    every alpha in [0, inf).
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
    return y, alphas


def ridge_path(features: np.ndarray, targets: np.ndarray, alphas) -> list[RidgeModel]:
    """Closed-form ridge on centered features and targets, one model per alpha.

    Validates, centres and forms the Gram matrix once for the whole grid, then
    factors and solves ``gram + alpha * I`` for each alpha in turn. Solves
    the D x D normal equations when D <= T and the equivalent T x T dual
    otherwise, keeping each solve cubic in min(D, T).
    """
    y, alphas = _checked(targets, alphas)
    z = np.asarray(features, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != y.shape[0]:
        raise ShapeError(f"incompatible shapes {z.shape} and {y.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidData("features contain non-finite entries")

    d, t = z.shape
    z_bar = z.mean(axis=1)
    y_bar = float(y.mean())
    zc = z - z_bar[:, None]
    yc = y - y_bar
    primal = d <= t
    gram = zc @ zc.T if primal else zc.T @ zc
    rhs = zc @ yc if primal else yc
    models = []
    for alpha, solution in zip(alphas, _ridge_solve(gram, rhs, alphas).T):
        weights = solution if primal else zc @ solution
        models.append(
            RidgeModel(
                weights=weights, intercept=y_bar - float(weights @ z_bar), alpha=float(alpha)
            )
        )
    return models


def dual_ridge_predict(train_blocks, joint_blocks, targets, alphas) -> np.ndarray:
    """Dual ridge predictions for every alpha, from feature blocks taken one at a time.

    The dual solve of :func:`ridge_path` (Saunders, Gammerman & Vovk,
    "Ridge Regression Learning Algorithm in Dual Variables", ICML 1998)
    without a feature matrix: the features come as blocks of columns, such
    as one scattering path each, and no more than one block and its weights
    are held at a time. It pays when the feature count D is above the train
    count t, where it needs only a t x t kernel.

    ``train_blocks`` yields each block's train rows, (t, width), one row
    per target; it is consumed first. Each block is checked for finite
    values and centred on its own train mean, and the sum of the centred
    blocks' products is the kernel K, so that ``(K + alpha I) s = y_c`` is
    solved for every alpha at once. ``joint_blocks`` then yields the same
    blocks in the same order, each for the t train samples followed by the
    samples to predict; a block's weights are its centred train rows
    transposed times the solutions.

    Returns the (n_alphas, n_predicted) predictions, equal to
    ``ridge_path(z_train, targets, alphas)[i].predict(z)`` up to the order of
    the sums.
    """
    y, alphas = _checked(targets, alphas)
    t = y.shape[0]
    kernel = np.zeros((t, t))
    means = []
    for block in train_blocks:
        b = np.asarray(block, dtype=np.float64)
        if b.ndim != 2 or b.shape[0] != t:
            raise ShapeError(f"expected blocks of {t} train rows, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise InvalidData("features contain non-finite entries")
        b_mean = b.mean(axis=0)
        centred = b - b_mean
        kernel += centred @ centred.T
        means.append(b_mean)
    if not means:
        raise ShapeError("need at least one feature block")
    y_bar = float(y.mean())
    yc = y - y_bar
    solutions = _ridge_solve(kernel, yc, alphas)

    mismatch = ShapeError("the joint blocks must repeat the train blocks over one set of rows")
    predictions = offset = 0.0
    rows = None
    count = 0
    for block in joint_blocks:
        b = np.asarray(block, dtype=np.float64)
        if rows is None:
            rows = b.shape[0] if b.ndim == 2 else -1
        if count == len(means) or rows < t or b.shape != (rows, means[count].shape[0]):
            raise mismatch
        weights = (b[:t] - means[count]).T @ solutions
        predictions = predictions + b[t:] @ weights
        offset = offset + means[count] @ weights
        count += 1
    if count != len(means):
        raise mismatch
    return (predictions + (y_bar - offset)).T


def ridge_fit(features: np.ndarray, targets: np.ndarray, alpha: float) -> RidgeModel:
    """Closed-form ridge at one alpha: the one-point case of :func:`ridge_path`."""
    return ridge_path(features, targets, [alpha])[0]


def mae(predictions: np.ndarray, truth: np.ndarray) -> float:
    a = np.asarray(predictions, dtype=np.float64)
    b = np.asarray(truth, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))
