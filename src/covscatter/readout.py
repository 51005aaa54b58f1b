"""PCA baseline transform, closed-form ridge readout and regression metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def _spd_solve(matrix, rhs):
    try:
        factor = scipy.linalg.cho_factor(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "normal equations are singular; use a positive alpha_R"
        ) from exc
    return scipy.linalg.cho_solve(factor, rhs)


def ridge_path(features: np.ndarray, targets: np.ndarray, alphas) -> list[RidgeModel]:
    """Closed-form ridge on centered features and targets, one model per alpha.

    Validates, centres and forms the Gram matrix once for the whole grid, then
    factors ``gram + alpha * I`` once per alpha. Solves the D x D normal
    equations when D <= T and the equivalent T x T dual otherwise, keeping
    each solve cubic in min(D, T).
    """
    z = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or y.ndim != 1 or z.shape[1] != y.shape[0]:
        raise ShapeError(f"incompatible shapes {z.shape} and {y.shape}")
    if y.shape[0] < 1:
        raise InvalidData("need at least one sample")
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(y))):
        raise InvalidData("features or targets contain non-finite entries")
    alphas = list(alphas)
    if not all(0.0 <= alpha < math.inf for alpha in alphas):
        raise ConfigError("alpha_R must be finite and non-negative")

    d, t = z.shape
    z_bar = z.mean(axis=1)
    y_bar = float(y.mean())
    zc = z - z_bar[:, None]
    yc = y - y_bar
    primal = d <= t
    gram = zc @ zc.T if primal else zc.T @ zc
    rhs = zc @ yc if primal else yc
    identity = np.eye(gram.shape[0])
    models = []
    for alpha in alphas:
        solution = _spd_solve(gram + alpha * identity, rhs)
        weights = solution if primal else zc @ solution
        models.append(
            RidgeModel(
                weights=weights, intercept=y_bar - float(weights @ z_bar), alpha=float(alpha)
            )
        )
    return models


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
