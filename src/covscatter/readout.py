"""PCA baseline transform, closed-form ridge readout and regression metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConfigError, InvalidData, InvalidK, ShapeError, SingularSystem
from .spectral import SampleCovariance, SpectralDecomposition, eig_sym


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

    def provenance(self) -> dict:
        return {
            "alpha_R": self.alpha,
            "intercept": self.intercept,
            "weights": ",".join(repr(float(w)) for w in self.weights),
        }


def pca_fit(
    cov: SampleCovariance, k: int, decomposition: SpectralDecomposition | None = None
) -> PcaModel:
    n = cov.n_features
    if not 1 <= k <= n:
        raise InvalidK(f"k must be in [1, {n}], got {k}")
    dec = decomposition if decomposition is not None else eig_sym(cov.matrix)
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


def pca_fit_transform(cov: SampleCovariance, k: int, data) -> np.ndarray:
    x = data.values if hasattr(data, "values") else np.asarray(data)
    return pca_transform(pca_fit(cov, k), x)


def _spd_solve(matrix, rhs):
    try:
        factor = scipy.linalg.cho_factor(matrix)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "normal equations are singular; use a positive alpha_R"
        ) from exc
    return scipy.linalg.cho_solve(factor, rhs)


def ridge_fit(features: np.ndarray, targets: np.ndarray, alpha: float) -> RidgeModel:
    """Closed-form ridge on centered features and targets.

    Solves the D x D normal equations when D <= T and the equivalent T x T
    dual otherwise, keeping the solve cubic in min(D, T).
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
    if alpha < 0.0:
        raise ConfigError("alpha_R must be non-negative")

    d, t = z.shape
    z_bar = z.mean(axis=1)
    y_bar = float(y.mean())
    zc = z - z_bar[:, None]
    yc = y - y_bar
    if d <= t:
        gram = zc @ zc.T + alpha * np.eye(d)
        weights = _spd_solve(gram, zc @ yc)
    else:
        kernel = zc.T @ zc + alpha * np.eye(t)
        weights = zc @ _spd_solve(kernel, yc)
    return RidgeModel(
        weights=weights, intercept=y_bar - float(weights @ z_bar), alpha=float(alpha)
    )


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
