"""Synthetic regression datasets with a controllable covariance eigenvalue tail.

The ground-truth covariance mixes a Gaussian bell with a slowly decaying
exponential, ``lam_i = (1 - tail) * exp(-(i/nu)^2) + tail * exp(-0.1*i/nu)``:
at ``tail = 0`` the spectrum drops off sharply past the effective rank,
while at ``tail = 1`` it stays nearly flat, packing the eigenvalues close
together — the regime where eigenvector estimation becomes unreliable.
Targets are linear in the features plus Gaussian noise. Everything is
deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectral import DataMatrix, sample_slices


@dataclass(frozen=True)
class SynthSpec:
    n_features: int
    n_samples: int
    tail: float
    effective_rank: float | None = None  # defaults to n_features / 2
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_features < 2 or self.n_samples < 2:
            raise ConfigError("need at least 2 features and 2 samples")
        if not 0.0 <= self.tail <= 1.0:
            raise ConfigError(f"tail must be in [0, 1], got {self.tail}")
        if self.effective_rank is not None and not self.effective_rank > 0.0:
            raise ConfigError("effective_rank must be positive")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ConfigError("noise_sigma must be finite and non-negative")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    @property
    def nu(self) -> float:
        return self.effective_rank if self.effective_rank is not None else self.n_features / 2.0


@dataclass(frozen=True)
class SynthDataset:
    data: DataMatrix
    targets: np.ndarray
    true_cov: np.ndarray
    true_weights: np.ndarray


def eigenvalue_profile(n: int, tail: float, nu: float) -> np.ndarray:
    i = np.arange(n, dtype=np.float64)
    # at nu = 1e-4 every term past i = 0 already underflows to 0.0, so a smaller
    # nu gives the same profile; clamping keeps (i / nu) ** 2 from overflowing
    nu = max(nu, 1e-4)
    return (1.0 - tail) * np.exp(-((i / nu) ** 2)) + tail * np.exp(-0.1 * i / nu)


def synth_generate(spec: SynthSpec) -> SynthDataset:
    """Draw a dataset from a random covariance with the requested spectrum.

    Draw order is fixed (basis, weights, samples, noise) so identical specs
    produce bit-identical datasets. A noise level whose targets overflow
    float64 is a :class:`ConfigError`. The samples ``chol @ Z`` are formed
    in place of the standard normal draws ``Z``, one ``spectral.SLICE``
    slice of samples at a time, and the dataset's :class:`DataMatrix` takes
    a read-only view of them, so the N x T data are held once; the slices
    give the bits of one whole-batch product.
    """
    rng = np.random.default_rng(spec.seed)
    n, t = spec.n_features, spec.n_samples

    basis, r = np.linalg.qr(rng.standard_normal((n, n)))
    basis = basis * np.sign(np.diagonal(r))
    lam = eigenvalue_profile(n, spec.tail, spec.nu)
    cov = (basis * lam) @ basis.T
    cov = (cov + cov.T) / 2.0

    weights = rng.standard_normal(n)
    weights = weights / np.linalg.norm(weights)

    jitter = 1e-12 * np.trace(cov) / n
    chol = np.linalg.cholesky(cov + jitter * np.eye(n))
    x = rng.standard_normal((n, t))
    for part in sample_slices(t):
        x[:, part] = chol @ x[:, part]
    with np.errstate(over="ignore"):
        y = weights @ x + spec.noise_sigma * rng.standard_normal(t)
    if not np.all(np.isfinite(y)):
        raise ConfigError(f"noise_sigma (--noise) {spec.noise_sigma:g} overflows the targets")

    names = [f"f{i}" for i in range(n)]
    return SynthDataset(
        data=DataMatrix(x, feature_names=names),
        targets=y,
        true_cov=cov,
        true_weights=weights,
    )
