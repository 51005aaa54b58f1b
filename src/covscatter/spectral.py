"""Sample covariance estimation, symmetric eigendecomposition and wavelet operators.

Eigendecompositions use LAPACK via ``numpy.linalg.eigh``, followed by a
deterministic ordering and sign convention so that every downstream
transform is reproducible bit-for-bit on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DegenerateCovariance,
    InsufficientSamples,
    InvalidData,
    NoConvergence,
    NotSymmetric,
    ShapeError,
)

NORMALIZED = "normalized"
INVERTED = "inverted"
OPERATOR_KINDS = (NORMALIZED, INVERTED)

# Samples per slice of every pass over a whole (N, T) dataset, so that no stage
# holds a second (N, T) array beside it, only (N, SLICE) ones. A multiple of 64
# starts every slice on the GEMM's column blocking, so a product taken slice by
# slice gives the bits of one whole-batch product.
SLICE = 2048


def sample_slices(t: int):
    """The column slices that cut ``t`` samples into runs of :data:`SLICE`."""
    return [slice(start, start + SLICE) for start in range(0, t, SLICE)]


def _readonly(arr):
    """A read-only, C-contiguous float64 view of ``arr``, copied only to reach that layout.

    The canonical C layout keeps BLAS paths, and thus output bits,
    reproducible. An array already in it is not copied, so a container holds
    the data its caller made once; the view cannot write it, but a caller
    that writes its own array afterwards changes the container's values.
    """
    view = np.asarray(arr, dtype=np.float64, order="C").view()
    view.flags.writeable = False
    return view


def _asymmetric(m: np.ndarray, rtol: float) -> bool:
    """Whether ``||m - m.T||_F > rtol * max(1, ||m||_F)``.

    Both norms are taken of ``m / max|m|``, so that no square overflows, and
    the scale is multiplied back only where the product cannot overflow. A
    non-finite ``m`` passes: :func:`eig_sym` reports its entries.
    """
    scale = float(np.abs(m).max(initial=0.0))
    if not 0.0 < scale < np.inf:
        return False
    unit = m / scale
    asym, size = float(np.linalg.norm(unit - unit.T)), float(np.linalg.norm(unit))
    return asym > rtol * size if size * scale >= 1.0 else asym * scale > rtol


@dataclass(frozen=True)
class DataMatrix:
    """N x T data: rows are features, columns are observations.

    ``values`` is a read-only, C-contiguous float64 view of the given array
    (see :func:`_readonly`): an array already in that layout, such as the one
    :func:`covscatter.io.read_data_csv` fills or
    :func:`covscatter.synthdata.synth_generate` forms, is not copied, and any
    other is copied once. A caller that writes its array afterwards changes
    the container; no caller in the package does. Construction checks every
    entry for finiteness, which takes an (N, T) boolean temporary, an eighth
    of the data's size.
    """

    values: np.ndarray
    feature_names: list[str] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise InvalidData(f"expected a 2-D data matrix, got shape {values.shape}")
        n, t = values.shape
        if n < 2:
            raise InvalidData(f"need at least 2 features, got {n}")
        if t < 2:
            raise InsufficientSamples(f"need at least 2 observations, got {t}")
        if not np.all(np.isfinite(values)):
            raise InvalidData("data matrix contains non-finite entries")
        if self.feature_names is not None and len(self.feature_names) != n:
            raise InvalidData(
                f"{len(self.feature_names)} feature names for {n} features"
            )
        object.__setattr__(self, "values", _readonly(values))

    @property
    def n_features(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SampleCovariance:
    """Covariance estimate with the sample mean and count that produced it.

    Its eigendecomposition, :attr:`decomposition`, is computed on first use
    and shared by every consumer of the estimate.
    """

    matrix: np.ndarray
    mean: np.ndarray
    sample_count: int

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError(f"covariance must be square, got shape {m.shape}")
        if _asymmetric(m, 1e-12):
            raise NotSymmetric("covariance matrix is not symmetric")
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.shape != (m.shape[0],):
            raise ShapeError("mean length does not match covariance size")
        if self.sample_count < 1:
            raise InsufficientSamples("sample_count must be positive")
        object.__setattr__(self, "matrix", _readonly(m))
        object.__setattr__(self, "mean", _readonly(mean))

    @property
    def n_features(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def decomposition(self) -> SpectralDecomposition:
        """:func:`eig_sym` of :attr:`matrix`, computed on first use and then shared.

        Its arrays are read-only, so no consumer can change it for the others.
        """
        return eig_sym(self.matrix)

    @property
    def top_eigenvalue(self) -> float:
        """The largest eigenvalue; :class:`DegenerateCovariance` unless it is positive."""
        if self.decomposition.eigenvalues[0] <= 0.0:
            raise DegenerateCovariance("largest covariance eigenvalue is not positive")
        return float(self.decomposition.eigenvalues[0])


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthogonal eigenvectors (columns) and eigenvalues sorted descending."""

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvectors", _readonly(self.eigenvectors))
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))


@dataclass(frozen=True)
class WaveletOperator:
    """Rescaled covariance matrix the wavelet kernels act on.

    ``normalized`` maps the covariance spectrum onto [0, gamma] keeping the
    eigenvalue order; ``inverted`` reverses it, which favours kernels that
    discriminate at the low end of the spectrum.
    """

    gamma: float
    matrix: np.ndarray
    decomposition: SpectralDecomposition

    @property
    def n_features(self) -> int:
        return self.matrix.shape[0]


def sample_covariance(data: DataMatrix | np.ndarray) -> SampleCovariance:
    """Mean-removed covariance with 1/T normalization.

    The centred products are summed over :data:`SLICE`-sample slices, so
    beside the data the estimate holds one (N, SLICE) centred slice, not a
    centred copy; up to :data:`SLICE` samples it is one product, and more
    move only in the last bits of the sums.
    The accumulated matrix is symmetrized by averaging with its transpose so
    the result is exactly symmetric. Finite data whose covariance overflows
    float64, or non-constant data whose covariance underflows to zeros and
    subnormal values (no entry of magnitude ``np.finfo(np.float64).tiny`` or
    more, where float64 has lost precision), raise :class:`InvalidData`.
    """
    if not isinstance(data, DataMatrix):
        data = DataMatrix(np.asarray(data))
    x = data.values
    t = data.n_samples
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=1)
        cov = None
        for part in sample_slices(t):
            centered = x[:, part] - mean[:, None]
            product = centered @ centered.T
            cov = product if cov is None else np.add(cov, product, out=cov)
            del centered, product  # before the next slice is centred
        cov = cov / t
        cov = (cov + cov.T) / 2.0
    if not np.all(np.isfinite(cov)):
        raise InvalidData(
            f"the covariance of data of magnitude up to {np.abs(x).max():g} overflows float64"
        )
    if np.abs(cov).max() < np.finfo(np.float64).tiny:
        deviation = max(float(np.abs(x[:, part] - mean[:, None]).max()) for part in sample_slices(t))
        if deviation > 0.0:
            raise InvalidData(
                f"the covariance of data that deviate from their mean by at most "
                f"{deviation:g} underflows float64 to zero or to subnormal values"
            )
    return SampleCovariance(matrix=cov, mean=mean, sample_count=t)


def eig_sym(matrix: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix via LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are returned in descending order (stable sort, so repeated
    eigenvalues keep the order LAPACK returns them in) and each eigenvector
    is scaled so its largest-magnitude entry is positive, first such entry
    winning ties. Non-finite input, a LAPACK failure and a non-finite
    result (eigenvalues past float64's range) raise :class:`NoConvergence`.
    The input is symmetrized as ``a + (a.T - a) / 2``, which cannot overflow
    near float64's maximum and leaves an exactly symmetric ``a`` bit for bit.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a.shape}")
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        shown = ", ".join(f"({i}, {j})" for i, j in bad[:5])
        more = f" and {len(bad) - 5} more" if len(bad) > 5 else ""
        raise NoConvergence(f"matrix has non-finite entries at {shown}{more}")
    if _asymmetric(a, 1e-10):
        raise NotSymmetric("matrix is not symmetric to 1e-10 relative")
    try:
        values, vectors = np.linalg.eigh(a + (a.T - a) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(vectors))):
        raise NoConvergence("symmetric eigensolver returned non-finite values")
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    vectors = vectors * signs
    return SpectralDecomposition(eigenvectors=vectors, eigenvalues=values)


def wavelet_operator(cov: SampleCovariance, kind: str, gamma: float) -> WaveletOperator:
    """Build the normalized or inverted operator from a covariance estimate.

    The operator decomposition is derived from ``cov.decomposition``, so
    every operator built from one estimate shares its single eigensolve.
    Operator eigenvalues are clipped into [0, gamma] to absorb roundoff from
    nearly singular covariances.
    """
    if kind not in OPERATOR_KINDS:
        raise ConfigError(f"unknown operator kind {kind!r}")
    if not gamma > 0.0:
        raise ConfigError("gamma must be positive")
    w1 = cov.top_eigenvalue
    dec = cov.decomposition
    if kind == NORMALIZED:
        matrix = gamma * cov.matrix / w1
        values = gamma * dec.eigenvalues / w1
        vectors = dec.eigenvectors
    else:
        matrix = gamma * (np.eye(cov.n_features) - cov.matrix / w1)
        values = (gamma * (1.0 - dec.eigenvalues / w1))[::-1]
        vectors = dec.eigenvectors[:, ::-1]
    matrix = (matrix + matrix.T) / 2.0
    values = np.clip(values, 0.0, gamma)
    return WaveletOperator(
        gamma=float(gamma),
        matrix=_readonly(matrix),
        decomposition=SpectralDecomposition(vectors, values),
    )
