"""Covariance wavelet kernel families, filterbanks and wavelet matrices.

Three families are provided, all acting on the eigenvalues of a wavelet
operator with spectrum in [0, gamma]:

* diffusion: ``h_0(x) = 1 - x`` and ``h_j(x) = x^(2^(j-1)) - x^(2^j)``,
  cheap to apply without an eigendecomposition via repeated operator
  products;
* Hann: translated raised-cosine windows truncated to their support, with
  an optional logarithmic warping of the spectrum, plus a reflected
  half-window at the origin so the filterbank covers ``x = 0``;
* monic: the piecewise power/cubic/power kernel evaluated on scaled
  eigenvalues, scales log-spaced from the spectrum quartiles.

Each family builds its own kernels: ``family.kernels(J, gamma, spectrum)``
checks the spectrum, derives what the family needs from it (Hann's
translations and warp anchors, monic's quartiles, scales and cubic) and
returns ``(kernel, lipschitz, facts)``, where ``kernel(j, lams)`` evaluates
kernel ``j``, ``lipschitz[j]`` bounds its variation over [0, gamma] and
``facts`` are the derived values a provenance file records. A
:class:`Filterbank` keeps the kernels' responses on its spectrum and the
facts, values only, so a fitted model pickles.

Every filterbank exposes exactly ``J`` kernels with scale indices
``0 .. J-1`` so the scattering branching factor is ``J`` for all families.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSpectrum,
    DomainError,
    InvalidScaleCount,
    NumericalError,
    ShapeError,
)
from .spectral import WaveletOperator

DEFAULT_HANN_GAMMA = 10.0
DEFAULT_MONIC_GAMMA = 1.0

# relative slack accepted at the edges of the kernel domain [0, gamma]
_DOMAIN_SLACK = 1e-12

# largest accepted gamma and monic resolution K. Both only set units and scale
# spacing; capping them far inside the float64 range keeps the translations,
# scales and Lipschitz constants that grow with them finite (the monic cubic is
# solved in cubes of gamma-sized quartiles).
MAX_SCALE = 1e100


def _pow2k(x, k):
    # x^(2^k) by repeated squaring; exact for k = 0
    out = np.array(x, dtype=np.float64, copy=True)
    for _ in range(k):
        out = out * out
    return out


def _diffusion_values(j, lams):
    if j == 0:
        return 1.0 - lams
    a = _pow2k(lams, j - 1)
    return a - a * a


def _monic_cubic_coeffs(l1, l2, alpha, beta):
    # s(l1) = s(l2) = 1, s'(l1) = alpha/l1, s'(l2) = -beta/l2
    system = np.array(
        [
            [l1**3, l1**2, l1, 1.0],
            [l2**3, l2**2, l2, 1.0],
            [3.0 * l1**2, 2.0 * l1, 1.0, 0.0],
            [3.0 * l2**2, 2.0 * l2, 1.0, 0.0],
        ]
    )
    rhs = np.array([1.0, 1.0, alpha / l1, -beta / l2])
    return np.linalg.solve(system, rhs)


def _quad_abs_max(coeffs, lo, hi):
    # max |3*c3*u^2 + 2*c2*u + c1| over [lo, hi]
    c3, c2, c1, _ = coeffs
    candidates = [lo, hi]
    if c3 != 0.0:
        vertex = -c2 / (3.0 * c3)
        if lo < vertex < hi:
            candidates.append(vertex)
    return max(abs(3.0 * c3 * u * u + 2.0 * c2 * u + c1) for u in candidates)


@dataclass(frozen=True)
class Diffusion:
    """Dyadic diffusion wavelets; no extra parameters."""

    def default_gamma(self, J: int) -> float:
        """Spectrum rescaling that puts the largest-scale diffusion peak at the top eigenvalue."""
        if J < 2:
            raise InvalidScaleCount(f"diffusion filterbank needs J >= 2, got {J}")
        return 0.5 ** 0.5 ** (J - 2)  # in floats: 2 ** (J - 2) leaves float64 past J = 1025

    def kernels(self, J: int, gamma: float, spectrum: np.ndarray):
        if gamma > 1.0 + _DOMAIN_SLACK:
            raise ConfigError("diffusion kernels require gamma <= 1")
        lipschitz = np.array([1.0] + [2.0 ** (j - 1) for j in range(1, J)])
        return _diffusion_values, lipschitz, {}


@dataclass(frozen=True)
class Hann:
    R: float = 3.0
    warp: bool = True

    def __post_init__(self):
        if not self.R > 0.0:
            raise ConfigError("Hann overlap R must be positive")

    def default_gamma(self, J: int) -> float:
        return DEFAULT_HANN_GAMMA

    def kernels(self, J: int, gamma: float, spectrum: np.ndarray):
        if not self.R < J + 1:
            raise ConfigError(f"Hann requires R < J + 1, got R={self.R}, J={J}")
        translations = np.arange(1, J) * gamma / (J + 1 - self.R)
        width = self.R * gamma / (J + 1 - self.R)
        slope = 2.0 * np.pi * (J + 1 - self.R) / (self.R * gamma)
        p_translate = np.pi * (J + 1 - self.R) / (self.R * gamma)
        p_dc = np.pi / (2.0 * translations[0])
        lipschitz = np.array([p_dc] + [p_translate] * (J - 1))
        if self.warp:
            # log map anchored to the spectrum the bank is built from, affinely
            # rescaled onto [0, gamma]; a flat spectrum anchors it to [0, gamma]
            eps = 1e-6 * gamma
            lo = float(np.log(spectrum.min() + eps))
            hi = float(np.log(spectrum.max() + eps))
            if hi - lo < 1e-12:
                lo = float(np.log(eps))
                hi = float(np.log(gamma + eps))
            # kernels act on warped eigenvalues; chain the warp slope, steepest
            # at the low anchor
            lipschitz = lipschitz * (gamma / (((np.exp(lo) - eps) + eps) * (hi - lo)))

        def kernel(j, lams):
            u = lams
            if self.warp:
                # values outside the anchor range are clamped
                u = np.clip(gamma * (np.log(lams + eps) - lo) / (hi - lo), 0.0, gamma)
            if j == 0:
                t1 = translations[0]
                vals = 0.5 + 0.5 * np.cos(np.pi * u / t1)
                return np.where(u <= t1, vals, 0.0)
            t = translations[j - 1]
            vals = 0.5 + 0.5 * np.cos(slope * (u - t) + np.pi)
            return np.where((u > t - width) & (u < t), vals, 0.0)

        return kernel, lipschitz, {"hann.translations": translations}


@dataclass(frozen=True)
class Monic:
    alpha: float = 2.0
    beta: float = 2.0
    K: float = 20.0

    def __post_init__(self):
        if not (self.alpha >= 1.0 and self.beta >= 1.0):
            raise ConfigError("monic exponents alpha, beta must be >= 1")
        if not 0.0 < self.K <= MAX_SCALE:
            raise ConfigError(f"monic resolution K must be in (0, {MAX_SCALE:g}], got {self.K}")

    def default_gamma(self, J: int) -> float:
        return DEFAULT_MONIC_GAMMA

    def kernels(self, J: int, gamma: float, spectrum: np.ndarray):
        if not np.any(spectrum > 0.0):
            raise DegenerateSpectrum("operator spectrum is all zeros")
        n = spectrum.shape[0]
        ascending = np.sort(spectrum)
        i1 = max(n // 4, 1)
        i2 = min(-(-3 * n // 4), n)  # ceil(3N/4), clamped
        l1 = float(ascending[i1 - 1])
        l2 = float(ascending[i2 - 1])
        if l1 <= 0.0:
            raise DegenerateSpectrum("monic quartile lambda_bar1 is not positive")
        if l2 - l1 <= _DOMAIN_SLACK * max(1.0, gamma):
            raise DegenerateSpectrum("monic spectrum quartiles coincide")
        exponents = (J - np.arange(1, J + 1)) / (J - 1)
        scales = (l2 / gamma) * self.K**exponents
        cubic = _monic_cubic_coeffs(l1, l2, self.alpha, self.beta)

        lipschitz = []
        for t in scales:
            u_max = t * gamma
            sup = 0.0
            u_end = min(l1, u_max)
            if u_end > 0.0:
                sup = max(sup, t * self.alpha * u_end ** (self.alpha - 1.0) / l1**self.alpha)
            if u_max > l1:
                sup = max(sup, t * _quad_abs_max(cubic, l1, min(l2, u_max)))
            if u_max > l2:
                sup = max(sup, t * self.beta / l2)
            lipschitz.append(sup)

        def kernel(j, lams):
            u = scales[j] * lams
            out = np.empty_like(u)
            rise = u < l1
            decay = u > l2
            mid = ~(rise | decay)
            out[rise] = (u[rise] / l1) ** self.alpha
            out[mid] = np.polyval(cubic, u[mid])
            out[decay] = (l2 / u[decay]) ** self.beta
            return out

        facts = {"monic.lambda_bar1": l1, "monic.lambda_bar2": l2, "monic.scales": scales}
        return kernel, np.array(lipschitz), facts


KernelFamily = Union[Diffusion, Hann, Monic]

FAMILY_NAMES = {"diffusion": Diffusion, "hann": Hann, "monic": Monic}


def family_name(family: KernelFamily) -> str:
    return type(family).__name__.lower()


def check_family(family) -> None:
    """Raise :class:`ConfigError` unless ``family`` is a Diffusion, Hann or Monic instance."""
    if not isinstance(family, tuple(FAMILY_NAMES.values())):
        raise ConfigError(f"unknown kernel family {family!r}")


@dataclass(frozen=True)
class Filterbank:
    """J kernels of one family, built on one operator, with their responses on its spectrum.

    ``facts`` holds what ``family.kernels`` derived from the spectrum.
    ``responses`` is the read-only (J, N) array of ``h_j(lambda_k)`` on the
    operator's eigenvalues, in the order of its eigenvectors: the one
    evaluation of the kernels that the frame bounds, the wavelet matrices
    and a model's pruning energies all read. ``frame_lower``/``frame_upper``
    bound the total filterbank response on that spectrum; ``lipschitz[j]``
    bounds the variation of kernel ``j`` over the whole domain [0, gamma].
    """

    family: KernelFamily
    J: int
    operator: WaveletOperator = field(repr=False)
    facts: dict = field(repr=False)
    frame_lower: float
    frame_upper: float
    lipschitz: np.ndarray
    responses: np.ndarray = field(repr=False)

    @property
    def gamma(self) -> float:
        return self.operator.gamma

    def provenance(self) -> dict:
        """What building the bank computed, as flat key-value pairs for experiment logs.

        The family and its parameters are the caller's settings and are left out.
        """
        return {
            "gamma": self.gamma,
            "frame_lower": self.frame_lower,
            "frame_upper": self.frame_upper,
            "lipschitz": self.lipschitz,
            **self.facts,
        }


@dataclass(frozen=True)
class LocalizationProfile:
    """Wavelet column centered on one feature plus its covariance-distance bound."""

    values: np.ndarray
    bound: np.ndarray | None
    distances: dict | None


def kernel_eval(filterbank: Filterbank, j: int, lam) -> np.ndarray | float:
    """Evaluate kernel ``j`` of a built filterbank at eigenvalue(s) ``lam``.

    ``lam`` must lie in the kernel domain: [0, 1] for diffusion (the
    rescaling keeps the spectrum inside it), [0, gamma] otherwise. The
    kernels are built again by ``family.kernels`` from the bank's spectrum,
    as the bank keeps only their responses.
    """
    if not 0 <= j < filterbank.J:
        raise IndexError(f"scale index {j} outside 0..{filterbank.J - 1}")
    arr = np.atleast_1d(np.asarray(lam, dtype=np.float64))
    top = 1.0 if isinstance(filterbank.family, Diffusion) else filterbank.gamma
    slack = _DOMAIN_SLACK * max(1.0, top)
    if np.any(arr < -slack) or np.any(arr > top + slack):
        raise DomainError(f"eigenvalue outside [0, {top}]")
    spectrum = filterbank.operator.decomposition.eigenvalues
    vals = filterbank.family.kernels(filterbank.J, filterbank.gamma, spectrum)[0](j, arr)
    return float(vals[0]) if np.isscalar(lam) or np.asarray(lam).ndim == 0 else vals


def build_filterbank(operator: WaveletOperator, family: KernelFamily, J: int) -> Filterbank:
    """Build the J-kernel filterbank for one operator.

    The family builds its kernels once, and each is evaluated once on the
    operator's spectrum, into the bank's ``responses``. Frame bounds follow
    the family: diffusion uses the analytic pair ``B = 1``, ``A = 1 -
    gamma``; the other families take the min/max of the summed squared
    kernel response over the actual operator spectrum. A spectrum with
    eigenvalues outside every kernel support yields a frame lower bound
    near zero, which is reported rather than rejected.

    Parameters that push a kernel, a Lipschitz constant or the frame response
    out of float64 on this spectrum (steep monic exponents: ``lambda_bar1 **
    alpha`` underflows) raise ``ConfigError`` rather than a numpy warning.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            filterbank = _build_filterbank(operator, family, J)
            # an infinite cubic coefficient from the solve raises no flag
            if not np.isfinite([filterbank.frame_upper, *filterbank.lipschitz]).all():
                raise FloatingPointError
    except (FloatingPointError, OverflowError):
        raise ConfigError(f"{family} leaves the float64 range on this spectrum") from None
    return filterbank


def _build_filterbank(operator: WaveletOperator, family: KernelFamily, J: int) -> Filterbank:
    if J < 2:
        raise InvalidScaleCount(f"filterbank needs J >= 2, got {J}")
    check_family(family)
    gamma = operator.gamma
    spectrum = operator.decomposition.eigenvalues
    kernel, lipschitz, facts = family.kernels(J, gamma, spectrum)

    responses = np.stack([kernel(j, spectrum) for j in range(J)])
    responses.flags.writeable = False
    if isinstance(family, Diffusion):
        lower, upper = 1.0 - gamma, 1.0
    else:
        g = np.sum(responses * responses, axis=0)
        lower = float(np.sqrt(max(float(g.min()), 0.0)))
        upper = float(np.sqrt(float(g.max())))

    return Filterbank(
        family=family,
        J=J,
        operator=operator,
        facts=facts,
        frame_lower=float(lower),
        frame_upper=float(upper),
        lipschitz=lipschitz,
        responses=responses,
    )


def wavelet_matrices(filterbank: Filterbank) -> np.ndarray:
    """Materialize H_j = V diag(h_j(lambda_i)) V^T for every scale of the bank's operator.

    ``V`` is the operator's eigenvectors and ``h_j(lambda_i)`` the bank's
    ``responses``. Returns a read-only (J, N, N) array whose ``j``-th slice
    is ``H_j``.
    """
    vectors = filterbank.operator.decomposition.eigenvectors
    n = vectors.shape[0]
    mats = np.empty((filterbank.J, n, n))
    for j in range(filterbank.J):
        h = (vectors * filterbank.responses[j]) @ vectors.T
        mats[j] = (h + h.T) / 2.0
    mats.flags.writeable = False
    return mats


def diffusion_apply(operator_matrix: np.ndarray, x: np.ndarray, J: int) -> list[np.ndarray]:
    """Apply all J diffusion wavelets to ``x`` by repeated operator products.

    Avoids the eigendecomposition entirely: only matrix-vector (or
    matrix-block) products with the operator are used, caching the signals
    at power-of-two exponents.
    """
    t = np.asarray(operator_matrix, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if t.shape[0] != x.shape[0]:
        raise ShapeError("operator and signal dimensions differ")
    if J < 2:
        raise InvalidScaleCount(f"need J >= 2, got {J}")
    powers = {0: x}
    current = x
    reached = 0
    for k in range(J):
        target = 2**k
        for _ in range(target - reached):
            current = t @ current
        reached = target
        powers[target] = current
    out = [x - powers[1]]
    for j in range(1, J):
        out.append(powers[2 ** (j - 1)] - powers[2**j])
    return out


def localization_profile(filterbank: Filterbank, center: int, scale: int) -> LocalizationProfile:
    """Wavelet centered on one feature, with the covariance-distance decay bound.

    The values are column ``center`` of ``H_scale`` (:func:`wavelet_matrices`).
    For diffusion kernels the entry at feature ``b`` is bounded by
    ``1/d^s1(center, b) + 1/d^s2(center, b)`` where ``d^s(a, b)`` is the
    inverse magnitude of the s-step operator entry; the bound is evaluated
    and checked here.
    """
    operator = filterbank.operator
    n = operator.n_features
    if not 0 <= center < n:
        raise IndexError(f"center {center} outside 0..{n - 1}")
    if not 0 <= scale < filterbank.J:
        raise IndexError(f"scale {scale} outside 0..{filterbank.J - 1}")
    values = wavelet_matrices(filterbank)[scale][:, center].copy()
    if not isinstance(filterbank.family, Diffusion):
        return LocalizationProfile(values, None, None)

    s1 = 2 ** (scale - 1) if scale >= 1 else 0
    s2 = 2**scale
    delta = np.zeros(n)
    delta[center] = 1.0
    col = delta
    cols = {0: delta.copy()}
    for step in range(1, s2 + 1):
        col = operator.matrix @ col
        if step in (s1, s2):
            cols[step] = col.copy()
    bound = np.abs(cols[s1]) + np.abs(cols[s2])
    if np.any(np.abs(values) > bound + 1e-12):
        raise NumericalError("localization bound violated; operator state is inconsistent")
    with np.errstate(divide="ignore"):
        distances = {s1: 1.0 / np.abs(cols[s1]), s2: 1.0 / np.abs(cols[s2])}
    return LocalizationProfile(values, bound, distances)
