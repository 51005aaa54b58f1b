"""Covariance wavelet filterbanks and scattering transforms.

Untrained hierarchical feature extractors built on the spectrum of a sample
covariance matrix, with PCA/ridge baselines, synthetic data generation,
stability-bound evaluators and a reproducible experiment harness.
"""

from .bounds import (
    BoundConstants,
    cst_stability_bound,
    estimate_kmax,
    measured_wavelet_delta,
    pca_gap_scale,
    pruning_preserved,
    signal_stability_bound,
    wavelet_delta,
)
from .readout import (
    PcaModel,
    RidgeModel,
    mae,
    mse,
    pca_fit,
    pca_transform,
    ridge_fit,
    ridge_path,
)
from .scattering import (
    CstConfig,
    CstModel,
    FeatureVector,
    ScatterTree,
    cst_fit,
    cst_transform,
    cst_transform_batch,
    decide_layout,
    feature_count,
)
from .spectral import (
    DataMatrix,
    SampleCovariance,
    SpectralDecomposition,
    WaveletOperator,
    eig_sym,
    sample_covariance,
    wavelet_operator,
)
from .synthdata import SynthDataset, SynthSpec, synth_generate
from .wavelets import (
    Diffusion,
    Filterbank,
    Hann,
    Monic,
    build_filterbank,
    diffusion_apply,
    diffusion_gamma,
    kernel_eval,
    localization_profile,
    wavelet_matrices,
)

__version__ = "0.1.0"

__all__ = [
    "BoundConstants",
    "CstConfig",
    "CstModel",
    "DataMatrix",
    "Diffusion",
    "FeatureVector",
    "Filterbank",
    "Hann",
    "Monic",
    "PcaModel",
    "RidgeModel",
    "SampleCovariance",
    "ScatterTree",
    "SpectralDecomposition",
    "SynthDataset",
    "SynthSpec",
    "WaveletOperator",
    "build_filterbank",
    "cst_fit",
    "cst_stability_bound",
    "cst_transform",
    "cst_transform_batch",
    "decide_layout",
    "diffusion_apply",
    "diffusion_gamma",
    "eig_sym",
    "estimate_kmax",
    "feature_count",
    "kernel_eval",
    "localization_profile",
    "mae",
    "measured_wavelet_delta",
    "mse",
    "pca_fit",
    "pca_gap_scale",
    "pca_transform",
    "pruning_preserved",
    "ridge_fit",
    "ridge_path",
    "sample_covariance",
    "signal_stability_bound",
    "synth_generate",
    "wavelet_delta",
    "wavelet_matrices",
    "wavelet_operator",
]
