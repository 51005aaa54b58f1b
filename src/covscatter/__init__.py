"""Covariance wavelet filterbanks and scattering transforms.

Untrained hierarchical feature extractors built on the spectrum of a sample
covariance matrix, with PCA/ridge baselines, synthetic data generation,
stability-bound evaluators and a reproducible experiment harness.

Each public name is imported from the submodule that defines it
(``covscatter.spectral``, ``.wavelets``, ``.scattering``, ``.readout``,
``.bounds``, ``.synthdata``, ``.harness``, ``.io``, ``.errors``; the CLI is
``covscatter.cli``); the package itself loads none of them.
"""

__version__ = "0.1.0"
