import numpy as np
import pytest

from covscatter import spectral
from covscatter.spectral import SampleCovariance


def random_spd(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = a @ a.T / n + 0.05 * np.eye(n)
    return scale * (m + m.T) / 2.0


def spd_covariance(n, seed, scale=1.0):
    """SampleCovariance wrapper around a random SPD matrix."""
    return SampleCovariance(
        matrix=random_spd(n, seed, scale), mean=np.zeros(n), sample_count=1000
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def eig_calls(monkeypatch):
    """Every matrix handed to the eigensolver while the test runs."""
    calls = []
    eig_sym = spectral.eig_sym

    def counting_eig_sym(matrix):
        calls.append(matrix)
        return eig_sym(matrix)

    monkeypatch.setattr(spectral, "eig_sym", counting_eig_sym)
    return calls
