import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from covscatter import spectral
from covscatter.scattering import cst_transform_batch, decide_layout, layout_blocks
from covscatter.spectral import SampleCovariance

ROOT = Path(__file__).parents[1]


def section(path, heading):
    """The text under ``heading`` in ``path``, up to the next heading of any level."""
    text = (ROOT / path).read_text()
    start = text.index(f"\n{heading}\n") + len(heading) + 2
    end = text.find("\n#", start)
    return text[start:] if end < 0 else text[start:end]


def names(text):
    """The backticked names in ``text``, without leading dashes."""
    return [name.lstrip("-") for name in re.findall(r"`([^`]+)`", text)]


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


def full_layout(J, L):
    """Every path of an unpruned tree, in layout order: ``feature_count(J, L)`` of them."""
    return tuple(p for depth in range(L) for p in itertools.product(range(J), repeat=depth))


def batch_of_one(model, x, layout=None):
    """Embed one signal ``x`` (N,) as a batch of one: ``(decision, feature row)``.

    Without ``layout`` the batch decides its own layout, which is returned;
    with one it follows that layout, and the decision is ``None``.
    """
    decision = decide_layout(model, x[:, None]) if layout is None else None
    paths = decision.paths if layout is None else layout
    return decision, cst_transform_batch(model, x[:, None], paths)[0]


def node_signals(model, x, layout):
    """Each path's signal (N,) for one signal ``x``, keyed in layout order.

    Read from the blocks of :func:`layout_blocks`, so the model must
    aggregate by identity.
    """
    assert model.config.aggregation == "identity"
    blocks = dict(zip(sorted(layout), layout_blocks(model, x[:, None], layout)))
    return {path: blocks[path][0] for path in layout}


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
