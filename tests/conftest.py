import contextlib
import io
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from covscatter import spectral
from covscatter.cli import main
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


def assert_contract(argv, out):
    """Run ``argv`` with ``--out out`` and check the CLI's exit contract; return ``(code, err)``.

    The exit code is 0, 2, 3 or 4 and stderr holds no traceback or warning.
    When ``main`` returns non-zero, stderr is one ``error: `` line; argparse's
    ``SystemExit`` is exempt, as its usage text spans several lines. On exit 0
    every number in the CSVs under ``out`` is finite.
    """
    err, usage = io.StringIO(), False
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag
            code, usage = exc.code, True
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code and not usage:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
    if code == 0:
        for path in out.glob("*.csv"):
            for line in path.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(number), (argv, path.name, line)
    return code, err


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
