"""Tall datasets in slices: each stage that passes over an (N, T) dataset holds it once.

The datasets have T = 3 * SLICE + 37 samples, so each pass crosses three
full slices and a short tail, and N = 8 features (N = 64 for the memory
ceilings, see :data:`N_MEMORY`).
"""

import contextlib
import io
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covscatter

from conftest import assert_contract
from covscatter.bounds import estimate_kmax
from covscatter.cli import main
from covscatter.errors import InvalidData
from covscatter.io import _count_lines, _read_cells, _read_table, read_data_csv, write_data_csv
from covscatter.scattering import CstConfig, cst_fit, decide_layout
from covscatter.spectral import SLICE, DataMatrix, sample_covariance
from covscatter.synthdata import SynthSpec, synth_generate
from covscatter.wavelets import Diffusion

N, T = 8, 3 * SLICE + 37


@pytest.fixture(scope="module")
def tall():
    """A synthetic (N, T) dataset."""
    return synth_generate(SynthSpec(N, T, tail=0.5, seed=3))


def csv_text(values, end="\n", final_break=True):
    """A data CSV of the (N, T) ``values`` with ``end`` line breaks, written as the writer writes."""
    lines = [",".join(f"f{i}" for i in range(len(values)))]
    lines += [",".join(map(repr, row)) for row in values.T.tolist()]
    return end.join(lines) + (end if final_break else "")


class TestReaderPastOneSlice:
    @pytest.mark.parametrize(
        "end, final_break",
        [("\n", True), ("\r\n", True), ("\r", True), ("\r\n", False)],
        ids=["lf", "crlf", "cr", "no final break"],
    )
    def test_reads_the_written_values(self, tmp_path, tall, end, final_break):
        path = tmp_path / "data.csv"
        path.write_bytes(csv_text(tall.data.values, end, final_break).encode())
        data = read_data_csv(path)
        npt.assert_array_equal(data.values, tall.data.values)
        assert data.values.flags.c_contiguous and not data.values.flags.writeable

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("final_break", [True, False], ids=["final break", "no final break"])
    def test_line_count(self, tmp_path, tall, end, final_break):
        # a line ends at \n, so lone \r breaks make one line, which the cell loop reads
        path = tmp_path / "data.csv"
        path.write_bytes(csv_text(tall.data.values, end, final_break).encode())
        assert _count_lines(path) == (1 if end == "\r" else T + 1)
        npt.assert_array_equal(_read_table(path)[1].T, tall.data.values)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet="\r\na", max_size=12))
    def test_line_count_is_text_modes(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("count") / "data.csv"
        path.write_bytes(text.encode())
        with path.open(newline="") as handle:
            text_lines = len(handle.readlines())
        with path.open("rb") as raw:
            binary_lines = len(raw.readlines())
        # text mode also splits at a lone \r, which ends no binary line
        lone_cr = "\r" in text.replace("\r\n", "")
        assert _count_lines(path) == (binary_lines if lone_cr else text_lines)

    @pytest.mark.parametrize("end", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_line_break_at_a_count_block_end(self, tmp_path, end):
        # a reader of 64 KiB blocks would see the first end in a \r, which a \n may follow
        path = tmp_path / "data.csv"
        path.write_bytes(b"a" * ((1 << 16) - 1) + end + b"1" + end + b"2")
        assert _count_lines(path) == (3 if end == b"\r\n" else 1)
        assert _read_table(path)[1].tolist() == [[1.0], [2.0]]

    def test_blank_lines_are_trimmed(self, tmp_path, tall):
        lines = csv_text(tall.data.values).split("\n")
        # blank lines in the first and the last slice, and a run of them at the end
        text = "\n".join(lines[:5] + [""] + lines[5:3000] + ["", ""] + lines[3000:]) + "\n\n\n"
        path = tmp_path / "data.csv"
        path.write_text(text)
        names, body = _read_table(path)
        assert body.shape == (T, N) and body.T.flags.c_contiguous
        npt.assert_array_equal(body.T, tall.data.values)
        assert names == [f"f{i}" for i in range(N)]

    def test_bad_cell_in_the_second_slice(self, tmp_path, tall):
        lines = csv_text(tall.data.values).split("\n")
        row = SLICE + 100  # a body row of the second slice; the header is row 1
        lines[row - 1] = "oops," + lines[row - 1].partition(",")[2]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines))
        message = f"{path}: non-numeric cell 'oops' at row {row}, column 1 (f0)"
        for reader in (read_data_csv, _read_cells):
            with pytest.raises(InvalidData) as err:
                reader(path)
            assert str(err.value) == message

    def test_short_row_in_the_last_slice(self, tmp_path, tall):
        lines = csv_text(tall.data.values).split("\n")
        lines[T - 1] = "1.0,2.0"  # body row T - 1, in the 37-row tail
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines))
        with pytest.raises(InvalidData, match=f"row {T} has 2 cells, expected {N}$"):
            read_data_csv(path)

    @pytest.mark.parametrize("body", ["quoted cell", "1_0", "short row"])
    def test_data_from_a_pipe(self, tmp_path, tall, body):
        # a pipe is not counted, as it can be read only once, so the cell loop reads it;
        # loadtxt rejects each of these bodies, which the cell loop reads or reports
        lines = csv_text(tall.data.values, "\r\n").split("\r\n")
        row = SLICE + 100  # a body row of the second slice; the header is row 1
        first, _, rest = lines[row - 1].partition(",")
        lines[row - 1] = {"quoted cell": f'"{first}",{rest}', "1_0": f"1_0,{rest}", "short row": first}[body]
        text = "\r\n".join(lines)
        out = tmp_path / "pca"
        run = subprocess.run(
            [sys.executable, "-m", "covscatter.cli", "pca", "--data", "/dev/stdin", "--out", str(out),
             "--k", "2"],
            input=text,
            env={"PYTHONPATH": str(Path(covscatter.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
        )
        path = tmp_path / "data.csv"
        path.write_text(text, newline="")
        code, err = assert_contract(["pca", "--data", str(path), "--k", "2"], tmp_path / "file")
        assert (run.returncode, run.stderr) == (code, err.replace(str(path), "/dev/stdin"))
        if body == "short row":
            assert err == f"error: {path}: row {row} has 1 cells, expected {N}\n"
        else:
            assert code == 0
            assert (out / "pca.csv").read_bytes() == (tmp_path / "file" / "pca.csv").read_bytes()


class TestSlicesKeepTheWholeBatchBits:
    def test_synth_data_is_one_whole_batch_product(self, tall):
        # the draws in synth_generate's order: basis, weights, then the samples
        rng = np.random.default_rng(3)
        rng.standard_normal((N, N))
        rng.standard_normal(N)
        draws = rng.standard_normal((N, T))
        cov = tall.true_cov
        chol = np.linalg.cholesky(cov + 1e-12 * np.trace(cov) / N * np.eye(N))
        npt.assert_array_equal(tall.data.values, chol @ draws)

    def test_deciding_ratios_are_the_whole_batch_ones(self, tall):
        model = cst_fit(sample_covariance(tall.data), CstConfig(Diffusion(), J=3, L=2))
        x = tall.data.values
        coeffs = model.filterbank.operator.decomposition.eigenvectors.T @ x
        child_norms = np.sqrt(np.square(model.filterbank.responses) @ np.square(coeffs))
        norms = np.sqrt(np.square(coeffs).sum(axis=0))  # ||s||^2 = sum_k (v_k^T s)^2
        expected = {
            (j,): float(np.where(norms > 0.0, child_norms[j] / np.where(norms > 0.0, norms, 1.0), 0.0).mean())
            for j in range(3)
        }
        assert decide_layout(model, x).ratios == expected


# Beside the data, a stage holds (N, SLICE) arrays, a third of the data at this
# T, and what does not grow with T. At N = 8 those fixed costs, such as numpy's
# 64 KiB ufunc buffers and the CLI's parser, are a third of the 0.4 MB data or
# more, so the ceilings are taken at N = 64, where they are a few percent. Each
# stage held a second copy of the data before it took slices, and read 2x to 3x;
# estimate_kmax held three beside its data.
N_MEMORY = 64
CEILING = 1.5


def traced_peak(run):
    """The tracemalloc peak while ``run()`` runs, as a multiple of the (N_MEMORY, T) data's bytes."""
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (N_MEMORY * T * 8)


@pytest.fixture(scope="module")
def tall_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tall") / "data.csv"
    write_data_csv(path, synth_generate(SynthSpec(N_MEMORY, T, tail=0.5, seed=3)).data)
    return path


def fresh_data():
    """New (N_MEMORY, T) data in a DataMatrix, which takes the array without a copy."""
    return DataMatrix(np.random.default_rng(0).standard_normal((N_MEMORY, T)))


@pytest.mark.parametrize(
    "stage",
    ["read_data_csv", "synth_generate", "sample_covariance", "decide_layout", "estimate_kmax", "pca"],
)
def test_peak_holds_the_data_once(tall_file, tmp_path, stage):
    data = fresh_data()
    model = cst_fit(sample_covariance(data), CstConfig(Diffusion(), J=2, L=2))
    argv = ["pca", "--data", str(tall_file), "--out", str(tmp_path), "--k", "3"]
    quiet = contextlib.redirect_stdout(io.StringIO())
    with quiet:
        assert main(argv) == 0  # pays the command's one-time costs before the traced run
    runs = {
        "read_data_csv": lambda: read_data_csv(tall_file),
        "synth_generate": lambda: synth_generate(SynthSpec(N_MEMORY, T, tail=0.5, seed=3)),
        "sample_covariance": lambda: sample_covariance(fresh_data()),
        "decide_layout": lambda: decide_layout(model, fresh_data().values),
        # two (N, SLICE) arrays, two thirds of the data here, so the data are made untraced
        "estimate_kmax": lambda: estimate_kmax(data, model.filterbank.operator.decomposition),
        "pca": lambda: main(argv),
    }
    with quiet:
        assert traced_peak(runs[stage]) < CEILING
