import csv
import io as stdio
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covscatter.cli import main
from covscatter.errors import DataError, InvalidData
from covscatter.io import (
    _read_cells,
    _read_table,
    feature_column_names,
    read_data_csv,
    read_keyvalue,
    read_targets_csv,
    write_data_csv,
    write_matrix_csv,
    write_provenance,
    write_targets_csv,
)
from covscatter.readout import pca_fit, pca_transform
from covscatter.scattering import (
    CstConfig,
    cst_fit,
    cst_transform_batch,
    decide_layout,
)
from covscatter.spectral import DataMatrix, sample_covariance
from covscatter.wavelets import Diffusion

SPECIAL = [0.0, -0.0, 5e-324, 1e-05, 0.1, 1e16, 1e22, math.nan, math.inf, -math.inf]


def reference_csv_bytes(header, rows) -> bytes:
    """The CSV bytes of ``csv.writer`` over ``repr(float(v))`` cells."""
    buffer = stdio.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) for v in row])
    return buffer.getvalue().encode()


class TestDataRoundTrip:
    def test_bit_identical(self, tmp_path, rng):
        data = DataMatrix(rng.standard_normal((5, 11)), feature_names=[f"r{i}" for i in range(5)])
        path = tmp_path / "data.csv"
        write_data_csv(path, data)
        back = read_data_csv(path)
        npt.assert_array_equal(back.values, data.values)
        assert back.feature_names == data.feature_names

    def test_targets_round_trip(self, tmp_path, rng):
        y = rng.standard_normal(9)
        path = tmp_path / "targets.csv"
        write_targets_csv(path, y)
        npt.assert_array_equal(read_targets_csv(path), y)

    def test_targets_extra_cells_rejected(self, tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("target\n1.0,oops\n2.0,3.0,4.0\n")
        with pytest.raises(InvalidData) as err:
            read_targets_csv(path)
        assert err.value.exit_code == 3
        assert str(err.value) == f"{path}: row 2 has 2 cells, expected 1"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("target\n1.0\nx\n", "{path}: non-numeric cell 'x' at row 3, column 1 (target)"),
            ("target\n", "{path}: no observation rows"),
            ("target,extra\n1.0,2.0\n", "{path}: header names 2 columns, expected one target"),
            # the file is read once, so a malformed body is reported before the header
            ("target,extra\n1.0\n", "{path}: row 2 has 1 cells, expected 2"),
        ],
        ids=["non-numeric", "header only", "two names", "two names and a short row"],
    )
    def test_targets_messages_are_the_data_readers(self, tmp_path, text, message):
        path = tmp_path / "targets.csv"
        path.write_text(text)
        with pytest.raises(InvalidData) as err:
            read_targets_csv(path)
        assert str(err.value) == message.format(path=path)

    def test_non_numeric_cell_diagnostics(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
        with pytest.raises(InvalidData) as err:
            read_data_csv(path)
        message = str(err.value)
        assert "row 3" in message and "column 2" in message and "'oops'" in message

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(InvalidData):
            read_data_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InvalidData):
            read_data_csv(path)


# Each file's outcome is the one the per-cell reader gave before loadtxt
# parsed the body: the same values, or the same message.
READER_CASES = [
    ("quoted cells", 'a,b\n"1.5",2\n3,"4"\n', [[1.5, 3.0], [2.0, 4.0]]),
    ("underscore digits", "a,b\n1_0,2\n3,4\n", [[10.0, 3.0], [2.0, 4.0]]),
    ("nan and -Infinity", "a,b\nnan,1\n-Infinity,2\n", "data matrix contains non-finite entries"),
    ("hash row", "a,b\n1,2\n#3,4\n5,6\n", "{path}: non-numeric cell '#3' at row 3, column 1 (a)"),
    ("whitespace row", "a,b\n1,2\n   \n3,4\n", "{path}: row 3 has 1 cells, expected 2"),
    ("trailing comma", "a,b\n1,2,\n3,4,\n", "{path}: row 2 has 3 cells, expected 2"),
    ("header only", "a,b\r\n", "{path}: no observation rows"),
    ("cr line ends", "a,b\r1,2\r3,4\r", [[1.0, 3.0], [2.0, 4.0]]),
    ("crlf line ends", "a,b\r\n1,2\r\n3,4\r\n", [[1.0, 3.0], [2.0, 4.0]]),
    ("blank middle line", "a,b\n1,2\n\n3,4\n", [[1.0, 3.0], [2.0, 4.0]]),
    ("quoted cell and blank line", 'a,b\n"1",2\n\n3,4\n', [[1.0, 3.0], [2.0, 4.0]]),
    ("padded cells", " a , b \n 1 ,2\n3, 4 \n", [[1.0, 3.0], [2.0, 4.0]]),
    # loadtxt strips \x1c around a number; float() does not
    ("separator control", "a,b\n1,2\n\x1c3,4\n",
     "{path}: non-numeric cell '\\x1c3' at row 3, column 1 (a)"),
]


class TestReaderEquivalence:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, expected",
        [case[1:] for case in READER_CASES],
        ids=[case[0] for case in READER_CASES],
    )
    def test_same_values_or_message(self, tmp_path, text, expected):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        if isinstance(expected, str):
            with pytest.raises(InvalidData) as err:
                read_data_csv(path)
            assert str(err.value) == expected.format(path=path)
        else:
            data = read_data_csv(path)
            npt.assert_array_equal(data.values, np.array(expected))
            assert data.feature_names == ["a", "b"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.sampled_from(["1", "-2.5", " 3 ", "-0.0", "5e-324", "+.5"])
                | st.sampled_from(
                    ['"4"', "1_0", "", "#5", " ", "1e999", "0x1p3", "\x1c6", "7\x1f",
                     "\xa08", "\u0669"]
                ),
                min_size=1,
                max_size=3,
            ),
            max_size=4,
        ),
        st.sampled_from(["\n", "\r\n", "\r"]),
        # one column is the targets reader's form
        st.sampled_from(["a,b", "a"]),
    )
    def test_loadtxt_path_agrees_with_cell_loop(self, tmp_path_factory, rows, end, header):
        path = tmp_path_factory.mktemp("eq") / "data.csv"
        path.write_bytes(end.join([header] + [",".join(row) for row in rows]).encode())

        def outcome(reader):
            try:
                names, body = reader(path)
            except DataError as exc:
                return type(exc), str(exc)
            return names, body.shape, body.tobytes()

        assert outcome(_read_table) == outcome(lambda p: (header.split(","), _read_cells(p)))

    @pytest.mark.parametrize("reader", [read_data_csv, read_targets_csv, read_keyvalue])
    def test_undecodable_file_is_invalid_data(self, tmp_path, reader):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(InvalidData, match="bad.csv"):
            reader(path)

    def test_overlong_cell_is_invalid_data(self, tmp_path):
        # loadtxt reads the cell; csv.reader refuses a cell over its field size limit
        path = tmp_path / "long.csv"
        path.write_text("a,b\n" + "0" * 200_000 + "1,2\n3,4\n")
        with pytest.raises(InvalidData, match="field larger than field limit"):
            read_data_csv(path)


class TestWriterBytes:
    def test_matrix_writer_matches_csv_writer(self, tmp_path):
        matrix = np.array([SPECIAL, SPECIAL[::-1]])
        header = ["plain", 'quoted "name"', "a,b"] + [f"c{i}" for i in range(7)]
        path = tmp_path / "m.csv"
        write_matrix_csv(path, header, matrix)
        assert path.read_bytes() == reference_csv_bytes(header, matrix)

    def test_iterable_rows_match_matrix(self, tmp_path):
        matrix = np.array([SPECIAL, SPECIAL[::-1], SPECIAL[3:] + SPECIAL[:3]])
        header = [f"c{i}" for i in range(len(SPECIAL))]
        write_matrix_csv(tmp_path / "m.csv", header, matrix)
        expected = (tmp_path / "m.csv").read_bytes()
        for name, rows in (
            ("iter.csv", iter(matrix)),
            ("chained.csv", itertools.chain.from_iterable([matrix[:2], matrix[2:]])),
        ):
            write_matrix_csv(tmp_path / name, header, rows)
            assert (tmp_path / name).read_bytes() == expected

    def test_targets(self, tmp_path):
        path = tmp_path / "targets.csv"
        write_targets_csv(path, np.array(SPECIAL))
        assert path.read_bytes() == reference_csv_bytes(["target"], [[v] for v in SPECIAL])

    def test_features(self, tmp_path):
        matrix = np.array([SPECIAL, SPECIAL[::-1], SPECIAL[3:] + SPECIAL[:3]])
        header = feature_column_names(((), (0,)), 5)
        path = tmp_path / "features.csv"
        write_matrix_csv(path, header, matrix)
        assert path.read_bytes() == reference_csv_bytes(header, matrix)

    def test_data(self, tmp_path):
        finite = [v for v in SPECIAL if math.isfinite(v)]
        data = DataMatrix(np.array([finite, finite[::-1]]), feature_names=["x", "y,z"])
        path = tmp_path / "data.csv"
        write_data_csv(path, data)
        assert path.read_bytes() == reference_csv_bytes(["x", "y,z"], data.values.T)

    def test_pca_command(self, tmp_path, rng):
        data = DataMatrix(rng.standard_normal((4, 30)) * np.array([[1e-5], [0.1], [1e16], [1.0]]))
        data_path = tmp_path / "data.csv"
        write_data_csv(data_path, data)
        assert main(["pca", "--data", str(data_path), "--out", str(tmp_path), "--k", "2"]) == 0
        embedded = pca_transform(pca_fit(sample_covariance(data), 2), data.values).T
        expected = reference_csv_bytes(["pc1", "pc2"], embedded)
        assert (tmp_path / "pca.csv").read_bytes() == expected


class TestKeyValue:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prov.txt"
        write_provenance(path, {"family": "hann", "J": 4, "gamma": 10.0, "warp": True})
        parsed = read_keyvalue(path)
        assert parsed == {"family": "hann", "J": "4", "gamma": "10.0", "warp": "true"}

    def test_derived_section_is_not_read(self, tmp_path):
        path = tmp_path / "prov.txt"
        write_provenance(path, {"j": 4, "warp": True}, {"gamma": 10.0, "j": 5})
        assert path.read_text() == "j = 4\nwarp = true\n[derived]\ngamma = 10.0\nj = 5\n"
        assert read_keyvalue(path) == {"j": "4", "warp": "true"}

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("# comment\n\nj = 4\n tau = 0.1 \n")
        assert read_keyvalue(path) == {"j": "4", "tau": "0.1"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "conf.txt"
        path.write_text("just words\n")
        with pytest.raises(InvalidData):
            read_keyvalue(path)


class TestFeaturesCsv:
    def test_header_and_values(self, tmp_path, rng):
        data = DataMatrix(rng.standard_normal((4, 6)))
        model = cst_fit(sample_covariance(data), CstConfig(family=Diffusion(), J=2, L=2))
        layout = decide_layout(model, data.values).paths
        matrix = cst_transform_batch(model, data.values, layout)
        path = tmp_path / "features.csv"
        write_matrix_csv(path, feature_column_names(layout, model.feature_width), matrix)
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "p_root[0]"
        assert len(lines) == 1 + 6
        first_row = np.array([float(v) for v in lines[1].split(",")])
        npt.assert_array_equal(first_row, matrix[0])

    def test_mean_aggregation_names(self):
        names = feature_column_names([(), (0,), (1, 2)], width=1)
        assert names == ["p_root", "p_0", "p_1.2"]
