"""CSV ingestion/emission and the flat key-value provenance format.

Data CSVs carry one header row of feature names followed by one row per
observation (T x N on disk, transposed to N x T in memory). Floats are
written with ``repr`` so files round-trip bit-exactly.
"""

from __future__ import annotations

import array
import csv
import itertools
import stat
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import InvalidData
from .spectral import SLICE, DataMatrix


def format_value(value) -> str:
    """One CSV or provenance cell: ``repr`` for floats, ``true``/``false``, blank for None.

    A list, tuple or array is its items' cells joined by commas.
    """
    if value is None:
        return ""
    if isinstance(value, (list, tuple, np.ndarray)):
        return ",".join(map(format_value, value))
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _float_list(row) -> list[float]:
    return np.asarray(row, dtype=np.float64).tolist()


def write_matrix_csv(path, header: list[str], rows) -> None:
    """Write a header row, then one row of ``repr`` floats per item of ``rows``.

    ``rows`` is any iterable of rows, such as a 2-D array or a chain of
    row chunks formed one at a time. It is read once, in order, and no row
    is held once its line is written, so a chunk whose rows are views of it
    can be freed before the next chunk is formed. The rows are the bytes
    ``csv.writer`` gives for ``repr`` cells: a float's ``repr`` holds no
    delimiter, quote or line break, so no cell is quoted and every row ends
    in ``\\r\\n``.
    """
    with Path(path).open("w", newline="") as handle:
        csv.writer(handle).writerow(header)
        # row by row: matrix.tolist() would hold every value as a Python float.
        # Through map, not a loop over rows: a loop variable would hold the
        # last row, and the chunk it views, while the next chunk is formed
        for values in map(_float_list, rows):
            handle.write(",".join(map(repr, values)) + "\r\n")


@contextmanager
def _open_text(path: Path):
    """Open ``path`` for ``csv.reader``; text that does not decode or split is ``InvalidData``."""
    try:
        with path.open(newline="") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise InvalidData(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise InvalidData(f"{path}: {exc}") from None


def _read_header(path: Path, handle) -> list[str]:
    try:
        header = next(csv.reader(handle))
    except StopIteration:
        raise InvalidData(f"{path}: empty file") from None
    return [name.strip() for name in header]


def _loadtxt_lines(handle):
    """Yield the lines of ``handle``; raise on one loadtxt reads but the cell loop rejects."""
    limit = csv.field_size_limit()
    for line in handle:
        if len(line) > limit:
            raise ValueError("line may hold a cell over the csv field size limit")
        # around a number loadtxt strips the separator controls \x1c-\x1f
        if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
            raise ValueError("separator control character")
        yield line


def _count_lines(path: Path) -> int | None:
    """The ``\\n``-ended lines of ``path``, counted in binary; ``None`` unless it is a regular file.

    A last line without a break counts too. A ``\\r`` alone ends no line
    here, though text mode splits at it, so a file with lone ``\\r`` breaks
    has more rows than its count. A file that is not regular, such as a
    pipe, could be read only once, so it is not counted.
    """
    if not stat.S_ISREG(path.stat().st_mode):
        return None
    with path.open("rb") as raw:
        return sum(1 for _ in raw)


def _loadtxt(lines, max_rows: int) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # "input contained no data"
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, max_rows=max_rows)


def _parse_body(lines, width: int, capacity: int) -> np.ndarray | None:
    """The (T, N) rows of the body ``lines``, or ``None`` where the cell loop must decide.

    ``capacity`` is the most rows the body can hold. The rows are written
    into one (N, capacity) C array, :data:`SLICE` lines at a time, and the
    transposed view of its filled columns is returned, trimmed with one copy
    where blank lines left fewer rows. ``None`` stands for a ``ValueError``,
    a row of another width than ``width``, more rows than ``capacity``, or
    no rows.
    """
    try:
        values = np.empty((width, capacity))
        filled = 0
        # each pass of the loop takes one line, and the slice the rest of its SLICE lines
        for first in lines:
            # max_rows cuts nothing here; loadtxt then allocates the slice's rows once
            block = _loadtxt(itertools.chain([first], itertools.islice(lines, SLICE - 1)), SLICE)
            if not block.size:  # blank lines only
                continue
            if block.shape[1] != width or filled + len(block) > capacity:
                return None
            values[:, filled : filled + len(block)] = block.T
            filled += len(block)
            del block  # before the next slice is parsed
    except ValueError:
        return None
    if not filled:
        return None
    return (values if filled == capacity else values[:, :filled].copy()).T


def _read_table(path: Path) -> tuple[list[str], np.ndarray]:
    """The header names and the (T, N) body of a numeric CSV.

    A regular file is read twice: its ``\\n``-ended lines are counted first
    (see :func:`_count_lines`), which bounds the row count of a file with
    ``\\n`` or ``\\r\\n`` breaks, so the body is the transposed view of one
    (N, T) C array, filled from :data:`SLICE` lines at a time (see
    :func:`_parse_body`), and the read holds no second copy of it.
    csv.reader takes the header record only, and loadtxt parses the body.
    It rejects quoted cells and ``1_0``, which float() accepts; on any
    doubt, such as more rows than the count (lone ``\\r`` breaks), the
    per-cell loop reads the file again and has the last word. A file that
    is not regular, such as a pipe, can be read only once, so the cell loop
    reads it.
    """
    lines = _count_lines(path)
    if lines is None:
        return _read_cells(path)
    with _open_text(path) as handle:
        names = _read_header(path, handle)
        body = _parse_body(_loadtxt_lines(handle), len(names), lines - 1)  # less the header
    return _read_cells(path) if body is None else (names, body)


def _read_cells(path: Path) -> tuple[list[str], np.ndarray]:
    """The header names and the (T, N) body of a numeric CSV, parsed cell by cell in one pass.

    The body is a C array. This is the source of every row and column message.
    """
    with _open_text(path) as handle:
        names = _read_header(path, handle)
        # one flat buffer of doubles, not a list per row: a tall file would
        # otherwise leave the heap fragmented by as many row buffers as rows
        cells = array.array("d")
        for row_idx, row in enumerate(csv.reader(handle), start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise InvalidData(
                    f"{path}: row {row_idx} has {len(row)} cells, expected {len(names)}"
                )
            for col_idx, cell in enumerate(row):
                try:
                    cells.append(float(cell))
                except ValueError:
                    raise InvalidData(
                        f"{path}: non-numeric cell {cell!r} at row {row_idx}, "
                        f"column {col_idx + 1} ({names[col_idx]})"
                    ) from None
    if not cells:
        raise InvalidData(f"{path}: no observation rows")
    return names, np.frombuffer(cells, dtype=np.float64).reshape(-1, len(names))


def read_data_csv(path) -> DataMatrix:
    """The N x T data of a data CSV.

    The :class:`DataMatrix` takes a read-only view of the (N, T) array the
    reader fills from a regular file, so the data are held once; the cell
    loop's (T, N) rows are copied once into the C layout.
    """
    names, body = _read_table(Path(path))
    return DataMatrix(body.T, feature_names=names)


def write_data_csv(path, data: DataMatrix) -> None:
    names = data.feature_names or [f"f{i}" for i in range(data.n_features)]
    write_matrix_csv(path, names, data.values.T)


def read_targets_csv(path) -> np.ndarray:
    """The one column of a targets CSV, whose header names exactly one column."""
    path = Path(path)
    names, body = _read_table(path)
    if len(names) != 1:
        raise InvalidData(f"{path}: header names {len(names)} columns, expected one target")
    return body[:, 0]


def write_targets_csv(path, targets: np.ndarray) -> None:
    write_matrix_csv(path, ["target"], np.reshape(targets, (-1, 1)))


DERIVED = "[derived]"


def write_provenance(path, settings: dict, derived: dict | None = None) -> None:
    """Write ``key = value`` lines: the settings, then what the run computed after ``[derived]``."""
    lines = [f"{key} = {format_value(value)}" for key, value in settings.items()]
    if derived:
        lines.append(DERIVED)
        lines += [f"{key} = {format_value(value)}" for key, value in derived.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keyvalue(path) -> dict[str, str]:
    """Parse the flat ``key = value`` format used for provenance and config files.

    Reading stops at a ``[derived]`` line, so a provenance file reads back as
    the settings of its run.
    """
    with _open_text(Path(path)) as handle:
        text = handle.read()
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line == DERIVED:
            break
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidData(f"{path}: line {line_no} is not 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def write_rows_csv(path, header: list[str], rows: list[list]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)
