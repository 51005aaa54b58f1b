"""CSV ingestion/emission and the flat key-value provenance format.

Data CSVs carry one header row of feature names followed by one row per
observation (T x N on disk, transposed to N x T in memory). Floats are
written with ``repr`` so files round-trip bit-exactly.
"""

from __future__ import annotations

import array
import csv
from pathlib import Path

import numpy as np

from .errors import InvalidData
from .scattering import BatchFeatures, path_name
from .spectral import DataMatrix


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def read_data_csv(path) -> DataMatrix:
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidData(f"{path}: empty file") from None
        names = [name.strip() for name in header]
        # one flat buffer of doubles, not a list per row: a tall file would
        # otherwise leave the heap fragmented by as many row buffers as rows
        cells = array.array("d")
        for row_idx, row in enumerate(reader, start=2):
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
    values = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(names)).T
    return DataMatrix(values, feature_names=names)


def write_data_csv(path, data: DataMatrix) -> None:
    names = data.feature_names or [f"f{i}" for i in range(data.n_features)]
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for column in data.values.T:
            writer.writerow([repr(float(v)) for v in column])


def read_targets_csv(path) -> np.ndarray:
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            next(reader)
        except StopIteration:
            raise InvalidData(f"{path}: empty file") from None
        values = []
        for row_idx, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                values.append(float(row[0]))
            except ValueError:
                raise InvalidData(
                    f"{path}: non-numeric target {row[0]!r} at row {row_idx}"
                ) from None
    if not values:
        raise InvalidData(f"{path}: no target rows")
    return np.array(values, dtype=np.float64)


def write_targets_csv(path, targets: np.ndarray) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["target"])
        for value in np.asarray(targets, dtype=np.float64):
            writer.writerow([repr(float(value))])


def write_provenance(path, mapping: dict) -> None:
    lines = [f"{key} = {format_value(value)}" for key, value in mapping.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_keyvalue(path) -> dict[str, str]:
    """Parse the flat ``key = value`` format used for provenance and config files."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidData(f"{path}: line {line_no} is not 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def feature_column_names(layout, width: int) -> list[str]:
    names = []
    for path in layout:
        base = path_name(path)
        if width == 1:
            names.append(base)
        else:
            names.extend(f"{base}[{i}]" for i in range(width))
    return names


def write_features_csv(path, features: BatchFeatures) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(feature_column_names(features.layout, features.width))
        for row in features.matrix:
            writer.writerow([repr(float(v)) for v in row])


def write_rows_csv(path, header: list[str], rows: list[list]) -> None:
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) if not isinstance(v, str) else v for v in row])
