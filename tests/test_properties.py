"""The CLI contract as properties: whatever the value of one flag or the magnitude of the
data, a run exits 0, 2, 3 or 4, writes no traceback or warning to stderr, and on
success writes only finite numbers to its CSVs."""

import contextlib
import io
import math
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covscatter.cli import build_parser, main
from covscatter.io import read_data_csv, write_data_csv, write_matrix_csv
from covscatter.spectral import DataMatrix

COMMANDS = build_parser().commands

# a valid tiny run of each command (N = 6, T = 60), as flag -> value: a list
# is comma-joined, and True gives a boolean flag
RUNS = {
    "synth": {"seed": 1, "n": 6, "t": 60},
    "transform": {"data": "{data}", "j": 2},
    "pca": {"data": "{data}", "k": 2},
    "bounds": {"data": "{data}", "j": 2},
    "stability": {"data": "{data}", "targets": "{targets}", "seed": 0, "families": ["diffusion"],
                  "j": 2, "runs": 1, "fractions": [0.5]},
    "prune-sweep": {"data": "{data}", "targets": "{targets}", "seed": 0, "j": 2, "runs": 1,
                    "taus": [0.0, 0.3]},
    "labeled-sweep": {"data": "{data}", "targets": "{targets}", "seed": 0, "j": 2, "runs": 1,
                      "train-fracs": [0.3]},
    "grid-search": {"data": "{data}", "targets": "{targets}", "seed": 0, "grid-j": [2],
                    "grid-l": [2], "grid-operators": ["normalized"], "grid-alpha": [1.0]},
}

FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300, 1e308])
FLOATS = FLOATS | st.floats()
# a size-like flag stays small, so that no run forms more than a few hundred paths
SIZE_FLAGS = {"j", "l", "runs", "k", "pca-k", "n", "t", "grid-j", "grid-l"}
SIZES = st.integers(-2, 5)
LIST_ITEMS = {
    "_comma_floats": FLOATS,
    "_comma_ints": SIZES,
    "_comma_strings": st.sampled_from(
        ["diffusion", "hann", "monic", "normalized", "inverted", "bogus"]
    ),
}


def values(flag, action):
    """Values for ``flag``, whose parser action is ``action``: in range or not."""
    if action.nargs == 0:
        return st.booleans()
    if action.choices is not None:
        return st.sampled_from([*action.choices, "bogus"])
    if action.type is float:
        return FLOATS
    if action.type is int:
        return SIZES if flag in SIZE_FLAGS else st.integers()
    return st.lists(LIST_ITEMS[action.type.__name__], max_size=4)


# (command, flag, value, whether the value comes from a config file)
CHANGES = st.one_of(
    st.tuples(st.just(command), st.just(flag), values(flag, action), st.booleans())
    for command in RUNS
    for flag, action in (
        (action.option_strings[-1][2:], action) for action in COMMANDS[command].flags.values()
    )
    if flag not in ("help", "out", "config", "data", "targets")
)


def text(value):
    """``value`` as a flag's argument or a config value is written."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ",".join(map(text, value))
    return repr(value) if isinstance(value, float) else str(value)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the tiny data set: ``tiny/`` (N = 6, T = 60) and CI's ``mag/`` (T = 300)."""
    root = tmp_path_factory.mktemp("properties")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, t in (("tiny", 60), ("mag", 300)):
            argv = ["synth", "--out", str(root / name), "--seed", "1", "--n", "6", "--t", str(t)]
            assert main(argv) == 0
    one_feature = read_data_csv(root / "mag" / "data.csv").values[:1]
    write_matrix_csv(root / "mag" / "n1.csv", ["f0"], one_feature.T)
    return root


def assert_contract(argv, out):
    """Run ``argv`` and check the exit code, stderr and, on success, every CSV number."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    if code == 0:
        for path in out.glob("*.csv"):
            for line in path.read_text().splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        number = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(number), (argv, path.name, line)
    shutil.rmtree(out, ignore_errors=True)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(change=CHANGES)
@example(change=("synth", "noise", 1e308, False))  # targets past float64's range
def test_one_changed_flag_keeps_the_contract(workdir, change):
    command, flag, value, in_config = change
    files = {"data": workdir / "tiny" / "data.csv", "targets": workdir / "tiny" / "targets.csv"}
    argv = [command]
    for key, base in RUNS[command].items():
        if key != flag:  # a config value yields to the same flag on the command line
            argv.append(f"--{key}={text(base).format(**files)}")
    if in_config:
        conf = workdir / "changed.conf"
        conf.write_text(f"{flag} = {text(value)}\n")
        argv += ["--config", str(conf)]
    elif value is True:
        argv.append(f"--{flag}")
    elif value is not False:
        argv.append(f"--{flag}={text(value)}")
    assert_contract(argv, workdir / "out")


PROTOCOL = ["--targets", "{targets}", "--seed", "0"]
# CI's magnitude step: every command that reads data
DATA_COMMANDS = [
    ["pca", "--k", "2"],
    ["bounds"],
    ["transform", "--family", "diffusion"],
    ["transform", "--family", "hann"],
    ["transform", "--family", "monic"],
    ["stability", *PROTOCOL, "--runs", "1"],
    ["prune-sweep", *PROTOCOL, "--runs", "1"],
    ["labeled-sweep", *PROTOCOL, "--runs", "1"],
    ["grid-search", *PROTOCOL, "--grid-j", "2", "--grid-l", "2"],
]


def fixed_examples(test):
    """``test`` with one example per command on the data's first feature alone (N = 1),
    and the scales at which a ridge solve meets a zero pivot past a passing Cholesky factor."""
    for argv in DATA_COMMANDS:
        test = example(argv=argv, exponent=None)(test)
    for exponent in (8, 85):
        test = example(argv=DATA_COMMANDS[7], exponent=exponent)(test)
    return test


@settings(max_examples=80, derandomize=True, deadline=None)
@fixed_examples
@given(argv=st.sampled_from(DATA_COMMANDS), exponent=st.integers(-300, 300))
def test_data_magnitude_keeps_the_contract(workdir, argv, exponent):
    mag = workdir / "mag"
    if exponent is None:
        data = mag / "n1.csv"
    else:
        data = mag / "scaled.csv"
        values = read_data_csv(mag / "data.csv").values * 10.0**exponent
        write_data_csv(data, DataMatrix(values))
    command, *flags = [arg.format(targets=mag / "targets.csv") for arg in argv]
    assert_contract([command, "--data", str(data), *flags], workdir / "out")
