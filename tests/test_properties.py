"""The CLI contract as properties: whatever the value of one flag or the magnitude of the
data, a run keeps :func:`conftest.assert_contract`. One table test holds the exit each
command may give at each of eight fixed data scales."""

import contextlib
import io
import math
import shutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import assert_contract
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
    """A directory with ``tiny/`` (N = 6, T = 60) for the flag test, and ``mag/`` (T = 300),
    which the data tests scale, with ``mag/n1.csv``, its first feature alone."""
    root = tmp_path_factory.mktemp("properties")
    with contextlib.redirect_stdout(io.StringIO()):
        for name, t in (("tiny", 60), ("mag", 300)):
            argv = ["synth", "--out", str(root / name), "--seed", "1", "--n", "6", "--t", str(t)]
            assert main(argv) == 0
    one_feature = read_data_csv(root / "mag" / "data.csv").values[:1]
    write_matrix_csv(root / "mag" / "n1.csv", ["f0"], one_feature.T)
    return root


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
    shutil.rmtree(workdir / "out", ignore_errors=True)


PROTOCOL = ["--targets", "{targets}", "--seed", "0"]
# every command that reads data
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


def run_data_command(workdir, argv, data):
    """:func:`assert_contract` for one of ``DATA_COMMANDS`` on ``data``, with ``mag/``'s targets."""
    command, *flags = [arg.format(targets=workdir / "mag" / "targets.csv") for arg in argv]
    result = assert_contract([command, "--data", str(data), *flags], workdir / "out")
    shutil.rmtree(workdir / "out", ignore_errors=True)
    return result


@settings(max_examples=80, derandomize=True, deadline=None)
@given(argv=st.sampled_from(DATA_COMMANDS), exponent=st.integers(-300, 300))
def test_data_magnitude_keeps_the_contract(workdir, argv, exponent):
    data = workdir / "mag" / "scaled.csv"
    values = read_data_csv(workdir / "mag" / "data.csv").values * 10.0**exponent
    write_data_csv(data, DataMatrix(values))
    run_data_command(workdir, argv, data)


@pytest.mark.parametrize("argv", DATA_COMMANDS, ids=" ".join)
def test_one_feature_keeps_the_contract(workdir, argv):
    run_data_command(workdir, argv, workdir / "mag" / "n1.csv")


# At 1e8 and 1e85 a ridge system can pass its Cholesky factor and meet a zero
# pivot in the solve; at 1e150 the squares of a symmetry check and k_max's
# fourth moments overflow; at 1e160 and 1e300 the covariance itself does, a
# data error (exit 3); at 1e-158 it underflows to subnormal values and at
# 1e-200 and 1e-300 to zero, also data errors. Where an alpha_R of 1
# regularizes nothing, a ridge protocol may exit 4, with a message that says so.
SCALES = ["1e8", "1e85", "1e150", "1e160", "1e300", "1e-158", "1e-200", "1e-300"]
SUCCEEDS_AT = {"1e8", "1e85", "1e150"}
RIDGE_PROTOCOLS = {"stability", "prune-sweep", "labeled-sweep", "grid-search"}


@pytest.mark.parametrize("scale", SCALES)
def test_data_magnitude_exit_table(workdir, scale):
    # float("1e85"), not 10.0**85, which can differ by an ulp
    data = workdir / "mag" / f"{scale}.csv"
    values = read_data_csv(workdir / "mag" / "data.csv").values * float(scale)
    write_data_csv(data, DataMatrix(values))
    for argv in DATA_COMMANDS:
        code, err = run_data_command(workdir, argv, data)
        assert code != 2, (argv, err)
        assert code != 0 or scale in SUCCEEDS_AT, argv
        if code == 4:
            assert argv[0] in RIDGE_PROTOCOLS and "regularizes nothing" in err, (argv, err)


# Sizes past float64 that no property run reaches. Diffusion's Lipschitz constants
# leave it at J = 1100 (each run forms one path); the path counts of a deep unpruned
# tree leave it in the bounds, and `bounds` forms no path
ONE_PATH = ["--j", "1100", "--l", "1"]
SIZE_EDGES = [
    ["transform", *ONE_PATH],
    ["bounds", *ONE_PATH],
    ["stability", *PROTOCOL, "--runs", "1", "--families", "diffusion", *ONE_PATH],
    ["prune-sweep", *PROTOCOL, "--runs", "1", *ONE_PATH],
    ["labeled-sweep", *PROTOCOL, "--runs", "1", *ONE_PATH],
    ["grid-search", *PROTOCOL, "--grid-j", "1100", "--grid-l", "1"],
]
DEEP_BOUNDS = [
    ["bounds", "--j", "4", "--l", "512"],
    ["bounds", "--j", "4", "--l", "513"],
    ["bounds", "--family", "monic", "--j", "4", "--l", "513"],
    ["bounds", "--j", "2", "--l", "1030"],
]


@pytest.mark.parametrize("argv", SIZE_EDGES + DEEP_BOUNDS, ids=" ".join)
def test_size_edges_are_usage_errors(workdir, argv):
    code, err = run_data_command(workdir, argv, workdir / "mag" / "data.csv")
    assert code == 2, (argv, err)
    if argv in DEEP_BOUNDS:  # the tree overflows, not the constants
        j, layers = argv[argv.index("--j") + 1], argv[argv.index("--l") + 1]
        assert f"J={j} and {layers} layers" in err and "constants" not in err, err
