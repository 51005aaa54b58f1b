"""README.md and docs/config.md against the code: flags, exit codes, report columns, file names."""

import inspect
import re

import pytest

import test_cli
from conftest import ROOT, names, section
from covscatter import errors
from covscatter.cli import build_parser, main
from covscatter.harness import PruningRow, StabilityReport, columns
from covscatter.io import read_keyvalue

COMMANDS = build_parser().commands


def flags(command):
    """The long names, without dashes, of the flags ``command`` takes."""
    return {action.option_strings[-1][2:] for action in COMMANDS[command].flags.values()}


# the transform's own flags: what `transform` takes beyond every data command's
TRANSFORM = flags("transform") - {"help", "out", "config", "data"}


def config_table():
    """Each command of docs/config.md's "Transform flags" table, with the flags it takes."""
    rows = [line.strip("|").split("|") for line in section("docs/config.md", "## Transform flags")
            .splitlines() if line.startswith("| `")]
    full = set(names(rows[0][1]))  # the first row lists them all
    taken = {}
    for commands, cell in rows:
        if cell.strip().startswith("the same without"):
            takes = full - set(names(cell))
        elif cell.strip() == "none of them":
            takes = set()
        else:
            takes = set(names(cell))
        for command in names(commands):
            assert command not in taken, f"{command} has two rows"
            taken[command] = takes
    return full, taken


def readme_left_out():
    """Each command of README's CLI section, with the transform flags it leaves out."""
    text = " ".join(section("README.md", "## CLI").split())
    full = set(names(re.search(r"The transform's flags are (.*?)\. ", text)[1]))
    left_out = {command: set() for command in names(re.search(r"(\S+) takes all of them", text)[1])}
    for bullet in re.findall(r"- (`[\w-]+` takes no .*?)[;.] (?=- |`)", text):
        command, *dropped = names(bullet.split(", as ")[0])
        left_out[command] = set(dropped)
    for command in names(re.search(r"\. ([^.]*) take none of them", text)[1]):
        left_out[command] = set(full)
    return full, left_out


def test_the_transform_flags_are_the_transform_commands():
    assert config_table()[0] == TRANSFORM
    assert readme_left_out()[0] == TRANSFORM


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_table_lists_what_the_command_takes(command):
    assert config_table()[1][command] == flags(command) & TRANSFORM


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_lists_what_the_command_leaves_out(command):
    assert readme_left_out()[1][command] == TRANSFORM - flags(command)


def test_every_documented_command_exists():
    assert set(config_table()[1]) == set(COMMANDS)
    assert set(readme_left_out()[1]) == set(COMMANDS)


def test_example_config_runs_a_transform(tmp_path, monkeypatch):
    example = (ROOT / "docs" / "config.md").read_text().split("```")[1]  # the first block
    conf = tmp_path / "example.conf"
    conf.write_text(example)
    keys = {key.replace("_", "-") for key in read_keyvalue(conf)}
    assert keys <= flags("transform") - {"help", "config"}
    # its paths are relative, so it runs where runs/data.csv exists
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--out", "runs", "--seed", "0", "--n", "8", "--t", "60"]) == 0
    assert main(["transform", "--config", str(conf), "--out", "feats"]) == 0


def test_readme_exit_codes_match_the_error_classes(tmp_path):
    text = " ".join(section("README.md", "## CLI").split())
    codes = re.search(r"Exit codes: (.*?)\.", text)[1]
    documented = {name: int(code) for code, name in (item.split() for item in codes.split(", "))}
    assert documented.pop("ok") == 0
    for name, code in documented.items():
        assert getattr(errors, f"{name.capitalize()}Error").exit_code == code
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)]
    for cls in classes:
        assert cls is errors.CovScatterError or cls.exit_code in documented.values(), cls
    # the base class's code, 1, is not documented, so nothing raises it directly
    for path in (ROOT / "src").rglob("*.py"):
        assert "raise CovScatterError(" not in path.read_text(), path
    # an unreadable file is a data error
    missing = str(tmp_path / "missing.csv")
    assert main(["transform", "--data", missing, "--out", str(tmp_path)]) == documented["data"]


def test_readme_report_columns_match_the_row_classes():
    text = " ".join(section("README.md", "## Data format").split())
    assert re.search(r"\(`pruning.csv`: `([^`]+)`\)", text)[1] == ",".join(columns(PruningRow))
    dropped = re.search(r"`stability.csv` drops the last three, (.*?), unless `--bounds`", text)[1]
    without = StabilityReport(rows=(), include_bounds=False).header()
    assert without + names(dropped) == StabilityReport(rows=(), include_bounds=True).header()


def test_provenance_table_names_each_command_file():
    rows = [names(line) for line in section("docs/config.md", "## Provenance files").splitlines()
            if line.startswith("| `")]
    table = dict(rows)
    assert len(table) == len(rows)  # one row per command
    assert set(table) == set(COMMANDS)
    # the names test_provenance_seeds_config finds after real runs
    runs = test_cli.TestExperimentCommands.SEEDED_RUNS
    assert table == {command: provenance_name for command, provenance_name, *_ in runs}
