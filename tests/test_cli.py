import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covscatter

from conftest import assert_contract, names, section
from covscatter.cli import main
from covscatter.harness import StabilityRow, columns
from covscatter.io import (
    format_value,
    read_data_csv,
    read_keyvalue,
    read_targets_csv,
    write_data_csv,
    write_targets_csv,
)
from covscatter.scattering import (
    CstConfig,
    cst_fit,
    cst_transform_batch,
    decide_layout,
    path_name,
)
from covscatter.spectral import DataMatrix, sample_covariance
from covscatter.synthdata import SynthSpec, synth_generate
from covscatter.wavelets import Diffusion, Hann, Monic


def read_derived(path):
    """The ``key = value`` lines after a provenance file's ``[derived]`` line."""
    _, _, tail = path.read_text().partition("[derived]\n")
    return dict(line.split(" = ", 1) for line in tail.splitlines())


# backticked tokens of docs/config.md's [derived] bullets that are not keys
NOT_KEYS = {"unset", 'np.show_config(mode="dicts")', "os.cpu_count()"}


def documented_derived(command, family):
    """The ``[derived]`` keys docs/config.md names for a ``command`` run, in order.

    Those are its command's bullet's keys, then the every-command bullet's;
    a ``<family>.<key>`` is named for runs of that family only.
    """
    bullets = {}
    list_text = section("docs/config.md", "## Provenance files").partition("\n- ")[2]
    for item in list_text.split("\n\n")[0].split("\n- "):
        label, _, text = " ".join(item.split()).partition(": ")
        bullets[label.strip("`")] = [key for key in names(text) if key not in NOT_KEYS]
    own = [key for key in bullets.get(command, []) if key.partition(".")[0] in (key, family)]
    return own + bullets["every command, last"]


def make_data_files(tmp_path, n=10, t=120, seed=5):
    ds = synth_generate(SynthSpec(n_features=n, n_samples=t, tail=0.5, noise_sigma=0.1, seed=seed))
    code = main(
        ["synth", "--out", str(tmp_path), "--seed", str(seed), "--n", str(n), "--t", str(t),
         "--tail", "0.5", "--noise", "0.1"]
    )
    assert code == 0
    return ds, tmp_path / "data.csv", tmp_path / "targets.csv"


class TestSynth:
    def test_repeat_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["synth", "--out", str(out), "--seed", "3", "--n", "6", "--t", "30"]) == 0
        assert (out1 / "data.csv").read_bytes() == (out2 / "data.csv").read_bytes()
        assert (out1 / "targets.csv").read_bytes() == (out2 / "targets.csv").read_bytes()

    def test_round_trips_to_bit_identical_matrix(self, tmp_path):
        ds, data_path, targets_path = make_data_files(tmp_path)
        back = read_data_csv(data_path)
        npt.assert_array_equal(back.values, ds.data.values)
        npt.assert_array_equal(read_targets_csv(targets_path), ds.targets)

    def test_tail_out_of_range_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "1", "--tail", "1.5"]) == 2

    def test_negative_seed_is_usage_error(self, tmp_path):
        assert assert_contract(["synth", "--seed", "-1"], tmp_path)[0] == 2

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_is_usage_error(self, tmp_path):
        out = tmp_path / "s"
        argv = ["synth", "--seed", "1", "--n", "5", "--t", "40", "--noise", "1e308"]
        code, err = assert_contract(argv, out)
        assert code == 2 and "--noise" in err
        assert not out.exists()

    def test_seed_required(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--out", str(tmp_path)])
        assert err.value.code == 2


class TestTransform:
    def test_matches_library_call(self, tmp_path):
        ds, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "feat"
        code = main(
            ["transform", "--data", str(data_path), "--out", str(out),
             "--family", "diffusion", "--j", "3", "--l", "2"]
        )
        assert code == 0
        model = cst_fit(sample_covariance(ds.data), CstConfig(family=Diffusion(), J=3, L=2))
        layout = decide_layout(model, ds.data.values).paths
        expected = cst_transform_batch(model, ds.data.values, layout)
        lines = (out / "features.csv").read_text().strip().splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        npt.assert_array_equal(got, expected)
        prov = out / "features.provenance.txt"
        assert read_keyvalue(prov)["family"] == "diffusion"
        derived = read_derived(prov)
        assert "frame_upper" in derived and "retained_paths" in derived

    def test_pruned_paths_follow_the_decision(self, tmp_path):
        ds, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "feat"
        code = main(
            ["transform", "--data", str(data_path), "--out", str(out),
             "--family", "diffusion", "--j", "4", "--l", "3", "--tau", "0.2"]
        )
        assert code == 0
        config = CstConfig(family=Diffusion(), J=4, L=3, tau=0.2)
        decision = decide_layout(cst_fit(sample_covariance(ds.data), config), ds.data.values)
        pruned = list(decision.pruned)
        assert pruned != sorted(pruned)  # breadth-first, not depth-first
        written = read_derived(out / "features.provenance.txt")["pruned_paths"]
        assert [item.partition(":")[0] for item in written.split(";")] == [
            path_name(p) for p in pruned
        ]

    @pytest.mark.parametrize("aggregation", ["identity", "mean"])
    def test_chunked_output_matches_whole_batch(self, tmp_path, aggregation):
        # two full 256-sample chunks and a 37-sample tail
        ds, data_path, _ = make_data_files(tmp_path, t=2 * 256 + 37)
        out = tmp_path / "feat"
        code = main(
            ["transform", "--data", str(data_path), "--out", str(out), "--j", "3", "--l", "3",
             "--aggregation", aggregation]
        )
        assert code == 0
        config = CstConfig(family=Diffusion(), J=3, L=3, aggregation=aggregation)
        model = cst_fit(sample_covariance(ds.data), config)
        layout = decide_layout(model, ds.data.values).paths
        expected = cst_transform_batch(model, ds.data.values, layout)
        lines = (out / "features.csv").read_text().strip().splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        npt.assert_array_equal(got, expected)

    def test_holds_no_feature_matrix(self, tmp_path):
        n, t = 5, 1500  # a 1.9 MB matrix, written in six chunks
        _, data_path, _ = make_data_files(tmp_path, n=n, t=t)
        out = tmp_path / "feat"
        argv = ["transform", "--data", str(data_path), "--out", str(out), "--j", "5", "--l", "3"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        with (out / "features.csv").open() as handle:
            width = len(handle.readline().split(","))
        assert width == (5**3 - 1) // 4 * n  # every path of the tree retained
        assert peak < t * width * 8 / 2

    def test_width_matches_feature_count(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "feat"
        main(["transform", "--data", str(data_path), "--out", str(out), "--j", "3", "--l", "2"])
        header = (out / "features.csv").read_text().splitlines()[0].split(",")
        assert len(header) == (3**2 - 1) // 2 * 10  # 4 paths x N

    def test_mean_aggregation_width(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "feat"
        main(
            ["transform", "--data", str(data_path), "--out", str(out),
             "--j", "3", "--l", "2", "--aggregation", "mean"]
        )
        header = (out / "features.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 4

    def test_gamma_override_is_recorded(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "feat"
        argv = ["transform", "--data", str(data_path), "--out", str(out), "--family", "hann",
                "--gamma", "2"]
        assert main(argv) == 0
        assert read_keyvalue(out / "features.provenance.txt")["gamma"] == "2.0"
        assert read_derived(out / "features.provenance.txt")["gamma"] == "2.0"

    def test_constant_data_is_numerical_failure(self, tmp_path):
        data = DataMatrix(np.ones((3, 8)))
        path = tmp_path / "flat.csv"
        write_data_csv(path, data)
        assert main(["transform", "--data", str(path), "--out", str(tmp_path / "o")]) == 4

    def test_missing_file_is_data_error(self, tmp_path):
        missing = tmp_path / "nope.csv"
        code, err = assert_contract(["transform", "--data", str(missing)], tmp_path / "o")
        assert code == 3 and err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    def test_out_under_a_regular_file_is_data_error(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        code, err = assert_contract(["pca", "--data", str(data_path), "--k", "2"], data_path / "o")
        assert code == 3 and err.startswith("error: [Errno ") and str(data_path) in err


class TestUndecodableInput:
    def test_data_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        code, err = assert_contract(["pca", "--data", str(bad), "--k", "1"], tmp_path / "o")
        assert code == 3 and "bad.csv" in err

    def test_config_file(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        bad = tmp_path / "bad.conf"
        bad.write_bytes(b"\xff\xfe")
        argv = ["transform", "--config", str(bad), "--data", str(data_path)]
        code, err = assert_contract(argv, tmp_path / "o")
        assert code == 3 and "bad.conf" in err


class TestPcaCommand:
    def test_writes_embeddings(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "pca"
        assert main(["pca", "--data", str(data_path), "--out", str(out), "--k", "3"]) == 0
        lines = (out / "pca.csv").read_text().strip().splitlines()
        assert lines[0] == "pc1,pc2,pc3"
        assert len(lines) == 1 + 120

    # constant data have no positive eigenvalue, so no leading direction;
    # the raw features need no spectrum
    CONSTANT = {
        "pca": (["pca", "--k", "2"], 4),
        "stability-pca": (["stability", "--families=", "--pca-k", "2"], 4),
        "stability-raw": (["stability", "--families="], 0),
    }

    @pytest.mark.parametrize("argv, expected", CONSTANT.values(), ids=CONSTANT.keys())
    def test_constant_data(self, tmp_path, argv, expected):
        data_path, targets_path = tmp_path / "data.csv", tmp_path / "targets.csv"
        write_data_csv(data_path, DataMatrix(np.full((5, 40), 2.0)))
        write_targets_csv(targets_path, np.arange(40.0))
        if argv[0] == "stability":
            argv = [*argv, "--targets", str(targets_path), "--seed", "0", "--runs", "1"]
        out = tmp_path / "o"
        code, err = assert_contract([*argv, "--data", str(data_path)], out)
        assert code == expected
        if expected:
            assert err == "error: largest covariance eigenvalue is not positive\n"
            assert not out.exists()


class TestExperimentCommands:
    def test_stability_deterministic_bytes(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        args = [
            "stability", "--data", str(data_path), "--targets", str(targets_path),
            "--seed", "1", "--families", "diffusion", "--pca-k", "4",
            "--fractions", "0.3,1.0", "--runs", "2", "--j", "3", "--l", "2",
        ]
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "stability.csv").read_bytes() == (out2 / "stability.csv").read_bytes()
        # the output directory is not a setting, so the provenance matches too
        prov1, prov2 = out1 / "stability.provenance.txt", out2 / "stability.provenance.txt"
        assert prov1.exists() and prov2.exists()
        assert prov1.read_bytes() == prov2.read_bytes()

    def test_stability_plotdata(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "s"
        code = main(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--families", "diffusion", "--fractions", "0.5",
             "--runs", "2", "--j", "3", "--l", "2", "--out", str(out)]
        )
        assert code == 0
        assert (out / "stability_mae.plotdata").exists()
        header = (out / "stability_mae.plotdata").read_text().splitlines()[0]
        assert header == "x,series,y,y_lo,y_hi"

    def test_stability_without_bounds_keeps_every_column(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "s"
        code = main(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--families", "diffusion", "--pca-k", "4", "--fractions", "0.5",
             "--runs", "1", "--j", "3", "--l", "2", "--out", str(out)]
        )
        assert code == 0
        header, *lines = (out / "stability.csv").read_text().splitlines()
        assert header.split(",") == columns(StabilityRow)
        rows = [dict(zip(columns(StabilityRow), line.split(","))) for line in lines]
        assert {row["method"] for row in rows} == {"diffusion-cst", "pca", "raw"}
        for row in rows:
            assert row["status"] == "ok"
            # the bound cells are blank, as the run did not compute them
            assert row["delta_measured"] == row["stability_bound"] == ""
            assert float(row["embedding_dist_max"]) >= 0.0
        assert any(float(row["embedding_dist_max"]) > 0.0 for row in rows)

    def test_stability_raw_rows(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "s"
        code = main(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--families", "diffusion", "--fractions", "0.5", "--runs", "2",
             "--j", "3", "--l", "2", "--out", str(out)]
        )
        assert code == 0
        header, *lines = (out / "stability.csv").read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        raw = [row for row in rows if row["method"] == "raw"]
        # fractions 0.5 and 1.0 at two seeds
        assert len(raw) == 4 and all(row["status"] == "ok" for row in raw)
        # a refit leaves the raw features as they are
        assert all(float(row["embedding_mse"]) == 0.0 for row in raw)

    def test_stability_repeated_family_counts_once(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        args = ["stability", "--data", str(data_path), "--targets", str(targets_path),
                "--seed", "1", "--fractions", "0.5", "--runs", "1", "--j", "3", "--l", "2"]
        for name, families in (("once", "diffusion,hann"), ("twice", "diffusion,hann,diffusion")):
            assert main([*args, "--families", families, "--out", str(tmp_path / name)]) == 0
        once, twice = (tmp_path / name / "stability.csv" for name in ("once", "twice"))
        assert twice.read_bytes() == once.read_bytes()

    STABILITY_METHODS = {
        "unknown-family": ("--families=bogus", "unknown family 'bogus'"),
    }

    @pytest.mark.parametrize(
        "families, message", STABILITY_METHODS.values(), ids=STABILITY_METHODS.keys()
    )
    def test_stability_method_choice_is_usage_error(self, tmp_path, families, message):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "s"
        code, err = assert_contract(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", families, "--runs", "1"], out
        )
        assert code == 2 and message in err
        assert not out.exists()

    def test_stability_requires_targets(self, tmp_path, capsys):
        _, data_path, _ = make_data_files(tmp_path)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--data", str(data_path), "--seed", "1",
                  "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
        assert "--targets" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_stability_bounds_hold_in_the_csv(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "s"
        code = main(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--families", "diffusion,hann,monic", "--pca-k", "4",
             "--fractions", "0.3,0.7", "--runs", "3", "--j", "3", "--l", "3",
             "--out", str(out), "--bounds"]
        )
        assert code == 0
        header, *lines = (out / "stability.csv").read_text().splitlines()
        names = header.split(",")
        assert names[-3:] == ["delta_measured", "embedding_dist_max", "stability_bound"]
        rows = [dict(zip(names, line.split(","))) for line in lines]
        cst = [r for r in rows if r["method"].endswith("-cst") and r["status"] == "ok"]
        assert len(cst) == 3 * 3 * 3
        for row in cst:
            assert 0.0 <= float(row["embedding_dist_max"]) <= float(row["stability_bound"])
        # PCA has a measured distance but no delta or bound: Davis-Kahan bounds
        # an eigenvector only up to its sign
        pca = [r for r in rows if r["method"] == "pca" and r["status"] == "ok"]
        assert len(pca) == 3 * 3
        for row in pca:
            assert row["delta_measured"] == row["stability_bound"] == ""
            assert 0.0 <= float(row["embedding_dist_max"]) < math.inf

    def test_prune_sweep(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "p"
        code = main(
            ["prune-sweep", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--taus", "0.0,0.2", "--runs", "2", "--j", "3", "--l", "2",
             "--out", str(out)]
        )
        assert code == 0
        lines = (out / "pruning.csv").read_text().strip().splitlines()
        assert lines[0] == "tau,seed,mae,feature_count"
        assert len(lines) == 1 + 4
        # --runs 2 from --seed 1
        assert [line.split(",")[1] for line in lines[1:]] == ["1", "2", "1", "2"]

    def test_labeled_sweep(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "l"
        code = main(
            ["labeled-sweep", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--train-fracs", "0.1,0.3", "--runs", "1",
             "--j", "3", "--l", "2", "--pca-k", "4", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "labeled.csv").read_text().strip().splitlines()
        assert lines[0] == "method,train_frac,seed,status,mae,feature_width"
        # 4 methods x 2 fractions x 1 seed
        assert len(lines) == 1 + 8
        assert {line.split(",")[2] for line in lines[1:]} == {"1"}

    def test_labeled_sweep_takes_a_valid_fraction_alone(self, tmp_path):
        # the unlabeled fraction takes the rest, so no other fraction must change with it
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "l"
        code = main(
            ["labeled-sweep", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--train-fracs", "0.1,0.3", "--runs", "1", "--j", "3", "--l", "2",
             "--valid-frac", "0.3", "--out", str(out)]
        )
        assert code == 0
        assert len((out / "labeled.csv").read_text().splitlines()) == 1 + 3 * 2

    def test_bounds_command(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "b"
        code = main(
            ["bounds", "--data", str(data_path), "--out", str(out),
             "--j", "3", "--l", "2", "--pca-k", "4"]
        )
        assert code == 0
        rows = dict(
            line.split(",") for line in (out / "bounds.csv").read_text().strip().splitlines()[1:]
        )
        assert float(rows["frame_upper"]) == 1.0
        assert float(rows["k_max"]) > 0.0
        assert "wavelet_delta_0" in rows and "pca_gap_scale" in rows

    def test_bounds_overflow_names_the_constants(self, tmp_path, capsys):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "b"
        capsys.readouterr()
        code = main(["bounds", "--data", str(data_path), "--out", str(out), "--k-max", "1e308"])
        assert code == 2
        err = capsys.readouterr().err
        assert "wavelet_delta_" in err and "k_max=1e+308" in err
        assert not out.exists()

    def test_bounds_overflow_past_the_frame_check_names_the_layers(self, tmp_path, capsys):
        # frame_upper**2 is finite, so cst_fit accepts it, but J of them overflow
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "b"
        capsys.readouterr()
        code = main(
            ["bounds", "--data", str(data_path), "--out", str(out), "--family", "monic",
             "--monic-beta", "1.2e155", "--j", "8", "--l", "2", "--k-max", "1e-300",
             "--q", "1e-300"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "signal_stability_bound_unit_perturbation" in err and "2 layers" in err
        assert "smaller constants" not in err
        assert not out.exists()

    def test_bounds_formulas_do_not_depend_on_the_data_scale(self, tmp_path):
        # the Delta formula is scale-free: data times 1e150, whose top
        # eigenvalue is near 1e300, gives the rows of the unscaled data
        synth = ["synth", "--out", str(tmp_path), "--seed", "1", "--n", "6", "--t", "300"]
        assert main(synth) == 0
        scaled_path = tmp_path / "scaled.csv"
        data = read_data_csv(tmp_path / "data.csv")
        write_data_csv(scaled_path, DataMatrix(data.values * 1e150))
        rows = []
        for data_path in (tmp_path / "data.csv", scaled_path):
            out = tmp_path / f"bounds-{data_path.stem}"
            code = main(["bounds", "--data", str(data_path), "--out", str(out),
                         "--q", "1e8", "--k-max", "1"])
            assert code == 0
            lines = (out / "bounds.csv").read_text().splitlines()[1:]
            rows.append(dict(line.split(",") for line in lines))
        unscaled, scaled = rows
        deltas = [name for name in unscaled if name.startswith("wavelet_delta_")]
        assert deltas
        for name in [*deltas, "cst_stability_bound_unit_signal"]:
            assert float(scaled[name]) == pytest.approx(float(unscaled[name]), rel=1e-12), name

    def test_bounds_overflowing_estimated_kmax_is_a_data_error(self, tmp_path, capsys):
        ds, _, _ = make_data_files(tmp_path)
        data_path = tmp_path / "huge.csv"
        write_data_csv(data_path, DataMatrix(ds.data.values * 1e80))
        out = tmp_path / "b"
        capsys.readouterr()
        code = main(["bounds", "--data", str(data_path), "--out", str(out)])
        assert code == 3
        assert "k_max" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_search(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "g"
        code = main(
            ["grid-search", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--grid-j", "2,3", "--grid-l", "2",
             "--grid-operators", "normalized", "--grid-alpha", "1,10", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "grid.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        assert sum(line.endswith("true") for line in lines[1:]) == 1

    def test_grid_search_negative_seed_is_usage_error(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        code, _ = assert_contract(
            ["grid-search", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "-1", "--grid-j", "2", "--grid-l", "2"], tmp_path / "g"
        )
        assert code == 2


    # command, provenance file, flags after --data/--targets, settings it must record
    SEEDED_RUNS = [
        ("synth", "provenance.txt", ["--seed", "3", "--n", "6", "--t", "30"],
         {"n": "6", "t": "30"}),
        ("transform", "features.provenance.txt",
         ["--family", "hann", "--no-warp", "--j", "3", "--l", "2"],
         {"family": "hann", "no-warp": "true"}),
        ("pca", "pca.provenance.txt", ["--k", "3"], {"k": "3"}),
        ("stability", "stability.provenance.txt",
         ["--seed", "1", "--families", "diffusion", "--pca-k", "4", "--fractions", "0.3,1.0",
          "--runs", "2", "--j", "3", "--l", "2"],
         {"fractions": "0.3,1.0", "pca-k": "4", "no-warp": "false"}),
        ("prune-sweep", "pruning.provenance.txt",
         ["--seed", "1", "--taus", "0.0,0.2", "--runs", "2", "--j", "3", "--l", "2"],
         {"taus": "0.0,0.2"}),
        ("labeled-sweep", "labeled.provenance.txt",
         ["--seed", "1", "--train-fracs", "0.1,0.3", "--runs", "1", "--j", "3", "--l", "2",
          "--pca-k", "4"],
         {"train-fracs": "0.1,0.3"}),
        ("bounds", "bounds.provenance.txt", ["--j", "3", "--l", "2", "--pca-k", "4"],
         {"pca-k": "4"}),
        ("grid-search", "grid.provenance.txt",
         ["--seed", "1", "--grid-j", "2,3", "--grid-l", "2", "--grid-operators", "normalized",
          "--grid-alpha", "1,10"],
         {"grid-j": "2,3", "grid-operators": "normalized"}),
    ]

    @pytest.mark.parametrize(
        "command, provenance_name, flags, settings",
        SEEDED_RUNS,
        ids=[run[0] for run in SEEDED_RUNS],
    )
    def test_provenance_seeds_config(self, tmp_path, command, provenance_name, flags, settings):
        _, data_path, targets_path = make_data_files(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        inputs = ["--data", str(data_path), "--targets", str(targets_path)]
        if command == "synth":
            inputs = []
        elif command in ("transform", "pca", "bounds"):
            inputs = inputs[:2]  # these take no targets
        assert main([command, *inputs, *flags, "--out", str(first)]) == 0
        provenance = first / provenance_name
        values = read_keyvalue(provenance)
        assert settings.items() <= values.items()
        assert not {"out", "config", "gamma", "command", "func"} & set(values)
        derived = read_derived(provenance)
        assert not set(values) & set(derived)
        assert derived["python"] == platform.python_version()
        assert derived["numpy"] == np.__version__ and "scipy" not in derived
        assert derived["covscatter"] == covscatter.__version__
        # what the bytes depend on beyond the settings: the BLAS and its threads
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert derived["blas"] == f"{blas['name']} {blas['version']}"
        for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            assert derived[variable] == os.environ.get(variable, "unset")
        assert derived["cpu_count"] == str(os.cpu_count())
        assert list(derived)[-1] == "cpu_count"
        # docs/config.md names each key the run writes, and no other, in order
        assert list(derived) == documented_derived(command, values.get("family"))

        assert main([command, "--config", str(provenance), "--out", str(second)]) == 0
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name


TRANSFORM = ["--j", "3", "--l", "3", "--tau", "0.4"]


@pytest.mark.parametrize(
    "command, stem, flags, family",
    [("transform", "features", TRANSFORM, Diffusion()),
     ("transform", "features", [*TRANSFORM, "--family", "hann"], Hann()),
     ("transform", "features", [*TRANSFORM, "--family", "hann", "--no-warp"], Hann(warp=False)),
     ("transform", "features", [*TRANSFORM, "--family", "monic"], Monic()),
     ("pca", "pca", ["--k", "2"], None),
     ("bounds", "bounds", [], None)],
    ids=["transform", "transform-hann", "transform-hann-no-warp", "transform-monic", "pca", "bounds"],
)
def test_derived_facts_are_the_librarys(tmp_path, command, stem, flags, family):
    ds, data_path, _ = make_data_files(tmp_path)
    assert main([command, "--data", str(data_path), "--out", str(tmp_path / "o"), *flags]) == 0
    derived = read_derived(tmp_path / "o" / f"{stem}.provenance.txt")
    cov = sample_covariance(ds.data)
    eigenvalues = cov.decomposition.eigenvalues
    assert derived["w1"] == repr(cov.top_eigenvalue)
    assert derived["eigengap_min"] == repr(float(np.min(-np.diff(eigenvalues))))
    if command == "transform":
        model = cst_fit(cov, CstConfig(family=family, J=3, L=3, tau=0.4))
        decision = decide_layout(model, ds.data.values)
        for key, paths in (("retained_per_layer", decision.paths), ("pruned_per_layer", decision.pruned)):
            counts = [sum(len(path) == depth for path in paths) for depth in range(3)]
            assert derived[key] == ",".join(map(str, counts)), key
        assert derived["pruned_per_layer"] != "0,0,0"  # the threshold prunes here
        # the filterbank's facts, the family's own (hann.*, monic.*) last
        facts = model.filterbank.provenance()
        assert list(facts)[4:] == [key for key in derived if "." in key]
        for key, value in facts.items():
            assert derived[key] == format_value(value), key


def test_module_runs_as_a_script(tmp_path):
    # `python -m covscatter.cli` exits with main's code
    run = subprocess.run(
        [sys.executable, "-m", "covscatter.cli", "synth", "--out", str(tmp_path), "--seed", "-1"],
        env={**os.environ, "PYTHONPATH": str(Path(covscatter.__file__).parents[1])},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 2
    assert run.stderr.startswith("error:") and len(run.stderr.splitlines()) == 1


def test_import_loads_no_scipy():
    # numpy is the only numerical dependency; a fresh interpreter shows what the import pulls in
    src = Path(covscatter.__file__).parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, covscatter, covscatter.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "covscatter.cli" in loaded
    assert [name for name in loaded if name == "scipy" or name.startswith("scipy.")] == []


def test_package_import_loads_no_submodule():
    # each public name is imported from the submodule that defines it
    src = Path(covscatter.__file__).parents[1]
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, covscatter; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert [name for name in loaded if name.startswith("covscatter")] == ["covscatter"]


class TestFlagValues:
    SPLIT = ["--data", "{data}", "--targets", "{targets}", "--seed", "0"]
    STABILITY = ["stability", *SPLIT, "--families", "diffusion", "--runs", "1", "--j", "3"]
    PRUNE_SWEEP = ["prune-sweep", *SPLIT, "--taus", "0.0", "--runs", "1", "--j", "3"]
    LABELED_SWEEP = ["labeled-sweep", *SPLIT, "--train-fracs", "0.3", "--runs", "1", "--j", "3"]
    REJECTED = {
        "synth-noise-nan": ["synth", "--seed", "1", "--noise", "nan"],
        "bounds-q-nan": ["bounds", "--data", "{data}", "--q", "nan"],
        "stability-alpha-nan": [*STABILITY, "--alpha", "nan"],
        "stability-fraction-above-one": [*STABILITY, "--fractions", "2.0"],
        "stability-split-nan": [*STABILITY, "--train-frac", "nan"],
        "grid-search-empty-j": ["grid-search", *SPLIT, "--grid-j", "", "--grid-l", "2"],
        "grid-search-empty-alpha": ["grid-search", *SPLIT, "--grid-j", "2", "--grid-alpha", ""],
        "transform-hann-gamma-huge": ["transform", "--data", "{data}", "--family", "hann",
                                      "--gamma", "1e308"],
        "transform-monic-k-huge": ["transform", "--data", "{data}", "--family", "monic",
                                   "--monic-k", "1e308"],
        "transform-monic-alpha-huge": ["transform", "--data", "{data}", "--family", "monic",
                                       "--monic-alpha", "1e300"],
        "bounds-epsilon-huge": ["bounds", "--data", "{data}", "--epsilon", "1e308"],
        "bounds-k-max-inf": ["bounds", "--data", "{data}", "--k-max", "inf"],
        "bounds-q-inf": ["bounds", "--data", "{data}", "--q", "inf"],
        "bounds-g-inf": ["bounds", "--data", "{data}", "--g", "inf"],
        "bounds-u-inf": ["bounds", "--data", "{data}", "--u", "inf"],
        # finite constants whose Delta formula overflows float64
        "bounds-k-max-huge": ["bounds", "--data", "{data}", "--k-max", "1e308"],
        # the last --runs wins, so these ask for no runs at all
        "stability-runs-zero": [*STABILITY, "--runs", "0"],
        "stability-runs-negative": [*STABILITY, "--runs", "-1"],
        "prune-sweep-runs-zero": [*PRUNE_SWEEP, "--runs", "0"],
        "labeled-sweep-runs-zero": [*LABELED_SWEEP, "--runs", "0"],
        # the last list wins, so these ask for an empty sweep
        "prune-sweep-empty-taus": [*PRUNE_SWEEP, "--taus="],
        "labeled-sweep-empty-train-fracs": [*LABELED_SWEEP, "--train-fracs="],
        "labeled-sweep-train-frac-negative": [*LABELED_SWEEP, "--train-fracs=-0.1"],
        "stability-pca-k-zero": [*STABILITY, "--pca-k", "0"],
        "labeled-sweep-pca-k-zero": [*LABELED_SWEEP, "--pca-k", "0"],
        "bounds-pca-k-zero": ["bounds", "--data", "{data}", "--pca-k", "0"],
        # a finite filterbank whose deepest layer overflows float64
        "transform-monic-beta-deep": ["transform", "--data", "{data}", "--family", "monic",
                                      "--monic-beta", "1e150", "--l", "3"],
        "bounds-monic-beta-deep": ["bounds", "--data", "{data}", "--family", "monic",
                                   "--monic-beta", "1e150", "--l", "3"],
    }

    @pytest.mark.parametrize("argv", REJECTED.values(), ids=REJECTED.keys())
    def test_out_of_range_is_usage_error(self, tmp_path, argv):
        _, data_path, targets_path = make_data_files(tmp_path)
        argv = [arg.format(data=data_path, targets=targets_path) for arg in argv]
        assert assert_contract(argv, tmp_path / "o")[0] == 2

    BOUNDS = ["bounds", "--data", "{data}"]
    GRID_SEARCH = ["grid-search", *SPLIT, "--grid-j", "2", "--grid-l", "2"]
    # of 300 samples, a test fraction of 0.001 and a valid fraction of 0 round to none
    NO_TEST = ["--test-frac", "0.001"]
    EMPTY_EVALUATION = {
        "stability": [*STABILITY, *NO_TEST],
        "prune-sweep": [*PRUNE_SWEEP, *NO_TEST],
        # the unlabeled fraction takes what the swept train fraction leaves
        "labeled-sweep": [*LABELED_SWEEP, "--test-frac", "0.001"],
        "grid-search": [*GRID_SEARCH, "--valid-frac", "0"],
    }

    @pytest.mark.parametrize("argv", EMPTY_EVALUATION.values(), ids=EMPTY_EVALUATION.keys())
    def test_empty_evaluation_set_is_usage_error(self, tmp_path, argv):
        _, data_path, targets_path = make_data_files(tmp_path, n=8, t=300)
        argv = [arg.format(data=data_path, targets=targets_path) for arg in argv]
        code, err = assert_contract(argv, tmp_path / "o")
        assert code == 2 and "300 samples" in err
        assert not (tmp_path / "o").exists()

    # labeled-sweep is left out: its train fraction is the swept quantity, and a
    # train set under 2 samples gives `skipped` rows
    NO_TRAIN = ["--train-frac", "0"]
    EMPTY_TRAIN = {
        "stability": [*STABILITY, *NO_TRAIN],
        "prune-sweep": [*PRUNE_SWEEP, *NO_TRAIN],
        "grid-search": [*GRID_SEARCH, *NO_TRAIN],
    }

    @pytest.mark.parametrize("argv", EMPTY_TRAIN.values(), ids=EMPTY_TRAIN.keys())
    def test_empty_train_set_is_usage_error(self, tmp_path, argv, monkeypatch):
        _, data_path, targets_path = make_data_files(tmp_path, n=6, t=300, seed=1)
        argv = [arg.format(data=data_path, targets=targets_path) for arg in argv]
        # the check comes before any fit
        monkeypatch.setattr("covscatter.harness.cst_fit", None)
        code, err = assert_contract(argv, tmp_path / "o")
        assert code == 2 and "train fraction 0.0 of 300 samples" in err
        assert not (tmp_path / "o").exists()
    TRANSFORM = ["transform", "--data", "{data}"]
    PCA = ["pca", "--data", "{data}", "--k", "2"]
    # the flags a command's run would ignore or override: stability never prunes,
    # --families names its families and it always writes the raw baseline and
    # the plot files, --taus sets prune-sweep's tau,
    # labeled-sweep runs both aggregations and sweeps the train fraction, the
    # unlabeled fraction is what the others leave, no bound reads tau,
    # grid-search's grids set J, L and the operator, and only the protocols
    # read targets
    DROPPED = {
        "stability-tau": (STABILITY, "tau", "0.1"),
        "stability-family": (STABILITY, "family", "monic"),
        "stability-unlabeled-frac": (STABILITY, "unlabeled-frac", "0.5"),
        "stability-raw": (STABILITY, "raw", "false"),
        "stability-plotdata": (STABILITY, "plotdata", "true"),
        "prune-sweep-tau": (PRUNE_SWEEP, "tau", "0.1"),
        "prune-sweep-unlabeled-frac": (PRUNE_SWEEP, "unlabeled-frac", "0.5"),
        "labeled-sweep-aggregation": (LABELED_SWEEP, "aggregation", "mean"),
        "labeled-sweep-train-frac": (LABELED_SWEEP, "train-frac", "0.3"),
        "labeled-sweep-unlabeled-frac": (LABELED_SWEEP, "unlabeled-frac", "0.3"),
        "bounds-tau": (BOUNDS, "tau", "0.5"),
        "grid-search-j": (GRID_SEARCH, "j", "3"),
        "grid-search-l": (GRID_SEARCH, "l", "3"),
        "grid-search-operator": (GRID_SEARCH, "operator", "inverted"),
        "grid-search-unlabeled-frac": (GRID_SEARCH, "unlabeled-frac", "0.5"),
        "transform-targets": (TRANSFORM, "targets", "targets.csv"),
        "pca-targets": (PCA, "targets", "targets.csv"),
        "bounds-targets": (BOUNDS, "targets", "targets.csv"),
    }

    @pytest.mark.parametrize("argv, key, value", DROPPED.values(), ids=DROPPED.keys())
    def test_dropped_flag_is_usage_error(self, tmp_path, capsys, argv, key, value):
        _, data_path, targets_path = make_data_files(tmp_path)
        argv = [arg.format(data=data_path, targets=targets_path) for arg in argv]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--{key}", value, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"--{key}" in capsys.readouterr().err
        # an older provenance file that still holds the key
        conf = tmp_path / "old.provenance.txt"
        conf.write_text(f"{key} = {value}\n")
        code, err = assert_contract([*argv, "--config", str(conf)], tmp_path / "o")
        assert code == 2 and f"unknown config key {key!r}" in err
        assert not (tmp_path / "o").exists()

    # the unlabeled fraction takes the rest, so no other fraction must change with it
    TAKES_TRAIN_FRAC = {"stability": STABILITY, "prune-sweep": PRUNE_SWEEP, "grid-search": GRID_SEARCH}

    @pytest.mark.parametrize("argv", TAKES_TRAIN_FRAC.values(), ids=TAKES_TRAIN_FRAC.keys())
    def test_train_fraction_alone(self, tmp_path, argv):
        _, data_path, targets_path = make_data_files(tmp_path)
        argv = [arg.format(data=data_path, targets=targets_path) for arg in argv]
        assert main([*argv, "--train-frac", "0.2", "--out", str(tmp_path / "o")]) == 0

    # train 0.1 (none for labeled-sweep), valid 0.2 and test 0.95
    OVER_ONE = {
        "stability": (STABILITY, "1.25"),
        "prune-sweep": (PRUNE_SWEEP, "1.25"),
        "labeled-sweep": (LABELED_SWEEP, "1.15"),
        "grid-search": (GRID_SEARCH, "1.25"),
    }

    @pytest.mark.parametrize("argv, total", OVER_ONE.values(), ids=OVER_ONE.keys())
    def test_fractions_over_one_name_their_sum(self, tmp_path, argv, total):
        _, data_path, targets_path = make_data_files(tmp_path)
        argv = [arg.format(data=data_path, targets=targets_path) for arg in argv]
        code, err = assert_contract([*argv, "--test-frac", "0.95"], tmp_path / "o")
        assert code == 2 and err == f"error: split fractions sum to {total}, more than 1\n"
        assert not (tmp_path / "o").exists()

    COMMANDS_WITH_TARGETS = {
        "stability": STABILITY,
        "prune-sweep": PRUNE_SWEEP,
        "labeled-sweep": LABELED_SWEEP,
        "grid-search": GRID_SEARCH,
    }

    @pytest.mark.parametrize(
        "argv", COMMANDS_WITH_TARGETS.values(), ids=COMMANDS_WITH_TARGETS.keys()
    )
    def test_wrong_target_count_is_data_error(self, tmp_path, argv):
        ds, data_path, _ = make_data_files(tmp_path)
        short = tmp_path / "short.csv"
        write_targets_csv(short, ds.targets[:-1])
        argv = [arg.format(data=data_path, targets=short) for arg in argv]
        code, err = assert_contract(argv, tmp_path / "o")
        assert code == 3 and "expected 120 targets" in err

    def test_non_finite_target_is_data_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--n", "6", "--t", "300", "--seed", "1"]) == 0
        targets = read_targets_csv(tmp_path / "targets.csv")
        targets[5] = np.nan
        write_targets_csv(tmp_path / "targets.csv", targets)
        out = tmp_path / "grid"
        code, err = assert_contract(
            ["grid-search", "--data", str(tmp_path / "data.csv"), "--targets",
             str(tmp_path / "targets.csv"), "--grid-j", "2", "--grid-l", "2", "--seed", "0"], out
        )
        assert code == 3 and err == "error: targets contain non-finite entries\n"
        assert not (out / "grid.csv").exists()

    def test_tiny_effective_rank_writes_without_warning(self, tmp_path):
        # below 1e-4 every eigenvalue past the first underflows to zero: the same data
        base = ["synth", "--seed", "2", "--n", "8", "--t", "40"]
        assert assert_contract([*base, "--effective-rank", "1e-300"], tmp_path / "a")[0] == 0
        assert main([*base, "--effective-rank", "1e-4", "--out", str(tmp_path / "b")]) == 0
        for name in ("data.csv", "targets.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestConfigFile:
    def test_config_sets_defaults_flags_override(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text(f"data = {data_path}\nj = 3\nl = 2\naggregation = mean\n")
        out = tmp_path / "c"
        code = main(["transform", "--config", str(conf), "--out", str(out), "--l", "1"])
        assert code == 0
        header = (out / "features.csv").read_text().splitlines()[0].split(",")
        assert header == ["p_root"]  # L overridden to 1, aggregation mean from config

    def test_unknown_config_key_rejected(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("nonsense = 1\n")
        code = main(
            ["transform", "--config", str(conf), "--data", str(data_path),
             "--out", str(tmp_path / "x")]
        )
        assert code == 2

    def test_abbreviated_flag_rejected(self, tmp_path, capsys):
        # --conf is not --config: argparse must not expand it, or the file is dropped
        _, data_path, _ = make_data_files(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("j = 3\nl = 2\naggregation = mean\n")
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["transform", "--data", str(data_path), "--conf", str(conf),
                  "--out", str(tmp_path / "c")])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--conf" in errors[0]
        assert not (tmp_path / "c").exists()

    BAD_VALUES = {
        "int": ("transform", "j = abc"),
        "list": ("stability", "fractions = x"),
        "choice": ("transform", "family = bogus"),
        "boolean": ("stability", "bounds = maybe"),
    }

    @pytest.mark.parametrize("command, line", BAD_VALUES.values(), ids=BAD_VALUES.keys())
    def test_bad_value_is_usage_error(self, tmp_path, command, line):
        # parsed as the flag's own argument would be, so no traceback and no fallback
        _, data_path, targets_path = make_data_files(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text(line + "\n")
        argv = [command, "--config", str(conf), "--data", str(data_path)]
        if command == "stability":
            argv += ["--targets", str(targets_path), "--seed", "0", "--runs", "1",
                     "--families", "diffusion"]
        code, err = assert_contract(argv, tmp_path / "o")
        assert code == 2
        assert str(conf) in err and repr(line.split(" = ")[0]) in err
        assert not (tmp_path / "o").exists()

    def test_config_for_an_unknown_command_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("j = 3\n")
        with pytest.raises(SystemExit) as err:
            main(["bogus", "--config", str(conf)])
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_config_equals_form(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        conf = tmp_path / "run.conf"
        conf.write_text("j = 3\nl = 2\naggregation = mean\n")
        base = ["transform", "--data", str(data_path)]
        assert main(base + ["--out", str(tmp_path / "d")]) == 0
        assert main(base + [f"--config={conf}", "--out", str(tmp_path / "c")]) == 0
        header = (tmp_path / "c" / "features.csv").read_text().splitlines()[0].split(",")
        default = (tmp_path / "d" / "features.csv").read_text().splitlines()[0].split(",")
        assert len(header) == 4  # root plus J=3 first-layer means
        assert header != default


class TestLargeMagnitudes:
    # one CST family, whose 24 features a 30-sample train set can fit: at 1e150
    # an alpha of 1 regularizes nothing, so a rank-deficient primal would exit 4
    COMMANDS = {
        "pca": ["pca", "--k", "2"],
        "transform": ["transform"],
        "bounds": ["bounds"],
        "stability": ["stability", "--targets", "{targets}", "--seed", "0",
                      "--families", "diffusion", "--j", "3", "--runs", "1", "--bounds"],
    }

    def run_scaled(self, tmp_path, argv, scale):
        """Exit code and stderr of ``argv`` on the 6 x 300 data scaled by ``scale``."""
        ds, _, targets_path = make_data_files(tmp_path, n=6, t=300, seed=1)
        scaled = ds.data.values * scale
        data_path = tmp_path / "scaled.csv"
        write_data_csv(data_path, DataMatrix(scaled))
        command, *flags = [arg.format(targets=targets_path) for arg in argv]
        code, err = assert_contract([command, "--data", str(data_path), *flags], tmp_path / "o")
        return code, err, scaled

    # test_data_magnitude_exit_table holds the exits pca, transform and bounds
    # may give at 1e150, 1e160, 1e-158 and 1e-200. This test holds the
    # messages of the last three, the exit at 1e-150, a scale the table does
    # not take, and a one-family stability run, which the table does not make
    SCALED = [(name, scale) for name in COMMANDS for scale in (1e160, 1e-150, 1e-158, 1e-200)]
    SCALED.append(("stability", 1e150))

    @pytest.mark.parametrize("name, scale", SCALED, ids=[f"{n}-{s!r}" for n, s in SCALED])
    def test_exit_without_warning(self, tmp_path, name, scale):
        code, err, scaled = self.run_scaled(tmp_path, self.COMMANDS[name], scale)
        assert code in (0, 3)
        if scale == 1e160:
            # the covariance overflows although the data are finite
            assert code == 3
            assert f"magnitude up to {np.abs(scaled).max():g} overflows float64" in err
        elif scale in (1e-158, 1e-200):
            # the covariance underflows to subnormal values (1e-158) or to zero
            # (1e-200) although the data vary; the protocols estimate it on
            # their fit pool, whose spread is named
            assert code == 3
            match = re.search(r"deviate from their mean by at most (\S+) underflows float64", err)
            assert match and 0.0 < float(match[1]) <= 2.0 * np.abs(scaled).max()
        elif scale == 1e-150:
            assert code == 0

    def test_singular_solve_past_a_passing_factor(self, tmp_path):
        # at 1e8 the Cholesky factor of one labeled-sweep system passes, and
        # its LU solve meets a zero pivot: the same error as a failing factor
        argv = ["labeled-sweep", "--targets", "{targets}", "--seed", "0", "--runs", "1"]
        code, err, _ = self.run_scaled(tmp_path, argv, 1e8)
        assert code == 4 and "regularizes nothing" in err

    def test_default_families_singular_at_positive_alpha(self, tmp_path):
        # at 1e150 an alpha_R of 1 is below the rounding of the Gram matrix, so a
        # rank-deficient primal is singular; the message says why, not "use a positive alpha_R"
        argv = ["stability", "--targets", "{targets}", "--seed", "0", "--runs", "1"]
        code, err, _ = self.run_scaled(tmp_path, argv, 1e150)
        assert code == 4
        assert "alpha_R 1," in err and "use a positive alpha_R" not in err


def _edge_data():
    """Small and degenerate (N, T) data sets by name: N = 2 with T = 2 and 3, and N = 5, T = 40."""
    rng = np.random.default_rng(3)
    base = rng.standard_normal((5, 40))
    constant_column, duplicated_column = base.copy(), base.copy()
    constant_column[2] = 1.5
    duplicated_column[3] = duplicated_column[1]
    return {
        "n2-t2": rng.standard_normal((2, 2)),
        "n2-t3": rng.standard_normal((2, 3)),
        "constant-column": constant_column,
        "duplicated-column": duplicated_column,
        "rank-one": np.outer(rng.standard_normal(5), rng.standard_normal(40)),
        "all-constant": np.full((5, 40), 2.0),
    }


EDGE_DATA = _edge_data()


class TestEdgeShapedData:
    PROTOCOL = ["--targets", "{targets}", "--seed", "0"]
    COMMANDS = [
        ["transform", "--j", "2", "--l", "2"],
        ["transform", "--family", "hann", "--hann-r", "2", "--j", "2", "--l", "2"],
        ["transform", "--family", "hann", "--hann-r", "2", "--no-warp", "--j", "2", "--l", "2"],
        ["transform", "--family", "monic", "--j", "2", "--l", "2"],
        ["pca", "--k", "2"],
        ["bounds", "--j", "2", "--l", "2", "--pca-k", "2"],
        ["bounds", "--family", "monic", "--j", "2", "--l", "2", "--pca-k", "2"],
        ["stability", *PROTOCOL, "--runs", "1", "--families", "diffusion", "--j", "2", "--pca-k",
         "2", "--bounds"],
        ["prune-sweep", *PROTOCOL, "--runs", "1", "--taus", "0,0.3", "--j", "2"],
        ["labeled-sweep", *PROTOCOL, "--runs", "1", "--train-fracs", "0.3", "--j", "2"],
        ["grid-search", *PROTOCOL, "--grid-j", "2", "--grid-l", "2"],
    ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", EDGE_DATA.values(), ids=EDGE_DATA.keys())
    def test_every_data_command_exits_cleanly(self, tmp_path, values):
        data_path, targets_path = tmp_path / "data.csv", tmp_path / "targets.csv"
        write_data_csv(data_path, DataMatrix(values))
        write_targets_csv(targets_path, np.random.default_rng(4).standard_normal(values.shape[1]))
        for command, *flags in self.COMMANDS:
            flags = [flag.format(targets=targets_path) for flag in flags]
            assert_contract([command, "--data", str(data_path), *flags], tmp_path / command)

    # each drawn data set runs every command (about 60 ms on a 2-core VM), so a
    # dozen examples keep the test under a second
    @pytest.mark.filterwarnings("error")
    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(
        n=st.integers(2, 6),
        t=st.integers(2, 4),
        shape=st.sampled_from(["rank-one", "duplicated-column", "constant-column"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_drawn_edge_shapes_exit_cleanly(self, n, t, shape, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal((n, t))
        if shape == "rank-one":
            values = np.outer(rng.standard_normal(n), rng.standard_normal(t))
        elif shape == "duplicated-column":
            values[-1] = values[0]
        else:
            values[-1] = 1.5
        with tempfile.TemporaryDirectory() as tmp:
            self.test_every_data_command_exits_cleanly(Path(tmp), values)
