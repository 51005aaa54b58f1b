import numpy as np
import numpy.testing as npt
import pytest

from covscatter.cli import main
from covscatter.io import read_data_csv, read_keyvalue, read_targets_csv, write_data_csv
from covscatter.scattering import CstConfig, cst_fit, cst_transform_batch
from covscatter.spectral import DataMatrix, sample_covariance
from covscatter.synthdata import SynthSpec, synth_generate
from covscatter.wavelets import Diffusion


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
        expected = cst_transform_batch(model, ds.data)
        lines = (out / "features.csv").read_text().strip().splitlines()
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        npt.assert_array_equal(got, expected.matrix)
        prov = read_keyvalue(out / "features.provenance.txt")
        assert prov["family"] == "diffusion"
        assert "frame_upper" in prov and "retained_paths" in prov

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

    def test_constant_data_is_numerical_failure(self, tmp_path):
        data = DataMatrix(np.ones((3, 8)))
        path = tmp_path / "flat.csv"
        write_data_csv(path, data)
        assert main(["transform", "--data", str(path), "--out", str(tmp_path / "o")]) == 4

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["transform", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]) == 3


class TestUndecodableInput:
    def _assert_one_error_line(self, capsys, argv, name):
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and name in lines[0]

    def test_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe")
        argv = ["pca", "--data", str(bad), "--out", str(tmp_path / "o"), "--k", "1"]
        self._assert_one_error_line(capsys, argv, "bad.csv")

    def test_config_file(self, tmp_path, capsys):
        _, data_path, _ = make_data_files(tmp_path)
        bad = tmp_path / "bad.conf"
        bad.write_bytes(b"\xff\xfe")
        argv = ["transform", "--config", str(bad), "--data", str(data_path),
                "--out", str(tmp_path / "o")]
        self._assert_one_error_line(capsys, argv, "bad.conf")


class TestPcaCommand:
    def test_writes_embeddings(self, tmp_path):
        _, data_path, _ = make_data_files(tmp_path)
        out = tmp_path / "pca"
        assert main(["pca", "--data", str(data_path), "--out", str(out), "--k", "3"]) == 0
        lines = (out / "pca.csv").read_text().strip().splitlines()
        assert lines[0] == "pc1,pc2,pc3"
        assert len(lines) == 1 + 120


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

    def test_stability_provenance_seeds_config(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        code = main(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--families", "diffusion", "--pca-k", "4",
             "--fractions", "0.3,1.0", "--runs", "2", "--j", "3", "--l", "2",
             "--out", str(first)]
        )
        assert code == 0
        provenance = first / "stability.provenance.txt"
        values = read_keyvalue(provenance)
        assert values["fractions"] == "0.3,1.0"
        assert values["pca-k"] == "4"
        assert values["no-warp"] == "false"
        assert not {"out", "config", "gamma", "command", "func"} & set(values)
        assert main(["stability", "--config", str(provenance), "--out", str(second)]) == 0
        assert (first / "stability.csv").read_bytes() == (second / "stability.csv").read_bytes()
        assert provenance.read_bytes() == (second / "stability.provenance.txt").read_bytes()

    def test_stability_plotdata(self, tmp_path):
        _, data_path, targets_path = make_data_files(tmp_path)
        out = tmp_path / "s"
        code = main(
            ["stability", "--data", str(data_path), "--targets", str(targets_path),
             "--seed", "1", "--families", "diffusion", "--fractions", "0.5",
             "--runs", "2", "--j", "3", "--l", "2", "--out", str(out), "--plotdata"]
        )
        assert code == 0
        assert (out / "stability_mae.plotdata").exists()
        header = (out / "stability_mae.plotdata").read_text().splitlines()[0]
        assert header == "x,series,y,y_lo,y_hi"

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
        assert lines[0] == "tau,seed,mae,transform_time,feature_count"
        assert len(lines) == 1 + 4

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


    def _assert_provenance_seeds_config(self, tmp_path, command, stem, flags, timing_column=None):
        _, data_path, targets_path = make_data_files(tmp_path)
        first, second = tmp_path / "a", tmp_path / "b"
        args = [command, "--data", str(data_path), "--targets", str(targets_path), *flags]
        assert main(args + ["--out", str(first)]) == 0
        provenance = first / f"{stem}.provenance.txt"
        assert provenance.exists()
        assert main([command, "--config", str(provenance), "--out", str(second)]) == 0
        assert provenance.read_bytes() == (second / f"{stem}.provenance.txt").read_bytes()
        csv1, csv2 = (out / f"{stem}.csv" for out in (first, second))
        if timing_column is None:
            assert csv1.read_bytes() == csv2.read_bytes()
        else:
            # a wall-clock column cannot repeat; every other cell must
            def cells(path):
                rows = [line.split(",") for line in path.read_text().splitlines()]
                return [row[:timing_column] + row[timing_column + 1:] for row in rows]

            assert cells(csv1) == cells(csv2)

    def test_prune_sweep_provenance_seeds_config(self, tmp_path):
        self._assert_provenance_seeds_config(
            tmp_path, "prune-sweep", "pruning",
            ["--seed", "1", "--taus", "0.0,0.2", "--runs", "2", "--j", "3", "--l", "2"],
            timing_column=3,
        )

    def test_labeled_sweep_provenance_seeds_config(self, tmp_path):
        self._assert_provenance_seeds_config(
            tmp_path, "labeled-sweep", "labeled",
            ["--seed", "1", "--train-fracs", "0.1,0.3", "--runs", "1",
             "--j", "3", "--l", "2", "--pca-k", "4"],
        )

    def test_bounds_provenance_seeds_config(self, tmp_path):
        self._assert_provenance_seeds_config(
            tmp_path, "bounds", "bounds", ["--j", "3", "--l", "2", "--pca-k", "4"]
        )

    def test_grid_search_provenance_seeds_config(self, tmp_path):
        self._assert_provenance_seeds_config(
            tmp_path, "grid-search", "grid",
            ["--seed", "1", "--grid-j", "2,3", "--grid-l", "2",
             "--grid-operators", "normalized", "--grid-alpha", "1,10"],
        )


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
