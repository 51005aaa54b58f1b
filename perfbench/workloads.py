"""The three benchmark workloads: inputs, unit operations and output checks.

A workload is built in a fresh process from an input seed. Its
``operations()`` are ``(label, callable)`` pairs; the callable takes an
output directory and returns the operation's result. ``check()`` inspects
one result after the timed phase and returns the errors found plus the key
results that are compared with ``reference.json``. The program is always
reached through module attributes looked up at call time, so the span
wrappers of ``tracing.py`` see every call.

All inputs are synthetic: N=68 features (the cortical-region count the
tests use) with eigenvalue tail 0.9, which packs the covariance spectrum
closely together, the regime in which the paper's stability claims matter.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

N_FEATURES = 68
T_BRAIN = 2000
T_TALL = 20000
TAIL = 0.9
NOISE = 0.1  # the `covscatter synth` default
SPLIT_FRACS = (0.5, 0.1, 0.2, 0.2)  # unlabeled, train, valid, test: the CLI defaults
RIDGE_ALPHA = 1.0  # the CLI default

# The workload seed selects one of this many input sets, each with its key
# results recorded in reference.json, so every run is checked against a
# reference whatever seed it is given.
INPUT_SEEDS = 16

# Key results are compared with the recorded reference within this relative
# tolerance: loose enough for rounding-level changes such as a different
# eigensolver, tight enough that any change to what is computed fails.
RTOL = 1e-6


def _finite(value) -> bool:
    return value is not None and math.isfinite(value)


def _synth(cs, seed, n_samples):
    spec = cs.synthdata.SynthSpec(N_FEATURES, n_samples, TAIL, noise_sigma=NOISE, seed=seed)
    return cs.synthdata.synth_generate(spec)


def _split(cs, seed):
    return cs.harness.SplitSpec(*SPLIT_FRACS, seed=seed)


class StabilityBrain:
    """`harness.run_stability` once per method; one operation is one method.

    Drives the harness directly because `covscatter stability` fails with a
    NameError on the current code.
    """

    name = "stability-brain"
    fractions = (0.05, 0.1, 0.2, 0.4, 0.7, 1.0)
    subsample_seeds = (0,)

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        dataset = _synth(cs, seed, T_BRAIN)
        self.data, self.targets = dataset.data, dataset.targets
        self.split = _split(cs, seed)
        scattering, wavelets, harness = cs.scattering, cs.wavelets, cs.harness
        families = (("diffusion", wavelets.Diffusion()), ("hann", wavelets.Hann()), ("monic", wavelets.Monic()))
        self.methods = [
            harness.CstMethod(f"{name}-cst", scattering.CstConfig(family, J=4, L=2, tau=0.0), RIDGE_ALPHA)
            for name, family in families
        ]
        self.methods.append(harness.PcaMethod("pca", k=20, alpha=RIDGE_ALPHA))

    def operations(self):
        return [(m.name, functools.partial(self._run, m)) for m in self.methods]

    def _run(self, method, outdir):
        return self.cs.harness.run_stability(
            self.data,
            self.targets,
            [method],
            self.split,
            subsample_fracs=self.fractions,
            seeds=self.subsample_seeds,
            include_bounds=True,
        )

    def check(self, label, report):
        errors = []
        is_cst = label != "pca"
        expected = [(f, s) for f in sorted(set(self.fractions)) for s in self.subsample_seeds]
        got = [(r.fraction, r.seed) for r in report.rows]
        if got != expected:
            errors.append(f"rows {got} != expected {expected}")
        for r in report.rows:
            where = f"fraction {r.fraction} seed {r.seed}"
            if r.status != "ok":
                errors.append(f"{where}: status {r.status!r}")
                continue
            if not _finite(r.mae):
                errors.append(f"{where}: mae {r.mae!r} is not finite")
            if not (_finite(r.embedding_mse) and r.embedding_mse >= 0.0):
                errors.append(f"{where}: embedding_mse {r.embedding_mse!r}")
            if is_cst and not (_finite(r.delta_measured) and _finite(r.stability_bound)):
                errors.append(f"{where}: bound columns {r.delta_measured!r}, {r.stability_bound!r}")
        full = [r for r in report.rows if r.fraction == 1.0 and r.status == "ok"]
        # the harness promises a bit-identical refit on the full pool
        for r in full:
            if r.embedding_mse != 0.0:
                errors.append(f"embedding_mse at fraction 1.0 is {r.embedding_mse!r}, not 0")
            if is_cst and r.delta_measured != 0.0:
                errors.append(f"delta_measured at fraction 1.0 is {r.delta_measured!r}, not 0")
        key = {"mae": [r.mae for r in report.rows]}
        return errors, key

    def check_pass(self, results):
        return {}, {}


class FeaturizeCsv:
    """Four `covscatter` commands through `cli.main`, in-process; one operation is one command.

    The inputs are written by `covscatter synth` during set-up, so the
    command's data CSV writer is timed as set-up.
    """

    name = "featurize-csv"

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        workdir = Path(workdir)
        self.brain = workdir / "brain" / "data.csv"
        self.tall = workdir / "tall" / "data.csv"
        for path, t in ((self.brain, T_BRAIN), (self.tall, T_TALL)):
            argv = ["synth", "--out", str(path.parent), "--seed", str(seed), "--n", str(N_FEATURES),
                    "--t", str(t), "--tail", str(TAIL), "--noise", str(NOISE)]
            code = self._main(argv)
            if code != 0:
                raise RuntimeError(f"covscatter {' '.join(argv)} exited {code}")
        self.commands = {
            "transform-identity": (
                ["transform", "--data", str(self.brain), "--family", "diffusion", "--j", "4", "--l", "3",
                 "--tau", "0.1", "--aggregation", "identity"],
                T_BRAIN,
            ),
            "transform-mean": (
                ["transform", "--data", str(self.tall), "--family", "hann", "--aggregation", "mean"],
                T_TALL,
            ),
            "pca": (["pca", "--data", str(self.tall), "--k", "10"], T_TALL),
            # the two tall commands take about as long as each other; with this
            # short fourth command op_p50_ms is their mean and does not flip between them
            "pca-brain": (["pca", "--data", str(self.brain), "--k", "10"], T_BRAIN),
        }

    def _main(self, argv):
        try:
            return self.cs.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code

    def operations(self):
        return [(label, functools.partial(self._run, argv)) for label, (argv, _) in self.commands.items()]

    def _run(self, argv, outdir):
        return {"code": self._main(argv + ["--out", str(outdir)]), "outdir": str(outdir)}

    def check(self, label, result):
        import numpy as np

        if result["code"] != 0:
            return [f"exit code {result['code']}"], {}
        outdir = Path(result["outdir"])
        is_pca = label.startswith("pca")
        stem = "pca" if is_pca else "features"
        provenance = _read_provenance(outdir / f"{stem}.provenance.txt")
        values = np.loadtxt(outdir / f"{stem}.csv", delimiter=",", skiprows=1, ndmin=2)
        with (outdir / f"{stem}.csv").open() as handle:
            header = handle.readline().rstrip("\n").split(",")
        errors = []
        key = {}
        if is_pca:
            width = int(provenance["k"])
            key["eigenvalues"] = [float(v) for v in provenance["eigenvalues"].split(",")[:width]]
        else:
            paths = provenance["retained_paths"].split(";")
            width = len(paths) * (N_FEATURES if provenance["aggregation"] == "identity" else 1)
            key["retained_paths"] = provenance["retained_paths"]
        expected = (self.commands[label][1], width)
        if values.shape != expected or len(header) != width:
            errors.append(f"output shape {values.shape} with {len(header)} header cells, expected {expected}")
        if not np.all(np.isfinite(values)):
            errors.append("output holds non-finite values")
        key["sum_sq"] = float(np.sum(values * values))
        return errors, key

    def check_pass(self, results):
        return {}, {}


def _read_provenance(path):
    out = {}
    for line in Path(path).read_text().splitlines():
        k, sep, v = line.partition("=")
        if sep:
            out[k.strip()] = v.strip()
    return out


class GridDeep:
    """`harness.grid_search` once per (J, L, operator) with a one-point grid each.

    One operation is one configuration; the overall best of the rows is then
    chosen with `grid_search`'s own tie rule.
    """

    name = "grid-deep"
    j_values = (4, 7)
    l_values = (3, 4)
    alphas = (1.0, 10.0, 100.0, 200.0)

    def __init__(self, cs, seed, workdir):
        self.cs = cs
        dataset = _synth(cs, seed, T_BRAIN)
        self.data, self.targets = dataset.data, dataset.targets
        self.split = _split(cs, seed)
        self.base = cs.scattering.CstConfig(cs.wavelets.Diffusion(), J=4, L=2, tau=0.0)
        self.configs = {
            f"J{j}-L{layers}-{kind}": (j, layers, kind)
            for j in self.j_values
            for layers in self.l_values
            for kind in cs.spectral.OPERATOR_KINDS
        }

    def operations(self):
        return [(label, functools.partial(self._run, cfg)) for label, cfg in self.configs.items()]

    def _run(self, config, outdir):
        j, layers, kind = config
        rows, _ = self.cs.harness.grid_search(
            self.data, self.targets, self.base, [j], [layers], [kind], self.alphas, self.split
        )
        return rows

    def check(self, label, rows):
        j, layers, kind = self.configs[label]
        errors = []
        got = [(r.J, r.L, r.operator, r.alpha) for r in rows]
        expected = [(j, layers, kind, a) for a in self.alphas]
        if got != expected:
            errors.append(f"rows {got} != expected {expected}")
        if not all(_finite(r.valid_mae) for r in rows):
            errors.append("non-finite valid_mae")
        key = {
            "valid_mae": [r.valid_mae for r in rows],
            "feature_count": [r.feature_count for r in rows],
        }
        return errors, key

    def check_pass(self, results):
        """Overall best over every row of the pass, by `grid_search`'s tie rule."""
        rows = [(label, r) for label, result in results.items() if result is not None for r in result]
        errors = {}
        if len(rows) != len(self.configs) * len(self.alphas):
            errors = {label: [f"pass has {len(rows)} rows"] for label in results}
            return errors, {}
        label, best = min(
            rows, key=lambda lr: (lr[1].valid_mae, lr[1].feature_count, lr[1].J, lr[1].L, lr[1].operator, lr[1].alpha)
        )
        return errors, {"best": f"{label}-alpha{best.alpha!r}", "best_valid_mae": best.valid_mae}


WORKLOADS = {w.name: w for w in (StabilityBrain, FeaturizeCsv, GridDeep)}


def compare(key, reference):
    """Errors where ``key`` differs from ``reference``: floats by RTOL, all else exactly."""
    errors = []
    for name in sorted(set(key) | set(reference)):
        if name not in key or name not in reference:
            errors.append(f"{name}: missing from {'result' if name not in key else 'reference'}")
            continue
        got, want = key[name], reference[name]
        pairs = list(zip(got, want)) if isinstance(want, list) else [(got, want)]
        if isinstance(want, list) and len(got) != len(want):
            errors.append(f"{name}: {len(got)} values, reference has {len(want)}")
            continue
        for g, w in pairs:
            if isinstance(w, float):
                ok = isinstance(g, float) and abs(g - w) <= RTOL * abs(w)
            else:
                ok = g == w
            if not ok:
                errors.append(f"{name}: {got!r} differs from reference {want!r}")
                break
    return errors
