"""Command-line surface.

Commands: synth, transform, pca, stability, prune-sweep, labeled-sweep,
bounds, grid-search. A flat ``key = value`` config file (see docs/config.md)
can pre-set any flag of a command; flags given on the command line win.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, harness, io
from . import bounds as bounds_mod
from .errors import ConfigError, CovScatterError, InvalidData
from .readout import pca_fit, pca_transform
from .scattering import (
    AGGREGATIONS,
    CstConfig,
    cst_fit,
    cst_transform_batch,
    decide_layout,
    feature_column_names,
    path_name,
)
from .spectral import NORMALIZED, OPERATOR_KINDS, sample_covariance, sample_slices
from .synthdata import SynthSpec, synth_generate
from .wavelets import FAMILY_NAMES, Diffusion, Hann, Monic


def _comma_floats(text):
    return [float(part) for part in text.split(",") if part.strip()]


def _comma_ints(text):
    return [int(part) for part in text.split(",") if part.strip()]


def _comma_strings(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_family(name, args):
    if name == "diffusion":
        return Diffusion()
    if name == "hann":
        return Hann(R=args.hann_r, warp=not args.no_warp)
    return Monic(alpha=args.monic_alpha, beta=args.monic_beta, K=args.monic_k)


# samples per followed chunk of `transform`. A multiple of 64 starts every
# chunk on the GEMM's column blocking, so the chunks give the bits of one
# whole-batch pass; some other widths move entries in their last bits
_TRANSFORM_CHUNK = 256

# what --j, --l and --operator default to; grid-search, whose grids set them,
# keeps these in the base config it hands the search
_DEFAULT_J, _DEFAULT_L = 4, 2


def _build_config(args, family=None):
    """The config of the family flags; one a command does not take keeps its default.

    ``family`` names the kernel family where the command takes no ``--family``.
    """
    given = vars(args)
    return CstConfig(
        family=_build_family(family or args.family, args),
        J=given.get("j", _DEFAULT_J),
        L=given.get("l", _DEFAULT_L),
        operator_kind=given.get("operator", NORMALIZED),
        gamma_override=args.gamma,
        **{key: given[key] for key in ("tau", "aggregation") if key in given},
    )


def _add_family_flags(parser, without=()):
    """The transform's flags, less those in ``without``, which the command's run sets itself."""

    def add(flag, **kwargs):
        if flag not in without:
            parser.add_argument(f"--{flag}", **kwargs)

    add("family", choices=sorted(FAMILY_NAMES), default="diffusion")
    add("j", type=int, default=_DEFAULT_J, help="number of kernels")
    add("l", type=int, default=_DEFAULT_L, help="number of layers")
    add("tau", type=float, default=0.0, help="pruning threshold")
    add("aggregation", choices=list(AGGREGATIONS), default="identity")
    add("operator", choices=list(OPERATOR_KINDS), default=NORMALIZED)
    add("gamma", type=float, default=None, help="override the family default")
    add("hann-r", type=float, default=3.0)
    add("no-warp", action="store_true", help="disable Hann spectral warping")
    add("monic-alpha", type=float, default=2.0)
    add("monic-beta", type=float, default=2.0)
    add("monic-k", type=float, default=20.0)


def _add_split_flags(parser, sweeps_train=False):
    """The train, valid and test fractions; a sweep over the train fraction takes the last two."""
    if not sweeps_train:
        parser.add_argument("--train-frac", type=float, default=0.1)
    parser.add_argument("--valid-frac", type=float, default=0.2)
    parser.add_argument("--test-frac", type=float, default=0.2)


def _load_dataset(args):
    return io.read_data_csv(args.data), io.read_targets_csv(args.targets)


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_provenance(args, path, derived=None):
    """Write the run's resolved flags, then ``[derived]`` and what the run computed.

    The flags are keyed by flag name, in the form ``--config`` reads back.
    ``out`` is left out: where a run writes is not one of its settings, so two
    identical runs write identical provenance. Unset optional flags are left
    out. The derived facts end with what the bytes depend on beyond the
    settings: the library versions, the BLAS numpy was built with, the
    BLAS thread variables (``unset`` when absent) and the CPU count.
    """
    settings = {}
    for dest, value in vars(args).items():
        if dest in ("command", "func", "config", "out") or value is None:
            continue
        settings[dest.replace("_", "-")] = value
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "covscatter": __version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        **{
            variable: os.environ.get(variable, "unset")
            for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "cpu_count": os.cpu_count(),
    }
    io.write_provenance(path, settings, {**(derived or {}), **environment})


def _spectrum_facts(cov):
    """The fit covariance's largest eigenvalue ``w1`` and its smallest eigengap ``eigengap_min``."""
    eigenvalues = cov.decomposition.eigenvalues
    return {"w1": eigenvalues[0], "eigengap_min": np.min(eigenvalues[:-1] - eigenvalues[1:])}


def _split_spec(args):
    """The one derivation of the unlabeled fraction: what train, valid and test leave.

    ``labeled-sweep``'s train fraction is 0, as its sweep sets it. A remainder
    within 1e-9 below zero is rounding; a larger overshoot is a ConfigError.
    """
    train = vars(args).get("train_frac", 0.0)
    labeled = train + args.valid_frac + args.test_frac
    unlabeled = 1.0 - labeled  # one subtraction: the defaults leave exactly 0.5
    if unlabeled < -1e-9:
        raise ConfigError(f"split fractions sum to {labeled}, more than 1")
    return harness.SplitSpec(max(unlabeled, 0.0), train, args.valid_frac, args.test_frac, args.seed)


def _methods_from_flags(args):
    methods = []
    for name in dict.fromkeys(args.families):  # a repeated family counts once
        if name not in FAMILY_NAMES:
            raise ConfigError(f"unknown family {name!r}")
        methods.append(harness.CstMethod(f"{name}-cst", _build_config(args, name), args.alpha))
    if args.pca_k is not None:
        methods.append(harness.PcaMethod(name="pca", k=args.pca_k, alpha=args.alpha))
    if args.raw:
        methods.append(harness.RawMethod(name="raw", alpha=args.alpha))
    if not methods:
        raise ConfigError("no methods selected")
    return methods


def _write_report(args, stem, rows, columns, derived=None):
    """Write ``<stem>.csv``, one line of ``columns`` per row, and ``<stem>.provenance.txt``
    with ``derived`` first under ``[derived]``.

    Called once the run has succeeded; prints the CSV's row count, returns the output directory.
    """
    out = _out_dir(args)
    report = out / f"{stem}.csv"
    io.write_rows_csv(report, columns, [[getattr(row, c) for c in columns] for row in rows])
    _write_provenance(args, out / f"{stem}.provenance.txt", derived)
    print(f"wrote {report} ({len(rows)} rows)")
    return out


# ---------------------------------------------------------------------------
# commands


def _cmd_synth(args):
    spec = SynthSpec(
        n_features=args.n,
        n_samples=args.t,
        tail=args.tail,
        effective_rank=args.effective_rank,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    dataset = synth_generate(spec)
    out = _out_dir(args)
    io.write_data_csv(out / "data.csv", dataset.data)
    io.write_targets_csv(out / "targets.csv", dataset.targets)
    _write_provenance(args, out / "provenance.txt")
    print(f"wrote {out / 'data.csv'} and {out / 'targets.csv'}")
    return 0


def _cmd_transform(args):
    data = io.read_data_csv(args.data)
    config = _build_config(args)
    cov = sample_covariance(data)
    model = cst_fit(cov, config)
    decision = decide_layout(model, data.values)
    header = feature_column_names(decision.paths, model.feature_width)
    # every check has run: the followed pass is written chunk by chunk, so no
    # (samples x features) matrix is held
    chunks = (
        cst_transform_batch(model, data.values[:, i : i + _TRANSFORM_CHUNK], decision.paths)
        for i in range(0, data.n_samples, _TRANSFORM_CHUNK)
    )
    out = _out_dir(args)
    io.write_matrix_csv(out / "features.csv", header, itertools.chain.from_iterable(chunks))
    derived = model.filterbank.provenance()
    derived["retained_paths"] = ";".join(path_name(p) for p in decision.paths)
    derived["pruned_paths"] = ";".join(
        f"{path_name(p)}:{ratio!r}" for p, ratio in decision.pruned.items()
    )
    derived["retained_per_layer"] = bounds_mod.layer_counts(model, decision.paths)
    derived["pruned_per_layer"] = bounds_mod.layer_counts(model, decision.pruned)
    derived.update(_spectrum_facts(cov))
    _write_provenance(args, out / "features.provenance.txt", derived)
    print(f"wrote {out / 'features.csv'} ({len(header)} columns)")
    return 0


def _cmd_pca(args):
    data = io.read_data_csv(args.data)
    cov = sample_covariance(data)
    model = pca_fit(cov, args.k)
    # projected and written one slice at a time, so no (samples x k) matrix is held
    chunks = (pca_transform(model, data.values[:, part]).T for part in sample_slices(data.n_samples))
    out = _out_dir(args)
    header = [f"pc{i + 1}" for i in range(args.k)]
    io.write_matrix_csv(out / "pca.csv", header, itertools.chain.from_iterable(chunks))
    derived = {"eigenvalues": cov.decomposition.eigenvalues, **_spectrum_facts(cov)}
    _write_provenance(args, out / "pca.provenance.txt", derived)
    print(f"wrote {out / 'pca.csv'}")
    return 0


def _cmd_stability(args):
    data, targets = _load_dataset(args)
    report = harness.run_stability(
        data,
        targets,
        _methods_from_flags(args),
        _split_spec(args),
        subsample_fracs=args.fractions,
        seeds=list(range(args.runs)),
        include_bounds=args.bounds,
    )
    failed = {"failed_rows": sum(row.status == "failed" for row in report.rows)}
    out = _write_report(args, "stability", report.rows, report.header(), failed)
    if args.plotdata:
        for metric in ("mae", "embedding_mse"):
            header = ["x", "series", "y", "y_lo", "y_hi"]
            io.write_rows_csv(out / f"stability_{metric}.plotdata", header, report.plotdata(metric))
    return 0


def _cmd_prune_sweep(args):
    data, targets = _load_dataset(args)
    method = harness.CstMethod(name="cst", config=_build_config(args), alpha=args.alpha)
    seeds = list(range(args.seed, args.seed + args.runs))
    rows = harness.run_pruning_sweep(data, targets, method, args.taus, _split_spec(args), seeds)
    _write_report(args, "pruning", rows, harness.columns(harness.PruningRow))
    return 0


def _cmd_labeled_sweep(args):
    data, targets = _load_dataset(args)
    config = _build_config(args)
    methods = [
        harness.CstMethod(
            f"cst-{aggregation}", dataclasses.replace(config, aggregation=aggregation), args.alpha
        )
        for aggregation in AGGREGATIONS
    ]
    if args.pca_k is not None:
        methods.append(harness.PcaMethod(name="pca", k=args.pca_k, alpha=args.alpha))
    methods.append(harness.RawMethod(name="raw", alpha=args.alpha))
    seeds = list(range(args.seed, args.seed + args.runs))
    rows = harness.run_labeled_sweep(
        data, targets, methods, args.train_fracs, _split_spec(args), seeds
    )
    _write_report(args, "labeled", rows, harness.columns(harness.LabeledRow))
    return 0


def _cmd_bounds(args):
    data = io.read_data_csv(args.data)
    cov = sample_covariance(data)
    model = cst_fit(cov, _build_config(args))
    if args.k_max is not None:
        k_max = args.k_max
    else:
        k_max = bounds_mod.estimate_kmax(data, cov.decomposition)
        if not np.isfinite(k_max):
            raise InvalidData("k_max estimated from the data overflows float64; pass --k-max")
    constants = bounds_mod.BoundConstants(
        Q=args.q, G=args.g, k_max=k_max, epsilon=args.epsilon, u=args.u
    )
    rows = bounds_mod.bound_table(cov, model, constants, args.pca_k)
    out = _out_dir(args)
    io.write_rows_csv(out / "bounds.csv", ["quantity", "value"], rows)
    _write_provenance(args, out / "bounds.provenance.txt", _spectrum_facts(cov))
    print(f"wrote {out / 'bounds.csv'}")
    return 0


def _cmd_grid_search(args):
    data, targets = _load_dataset(args)
    base = _build_config(args)
    rows, best = harness.grid_search(
        data,
        targets,
        base,
        args.grid_j,
        args.grid_l,
        args.grid_operators,
        args.grid_alpha,
        _split_spec(args),
    )
    _write_report(args, "grid", rows, harness.columns(harness.GridRow))
    print(
        f"best: J={best.J} L={best.L} operator={best.operator} alpha={best.alpha} "
        f"valid_mae={best.valid_mae:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


class _Command(argparse.ArgumentParser):
    """One command's parser; ``flags`` maps each flag's dest to the action ``add_argument`` made."""

    def __init__(self, *args, **kwargs):
        self.flags = {}  # first: ArgumentParser.__init__ adds --help through add_argument
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.flags[action.dest] = action
        return action


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covscatter",
        description="Covariance wavelet scattering transforms and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command)
    parser.commands = sub.choices  # the registry: each command's _Command, by name

    def command(name, help):
        # exact flag names only: ``--conf`` must not pass for ``--config``, which
        # _apply_config_file reads from argv before argparse sees it
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p, data=True, targets=False, seed=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="key=value config file")
        if data:
            p.add_argument("--data", required=True, help="data CSV")
        if targets:
            p.add_argument("--targets", required=True, help="targets CSV")
        if seed:
            p.add_argument("--seed", type=int, required=True)

    p = command("synth", "generate a synthetic dataset")
    common(p, data=False, seed=True)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--t", type=int, default=1000)
    p.add_argument("--tail", type=float, default=0.5)
    p.add_argument("--effective-rank", type=float, default=None)
    p.add_argument("--noise", type=float, default=0.1)
    p.set_defaults(func=_cmd_synth)

    p = command("transform", "scatter a dataset into features")
    common(p)
    _add_family_flags(p)
    p.set_defaults(func=_cmd_transform)

    p = command("pca", "PCA-project a dataset")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_pca)

    p = command("stability", "covariance-perturbation stability experiment")
    common(p, targets=True, seed=True)
    # the protocol never prunes, and --families names the families
    _add_family_flags(p, without=("tau", "family"))
    _add_split_flags(p)
    p.add_argument("--families", type=_comma_strings, default=["diffusion", "hann", "monic"])
    p.add_argument("--pca-k", type=int, default=None)
    p.add_argument("--raw", action="store_true", help="include the raw-feature baseline")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument(
        "--fractions", type=_comma_floats, default=list(harness.DEFAULT_SUBSAMPLE_FRACS)
    )
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--bounds", action="store_true", help="add measured-bound columns")
    p.add_argument("--plotdata", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = command("prune-sweep", "pruning-threshold sweep")
    common(p, targets=True, seed=True)
    _add_family_flags(p, without=("tau",))  # --taus sets it
    _add_split_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--taus", type=_comma_floats, default=[0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7])
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=_cmd_prune_sweep)

    p = command("labeled-sweep", "labeled-set-size sweep")
    common(p, targets=True, seed=True)
    _add_family_flags(p, without=("aggregation",))  # both aggregations always run
    _add_split_flags(p, sweeps_train=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--pca-k", type=int, default=None)
    p.add_argument(
        "--train-fracs", type=_comma_floats, default=[0.006, 0.01, 0.05, 0.1, 0.2, 0.4]
    )
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=_cmd_labeled_sweep)

    p = command("bounds", "evaluate the stability-bound formulas")
    common(p)
    _add_family_flags(p, without=("tau",))  # no bound reads it
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--k-max", type=float, default=None, help="skip the plug-in estimate")
    p.add_argument("--pca-k", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = command("grid-search", "grid search over transform configurations")
    common(p, targets=True, seed=True)
    _add_family_flags(p, without=("j", "l", "operator"))  # the grids set them
    _add_split_flags(p)
    p.add_argument("--grid-j", type=_comma_ints, default=[4, 5, 6, 7])
    p.add_argument("--grid-l", type=_comma_ints, default=[2, 3, 4])
    p.add_argument("--grid-operators", type=_comma_strings, default=list(OPERATOR_KINDS))
    p.add_argument("--grid-alpha", type=_comma_floats, default=[1.0, 10.0, 100.0, 200.0])
    p.set_defaults(func=_cmd_grid_search)

    return parser


_CONFIG_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _config_value(path, key, raw, action):
    """Parse one config value as its flag's argument would be: type, then choices."""
    if action.nargs == 0:  # a boolean flag
        if raw not in _CONFIG_BOOLEANS:
            raise ConfigError(
                f"{path}: config key {key!r} takes true/false/1/0/yes/no, got {raw!r}"
            )
        return _CONFIG_BOOLEANS[raw]
    try:
        value = raw if action.type is None else action.type(raw)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ConfigError(f"{path}: invalid value {raw!r} for config key {key!r}") from None
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise ConfigError(
            f"{path}: config key {key!r} must be one of {choices}, got {raw!r}"
        )
    return value


def _apply_config_file(parser, argv):
    """Inject config-file values as parser defaults; flags still win.

    The file is named by ``--config PATH`` or ``--config=PATH``; as with any
    flag, the last one given counts.
    """
    path = None
    for idx, token in enumerate(argv):
        if token == "--config" and idx + 1 < len(argv):
            path = argv[idx + 1]
        elif token.startswith("--config="):
            path = token[len("--config="):]
    if path is None:
        return
    values = io.read_keyvalue(path)
    command = argv[0]
    sub = parser.commands.get(command)
    if sub is None:
        return
    defaults = {}
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest not in sub.flags or dest in ("help", "config"):
            raise ConfigError(f"{path}: unknown config key {key!r} for command {command!r}")
        defaults[dest] = _config_value(path, key, raw, sub.flags[dest])
        # a required flag the config file satisfies must not be re-demanded
        sub.flags[dest].required = False
    sub.set_defaults(**defaults)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CovScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
