"""Command-line surface.

Commands: synth, transform, pca, stability, prune-sweep, labeled-sweep,
bounds, grid-search. A flat ``key = value`` config file (see docs/config.md)
can pre-set any flag of a command; flags given on the command line win.
Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import harness, io
from .errors import ConfigError, CovScatterError
from .readout import pca_fit, pca_transform
from .scattering import (
    CstConfig,
    cst_fit,
    cst_transform_batch,
    feature_count,
    path_name,
)
from .spectral import NORMALIZED, OPERATOR_KINDS, eig_sym, sample_covariance
from .synthdata import SynthSpec, synth_generate
from .wavelets import FAMILY_NAMES, Diffusion, Hann, Monic, family_name


def _comma_floats(text):
    return [float(part) for part in text.split(",") if part.strip()]


def _comma_ints(text):
    return [int(part) for part in text.split(",") if part.strip()]


def _comma_strings(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _build_family(args):
    if args.family == "diffusion":
        return Diffusion()
    if args.family == "hann":
        return Hann(R=args.hann_r, warp=not args.no_warp)
    return Monic(alpha=args.monic_alpha, beta=args.monic_beta, K=args.monic_k)


def _build_config(args, tau=None, aggregation=None):
    return CstConfig(
        family=_build_family(args),
        J=args.j,
        L=args.l,
        tau=args.tau if tau is None else tau,
        aggregation=args.aggregation if aggregation is None else aggregation,
        operator_kind=args.operator,
        gamma_override=args.gamma,
    )


def _add_family_flags(parser, tau_default=0.0):
    parser.add_argument("--family", choices=sorted(FAMILY_NAMES), default="diffusion")
    parser.add_argument("--j", type=int, default=4, help="number of kernels")
    parser.add_argument("--l", type=int, default=2, help="number of layers")
    parser.add_argument("--tau", type=float, default=tau_default, help="pruning threshold")
    parser.add_argument("--aggregation", choices=["identity", "mean"], default="identity")
    parser.add_argument("--operator", choices=list(OPERATOR_KINDS), default=NORMALIZED)
    parser.add_argument("--gamma", type=float, default=None, help="override the family default")
    parser.add_argument("--hann-r", type=float, default=3.0)
    parser.add_argument("--no-warp", action="store_true", help="disable Hann spectral warping")
    parser.add_argument("--monic-alpha", type=float, default=2.0)
    parser.add_argument("--monic-beta", type=float, default=2.0)
    parser.add_argument("--monic-k", type=float, default=20.0)


def _add_split_flags(parser):
    parser.add_argument("--unlabeled-frac", type=float, default=0.5)
    parser.add_argument("--train-frac", type=float, default=0.1)
    parser.add_argument("--valid-frac", type=float, default=0.2)
    parser.add_argument("--test-frac", type=float, default=0.2)


def _load_dataset(args, need_targets=True):
    data = io.read_data_csv(args.data)
    targets = None
    if need_targets:
        if not args.targets:
            raise ConfigError("--targets is required for this command")
        targets = io.read_targets_csv(args.targets)
        if targets.shape[0] != data.n_samples:
            raise ConfigError(
                f"{targets.shape[0]} targets for {data.n_samples} observations"
            )
    return data, targets


def _out_dir(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_provenance(config, gamma=None):
    out = {
        "family": family_name(config.family),
        "J": config.J,
        "L": config.L,
        "tau": config.tau,
        "aggregation": config.aggregation,
        "operator": config.operator_kind,
    }
    if gamma is not None:
        out["gamma"] = gamma
    return out


def _run_provenance(args):
    """The run's resolved flags, keyed by flag name, in the form ``--config`` reads back.

    ``out`` is left out: where a run writes is not one of its settings, so two
    identical runs write identical provenance. Unset optional flags are left out.
    """
    provenance = {}
    for dest, value in vars(args).items():
        if dest in ("command", "func", "config", "out") or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(io.format_value(v) for v in value)
        provenance[dest.replace("_", "-")] = value
    return provenance


def _methods_from_flags(args):
    methods = []
    for name in args.families:
        if name not in FAMILY_NAMES:
            raise ConfigError(f"unknown family {name!r}")
        ns = argparse.Namespace(**vars(args))
        ns.family = name
        methods.append(
            harness.CstMethod(
                name=f"{name}-cst", config=_build_config(ns, tau=0.0), alpha=args.alpha
            )
        )
    if args.pca_k:
        methods.append(harness.PcaMethod(name="pca", k=args.pca_k, alpha=args.alpha))
    if args.raw:
        methods.append(harness.RawMethod(name="raw", alpha=args.alpha))
    if not methods:
        raise ConfigError("no methods selected")
    return methods


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
    io.write_provenance(
        out / "provenance.txt",
        {
            "command": "synth",
            "n_features": spec.n_features,
            "n_samples": spec.n_samples,
            "tail": spec.tail,
            "effective_rank": spec.nu,
            "noise_sigma": spec.noise_sigma,
            "seed": spec.seed,
        },
    )
    print(f"wrote {out / 'data.csv'} and {out / 'targets.csv'}")
    return 0


def _cmd_transform(args):
    data, _ = _load_dataset(args, need_targets=False)
    config = _build_config(args)
    model = cst_fit(sample_covariance(data), config)
    features = cst_transform_batch(model, data)
    out = _out_dir(args)
    io.write_features_csv(out / "features.csv", features)
    provenance = _config_provenance(config, gamma=model.gamma)
    provenance.update(model.filterbank.provenance())
    provenance["retained_paths"] = ";".join(path_name(p) for p in features.layout)
    provenance["pruned_paths"] = ";".join(
        f"{path_name(p)}:{ratio!r}" for p, ratio in sorted(features.pruned.items())
    )
    io.write_provenance(out / "features.provenance.txt", provenance)
    print(f"wrote {out / 'features.csv'} ({features.matrix.shape[1]} columns)")
    return 0


def _cmd_pca(args):
    data, _ = _load_dataset(args, need_targets=False)
    cov = sample_covariance(data)
    model = pca_fit(cov, args.k)
    embedded = pca_transform(model, data.values).T
    out = _out_dir(args)
    io.write_matrix_csv(out / "pca.csv", [f"pc{i + 1}" for i in range(args.k)], embedded)
    io.write_provenance(
        out / "pca.provenance.txt",
        {
            "command": "pca",
            "k": args.k,
            "eigenvalues": ",".join(repr(float(w)) for w in model.source_eigenvalues),
        },
    )
    print(f"wrote {out / 'pca.csv'}")
    return 0


def _cmd_stability(args):
    data, targets = _load_dataset(args)
    split = harness.SplitSpec(
        args.unlabeled_frac, args.train_frac, args.valid_frac, args.test_frac, args.seed
    )
    report = harness.run_stability(
        data,
        targets,
        _methods_from_flags(args),
        split,
        subsample_fracs=args.fractions,
        seeds=list(range(args.runs)),
        include_bounds=args.bounds,
    )
    out = _out_dir(args)
    io.write_rows_csv(out / "stability.csv", report.header(), report.table())
    io.write_provenance(out / "stability.provenance.txt", _run_provenance(args))
    if args.plotdata:
        _write_plotdata(out, report)
    print(f"wrote {out / 'stability.csv'} ({len(report.rows)} rows)")
    return 0


def _write_plotdata(out, report):
    by_series = {}
    for row in report.rows:
        if row.status != "ok":
            continue
        by_series.setdefault((row.method, row.fraction), []).append(row)
    for metric in ("mae", "embedding_mse"):
        lines = []
        for (method, fraction), rows in sorted(by_series.items()):
            values = np.array([getattr(r, metric) for r in rows])
            lines.append(
                [
                    fraction,
                    method,
                    float(np.median(values)),
                    float(np.quantile(values, 0.25)),
                    float(np.quantile(values, 0.75)),
                ]
            )
        io.write_rows_csv(
            out / f"stability_{metric}.plotdata", ["x", "series", "y", "y_lo", "y_hi"], lines
        )


def _cmd_prune_sweep(args):
    data, targets = _load_dataset(args)
    split = harness.SplitSpec(
        args.unlabeled_frac, args.train_frac, args.valid_frac, args.test_frac, args.seed
    )
    method = harness.CstMethod(name="cst", config=_build_config(args), alpha=args.alpha)
    rows = harness.run_pruning_sweep(
        data, targets, method, args.taus, split, seeds=list(range(args.runs))
    )
    out = _out_dir(args)
    io.write_rows_csv(
        out / "pruning.csv",
        harness.PRUNING_HEADER,
        [[r.tau, r.seed, r.mae, r.transform_time, r.feature_count] for r in rows],
    )
    io.write_provenance(out / "pruning.provenance.txt", _run_provenance(args))
    print(f"wrote {out / 'pruning.csv'} ({len(rows)} rows)")
    return 0


def _cmd_labeled_sweep(args):
    data, targets = _load_dataset(args)
    split = harness.SplitSpec(
        args.unlabeled_frac, args.train_frac, args.valid_frac, args.test_frac, args.seed
    )
    methods = [
        harness.CstMethod(
            name="cst-identity", config=_build_config(args, aggregation="identity"), alpha=args.alpha
        ),
        harness.CstMethod(
            name="cst-mean", config=_build_config(args, aggregation="mean"), alpha=args.alpha
        ),
    ]
    if args.pca_k:
        methods.append(harness.PcaMethod(name="pca", k=args.pca_k, alpha=args.alpha))
    methods.append(harness.RawMethod(name="raw", alpha=args.alpha))
    rows = harness.run_labeled_sweep(
        data, targets, methods, args.train_fracs, split, seeds=list(range(args.runs))
    )
    out = _out_dir(args)
    io.write_rows_csv(
        out / "labeled.csv",
        harness.LABELED_HEADER,
        [
            [
                r.method,
                r.train_frac,
                r.seed,
                r.status,
                "" if r.mae is None else r.mae,
                "" if r.feature_width is None else r.feature_width,
            ]
            for r in rows
        ],
    )
    io.write_provenance(out / "labeled.provenance.txt", _run_provenance(args))
    print(f"wrote {out / 'labeled.csv'} ({len(rows)} rows)")
    return 0


def _cmd_bounds(args):
    data, _ = _load_dataset(args, need_targets=False)
    config = _build_config(args)
    cov = sample_covariance(data)
    decomposition = eig_sym(cov.matrix)
    model = cst_fit(cov, config)
    k_max = (
        args.k_max
        if args.k_max is not None
        else bounds_mod.estimate_kmax(data, decomposition)
    )
    constants = bounds_mod.BoundConstants(
        Q=args.q, G=args.g, k_max=k_max, epsilon=args.epsilon, u=args.u
    )
    w1 = float(decomposition.eigenvalues[0])
    deltas = [
        bounds_mod.wavelet_delta(
            float(p), data.n_features, data.n_samples, constants, model.gamma, w1, w1
        )
        for p in model.filterbank.lipschitz
    ]
    counts = [config.J**ell for ell in range(1, config.L)]
    rows = [
        ["k_max", k_max],
        ["probability", bounds_mod.bound_probability(constants)],
        ["frame_lower", model.filterbank.frame_lower],
        ["frame_upper", model.filterbank.frame_upper],
    ]
    rows += [[f"lipschitz_{j}", float(p)] for j, p in enumerate(model.filterbank.lipschitz)]
    rows += [[f"wavelet_delta_{j}", d] for j, d in enumerate(deltas)]
    rows.append(
        [
            "cst_stability_bound_unit_signal",
            bounds_mod.cst_stability_bound(
                max(deltas),
                model.filterbank.frame_upper,
                model.aggregation_norm_bound,
                1.0,
                counts,
                config.L,
            ),
        ]
    )
    rows.append(
        [
            "signal_stability_bound_unit_perturbation",
            bounds_mod.signal_stability_bound(
                model.filterbank.frame_upper,
                model.aggregation_norm_bound,
                1.0,
                [config.J**ell for ell in range(config.L)],
                config.L,
            ),
        ]
    )
    if args.pca_k:
        rows.append(["pca_gap_scale", bounds_mod.pca_gap_scale(decomposition.eigenvalues, args.pca_k)])
    out = _out_dir(args)
    io.write_rows_csv(out / "bounds.csv", ["quantity", "value"], rows)
    io.write_provenance(out / "bounds.provenance.txt", _run_provenance(args))
    print(f"wrote {out / 'bounds.csv'}")
    return 0


def _cmd_grid_search(args):
    data, targets = _load_dataset(args)
    split = harness.SplitSpec(
        args.unlabeled_frac, args.train_frac, args.valid_frac, args.test_frac, args.seed
    )
    base = _build_config(args)
    rows, best = harness.grid_search(
        data,
        targets,
        base,
        args.grid_j,
        args.grid_l,
        args.grid_operators,
        args.grid_alpha,
        split,
    )
    out = _out_dir(args)
    io.write_rows_csv(
        out / "grid.csv",
        harness.GRID_HEADER,
        [
            [r.family, r.J, r.L, r.operator, r.alpha, r.valid_mae, r.feature_count, r.selected]
            for r in rows
        ],
    )
    io.write_provenance(out / "grid.provenance.txt", _run_provenance(args))
    print(
        f"best: J={best.J} L={best.L} operator={best.operator} alpha={best.alpha} "
        f"valid_mae={best.valid_mae:.6g}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covscatter",
        description="Covariance wavelet scattering transforms and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        # exact flag names only: ``--conf`` must not pass for ``--config``, which
        # _apply_config_file reads from argv before argparse sees it
        return sub.add_parser(name, help=help, allow_abbrev=False)

    def common(p, data=True, targets=False, seed=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="key=value config file")
        if data:
            p.add_argument("--data", required=True, help="data CSV")
            p.add_argument("--targets", default=None, help="targets CSV")
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
    common(p, seed=True)
    _add_family_flags(p)
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
    common(p, seed=True)
    _add_family_flags(p)
    _add_split_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--taus", type=_comma_floats, default=[0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7])
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=_cmd_prune_sweep)

    p = command("labeled-sweep", "labeled-set-size sweep")
    common(p, seed=True)
    _add_family_flags(p)
    _add_split_flags(p)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--pca-k", type=int, default=None)
    p.add_argument(
        "--train-fracs", type=_comma_floats, default=[0.006, 0.01, 0.05, 0.1, 0.2, 0.4]
    )
    p.add_argument("--runs", type=int, default=10)
    p.set_defaults(func=_cmd_labeled_sweep)

    p = command("bounds", "evaluate the stability-bound formulas")
    common(p)
    _add_family_flags(p)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--u", type=float, default=1.0)
    p.add_argument("--k-max", type=float, default=None, help="skip the plug-in estimate")
    p.add_argument("--pca-k", type=int, default=None)
    p.set_defaults(func=_cmd_bounds)

    p = command("grid-search", "grid search over transform configurations")
    common(p, seed=True)
    _add_family_flags(p)
    _add_split_flags(p)
    p.add_argument("--grid-j", type=_comma_ints, default=[4, 5, 6, 7])
    p.add_argument("--grid-l", type=_comma_ints, default=[2, 3, 4])
    p.add_argument("--grid-operators", type=_comma_strings, default=list(OPERATOR_KINDS))
    p.add_argument("--grid-alpha", type=_comma_floats, default=[1.0, 10.0, 100.0, 200.0])
    p.set_defaults(func=_cmd_grid_search)

    return parser


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
        return argv
    values = io.read_keyvalue(path)
    command = argv[0]
    sub_actions = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    sub = sub_actions.choices.get(command)
    if sub is None:
        return argv
    known = {action.dest: action for action in sub._actions}
    defaults = {}
    for key, raw in values.items():
        dest = key.replace("-", "_")
        if dest not in known or dest in ("help", "config"):
            raise ConfigError(f"{path}: unknown config key {key!r} for command {command!r}")
        action = known[dest]
        if isinstance(action, argparse._StoreTrueAction):
            defaults[dest] = raw.lower() in ("1", "true", "yes")
        elif action.type is not None:
            defaults[dest] = action.type(raw)
        else:
            defaults[dest] = raw
    sub.set_defaults(**defaults)
    # required flags satisfied by the config file must not be re-demanded
    for action in sub._actions:
        if action.dest in defaults:
            action.required = False
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        if argv and not argv[0].startswith("-"):
            argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except CovScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
