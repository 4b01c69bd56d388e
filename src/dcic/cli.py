"""Command-line front end.

Subcommands: ``tars`` and ``getars`` run experiment sweeps and write the
CSV plus JSON sidecar; ``fit`` runs one linear fit on CSV datasets;
``train`` fits the downstream classifier; ``estimate-q`` estimates a
flip-rate matrix from noisy data. A JSON config file (--config) overrides
the corresponding flags, except --seed: the file's seed applies only when
--seed is absent. A key the subcommand does not take is a configuration
error, as is an output path in a missing directory (checked before work).

Exit codes: 0 success, 1 when any repetition failed (its record carries
the error), 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .classifier import TrainConfig, train
from .data import (ClassPrior, TransitionMatrix, empirical_prior, float_field,
                   int_field, read_dataset_csv)
from .harness import (Q_SOURCES, ExperimentConfig, emit_results,
                      estimate_q_mlp, run_experiment)
from .linear import LinearFitConfig, fit
from .noise import DEFAULT_ANCHOR_PERCENTILE, GammaWeights, gamma_weights

CONFIG_ERRORS = (ValueError, OSError, KeyError, TypeError,
                 json.JSONDecodeError)


def _floats(text: str):
    return tuple(float(v) for v in text.split(","))


def _ints(text: str):
    return tuple(int(v) for v in text.split(","))


def _file_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return obj


def _field_names(cls) -> tuple:
    return tuple(f.name for f in fields(cls))


def _merged(args, allowed) -> dict:
    """The flags that were given, keyed by config field (each flag's
    dest), with the --config file layered on top; --seed, when given,
    wins over the file's seed. A file key outside ``allowed`` raises, so a
    misspelled key is an error."""
    # --config, --seed and --out are read on their own, --sweep names the
    # scenario, and command/func are the parser's dispatch
    out = {k: v for k, v in vars(args).items() if v is not None and k not in
           ("command", "func", "config", "seed", "out", "sweep")}
    file_cfg = _file_config(args.config)
    unknown = sorted(set(file_cfg) - set(allowed))
    if unknown:
        raise ValueError(f"{args.config}: unknown config key(s) "
                         f"{', '.join(unknown)} for this subcommand")
    out.update(file_cfg)
    if args.seed is not None:
        out["seed"] = args.seed
    return out


def _required(opts: dict, key: str):
    """Pop a required input, naming both its flag (--key) and its config
    key when neither gave it."""
    if key not in opts:
        raise ValueError(f"missing --{key} (config key {key!r})")
    return opts.pop(key)


def _labeled_csv(path: str):
    """The labelled dataset in a CSV file; a file without a label column
    raises, naming it."""
    data = read_dataset_csv(path)
    if data.labels is None:
        raise ValueError(f"{path}: no 'label' column; the dataset must "
                         f"carry labels")
    return data


def _read_q(path: str) -> TransitionMatrix:
    with open(path) as fh:
        return TransitionMatrix.from_json(fh.read(), path)


def _checked_out(path):
    """``path``, refused unless it is a string in an existing directory."""
    # open() takes an int as a file descriptor to write into and close
    if path is not None and not isinstance(path, str):
        raise ValueError(f"out must be a path string, got {path!r}")
    parent = os.path.dirname(path or "") or "."
    if not os.path.isdir(parent):
        raise ValueError(f"output {path!r}: directory {parent!r} does not exist")
    return path


def _write_out(text: str, path: str | None) -> int:
    """Write a result document to ``path``, or print it without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def _run_sweep(args, scenario: str) -> int:
    # the subcommand names the scenario; a config file may not
    allowed = [f for f in _field_names(ExperimentConfig) if f != "scenario"]
    opts = _merged(args, allowed + ["out"])
    out = _checked_out(opts.pop("out", args.out)) or f"{scenario}.csv"
    config = ExperimentConfig(scenario=scenario, **opts)

    records = run_experiment(config)
    emit_results(records, out, config)
    failed = [r for r in records if r.error is not None]
    print(f"{len(records)} records -> {out} ({len(failed)} failed)")
    for r in failed[:10]:
        print(f"  failed: {r.method} rho={r.rho} beta1={r.beta1} "
              f"rep={r.rep}: {r.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_tars(args) -> int:
    return _run_sweep(args, f"tars_{args.sweep}_sweep")


def _cmd_getars(args) -> int:
    return _run_sweep(args, "getars_accuracy")


def _cmd_fit(args) -> int:
    opts = _merged(args, ("source", "target", "q", "d_prime",
                          "max_outer_iters", "seed"))
    source = _labeled_csv(_required(opts, "source"))
    target = read_dataset_csv(_required(opts, "target"))
    q = _read_q(_required(opts, "q"))
    cfg = LinearFitConfig(**{"d_prime": 1, **opts})
    return _write_out(fit(cfg, source, target, q).to_json(), args.out)


def _target_prior(alpha, c: int) -> ClassPrior:
    """The --alpha value (comma-separated floats, or a config list) as a
    prior over the flip-rate matrix's c classes."""
    if isinstance(alpha, str):
        alpha = _floats(alpha)
    elif not isinstance(alpha, list):
        raise ValueError(f"must be comma-separated floats or a list, "
                         f"got {alpha!r}")
    prior = ClassPrior([float_field("alpha entry", a) for a in alpha])
    if prior.n_classes != c:
        raise ValueError(f"{prior.n_classes} entries for the flip-rate "
                         f"matrix's {c} classes")
    return prior


def _cmd_train(args) -> int:
    opts = _merged(args, ("features", "q", "alpha") + _field_names(TrainConfig))
    data = _labeled_csv(_required(opts, "features"))
    q = _read_q(_required(opts, "q"))
    alpha = opts.pop("alpha", None)
    noisy_prior = empirical_prior(data.labels, q.n_classes)
    if alpha is None:
        gamma = GammaWeights(np.ones(q.n_classes))
    else:
        try:
            alpha = _target_prior(alpha, q.n_classes)
        except ValueError as exc:
            raise ValueError(f"--alpha: {exc}") from None
        gamma = gamma_weights(alpha.p, q, noisy_prior)
    model = train(data.features, data.labels, q, gamma, TrainConfig(**opts))
    return _write_out(model.to_json(), args.out)


def _cmd_estimate_q(args) -> int:
    opts = _merged(args, ("features", "percentile", "seed"))
    data = _labeled_csv(_required(opts, "features"))
    percentile = opts.get("percentile", DEFAULT_ANCHOR_PERCENTILE)
    q_hat = estimate_q_mlp(data.features, data.labels, data.n_classes,
                           seed=int_field("seed", opts.get("seed", 0)),
                           percentile=float_field("percentile", percentile))
    return _write_out(q_hat.to_json(), args.out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcic",
        description="Label-noise-robust class-prior estimation and invariant "
                    "components across domains")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; overrides flags except --seed")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)

    p_tars = sub.add_parser("tars", help="prior-recovery sweeps (no covariate change)")
    p_tars.add_argument("--sweep", choices=("beta", "rho", "size"), default="beta")
    p_getars = sub.add_parser("getars", help="accuracy sweep with per-class location-scale change")
    for p in (p_tars, p_getars):
        common(p)
        # each sweep flag's dest is its ExperimentConfig field
        p.add_argument("--reps", dest="repetitions", type=int, default=None)
        p.add_argument("--sizes", dest="sample_sizes", type=_ints, default=None)
        p.add_argument("--rhos", dest="rho_grid", type=_floats, default=None)
        p.add_argument("--betas", dest="beta_grid", type=_floats, default=None)
        p.add_argument("--q-source", dest="q_source", choices=Q_SOURCES, default=None)
    # prior recovery pins W = I, so only the accuracy sweep takes a width
    p_getars.add_argument("--d-prime", dest="d_prime", type=int, default=None)
    p_tars.set_defaults(func=_cmd_tars)
    p_getars.set_defaults(func=_cmd_getars)

    p_fit = sub.add_parser("fit", help="one linear fit from CSV datasets")
    common(p_fit)
    p_fit.add_argument("--source", help="noisy labeled source CSV")
    p_fit.add_argument("--target", help="target CSV (labels ignored)")
    p_fit.add_argument("--q", help="flip-rate matrix JSON")
    p_fit.add_argument("--d-prime", dest="d_prime", type=int, default=None,
                       help="projection width; the input dim pins W = I")
    p_fit.set_defaults(func=_cmd_fit)

    p_train = sub.add_parser("train", help="train the corrected classifier")
    common(p_train)
    p_train.add_argument("--features", help="noisy labeled CSV")
    p_train.add_argument("--q", help="flip-rate matrix JSON")
    p_train.add_argument("--alpha", default=None,
                         help="target prior as comma-separated floats (enables reweighting)")
    p_train.set_defaults(func=_cmd_train)

    p_est = sub.add_parser("estimate-q", help="anchor-point flip-rate estimate")
    common(p_est)
    p_est.add_argument("--features", help="noisy labeled CSV")
    p_est.add_argument("--percentile", type=float, default=None)
    p_est.set_defaults(func=_cmd_estimate_q)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _checked_out(args.out)  # a sweep also checks its config file's out
        return args.func(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
