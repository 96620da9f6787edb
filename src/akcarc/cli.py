"""Experiment runner CLI: `run` a config, `sweep` one axis, `compare`
methods. Each run directory is self-describing (config + metrics + schema
version)."""

import argparse
import csv
import os
import sys

import numpy as np

from .config import ExperimentConfig
from .errors import AkcArcError, ConfigError
from .model import save_checkpoint
from .training import run_pipeline

SWEEP_AXES = {
    "eps_k": "eps_k_scale",
    "eps_r": "eps_r_scale",
    "n_labeled": "n_labeled",
    "lambda_r": "lambda_r",
}
COMPARE_METHODS = [
    "supervised", "pseudo_label", "mean_teacher",
    "akc", "arc", "akc+arc", "pseudo_label+akc+arc",
]


def _load_config(args) -> ExperimentConfig:
    if args.config:
        if not os.path.exists(args.config):
            raise ConfigError(f"config file not found: {args.config}")
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    if args.set:
        cfg = cfg.with_overrides(args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out_dir = args.out
    return cfg


def execute_run(cfg: ExperimentConfig, out_dir=None):
    """Run one pipeline and persist metrics, config, and checkpoints."""
    out_dir = out_dir or cfg.default_out_dir()
    os.makedirs(out_dir, exist_ok=True)
    result = run_pipeline(cfg)
    result.metrics.to_csv(os.path.join(out_dir, "metrics.csv"))
    result.metrics.to_json(os.path.join(out_dir, "metrics.json"))
    cfg.to_json(
        os.path.join(out_dir, "config.json"),
        extra_metadata={"akc_pool_fraction": result.akc_pool_fraction},
    )
    save_checkpoint(os.path.join(out_dir, "source_model.npz"), result.source_model)
    save_checkpoint(os.path.join(out_dir, "target_model.npz"), result.pair.target)
    return result, out_dir


def read_run_metrics(out_dir):
    """Reload the persisted per-epoch metrics of a finished run."""
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _accuracies(out_dir):
    rows = read_run_metrics(out_dir)
    last = float(rows[-1]["test_acc"])
    best = max(float(r["test_acc"]) for r in rows)
    return last, best


def _axis_values(cfg: ExperimentConfig, field: str, text: str) -> list:
    """Comma-separated grid values of `field`, coerced as `--set` coerces.

    A value equal to an earlier one after coercion would rerun the same
    sub-run into the same directory, so it is a config error.
    """
    values = []
    for v in text.split(","):
        value = getattr(cfg.with_overrides([f"{field}={v}"]), field)
        if value in values:
            raise ConfigError(f"{field}: grid value {v!r} repeats {value!r}")
        values.append(value)
    return values


def _check_seeds(seeds: int):
    if seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {seeds}")


def cmd_run(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    result, out_dir = execute_run(cfg)
    last, best = result.metrics.last(), result.metrics.best()
    print(f"run complete: {out_dir}")
    print(f"final-epoch test accuracy: {last:.4f}")
    print(f"best-epoch test accuracy:  {best:.4f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    if args.axis not in SWEEP_AXES:
        raise ConfigError(f"axis must be one of {sorted(SWEEP_AXES)}")
    _check_seeds(args.seeds)
    field = SWEEP_AXES[args.axis]
    values = _axis_values(cfg, field, args.values)
    root = cfg.out_dir or cfg.default_out_dir()
    os.makedirs(root, exist_ok=True)
    base_seed = cfg.seed
    summary = []
    failures = 0
    for value in values:
        accs_last, accs_best = [], []
        for s in range(args.seeds):
            sub = cfg.with_overrides([f"{field}={value}"])
            sub.seed = base_seed + s
            sub_dir = os.path.join(root, f"{args.axis}_{value}_seed{sub.seed}")
            try:
                execute_run(sub, sub_dir)
            except AkcArcError as exc:
                print(f"sub-run failed ({sub_dir}): {exc}", file=sys.stderr)
                failures += 1
                continue
            last, best = _accuracies(sub_dir)
            accs_last.append(last)
            accs_best.append(best)
        if accs_last:
            summary.append((value, float(np.mean(accs_last)),
                            float(np.std(accs_last)),
                            float(np.mean(accs_best)), float(np.std(accs_best))))
    header = [args.axis, "mean_last_acc", "std_last_acc",
              "mean_best_acc", "std_best_acc"]
    with open(os.path.join(root, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(summary)
    print("\t".join(header))
    for row in summary:
        print("\t".join(f"{v:.4f}" if isinstance(v, float) else str(v)
                        for v in row))
    return 1 if failures else 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    cfg.validate()
    _check_seeds(args.seeds)
    n_values = (_axis_values(cfg, "n_labeled", args.n_labeled)
                if args.n_labeled else [cfg.n_labeled])
    root = cfg.out_dir or cfg.default_out_dir()
    os.makedirs(root, exist_ok=True)
    base_seed = cfg.seed
    rows = []
    for method in COMPARE_METHODS:
        row = [method]
        for n in n_values:
            accs = []
            for s in range(args.seeds):
                sub = cfg.with_overrides([f"method={method}", f"n_labeled={n}"])
                sub.seed = base_seed + s
                sub_dir = os.path.join(
                    root, f"{method.replace('+', '_')}_n{n}_seed{sub.seed}"
                )
                execute_run(sub, sub_dir)
                accs.append(_accuracies(sub_dir)[0])
            row.extend([float(np.mean(accs)), float(np.std(accs))])
        rows.append(row)
    header = ["method"]
    for n in n_values:
        header += [f"mean_acc_n{n}", f"std_acc_n{n}"]
    with open(os.path.join(root, "summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print("\t".join(header))
    for row in rows:
        print("\t".join(f"{v:.4f}" if isinstance(v, float) else str(v)
                        for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akcarc",
        description="Semi-supervised transfer learning experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default="", help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="", help="output directory")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="dotted config override")

    p_run = sub.add_parser("run", help="execute one experiment")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one config axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         choices=sorted(SWEEP_AXES))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", type=int, default=5)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="run the method comparison grid")
    common(p_cmp)
    p_cmp.add_argument("--seeds", type=int, default=5)
    p_cmp.add_argument("--n-labeled", default="",
                       help="comma-separated labeled-set sizes")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AkcArcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
