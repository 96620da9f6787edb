"""Experiment runner CLI: `run` a config, `sweep` one axis, `compare`
methods. Each run directory is self-describing (config + metrics + schema
version)."""

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .config import ExperimentConfig
from .errors import AkcArcError, ConfigError, WriteError
from .model import save_checkpoint
from .training import run_pipeline, shared_setups

SWEEP_AXES = {
    "eps_k": "eps_k_scale",
    "eps_r": "eps_r_scale",
    "n_labeled": "n_labeled",
    "lambda_r": "lambda_r",
}
# The files a run leaves in its directory: its results, or the error that
# ended it
RESULT_FILES = ("metrics.csv", "metrics.json", "config.json",
                "source_model.npz", "target_model.npz")
ERROR_FILE = "error.json"
COMPARE_METHODS = [
    "supervised", "pseudo_label", "mean_teacher",
    "akc", "arc", "akc+arc", "pseudo_label+akc+arc",
]


def _load_config(args) -> ExperimentConfig:
    """The validated config of a command's --config, --set, --seed and --out."""
    cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    if args.set:
        cfg = cfg.with_overrides(args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out:
        cfg.out_dir = args.out
    return cfg.validate()


def _make_dir(path: str):
    """Create the directory `path` and its parents. A path that cannot be a
    directory (an existing file, a path under a file, no permission) is a
    ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"out_dir: cannot create directory {path!r}: "
                          f"{exc.strerror}") from None


def _write(path: str, write):
    """Write the file `path` by calling `write` on a temporary name in the
    same directory, then move it into place, so that a file under its final
    name is always whole. An OSError removes the temporary file and is a
    WriteError naming `path`."""
    root, ext = os.path.splitext(path)
    tmp = f"{root}.tmp{ext}"  # np.savez appends .npz to a name without it
    try:
        write(tmp)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise WriteError(f"cannot write {path}: {exc.strerror or exc}") from None


def _remove(path: str):
    """Remove the file `path` if it exists. An OSError is a WriteError
    naming `path`."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise WriteError(f"cannot remove {path}: {exc.strerror or exc}") from None


def _write_error(path: str, exc: AkcArcError):
    with open(path, "w") as fh:
        json.dump({"type": type(exc).__name__, "message": str(exc)}, fh, indent=2)
        fh.write("\n")


def execute_run(cfg: ExperimentConfig):
    """Run one pipeline and persist metrics, config, and checkpoints into
    `cfg.default_out_dir()`, each file written whole or not at all.

    A run that raises AkcArcError, a failed write included, leaves
    `error.json` (the error's type and message) in its directory instead,
    if it can, and the error propagates.

    The directory holds one run: the RESULT_FILES and ERROR_FILE of an
    earlier run into it are removed first, and no other file is touched.
    """
    out_dir = cfg.default_out_dir()
    _make_dir(out_dir)
    try:
        for name in RESULT_FILES + (ERROR_FILE,):
            _remove(os.path.join(out_dir, name))
        result = run_pipeline(cfg)
        meta = {"akc_pool_fraction": result.akc_pool_fraction}
        writers = (  # in RESULT_FILES order
            result.metrics.to_csv,
            result.metrics.to_json,
            lambda p: cfg.to_json(p, extra_metadata=meta),
            lambda p: save_checkpoint(p, result.source_model),
            lambda p: save_checkpoint(p, result.pair.target),
        )
        for name, write in zip(RESULT_FILES, writers):
            _write(os.path.join(out_dir, name), write)
    except AkcArcError as exc:
        with contextlib.suppress(WriteError):  # report the run's error, not this one
            _write(os.path.join(out_dir, ERROR_FILE), lambda p: _write_error(p, exc))
        raise
    return result, out_dir


def _axis_values(cfg: ExperimentConfig, field: str, text: str) -> list:
    """Comma-separated grid values of `field`, coerced as `--set` coerces
    and validated, so a bad value is a config error before any sub-run.

    A value equal to an earlier one after coercion would rerun the same
    sub-run into the same directory, so it is a config error.
    """
    values = []
    for v in text.split(","):
        sub = cfg.with_overrides([f"{field}={v}"])
        sub.validate()
        value = getattr(sub, field)
        if value in values:
            raise ConfigError(f"{field}: grid value {v!r} repeats {value!r}")
        values.append(value)
    return values


def _run_grid(cfg: ExperimentConfig, seeds: int, cells):
    """Run each `(prefix, overrides)` cell once per seed into
    `<root>/<prefix>_seed<seed>`, each sub-run's config naming its own
    directory. A failed sub-run is named on stderr and the grid goes on.
    The sub-runs share set-ups (`training.shared_setups`): the data is read
    and the source pre-trained once per seed, not once per cell.

    Returns the grid root, the `(last, best)` test accuracies of each
    cell's finished seeds, and whether any sub-run failed.
    """
    if seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {seeds}")
    root = cfg.default_out_dir()
    _make_dir(root)
    accs, failed = [], False
    with shared_setups():
        for prefix, overrides in cells:
            finished = []
            for s in range(seeds):
                sub = cfg.with_overrides(overrides)
                sub.seed = cfg.seed + s
                sub.out_dir = os.path.join(root, f"{prefix}_seed{sub.seed}")
                try:
                    result, _ = execute_run(sub)
                except AkcArcError as exc:
                    print(f"sub-run failed ({sub.out_dir}): {exc}", file=sys.stderr)
                    failed = True
                    continue
                finished.append((result.metrics.last(), result.metrics.best()))
            accs.append(finished)
    return root, accs, failed


def _mean_std(finished, column: int) -> list:
    """Mean and std of one accuracy column (0 last, 1 best) over a cell's
    finished seeds; empty fields when none finished."""
    if not finished:
        return ["", ""]
    values = [acc[column] for acc in finished]
    return [float(np.mean(values)), float(np.std(values))]


def _write_summary(root, header, rows):
    """Print the grid's table, then write it to `<root>/summary.csv`."""
    print("\t".join(header))
    for row in rows:
        print("\t".join(f"{v:.4f}" if isinstance(v, float) else str(v)
                        for v in row))

    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    _write(os.path.join(root, "summary.csv"), write)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    result, out_dir = execute_run(cfg)
    last, best = result.metrics.last(), result.metrics.best()
    print(f"run complete: {out_dir}")
    print(f"final-epoch test accuracy: {last:.4f}")
    print(f"best-epoch test accuracy:  {best:.4f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    field = SWEEP_AXES[args.axis]
    values = _axis_values(cfg, field, args.values)
    root, accs, failed = _run_grid(
        cfg, args.seeds, [(f"{args.axis}_{v}", [f"{field}={v}"]) for v in values]
    )
    rows = [[v] + _mean_std(cell, 0) + _mean_std(cell, 1)
            for v, cell in zip(values, accs) if cell]
    _write_summary(root, [args.axis, "mean_last_acc", "std_last_acc",
                          "mean_best_acc", "std_best_acc"], rows)
    return 1 if failed else 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    n_values = (_axis_values(cfg, "n_labeled", args.n_labeled)
                if args.n_labeled else [cfg.n_labeled])
    root, accs, failed = _run_grid(cfg, args.seeds, [
        (f"{m.replace('+', '_')}_n{n}", [f"method={m}", f"n_labeled={n}"])
        for m in COMPARE_METHODS for n in n_values
    ])
    k = len(n_values)
    rows = []
    for i, method in enumerate(COMPARE_METHODS):
        cells = accs[i * k:(i + 1) * k]
        if any(cells):
            rows.append([method] + [x for cell in cells for x in _mean_std(cell, 0)])
    _write_summary(root, ["method"] + [f"{stat}_acc_n{n}" for n in n_values
                                       for stat in ("mean", "std")], rows)
    return 1 if failed else 0


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
    except MemoryError as exc:  # e.g. a layer too wide for this machine
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
