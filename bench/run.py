"""Benchmark of the akcarc fine-tuning loop.

    python3 bench/run.py --workload akc-arc-default --seed 1 --seconds 30 --trace 0

Runs one workload in this process, round after round, until --seconds
have passed (every round is whole and does the same work), checks every
round's outputs, and prints each metric with its unit, then one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 alternates untraced and traced rounds
and reports the per-layer metrics and the tracing overhead. Outputs and
the spans of the last traced round go to bench/out/<workload>/.
"""

import os

# set before numpy loads: one BLAS thread, never more than nproc, so BLAS
# threads do not compete for the cores of a machine shared with others
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
from tracer import PER_LAYER, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
clock = time.perf_counter

END_TO_END = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("finetune_samples_per_s", "samples/s"),
    ("test_acc", "fraction"),
    ("peak_rss_mb", "MB"),
]

# In-process workloads: the default config, with fewer epochs so that one
# run holds several rounds and reports medians.
INPROCESS = {
    "akc-arc-default": (["akc+arc"], 6),
    "no-arc-baselines": (["supervised", "akc", "pseudo_label+akc", "mean_teacher"], 30),
}
# cli-sweep-csv: `akcarc sweep` over eps_r on CSV files written from the seed
SWEEP_VALUES = "0.3,0.5,0.7,0.9"
SWEEP_SETTINGS = ["method=arc", "buffer_capacity=32", "buffer_k=32", "epochs=5",
                  "source_epochs=10"]
CSV_TASK = dict(dim=16, source_classes=10, target_classes=4, std=0.35,
                rotation_deg=30.0, shift=0.2, source=4000, target=2000, test=1000)
WORKLOADS = list(INPROCESS) + ["cli-sweep-csv"]


def load_package():
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "akcarc" / "__init__.py").is_file():
        sys.exit(f"bench: no akcarc sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import akcarc
    from akcarc import cli  # noqa: F401  (the package does not import it)
    return akcarc


# --------------------------------------------------------------- inputs


def write_csv_task(out_dir: Path, seed: int):
    """Source/target Gaussian-cluster transfer task as three CSV files.

    Target classes are the first source clusters, rotated in a random
    plane and shifted. Every class appears in every file. Returns the
    file paths and the arrays the checks use.
    """
    t = CSV_TASK
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(t["dim"], t["source_classes"])))
    means_s = q.T
    e, _ = np.linalg.qr(rng.normal(size=(t["dim"], 2)))
    a = math.radians(t["rotation_deg"])
    rot = (np.eye(t["dim"])
           + (math.cos(a) - 1) * (np.outer(e[:, 0], e[:, 0]) + np.outer(e[:, 1], e[:, 1]))
           + math.sin(a) * (np.outer(e[:, 1], e[:, 0]) - np.outer(e[:, 0], e[:, 1])))
    shift = rng.normal(size=t["dim"])
    means_t = means_s[: t["target_classes"]] @ rot.T + t["shift"] * shift / np.linalg.norm(shift)

    def sample(means, n):
        y = np.arange(n) % means.shape[0]
        rng.shuffle(y)
        return means[y] + rng.normal(0.0, t["std"], size=(n, t["dim"])), y

    data = {"source": sample(means_s, t["source"]),
            "target": sample(means_t, t["target"]),
            "test": sample(means_t, t["test"])}
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, (x, y) in data.items():
        paths[name] = out_dir / f"{name}.csv"
        with open(paths[name], "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow([f"f{i}" for i in range(t["dim"])] + ["label"])
            for row, lab in zip(x, y):
                w.writerow([repr(float(v)) for v in row] + [int(lab)])
    return paths, data


# ---------------------------------------------------------------- probe


class Pipelines:
    """Runs `run_pipeline` and clocks its set-up: the time from the call to
    the first fine-tuning step. The step probe replaces `total_loss` until
    its first call, so steps run unwrapped."""

    def __init__(self, training):
        self.training = training
        self.setup = []
        self.results = []

    def run(self, cfg):
        training = self.training
        inner = training.total_loss
        first = []

        def first_step(*args, **kwargs):
            first.append(clock())
            training.total_loss = inner
            return inner(*args, **kwargs)

        start = clock()
        training.total_loss = first_step
        try:
            result = training.run_pipeline(cfg)
        finally:
            training.total_loss = inner
        self.setup.append((first[0] if first else clock()) - start)
        self.results.append((cfg, result))
        return result


# ------------------------------------------------------------ workloads


def run_facts(cfg, pool_rows, n_classes, n_source_classes):
    """What one fine-tuning run is asked to do, from its config and input
    sizes: an epoch covers the pool once in unlabeled batches, and each
    step also takes a labeled batch (at most the labeled set)."""
    spe = math.ceil(pool_rows / cfg.batch_unlabeled)
    per_step = min(cfg.batch_labeled, cfg.n_labeled) + cfg.batch_unlabeled
    return {"method": cfg.method, "eta0": cfg.eta0, "epochs": cfg.epochs,
            "steps_per_epoch": spe, "steps": spe * cfg.epochs,
            "samples": spe * cfg.epochs * per_step,
            "eps_k": cfg.eps_k_scale * math.log(n_source_classes),
            "n_classes": n_classes}


class Workload:
    """One workload's inputs, its timed round and the checks of a round."""

    def __init__(self, name, seed, pkg):
        self.name = name
        self.seed = seed
        self.pkg = pkg
        self.dir = OUT / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        if name == "cli-sweep-csv":
            self.csv_paths, self.csv_data = write_csv_task(self.dir / "inputs", seed)
            self.n_runs = len(SWEEP_VALUES.split(","))
        else:
            self.n_runs = len(INPROCESS[name][0])

    def round(self):
        """One timed round. Returns (run_s, Pipelines, exit code or None)."""
        from akcarc.config import ExperimentConfig
        from akcarc.errors import AkcArcError

        pipes = Pipelines(self.pkg.training)
        if self.name in INPROCESS:
            methods, epochs = INPROCESS[self.name]
            t0 = clock()
            for method in methods:
                try:
                    pipes.run(ExperimentConfig(method=method, seed=self.seed, epochs=epochs))
                except AkcArcError as exc:
                    print(f"bench: {method} failed: {exc}", file=sys.stderr)
            return clock() - t0, pipes, None
        sweep = self.dir / "sweep"
        shutil.rmtree(sweep, ignore_errors=True)
        argv = ["sweep", "--axis", "eps_r", "--values", SWEEP_VALUES, "--seeds", "1",
                "--seed", str(self.seed), "--out", str(sweep)]
        for setting in SWEEP_SETTINGS + [
                f"source_train_csv={self.csv_paths['source']}",
                f"target_train_csv={self.csv_paths['target']}",
                f"target_test_csv={self.csv_paths['test']}"]:
            argv += ["--set", setting]
        cli = self.pkg.cli
        saved = cli.run_pipeline
        cli.run_pipeline = pipes.run
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = clock()
                code = cli.main(argv)
                run_s = clock() - t0
        finally:
            cli.run_pipeline = saved
        return run_s, pipes, code

    def check(self, pipes, code):
        """Checks of one round. Returns failures, metrics.csv bytes per run,
        final test accuracies, and the steps, samples and bytes written."""
        bad, blobs, accs = [], [], []
        steps = samples = 0
        for cfg, result in pipes.results:
            if not checks.same_params(result.pair.source, result.source_model):
                bad.append(f"{cfg.method}: frozen source differs from the pre-trained one")
        if self.name in INPROCESS:
            for cfg, result in pipes.results:
                split = result.target_split
                facts = run_facts(cfg, split.labeled_x.shape[0] + split.unlabeled_x.shape[0],
                                   split.n_classes, result.source_model.head.n_classes)
                steps += facts["steps"]
                samples += facts["samples"]
                pool = np.vstack([split.labeled_x, split.unlabeled_x])
                bad += checks.check_run(
                    cfg.method, result.metrics.records, facts,
                    checks.model_weights(result.pair.target),
                    checks.model_weights(result.source_model),
                    split.test_x, split.test_y, pool)
                path = self.dir / cfg.method.replace("+", "_") / "metrics.csv"
                path.parent.mkdir(exist_ok=True)
                result.metrics.to_csv(path)
                blobs.append(path.read_bytes())
                accs.append(result.metrics.last())
            return bad, blobs, accs, steps, samples, 0

        sweep = self.dir / "sweep"
        if code != 0:
            bad.append(f"akcarc sweep exited with {code}")
        tx, ty = self.csv_data["test"]
        pool = self.csv_data["target"][0]
        n_source = CSV_TASK["source_classes"]
        with open(sweep / "summary.csv", newline="", encoding="utf-8") as fh:
            summary = {float(r["eps_r"]): r for r in csv.DictReader(fh)}
        for cfg, _ in pipes.results:
            sub = sweep / f"eps_r_{cfg.eps_r_scale}_seed{cfg.seed}"
            rows = checks.read_metrics_csv(sub / "metrics.csv")
            facts = run_facts(cfg, pool.shape[0], CSV_TASK["target_classes"], n_source)
            steps += facts["steps"]
            samples += facts["samples"]
            target_w = checks.checkpoint_weights(sub / "target_model.npz")
            bad += checks.check_run(sub.name, rows, facts, target_w,
                                    checks.checkpoint_weights(sub / "source_model.npz"),
                                    tx, ty, pool)
            blobs.append((sub / "metrics.csv").read_bytes())
            accs.append(rows[-1]["test_acc"])
            row = summary.get(cfg.eps_r_scale)
            want = {"mean_last_acc": rows[-1]["test_acc"], "std_last_acc": 0.0,
                    "mean_best_acc": max(r["test_acc"] for r in rows), "std_best_acc": 0.0}
            if row is None or any(float(row[k]) != v for k, v in want.items()):
                bad.append(f"summary.csv row for eps_r={cfg.eps_r_scale} != {want}")
        if len(summary) != len(pipes.results):
            bad.append(f"summary.csv has {len(summary)} rows for {len(pipes.results)} runs")
        written = sum(p.stat().st_size for p in sweep.rglob("*") if p.is_file())
        return bad, blobs, accs, steps, samples, written


# ---------------------------------------------------------------- main


def environment():
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    pkg = load_package()
    work = Workload(args.workload, args.seed, pkg)
    tracer = Tracer()
    rounds = {False: [], True: []}  # traced? -> per-round records
    bad, reference, last_spans = [], None, None
    attempted = failed = 0
    start = clock()
    while True:
        traced = bool(args.trace) and len(rounds[True]) < len(rounds[False])
        if traced:
            tracer.install()
        try:
            run_s, pipes, code = work.round()
        finally:
            if traced:
                tracer.uninstall()
        spans = tracer.take()
        leftovers = tracer.leftovers()
        if leftovers:
            bad.append(f"wrappers left in place: {leftovers[:5]}")
        attempted += work.n_runs
        failed += work.n_runs - len(pipes.results)
        round_bad, blobs, accs, steps, samples, written = work.check(pipes, code)
        bad += [f"round {len(rounds[traced]) + 1}{' (traced)' if traced else ''}: {b}"
                for b in round_bad]
        if reference is None:
            reference = blobs
        elif blobs != reference:
            bad.append("metrics.csv differs from the first round's"
                       + (" (traced round)" if traced else ""))
        rec = {"run_s": run_s, "setup_s": sum(pipes.setup), "samples": samples,
               "test_acc": sum(accs) / len(accs) if accs else 0.0, "written": written}
        if traced:
            rec["layers"] = layer_metrics(*spans)
            seen = (rec["layers"]["training.steps"], rec["layers"]["training.samples"])
            if seen != (steps, samples):
                bad.append(f"traced (steps, samples) {seen} != configured {(steps, samples)}")
            last_spans = spans
        rounds[traced].append(rec)
        done = clock() - start >= args.seconds
        if done and (not args.trace or rounds[True]):
            break

    untraced = rounds[False]
    med = lambda recs, key: statistics.median(r[key] for r in recs)
    if args.trace:
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "cli.bytes_written":
                value = med(rounds[True], "written")
            elif name.startswith("trace."):
                over = med(rounds[True], "run_s") - med(untraced, "run_s")
                value = over if name == "trace.overhead_s" else over / med(untraced, "run_s")
            else:
                value = statistics.median(r["layers"][name] for r in rounds[True])
            metrics[name] = {"value": value, "unit": unit}
        write_spans(work.dir / "spans.csv", *last_spans)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "run_s": med(untraced, "run_s"),
            "setup_s": med(untraced, "setup_s"),
            "finetune_samples_per_s": statistics.median(
                r["samples"] / (r["run_s"] - r["setup_s"]) for r in untraced),
            "test_acc": untraced[0]["test_acc"],
            "peak_rss_mb": peak_mb,
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}

    env = environment()
    (work.dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "environment": env,
         "rounds": {kind: [{k: r[k] for k in ("run_s", "setup_s")} for r in rounds[t]]
                    for kind, t in (("untraced", False), ("traced", True))},
         "metrics": metrics, "problems": bad}, indent=2))
    for line in bad:
        print(f"bench: check failed: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(rounds[True])} traced rounds; " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def write_spans(path, names, spans):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["span", "parent", "name", "start_s", "end_s"])
        t0 = spans[0][1] if spans else 0.0
        for i, (nid, s, e, parent, _) in enumerate(spans):
            w.writerow([i, parent, names[nid], f"{s - t0:.9f}", f"{e - t0:.9f}"])


if __name__ == "__main__":
    sys.exit(main())
