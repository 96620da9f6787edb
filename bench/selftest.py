"""Self-test of the benchmark's own parts: the tracer changes no result and
puts every original back, the numpy oracles agree with a scalar reference
and with the program, and the output checks catch a wrong output.

    python3 bench/selftest.py

Exits 0 when every test passes. Writes only under bench/out/selftest/.
"""

import shutil
import sys

import run  # sets the BLAS thread count before numpy loads
import checks
import numpy as np
from tracer import PER_LAYER, Tracer, layer_metrics

run.load_package()
from akcarc import consistency, model, training  # noqa: E402
from akcarc.config import ExperimentConfig  # noqa: E402
from akcarc.data import SyntheticTaskSpec  # noqa: E402

OUT = run.OUT / "selftest"


def tiny(method):
    return ExperimentConfig(
        method=method, seed=3, epochs=2, source_epochs=2, n_labeled=20,
        task=SyntheticTaskSpec(source_train=300, target_train=200, target_test=100))


def facts(cfg, result):
    split = result.target_split
    pool = split.labeled_x.shape[0] + split.unlabeled_x.shape[0]
    return run.run_facts(cfg, pool, split.n_classes, result.source_model.head.n_classes)


def csv_bytes(result, name):
    path = OUT / f"{name}.csv"
    result.metrics.to_csv(path)
    return path.read_bytes()


def package_attributes(tracer):
    """Every module attribute and class attribute of the package."""
    seen = {}
    for mod in tracer._modules():
        for attr, obj in vars(mod).items():
            seen[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, val in vars(obj).items():
                    seen[(mod.__name__, obj.__name__, cattr)] = val
    return seen


def test_tracing_changes_no_result_and_restores_originals():
    for method in ("pseudo_label+akc+arc", "mean_teacher"):
        cfg = tiny(method)
        plain = training.run_pipeline(cfg)
        tracer = Tracer()
        before = package_attributes(tracer)
        tracer.install()
        assert training.total_loss is not before[("akcarc.training", "total_loss")]
        assert consistency.median_sigmas is not before[("akcarc.consistency", "median_sigmas")]
        try:
            traced = training.run_pipeline(cfg)
        finally:
            tracer.uninstall()
        after = package_attributes(tracer)
        assert before.keys() == after.keys()
        moved = [k for k in before if before[k] is not after[k]]
        assert not moved, moved
        assert not tracer.leftovers()
        assert csv_bytes(plain, "plain") == csv_bytes(traced, "traced")
        layers = layer_metrics(*tracer.take())
        f = facts(cfg, traced)
        assert (layers["training.steps"], layers["training.samples"]) == (f["steps"], f["samples"])


def test_forward_oracle():
    rng = np.random.default_rng(0)
    clf = model.Classifier(model.MlpExtractor([5, 7, 6, 3], rng), model.LinearHead(4, 3, rng))
    for p in clf.params().values():
        p += rng.normal(0.0, 0.1, size=p.shape)
    x = rng.normal(size=(50, 5))
    w = checks.model_weights(clf)
    logits = checks.forward_logits(w, x)
    assert np.array_equal(logits, clf.forward(x))

    # scalar loops: the oracle's matmul, relu and head, one number at a time
    ext_w, ext_b, head_w, head_b = w
    for i in range(x.shape[0]):
        a = list(x[i])
        for layer, (wl, bl) in enumerate(zip(ext_w, ext_b)):
            a = [sum(a[k] * wl[k, j] for k in range(len(a))) + bl[0, j]
                 for j in range(wl.shape[1])]
            if layer < len(ext_w) - 1:
                a = [max(v, 0.0) for v in a]
        ref = [sum(a[k] * head_w[c, k] for k in range(len(a))) + head_b[0, c]
               for c in range(head_w.shape[0])]
        assert np.allclose(logits[i], ref, rtol=1e-12, atol=1e-12)

    y = rng.integers(0, 4, size=50)
    assert checks.accuracy(w, x, y) == training.accuracy(clf, x, y)
    OUT.mkdir(parents=True, exist_ok=True)
    model.save_checkpoint(OUT / "clf.npz", clf)
    assert np.array_equal(checks.forward_logits(checks.checkpoint_weights(OUT / "clf.npz"), x),
                          logits)

    eps = 0.7 * np.log(4)
    lo, hi = checks.gate_fraction_range(w, x, eps)
    assert lo <= consistency.akc_weights(clf, x, eps).mean() <= hi


def test_checks_catch_wrong_outputs():
    cfg = tiny("akc+arc")
    result = training.run_pipeline(cfg)
    split = result.target_split
    args = (facts(cfg, result), checks.model_weights(result.pair.target),
            checks.model_weights(result.source_model), split.test_x, split.test_y,
            np.vstack([split.labeled_x, split.unlabeled_x]))
    rows = [dict(r) for r in result.metrics.records]
    assert checks.check_run("ok", rows, *args) == []
    assert checks.same_params(result.pair.source, result.source_model)

    def broken(epoch, column, value):
        bad = [dict(r) for r in rows]
        bad[epoch][column] = value
        return checks.check_run("bad", bad, *args)

    last = len(rows) - 1
    assert broken(1, "lr", rows[1]["lr"] * (1 + 1e-9))
    assert broken(last, "test_acc", rows[last]["test_acc"] + 0.01)
    assert broken(last, "akc_fraction", rows[last]["akc_fraction"] - 0.05)
    assert broken(1, "loss_akc", float("nan"))
    assert broken(1, "loss_ssl", 0.5)
    assert broken(0, "loss_arc", 0.5)
    chance = dict(args[0], n_classes=1)  # every accuracy is at most 1/1
    assert checks.check_run("bad", rows, chance, *args[1:])

    unmoved = (args[2][0], args[2][1]) + args[1][2:]  # source extractor, target head
    assert checks.check_run("bad", rows, args[0], unmoved, *args[2:])

    other = result.source_model.copy()
    other.head.b[0, 0] += 1e-12
    assert not checks.same_params(other, result.source_model)


def test_benchmark_file_lists_the_reported_metrics():
    import json
    import re

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + run.WORKLOADS
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
