"""Acceptance suite: every release gate in one file, one test per criterion.

Pipeline runs are expensive, so a module-level cache shares them between
criteria: the ablation grid of criterion 6 is reused by the threshold
sweeps (criterion 7), the representation-alignment check (criterion 9),
and the selection-ratio checks (criterion 11). Each test prints a
CRITERION line so the suite output doubles as a release report.
"""

import copy
import time

import numpy as np
import pytest

from akcarc.cli import execute_run
from akcarc.config import ExperimentConfig
from akcarc.consistency import (
    ReplayBuffer,
    akc_loss,
    akc_weights,
    arc_loss,
    entropy_gate,
)
from akcarc.errors import ShapeError
from akcarc.model import Classifier, LinearHead, MlpExtractor, ModelPair
from akcarc.numerics import median_sigmas, mmd2_value_grad
from akcarc.ssl_baselines import (
    cross_entropy_loss,
    mean_teacher_loss,
    pseudo_label_loss,
)
from akcarc.training import (
    SgdMomentum,
    cosine_lr,
    run_pipeline,
    total_loss,
)

from conftest import (
    assert_grads_match,
    frozen_source,
    hold_sigmas,
    pushed_pool,
    rows_by_age,
    seeded_arc,
    term_grads,
)
from oracles import brute_force_mmd2

SEEDS = (0, 1, 2, 3, 4)

_runs = {}


def get_run(method, seed, **overrides):
    """Run (or fetch) one reference-task pipeline; cached per config."""
    key = (method, seed, tuple(sorted(overrides.items())))
    if key not in _runs:
        cfg = ExperimentConfig(method=method, seed=seed, **overrides)
        _runs[key] = run_pipeline(cfg)
    return _runs[key]


def mean_final_acc(method, **overrides):
    return float(np.mean(
        [get_run(method, s, **overrides).metrics.last() for s in SEEDS]
    ))


def report(n, name, ok, detail=""):
    print(f"\nCRITERION {n} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_mmd_oracle():
    """The MMD kernel of a run, `mmd2_value_grad` on an ArcState into which
    both sets were pushed, equals a brute-force triple-loop kernel sum on
    the 174 of 200 instances with 2 rows per set or more; on the other 26,
    a 1-row set, it raises ShapeError (ARC measures no such window). Each
    compared instance is checked twice: at its drawn bandwidths, and at the
    `median_sigmas` ladder that runs use, whose 2nd and 3rd bandwidths the
    kernel reaches by squaring."""
    rng = np.random.default_rng(0)
    t0 = time.time()
    worst, worst_ladder, compared, rejected = 0.0, 0.0, 0, 0
    for _ in range(200):
        m, n = rng.integers(1, 17, size=2)
        d = int(rng.integers(1, 9))
        v = rng.normal(size=(m, d))
        u = rng.normal(size=(n, d))
        sigmas = rng.uniform(0.3, 3.0, size=int(rng.integers(1, 4)))
        pool = pushed_pool(v, u, (m, n))
        if min(m, n) < 2:
            with pytest.raises(ShapeError, match="2 rows per window"):
                mmd2_value_grad(v, u, sigmas, pool)
            rejected += 1
            continue
        value, _, _ = mmd2_value_grad(v, u, sigmas, pool)
        worst = max(worst, abs(value - brute_force_mmd2(v, u, sigmas)))
        ladder = median_sigmas(pool)
        value, _, _ = mmd2_value_grad(v, u, ladder, pool)
        worst_ladder = max(worst_ladder,
                           abs(value - brute_force_mmd2(v, u, ladder)))
        compared += 1
    elapsed = time.time() - t0
    ok = ((compared, rejected) == (174, 26) and worst < 1e-10
          and worst_ladder < 1e-10 and elapsed < 5)
    report(1, "mmd oracle", ok,
           f"({compared} compared, max |diff| {worst:.2e} at drawn sigmas, "
           f"{worst_ladder:.2e} at the median ladder; {rejected} with a "
           f"1-row set rejected; {elapsed:.1f}s)")
    assert (compared, rejected) == (174, 26)
    assert worst < 1e-10
    assert worst_ladder < 1e-10
    assert elapsed < 5


def test_criterion_2_gradient_suite(monkeypatch):
    """Every analytic gradient matches central finite differences
    (h=1e-5, rel <= 1e-4) on the default architecture, 6-example batches."""
    t0 = time.time()
    rng = np.random.default_rng(1)
    ext = MlpExtractor([16, 64, 64, 32], rng)
    source = Classifier(ext, LinearHead(10, 32, rng))
    tgt_ext = copy.deepcopy(ext)
    for w in tgt_ext.weights:
        w += rng.normal(0, 0.05, size=w.shape)
    target = Classifier(tgt_ext, LinearHead(4, 32, rng))
    pair = ModelPair(source=source, target=target)
    teacher = copy.deepcopy(target)
    for w in teacher.extractor.weights:
        w += rng.normal(0, 0.02, size=w.shape)

    x_l = rng.normal(size=(6, 16))
    y_l = rng.integers(0, 4, size=6)
    x_u = rng.normal(size=(6, 16))
    params = target.params()
    ext_params = {f"ext.{k}": v for k, v in tgt_ext.params().items()}

    def ce_term(y):
        return lambda f, z: (*cross_entropy_loss(z, y), None)

    _, g = term_grads(target, x_l, ce_term(y_l))
    assert_grads_match(params, g, lambda: term_grads(target, x_l, ce_term(y_l))[0],
                       picks=2)

    f0_u = pair.source.extractor.forward(x_u)
    w_u = akc_weights(pair.source, x_u, np.log(10))
    for mode in ("mse", "kl"):
        def akc_term(f, z, mode=mode):
            value, d_f, _ = akc_loss(f, f0_u, w_u, mode)
            return value, None, d_f

        _, g = term_grads(target, x_u, akc_term)
        assert_grads_match(
            ext_params, g, lambda: term_grads(target, x_u, akc_term)[0],
            picks=2,
        )

    seed = seeded_arc(64, rng.normal(size=(6, 32)), rng.normal(size=(6, 32)))
    hold_sigmas(monkeypatch, [1.0, 2.0])

    def arc_call():
        state = copy.deepcopy(seed)

        def arc_term(f, z):
            value, (d_l, d_u), _, _ = arc_loss(f[:6], f[6:], z[:6], z[6:],
                                               np.log(4), state)
            return value, None, np.vstack([d_l, d_u])

        return term_grads(target, np.vstack([x_l, x_u]), arc_term)

    _, g = arc_call()
    assert_grads_match(ext_params, g, lambda: arc_call()[0], picks=2)

    _, g = term_grads(target, x_u,
                      lambda f, z: (*pseudo_label_loss(z, 0.0), None))
    labels = target.predict(x_u)
    assert_grads_match(params, g,
                       lambda: term_grads(target, x_u, ce_term(labels))[0],
                       picks=2)

    def mt_term(f, z):
        return (*mean_teacher_loss(z, teacher.forward(x_u)), None)

    _, g = term_grads(target, x_u, mt_term)
    assert_grads_match(
        params, g, lambda: term_grads(target, x_u, mt_term)[0],
        picks=2,
    )

    # scale 1.0 gives the thresholds ln 10 (source) and ln 4 (target)
    cfg = ExperimentConfig(
        method="pseudo_label+akc+arc", lambda_k=1.0, lambda_r=3.0,
        lambda_s=0.5, eps_k_scale=1.0, eps_r_scale=1.0, pl_confidence=0.0,
    )

    source_lu = frozen_source(pair, x_l, x_u, cfg)

    def composite():
        return total_loss(target, x_l, y_l, x_u, cfg, copy.deepcopy(seed), source_lu)

    g = target.named(composite()[1].copy())
    assert_grads_match(params, g, lambda: composite()[0], picks=2)

    elapsed = time.time() - t0
    report(2, "gradient suite", elapsed < 60, f"({elapsed:.1f}s)")
    assert elapsed < 60


def test_criterion_3_gate_boundaries():
    """eps=0 removes the regularizer, eps=ln C selects everything, and
    selection sets are nested in eps, over 100 random batches."""
    rng = np.random.default_rng(2)
    ext = MlpExtractor([8, 16, 6], rng)
    source = Classifier(ext, LinearHead(5, 6, rng))
    pair = ModelPair(source=source,
                     target=Classifier(copy.deepcopy(ext), LinearHead(3, 6, rng)))
    for w in pair.target.extractor.weights:
        w += rng.normal(0, 0.05, size=w.shape)

    for _ in range(100):
        x = rng.normal(size=(int(rng.integers(2, 12)), 8)) * rng.uniform(0.5, 3)
        feats = pair.target.extractor.forward(x)
        v0, g0, f0 = akc_loss(feats, pair.source.extractor.forward(x),
                              akc_weights(source, x, 0.0), "mse")
        assert v0 == 0.0 and f0 == 0.0
        assert np.all(g0 == 0)
        w_full = akc_weights(source, x, np.log(5))
        assert np.all(w_full == 1.0)

        logits = pair.target.head.forward(feats)
        prev = set()
        for eps in sorted(rng.uniform(0, np.log(3), size=4)):
            cur = set(np.flatnonzero(entropy_gate(logits, eps)).tolist())
            assert prev <= cur
            prev = cur
        assert entropy_gate(logits, np.log(3)).all()
    report(3, "gate boundaries", True, "(100 random batches)")


def test_criterion_4_replay_buffer(monkeypatch):
    """FIFO semantics vs a reference queue across 1000 interleavings, and
    buffered rows carry no gradient."""
    rng = np.random.default_rng(3)
    buf = ReplayBuffer(4)
    queue = []
    for _ in range(1000):
        if rng.random() < 0.6:
            rows = rng.normal(size=(int(rng.integers(0, 5)), 3))
            buf.update(rows)
            queue.extend([r.copy() for r in rows])
            del queue[:-7]
        else:
            got = rows_by_age(buf)
            expect = queue[-4:]
            assert got.shape[0] == len(expect)
            for a, b in zip(got, expect):
                np.testing.assert_array_equal(a, b)
        assert len(buf) == min(len(queue), 4)

    # no-gradient-through-buffer: ARC gradients with a populated buffer
    # match finite differences where buffered rows are frozen constants
    rng = np.random.default_rng(4)
    ext = MlpExtractor([5, 8, 3], rng)
    pair = ModelPair(
        source=Classifier(ext, LinearHead(4, 3, rng)),
        target=Classifier(copy.deepcopy(ext), LinearHead(3, 3, rng)),
    )
    for w in pair.target.extractor.weights:
        w += rng.normal(0, 0.05, size=w.shape)
    x_l, x_u = rng.normal(size=(5, 5)), rng.normal(size=(6, 5))
    seed = seeded_arc(32, rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    hold_sigmas(monkeypatch, [1.0])

    def call():
        state = copy.deepcopy(seed)

        def arc_term(f, z):
            value, (d_l, d_u), _, _ = arc_loss(f[:5], f[5:], z[:5], z[5:],
                                               np.log(3), state)
            return value, None, np.vstack([d_l, d_u])

        return term_grads(pair.target, np.vstack([x_l, x_u]), arc_term)

    _, grads = call()
    ext_params = {f"ext.{k}": v
                  for k, v in pair.target.extractor.params().items()}
    assert_grads_match(ext_params, grads, lambda: call()[0], picks=2)
    report(4, "replay buffer", True, "(1000 interleavings + gradient check)")


def test_criterion_5_schedule_and_optimizer():
    assert cosine_lr(0, 50, 0.123) == 0.123
    closed = 0.123 * np.cos(7 * np.pi / 16)
    assert abs(cosine_lr(50, 50, 0.123) - closed) < 1e-12

    p = np.array([2.0])
    opt = SgdMomentum(p, eta0=0.1, total_steps=2)
    g = np.array([1.5])
    # hand-unrolled: v1 = 1.5, p1 = 2 - 0.1*1.5; v2 = 0.9*1.5 + 1.5
    opt.step(g)
    assert abs(p[0] - (2.0 - 0.1 * 1.5)) < 1e-12
    eta1 = 0.1 * np.cos(7 * np.pi * 1 / (16 * 2))
    expect = (2.0 - 0.1 * 1.5) - eta1 * (0.9 * 1.5 + 1.5)
    opt.step(g)
    assert abs(p[0] - expect) < 1e-12
    report(5, "schedule and optimizer", True)


@pytest.mark.slow
def test_criterion_6_directional_ablation():
    """Reference task, n=40 labeled / 1960 unlabeled, 5 seeds: AKC+ARC
    beats supervised by >= 2 points; AKC-only and ARC-only >= supervised."""
    t0 = time.time()
    sup = mean_final_acc("supervised")
    akc = mean_final_acc("akc")
    arc = mean_final_acc("arc")
    both = mean_final_acc("akc+arc")
    elapsed = time.time() - t0

    gap = both - sup
    ok = gap >= 0.02 and akc >= sup and arc >= sup and elapsed < 600
    report(6, "directional ablation", ok,
           f"(sup {sup:.4f}, akc {akc:.4f}, arc {arc:.4f}, "
           f"akc+arc {both:.4f}, gap {gap * 100:+.2f} pts, {elapsed:.0f}s)")
    assert akc >= sup, f"AKC-only {akc:.4f} < supervised {sup:.4f}"
    assert arc >= sup, f"ARC-only {arc:.4f} < supervised {sup:.4f}"
    assert elapsed < 600
    assert gap >= 0.02, (
        f"AKC+ARC gain over supervised is {gap * 100:+.2f} points, below the "
        f"2-point bar (supervised {sup:.4f}, akc+arc {both:.4f})"
    )


@pytest.mark.slow
def test_criterion_7_threshold_sweep_shape():
    """Accuracy at eps/lnC in {0.5, 0.7} is >= accuracy at eps = 0 for both
    the AKC and the ARC sweep; the full 5-point grid is printed."""
    grid = (0.0, 0.3, 0.5, 0.7, 1.0)
    table = {}
    for method, axis in (("akc", "eps_k_scale"), ("arc", "eps_r_scale")):
        row = {}
        for scale in grid:
            if scale == 0.7:
                row[scale] = mean_final_acc(method)  # the default gate
            else:
                row[scale] = mean_final_acc(method, **{axis: scale})
        table[method] = row

    print("\nthreshold sweep grid (mean final accuracy over 5 seeds):")
    print("  eps/lnC   " + "  ".join(f"{s:>6.1f}" for s in grid))
    for method, row in table.items():
        print(f"  {method:<8}" + "  ".join(f"{row[s]:.4f}" for s in grid))

    ok = all(table[m][s] >= table[m][0.0]
             for m in table for s in (0.5, 0.7))
    report(7, "threshold sweep shape", ok)
    for m in table:
        for s in (0.5, 0.7):
            assert table[m][s] >= table[m][0.0], (
                f"{m} sweep: acc at {s} ({table[m][s]:.4f}) < acc at 0 "
                f"({table[m][0.0]:.4f})"
            )


def test_criterion_8_imprinting():
    """Imprinted accuracy beats 3x chance before any gradient step, and
    fine-tuning from imprinting reaches the random-head run's epoch-5
    accuracy within 2 epochs."""
    imprint_run = get_run("supervised", 0)
    imprint_acc = imprint_run.metrics.records[0]["test_acc"]
    chance3 = 3.0 / 4.0

    random_run = get_run("supervised", 0, imprint_head=False)
    rand_epoch5 = random_run.metrics.records[5]["test_acc"]
    reach = next(r["epoch"] for r in imprint_run.metrics.records
                 if r["test_acc"] >= rand_epoch5)

    ok = imprint_acc > chance3 and reach <= 2
    report(8, "imprinting", ok,
           f"(imprint {imprint_acc:.4f} vs 3x chance {chance3:.2f}; "
           f"reaches random-head epoch-5 acc {rand_epoch5:.4f} at epoch {reach})")
    assert imprint_acc > chance3
    assert reach <= 2


@pytest.mark.slow
def test_criterion_9_arc_mechanism():
    """Final-model full-set MMD between labeled and unlabeled
    representations is strictly smaller with ARC on, for every seed."""
    details = []
    wins = 0
    for seed in SEEDS:
        off = get_run("supervised", seed)
        on = get_run("arc", seed)
        vals = []
        for res in (off, on):
            split = res.target_split
            ext = res.pair.target.extractor
            f_l = ext.forward(split.labeled_x)
            f_u = ext.forward(split.unlabeled_x)
            pool = pushed_pool(f_l, f_u, (len(f_l), len(f_u)))
            vals.append(mmd2_value_grad(f_l, f_u, median_sigmas(pool), pool)[0])
        wins += vals[1] < vals[0]
        details.append(f"{vals[0]:.4f}->{vals[1]:.4f}")
    report(9, "arc mechanism", wins == len(SEEDS),
           f"({wins}/{len(SEEDS)} seeds shrink: {', '.join(details)})")
    assert wins == len(SEEDS)


def test_criterion_10_determinism(tmp_path):
    """Identical config + seed produces byte-identical metrics.csv."""
    cfg = ExperimentConfig(method="akc+arc", seed=0, epochs=4,
                           source_epochs=5)
    blobs = []
    for i in range(2):
        sub = copy.deepcopy(cfg)
        sub.out_dir = str(tmp_path / f"r{i}")
        _, out = execute_run(sub)
        with open(f"{out}/metrics.csv", "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1]
    report(10, "determinism", ok, f"({len(blobs[0])} bytes)")
    assert ok


def test_criterion_11_selection_ratio_logging():
    """AKC selected fraction is constant within a run; ARC fractions are
    logged per epoch in the metrics records."""
    akc_run = get_run("akc", 0)
    fracs = {r["akc_fraction"] for r in akc_run.metrics.records}
    assert len(fracs) == 1
    assert fracs.pop() == akc_run.akc_pool_fraction

    arc_run = get_run("arc", 0)
    for rec in arc_run.metrics.records:
        assert "arc_labeled_fraction" in rec
        assert "arc_unlabeled_fraction" in rec
        assert 0.0 <= rec["arc_labeled_fraction"] <= 1.0
        assert 0.0 <= rec["arc_unlabeled_fraction"] <= 1.0
    trained = arc_run.metrics.records[1:]
    assert any(r["arc_unlabeled_fraction"] > 0 for r in trained)
    report(11, "selection-ratio logging", True)
