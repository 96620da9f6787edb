import copy
import dataclasses

import numpy as np
import pytest

from akcarc.config import ExperimentConfig
from akcarc.consistency import ArcState
from akcarc import model as model_module, training
from akcarc.data import SyntheticTaskSpec, generate_task
from akcarc.errors import (
    ConfigError, EmptyInput, InvalidInput, InvalidLabel, InvalidSplit, ShapeError,
)
from akcarc.model import Classifier, LinearHead, MlpExtractor
from akcarc.ssl_baselines import cross_entropy_loss
from akcarc.training import (
    METRICS_COLUMNS,
    STEP_COLUMNS,
    BatchSampler,
    MetricsLog,
    SgdMomentum,
    accuracy,
    cosine_lr,
    run_pipeline,
    total_loss,
    train_supervised,
)

from conftest import (
    assert_grads_match,
    count_calls,
    frozen_source,
    hold_sigmas,
    seeded_arc,
    term_grads,
    write_csv_task,
)
import oracles


class TestCosineLr:
    def test_start_is_eta0(self):
        assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5)

    def test_end_value(self):
        # cos(7 pi / 16) = 0.19509... of the base rate, never zero
        assert cosine_lr(100, 100, 1.0) == pytest.approx(
            np.cos(7 * np.pi / 16), abs=1e-15
        )
        assert cosine_lr(100, 100, 1.0) == pytest.approx(0.1950903220, abs=1e-9)

    def test_monotone_decreasing_and_positive(self):
        vals = [cosine_lr(t, 50, 0.001) for t in range(51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0

    def test_midpoint(self):
        assert cosine_lr(8, 16, 2.0) == pytest.approx(2.0 * np.cos(7 * np.pi / 32))

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            cosine_lr(-1, 10, 1.0)
        with pytest.raises(InvalidInput):
            cosine_lr(11, 10, 1.0)
        with pytest.raises(InvalidInput):
            cosine_lr(0, 0, 1.0)


class TestSgdMomentum:
    def test_hand_unrolled_recurrence(self):
        # v <- 0.9 v + g; p <- p - eta_t v, with the cosine schedule
        p = np.array([1.0])
        opt = SgdMomentum(p, eta0=0.1, total_steps=4)
        g = np.array([2.0])
        ref_p, ref_v = 1.0, 0.0
        for t in range(4):
            eta = 0.1 * np.cos(7 * np.pi * t / (16 * 4))
            ref_v = 0.9 * ref_v + 2.0
            ref_p -= eta * ref_v
            opt.step(g)
            assert p[0] == pytest.approx(ref_p, abs=1e-14)

    def test_velocity_persists_across_steps(self):
        p = np.array([0.0])
        opt = SgdMomentum(p, eta0=1.0, total_steps=100)
        zero_g = np.array([0.0])
        opt.step(np.array([1.0]))
        before = p[0]
        opt.step(zero_g)  # coasting on momentum alone
        assert p[0] < before


class TestFlatStepLoop:
    """The flat parameter vector and the one SGD loop against the per-array
    reference step of `oracles`."""

    def test_train_supervised_matches_the_per_array_reference(self):
        source, _ = generate_task(SyntheticTaskSpec(
            source_train=300, target_train=20, target_test=10, seed=4))
        rng = np.random.default_rng(8)
        clf = Classifier(MlpExtractor([16, 12, 10, 6], rng), LinearHead(10, 6, rng))
        start = [p.copy() for p in clf.params().values()]
        ref = [p.copy() for p in start]
        # 300 rows in batches of 32: every epoch ends in a wrapped batch
        train_supervised(clf, source.labeled_x, source.labeled_y, 3, 32, 0.05,
                         np.random.default_rng(9))
        oracles.reference_train_supervised(ref, source.labeled_x, source.labeled_y,
                                           3, 32, 0.05, np.random.default_rng(9))
        got = list(clf.params().values())
        assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]
        assert not any(np.array_equal(a, b) for a, b in zip(got, start))

    def test_optimizer_and_ema_match_the_per_array_reference(self):
        rng = np.random.default_rng(10)
        clf = Classifier(MlpExtractor([5, 8, 4], rng), LinearHead(3, 4, rng))
        teacher = clf.copy()
        ref = [p.copy() for p in clf.params().values()]
        ref_teacher = [p.copy() for p in ref]
        ref_v = [np.zeros_like(p) for p in ref]
        opt = SgdMomentum(clf.theta, 0.1, 5)
        for t in range(5):
            grad = rng.normal(size=clf.theta.shape)
            oracles.reference_momentum_step(
                ref, ref_v, list(clf.named(grad).values()), cosine_lr(t, 5, 0.1))
            opt.step(grad)
            model_module.ema_update(teacher.theta, clf.theta, 0.9)
            oracles.reference_ema(ref_teacher, ref, 0.9)
        assert [a.tobytes() for a in clf.params().values()] == [a.tobytes() for a in ref]
        assert ([a.tobytes() for a in teacher.params().values()]
                == [a.tobytes() for a in ref_teacher])

    def test_a_gradient_of_another_layout_is_rejected(self):
        opt = SgdMomentum(np.zeros(4), 0.1, 5)
        with pytest.raises(ShapeError):
            opt.step(np.zeros(3))

    def test_labels_outside_the_head_are_rejected_before_any_step(self):
        rng = np.random.default_rng(11)
        clf = Classifier(MlpExtractor([3, 4], rng), LinearHead(2, 4, rng))
        before = clf.theta.copy()
        for bad in ([0, 2, 1], [0, -1, 1]):
            with pytest.raises(InvalidLabel):
                train_supervised(clf, np.ones((3, 3)), np.array(bad), 1, 2, 0.1,
                                 np.random.default_rng(0))
        assert np.array_equal(clf.theta, before)

    def test_run_copies_share_no_memory(self, monkeypatch):
        teachers = []
        inner = model_module.ema_update

        def ema_update(teacher, student, alpha):
            teachers.append(teacher)
            return inner(teacher, student, alpha)

        monkeypatch.setattr(model_module, "ema_update", ema_update)
        res = run_pipeline(tiny_config(method="mean_teacher", epochs=1))
        assert teachers
        thetas = [res.source_model.theta, res.pair.source.theta,
                  res.pair.target.theta, teachers[0]]
        for i, a in enumerate(thetas):
            for b in thetas[i + 1:]:
                assert not np.shares_memory(a, b)
        for clf in (res.source_model, res.pair.source, res.pair.target):
            layers = clf.extractor.weights + clf.extractor.biases + [clf.head.w, clf.head.b]
            assert all(np.shares_memory(a, clf.theta) for a in layers)

    def test_a_diverging_supervised_run_names_its_epoch_step_and_term(self):
        with pytest.raises(InvalidInput,
                           match=r"^epoch 1, step \d+: logits contains NaN/Inf$"):
            run_pipeline(tiny_config(method="supervised", eta0=1e3, epochs=2))


class TestBatchSampler:
    def test_epoch_is_permutation(self):
        s = BatchSampler(10, 5, np.random.default_rng(0))
        seen = np.concatenate([s.next(), s.next()])
        assert sorted(seen.tolist()) == list(range(10))

    def test_wrap_completes_from_fresh_permutation(self):
        s = BatchSampler(5, 3, np.random.default_rng(1))
        a, b = s.next(), s.next()
        assert a.size == 3 and b.size == 3
        # first five draws cover 0..4 exactly once
        assert sorted(np.concatenate([a, b])[:5].tolist()) == list(range(5))

    def test_batch_larger_than_population(self):
        s = BatchSampler(3, 7, np.random.default_rng(2))
        batch = s.next()
        assert batch.size == 7
        assert set(batch.tolist()) == {0, 1, 2}

    def test_deterministic_given_seed(self):
        a = BatchSampler(20, 6, np.random.default_rng(3))
        b = BatchSampler(20, 6, np.random.default_rng(3))
        for _ in range(5):
            np.testing.assert_array_equal(a.next(), b.next())


class TestTotalLoss:
    def make_inputs(self):
        rng = np.random.default_rng(30)
        x_l = rng.normal(size=(6, 5))
        y_l = rng.integers(0, 3, size=6)
        x_u = rng.normal(size=(8, 5))
        return x_l, y_l, x_u

    @staticmethod
    def loss_cfg(**over):
        # scale 1.0 gives the thresholds ln 4 (source) and ln 3 (target)
        return ExperimentConfig(eps_k_scale=1.0, eps_r_scale=1.0, **over)

    def test_terms_add_up(self, small_pair):
        x_l, y_l, x_u = self.make_inputs()
        cfg = self.loss_cfg(method="akc+arc", lambda_k=2.0, lambda_r=5.0,
                            lambda_s=1.0)
        value, _, bd = total_loss(small_pair.target, x_l, y_l, x_u, cfg, ArcState(64),
                                  frozen_source(small_pair, x_l, x_u, cfg))
        assert tuple(bd) == STEP_COLUMNS
        assert set(STEP_COLUMNS) <= set(METRICS_COLUMNS)
        expect = bd["loss_ce"] + 2.0 * bd["loss_akc"] + 5.0 * bd["loss_arc"]
        assert value == pytest.approx(expect, abs=1e-12)

    def test_supervised_only_matches_ce(self, small_pair):
        x_l, y_l, x_u = self.make_inputs()
        cfg = self.loss_cfg(method="supervised")
        value, grad, bd = total_loss(
            small_pair.target, x_l, y_l, x_u, cfg, None,
            frozen_source(small_pair, x_l, x_u, cfg),
        )
        grads = small_pair.target.named(grad.copy())
        v_ce, g_ce = term_grads(
            small_pair.target, x_l,
            lambda features, logits: (*cross_entropy_loss(logits, y_l), None),
        )
        assert value == pytest.approx(v_ce, abs=1e-12)
        for k in g_ce:
            np.testing.assert_allclose(grads[k], g_ce[k], atol=1e-15)

    def test_composite_gradient_finite_differences(self, small_pair, monkeypatch):
        # buffers and bandwidths must be held fixed across FD evaluations
        x_l, y_l, x_u = self.make_inputs()
        cfg = self.loss_cfg(method="akc+arc", lambda_k=1.0, lambda_r=3.0,
                            lambda_s=0.0)
        rng = np.random.default_rng(31)
        seed = seeded_arc(64, rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        hold_sigmas(monkeypatch, [0.5, 1.0, 2.0])
        source = frozen_source(small_pair, x_l, x_u, cfg)

        def call():
            return total_loss(small_pair.target, x_l, y_l, x_u, cfg,
                              copy.deepcopy(seed), source)

        grads = small_pair.target.named(call()[1].copy())
        assert_grads_match(
            small_pair.target.params(), grads, lambda: call()[0], rel=5e-4
        )

    def test_pseudo_label_term_included(self, small_pair):
        x_l, y_l, x_u = self.make_inputs()
        cfg = self.loss_cfg(method="pseudo_label", lambda_s=0.5,
                            pl_confidence=0.0)
        value, _, bd = total_loss(
            small_pair.target, x_l, y_l, x_u, cfg, None,
            frozen_source(small_pair, x_l, x_u, cfg),
        )
        assert bd["loss_ssl"] > 0
        assert value == pytest.approx(bd["loss_ce"] + 0.5 * bd["loss_ssl"], abs=1e-12)


class TestMetricsLog:
    def record(self, epoch=0, **over):
        rec = {c: 0.0 for c in METRICS_COLUMNS}
        rec["epoch"] = epoch
        rec.update(over)
        return rec

    def test_csv_round_trip_exact(self, tmp_path):
        log = MetricsLog()
        log.append(**self.record(0, lr=0.001, test_acc=1 / 3))
        log.append(**self.record(1, lr=0.0009, test_acc=2 / 3))
        p = tmp_path / "m.csv"
        log.to_csv(p)
        import csv as _csv

        with open(p) as fh:
            rows = list(_csv.reader(fh))
        assert rows[0] == METRICS_COLUMNS
        assert float(rows[1][METRICS_COLUMNS.index("test_acc")]) == 1 / 3
        assert float(rows[2][METRICS_COLUMNS.index("test_acc")]) == 2 / 3

    def test_best_and_last(self):
        log = MetricsLog()
        log.append(**self.record(0, test_acc=0.5))
        log.append(**self.record(1, test_acc=0.8))
        log.append(**self.record(2, test_acc=0.6))
        assert log.best() == 0.8
        assert log.last() == 0.6


def tiny_config(**over):
    cfg = ExperimentConfig(**over)
    from dataclasses import replace

    cfg.task = replace(
        cfg.task, source_train=400, target_train=300, target_test=200
    )
    cfg.source_epochs = 3
    cfg.epochs = over.get("epochs", 2)
    return cfg


class TestRunPipeline:
    def test_metrics_schema_and_epoch_count(self):
        res = run_pipeline(tiny_config(method="akc+arc", epochs=2))
        assert len(res.metrics.records) == 3  # epoch 0 + 2 training epochs
        for rec in res.metrics.records:
            assert list(rec) == METRICS_COLUMNS

    def test_deterministic_across_runs(self):
        a = run_pipeline(tiny_config(method="akc+arc", seed=5))
        b = run_pipeline(tiny_config(method="akc+arc", seed=5))
        for ra, rb in zip(a.metrics.records, b.metrics.records):
            assert ra == rb
        for k, v in a.pair.target.params().items():
            assert np.array_equal(v, b.pair.target.params()[k])

    def test_seed_changes_trajectory(self):
        a = run_pipeline(tiny_config(method="supervised", seed=1))
        b = run_pipeline(tiny_config(method="supervised", seed=2))
        assert a.metrics.records != b.metrics.records

    def test_akc_fraction_constant_across_epochs(self):
        res = run_pipeline(tiny_config(method="akc", epochs=3))
        fracs = {r["akc_fraction"] for r in res.metrics.records}
        assert len(fracs) == 1
        assert 0.0 <= fracs.pop() <= 1.0

    def test_arc_fractions_logged(self):
        # gate fully open so selection does not depend on confidence
        res = run_pipeline(tiny_config(method="arc", epochs=2, eps_r_scale=1.0))
        trained = res.metrics.records[1:]
        assert any(r["arc_labeled_fraction"] > 0 for r in trained)
        assert any(r["arc_unlabeled_fraction"] > 0 for r in trained)

    def test_supervised_leaves_regularizer_columns_zero(self):
        res = run_pipeline(tiny_config(method="supervised", epochs=2))
        for r in res.metrics.records:
            assert r["loss_akc"] == 0.0 and r["loss_arc"] == 0.0

    def test_source_model_untouched_by_fine_tuning(self):
        res = run_pipeline(tiny_config(method="akc+arc", epochs=2))
        # the pair's source copy must equal the pre-trained source model
        for k, v in res.source_model.params().items():
            assert np.array_equal(v, res.pair.source.params()[k])

    def test_rejects_a_config_that_is_not_an_experiment_config(self):
        with pytest.raises(ConfigError, match="ExperimentConfig"):
            run_pipeline(tiny_config().to_dict())

    @pytest.mark.parametrize(
        "method", ["akc+arc", "pseudo_label+akc", "mean_teacher"]
    )
    def test_one_backward_per_step_and_no_source_calls(self, monkeypatch, method):
        calls = []  # (method name, id of the extractor) inside the open step

        def counting(name):
            inner = getattr(MlpExtractor, name)

            def wrapper(self, *args):
                calls.append((name, id(self)))
                return inner(self, *args)

            return wrapper

        for name in ("activations", "forward", "backward"):
            monkeypatch.setattr(MlpExtractor, name, counting(name))
        inner_step = training.total_loss
        steps = []  # (id of the target extractor, calls of one step)

        def step(target, *args, **kwargs):
            calls.clear()
            out = inner_step(target, *args, **kwargs)
            steps.append((id(target.extractor), list(calls)))
            return out

        monkeypatch.setattr(training, "total_loss", step)
        res = run_pipeline(tiny_config(method=method, epochs=2))
        src = id(res.pair.source.extractor)
        assert steps
        for tgt, step_calls in steps:
            assert step_calls.count(("backward", tgt)) == 1
            assert step_calls.count(("activations", tgt)) <= 1
            assert not [c for c in step_calls if c[1] == src]

    def test_setup_forwards_the_pool_through_the_source_once(self, monkeypatch):
        rows = []  # rows of each call on any extractor: (id, rows)
        inner = MlpExtractor.activations

        def activations(self, x):
            rows.append((id(self), len(x)))
            return inner(self, x)

        monkeypatch.setattr(MlpExtractor, "activations", activations)
        res = run_pipeline(tiny_config(method="akc", epochs=1))
        src = id(res.pair.source.extractor)
        pool = len(res.target_split.labeled_x) + len(res.target_split.unlabeled_x)
        assert [n for who, n in rows if who == src] == [pool]

    def test_epoch_zero_accuracy_is_imprint_accuracy(self):
        res = run_pipeline(tiny_config(method="supervised", epochs=0))
        rec = res.metrics.records[0]
        assert rec["epoch"] == 0
        assert rec["test_acc"] == accuracy(
            res.pair.target, res.target_split.test_x, res.target_split.test_y
        )


def recording(obj, reads: set, prefix: str = ""):
    """A copy of the dataclass `obj` (a config, with its task) that adds the
    dotted name of each field read from it, or from a copy of it made by
    `dataclasses.replace`, to `reads`. A read of the task itself is not
    added; reads of its fields are."""
    names = {f.name for f in dataclasses.fields(obj)
             if not dataclasses.is_dataclass(getattr(obj, f.name))}

    class Recording(type(obj)):
        def __getattribute__(self, name):
            if name in names:
                reads.add(prefix + name)
            return super().__getattribute__(name)

    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if "task" in values:
        values["task"] = recording(values["task"], reads, "task.")
    return Recording(**values)


class TestSetup:
    def test_runs_outside_a_grid_each_pre_train(self, monkeypatch):
        pre_trained = count_calls(monkeypatch, training, "train_supervised")
        cfg = tiny_config(method="supervised", epochs=1)
        run_pipeline(cfg)
        run_pipeline(cfg)
        assert len(pre_trained) == 2

    def test_shared_setups_pre_train_once_per_key_and_forget_at_the_end(
            self, monkeypatch):
        pre_trained = count_calls(monkeypatch, training, "train_supervised")
        with training.shared_setups():
            a = run_pipeline(tiny_config(method="supervised", epochs=1))
            b = run_pipeline(tiny_config(method="akc+arc", epochs=1, n_labeled=12,
                                         eps_r_scale=0.3, lambda_r=5.0))
            assert len(pre_trained) == 1
            assert b.source_model is a.source_model
            c = run_pipeline(tiny_config(method="supervised", epochs=1, seed=1))
            assert len(pre_trained) == 2 and c.source_model is not a.source_model
        run_pipeline(tiny_config(method="supervised", epochs=1))
        assert len(pre_trained) == 3

    def test_an_infeasible_split_pre_trains_nothing(self, monkeypatch):
        pre_trained = count_calls(monkeypatch, training, "train_supervised")
        # the tiny task's target has 4 classes, and imprinting needs each
        with pytest.raises(InvalidSplit, match="n_labeled=3 < 4 classes"):
            run_pipeline(tiny_config(method="supervised", n_labeled=3))
        assert pre_trained == []

    def test_a_stored_setup_is_read_only(self, monkeypatch):
        setups, inner = [], training.prepare
        monkeypatch.setattr(training, "prepare",
                            lambda cfg: setups.append(inner(cfg)) or setups[-1])
        cfg = tiny_config(method="akc", epochs=1)
        with training.shared_setups():
            res = run_pipeline(cfg)
            run_pipeline(cfg)
        (setup,) = setups
        src = setup.source
        assert res.source_model is src
        arrays = [src.theta, src.grad, *src.extractor.weights, *src.extractor.biases,
                  src.head.w, src.head.b]
        for split in (setup.source_set, setup.target_set):
            arrays += [split.labeled_x, split.labeled_y, split.unlabeled_x,
                       split.test_x, split.test_y]
        for a in arrays:
            assert not a.flags.writeable
            if a.size:
                with pytest.raises(ValueError, match="read-only"):
                    a.reshape(-1)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            res.source_model.params()["ext.W0"] += 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            setup.source = None

    def test_setup_key_names_every_field_prepare_reads(self, tmp_path):
        reads = set()
        training.prepare(recording(tiny_config(), reads))
        cfg = tiny_config(**write_csv_task(tmp_path, SyntheticTaskSpec(
            source_train=100, target_train=80, target_test=40)))
        training.prepare(recording(cfg, reads))
        # a field read but not in the key would let a grid share a Setup
        # between configs that need different ones
        assert reads == set(training.SETUP_FIELDS)


class TestAccuracy:
    def test_perfect_and_chance(self):
        model = Classifier(MlpExtractor([2, 2]), LinearHead(2, 2))
        model.extractor.weights[0][...] = np.eye(2)
        model.head.w[...] = np.eye(2)
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert accuracy(model, x, [0, 1]) == 1.0
        assert accuracy(model, x, [1, 0]) == 0.0

    def test_non_finite_logits_rejected(self):
        model = Classifier(MlpExtractor([2, 2]), LinearHead(2, 2))
        model.head.w[0, 0] = np.nan
        with pytest.raises(InvalidInput, match="logits"):
            accuracy(model, np.ones((2, 2)), [0, 1])

    def test_empty_input(self):
        model = Classifier(MlpExtractor([2, 2]), LinearHead(2, 2))
        with pytest.raises(EmptyInput):
            accuracy(model, np.zeros((0, 2)), [])
