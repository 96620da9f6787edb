import copy

import numpy as np
import pytest

from akcarc.config import ExperimentConfig
from akcarc.consistency import ArcState
from akcarc import training
from akcarc.errors import ConfigError, EmptyInput, InvalidInput
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
)

from conftest import (
    assert_grads_match,
    frozen_source,
    hold_sigmas,
    seeded_arc,
    term_grads,
)


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
        p = {"w": np.array([[1.0]])}
        opt = SgdMomentum(p, eta0=0.1, total_steps=4)
        g = {"w": np.array([[2.0]])}
        ref_p, ref_v = 1.0, 0.0
        for t in range(4):
            eta = 0.1 * np.cos(7 * np.pi * t / (16 * 4))
            ref_v = 0.9 * ref_v + 2.0
            ref_p -= eta * ref_v
            opt.step(g)
            assert p["w"][0, 0] == pytest.approx(ref_p, abs=1e-14)

    def test_velocity_persists_across_steps(self):
        p = {"w": np.array([[0.0]])}
        opt = SgdMomentum(p, eta0=1.0, total_steps=100)
        zero_g = {"w": np.array([[0.0]])}
        opt.step({"w": np.array([[1.0]])})
        before = p["w"][0, 0]
        opt.step(zero_g)  # coasting on momentum alone
        assert p["w"][0, 0] < before


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
        value, grads, bd = total_loss(
            small_pair.target, x_l, y_l, x_u, cfg, None,
            frozen_source(small_pair, x_l, x_u, cfg),
        )
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

        _, grads, _ = call()
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
