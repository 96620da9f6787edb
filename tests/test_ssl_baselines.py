import numpy as np
import pytest

from akcarc.errors import EmptyInput, InvalidLabel
from akcarc.model import Classifier, LinearHead, MlpExtractor, ema_update
from akcarc.numerics import softmax_rows
from akcarc.ssl_baselines import (
    cross_entropy_loss,
    mean_teacher_loss,
    noisy_views,
    pseudo_label_loss,
)

from conftest import assert_grads_match, term_grads


def make_model(seed=0):
    rng = np.random.default_rng(seed)
    return Classifier(MlpExtractor([5, 8, 3], rng), LinearHead(3, 3, rng))


def pl_term(pl_confidence):
    return lambda features, logits: (*pseudo_label_loss(logits, pl_confidence), None)


class TestCrossEntropy:
    def test_uniform_logits_value(self):
        # zero weights everywhere -> uniform softmax -> loss = ln C exactly
        model = make_model()
        for p in model.params().values():
            p[...] = 0.0
        v, _ = cross_entropy_loss(model.forward(np.ones((4, 5))), [0, 1, 2, 0])
        assert v == pytest.approx(np.log(3.0), abs=1e-12)

    def test_hand_computed_two_examples(self):
        model = make_model(1)
        x = np.random.default_rng(2).normal(size=(2, 5))
        y = np.array([1, 2])
        probs = softmax_rows(model.head.forward(model.extractor.forward(x)))
        expect = -(np.log(probs[0, 1]) + np.log(probs[1, 2])) / 2
        v, _ = cross_entropy_loss(model.forward(x), y)
        assert v == pytest.approx(expect, abs=1e-12)

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidLabel):
            cross_entropy_loss(make_model().forward(np.ones((2, 5))), [0, 3])

    def test_empty_batch(self):
        with pytest.raises(EmptyInput):
            cross_entropy_loss(np.zeros((0, 3)), [])


class TestPseudoLabel:
    def test_none_accepted_zero_loss(self):
        # near-uniform predictions never clear a 0.95 confidence bar
        model = make_model(3)
        for p in model.params().values():
            p *= 1e-3
        x = np.random.default_rng(4).normal(size=(8, 5))
        v, grads = term_grads(model, x, pl_term(0.95))
        assert v == 0.0
        assert all(np.all(g == 0) for g in grads.values())

    def test_threshold_zero_accepts_all(self):
        model = make_model(5)
        x = np.random.default_rng(6).normal(size=(6, 5))
        probs = softmax_rows(model.forward(x))
        expect = float(-np.log(probs.max(axis=1)).mean())
        v, _ = pseudo_label_loss(model.forward(x), 0.0)
        assert v == pytest.approx(expect, abs=1e-12)

    def test_matches_ce_on_argmax_labels(self):
        # with every example accepted, the loss is CE against argmax labels
        model = make_model(7)
        x = np.random.default_rng(8).normal(size=(5, 5))
        labels = model.predict(x)
        v_pl, d_pl = pseudo_label_loss(model.forward(x), 0.0)
        v_ce, d_ce = cross_entropy_loss(model.forward(x), labels)
        assert v_pl == pytest.approx(v_ce, abs=1e-12)
        np.testing.assert_allclose(d_pl, d_ce, atol=1e-15)
        assert np.any(d_pl != 0)

    def test_gradient_finite_differences(self):
        # pseudo-labels are constants: FD must hold the accepted set and
        # labels fixed, which the loss itself does away from the threshold
        model = make_model(9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 5)) * 2.0
        v, grads = term_grads(model, x, pl_term(0.0))
        probs = softmax_rows(model.forward(x))
        labels = probs.argmax(axis=1)
        assert_grads_match(
            model.params(), grads,
            lambda: cross_entropy_loss(model.forward(x), labels)[0],
        )

    def test_partial_acceptance_averages_over_accepted(self):
        model = make_model(11)
        x = np.random.default_rng(12).normal(size=(20, 5)) * 3.0
        probs = softmax_rows(model.forward(x))
        maxima = probs.max(axis=1)
        conf = float(np.median(maxima))  # splits the batch by construction
        acc = maxima >= conf
        assert 0 < acc.sum() < 20
        expect = float(-np.log(probs.max(axis=1)[acc]).mean())
        v, _ = pseudo_label_loss(model.forward(x), conf)
        assert v == pytest.approx(expect, abs=1e-12)


class FixedRng:
    """Replays a recorded stream of normal draws (for FD determinism)."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.i = 0

    def normal(self, loc, scale, size):
        out = self.draws[self.i]
        self.i += 1
        assert out.shape == tuple(size)
        return loc + scale * out

    def reset(self):
        self.i = 0


def mt_call(student, teacher, x, noise_std, rng):
    """Mean teacher as `total_loss` runs it: noisy views, the student
    forward, the teacher forward, the term, then the student backward."""
    x_s, x_t = noisy_views(x, noise_std, rng)
    logits_t = teacher.forward(x_t)
    return term_grads(
        student, x_s,
        lambda features, logits: (*mean_teacher_loss(logits, logits_t), None),
    )


class TestMeanTeacher:
    def test_identical_models_no_noise_zero(self):
        student = make_model(13)
        teacher = student.copy()
        x = np.random.default_rng(14).normal(size=(4, 5))
        v, grads = mt_call(student, teacher, x, 0.0, None)
        assert v == pytest.approx(0.0, abs=1e-15)
        # value is exactly 0 at the minimum of a squared penalty
        for g in grads.values():
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_value_is_mse_of_softmaxes(self):
        student = make_model(15)
        teacher = make_model(16)
        x = np.random.default_rng(17).normal(size=(5, 5))
        p_s = softmax_rows(student.forward(x))
        p_t = softmax_rows(teacher.forward(x))
        expect = float(((p_s - p_t) ** 2).mean())
        v, _ = mean_teacher_loss(student.forward(x), teacher.forward(x))
        assert v == pytest.approx(expect, abs=1e-12)

    def test_gradient_finite_differences_with_noise(self):
        student = make_model(18)
        teacher = make_model(19)
        x = np.random.default_rng(20).normal(size=(4, 5))
        base = np.random.default_rng(21)
        draws = [base.normal(size=(4, 5)), base.normal(size=(4, 5))]
        rng = FixedRng(draws)
        v, grads = mt_call(student, teacher, x, 0.1, rng)

        def loss():
            rng.reset()
            return mt_call(student, teacher, x, 0.1, rng)[0]

        assert_grads_match(student.params(), grads, loss)

    def test_noise_draws_student_then_teacher(self):
        x = np.random.default_rng(26).normal(size=(3, 5))
        draws = [np.full((3, 5), 1.0), np.full((3, 5), 2.0)]
        x_s, x_t = noisy_views(x, 0.5, FixedRng(draws))
        np.testing.assert_array_equal(x_s, x + 0.5)
        np.testing.assert_array_equal(x_t, x + 1.0)
        x_s, x_t = noisy_views(x, 0.0, None)  # no noise, no draw
        np.testing.assert_array_equal(x_s, x)
        np.testing.assert_array_equal(x_t, x)

    def test_teacher_gets_no_gradient(self):
        student = make_model(22)
        teacher = make_model(23)
        x = np.random.default_rng(24).normal(size=(4, 5))
        before = {k: v.copy() for k, v in teacher.params().items()}
        mt_call(student, teacher, x, 0.0, None)
        for k, v in teacher.params().items():
            assert np.array_equal(v, before[k])


class TestTeacherEma:
    def test_recurrence_hand_unrolled(self):
        # theta' <- alpha theta' + (1-alpha) theta, three steps by hand
        alpha = 0.9
        t = np.array([[1.0]])
        expect = 1.0
        for step_val in (2.0, 3.0, 4.0):
            ema_update(t, np.array([[step_val]]), alpha)
            expect = alpha * expect + (1 - alpha) * step_val
            assert t[0, 0] == pytest.approx(expect, abs=1e-14)

