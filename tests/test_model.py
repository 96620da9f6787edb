import copy

import numpy as np
import pytest

from akcarc.errors import MissingClassError, ShapeError
from akcarc.model import (
    Classifier,
    LinearHead,
    MlpExtractor,
    ModelPair,
    ema_update,
    imprint,
    save_checkpoint,
)
from akcarc.ssl_baselines import cross_entropy_loss

from conftest import assert_grads_match, term_grads
from oracles import reference_backward


def loop_forward(ext, x):
    """Scalar-loop oracle for the extractor forward pass."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((x.shape[0], ext.dims[-1]))
    for r in range(x.shape[0]):
        a = x[r]
        for li, (w, b) in enumerate(zip(ext.weights, ext.biases)):
            z = np.array(
                [sum(a[i] * w[i, j] for i in range(w.shape[0])) + b[0, j]
                 for j in range(w.shape[1])]
            )
            a = np.maximum(z, 0) if li < len(ext.weights) - 1 else z
        out[r] = a
    return out


class TestForward:
    def test_zero_weights_zero_features(self):
        ext = MlpExtractor([3, 4, 2])
        for w in ext.weights:
            w[...] = 0.0
        assert np.all(ext.forward(np.ones((5, 3))) == 0.0)

    def test_single_linear_layer_identity(self):
        ext = MlpExtractor([3, 3])
        ext.weights[0][...] = np.eye(3)
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_allclose(ext.forward(x), x)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        ext = MlpExtractor([4, 6, 5, 3], rng)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(ext.forward(x), loop_forward(ext, x), atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            MlpExtractor([3, 2]).forward(np.zeros((2, 4)))

    def test_activations_end_in_features(self):
        rng = np.random.default_rng(12)
        ext = MlpExtractor([4, 6, 5, 3], rng)
        x = rng.normal(size=(3, 4))
        acts = ext.activations(x)
        assert [a.shape[1] for a in acts] == ext.dims
        np.testing.assert_array_equal(acts[0], x)
        np.testing.assert_array_equal(acts[-1], ext.forward(x))


class TestHead:
    def test_zero_features_gives_bias(self):
        head = LinearHead(3, 4)
        head.b[...] = [[1.0, 2.0, 3.0]]
        np.testing.assert_allclose(
            head.forward(np.zeros((2, 4))), [[1, 2, 3], [1, 2, 3]]
        )

    def test_identity_weights(self):
        head = LinearHead(3, 3)
        head.w[...] = np.eye(3)
        head.b[...] = 0.0
        f = np.random.default_rng(2).normal(size=(4, 3))
        np.testing.assert_allclose(head.forward(f), f)

    def test_loop_oracle(self):
        rng = np.random.default_rng(3)
        head = LinearHead(4, 3, rng)
        f = rng.normal(size=(2, 3))
        expect = np.array(
            [[sum(f[i, k] * head.w[c, k] for k in range(3)) + head.b[0, c]
              for c in range(4)] for i in range(2)]
        )
        np.testing.assert_allclose(head.forward(f), expect, atol=1e-12)


def ce_term(y):
    return lambda features, logits: (*cross_entropy_loss(logits, y), None)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        ext = MlpExtractor([3, 4, 2], np.random.default_rng(4))
        acts = ext.activations(np.random.default_rng(5).normal(size=(3, 3)))
        out = ([np.full_like(w, np.nan) for w in ext.weights],
               [np.full_like(b, np.nan) for b in ext.biases])
        ext.backward(acts, np.zeros((3, 2)), out)
        assert all(np.all(g == 0) for grads in out for g in grads)

    def test_cross_entropy_gradient_finite_differences(self):
        rng = np.random.default_rng(6)
        model = Classifier(MlpExtractor([5, 8, 4], rng), LinearHead(3, 4, rng))
        x = rng.normal(size=(6, 5))
        y = rng.integers(0, 3, size=6)
        _, grads = term_grads(model, x, ce_term(y))
        assert_grads_match(
            model.params(), grads, lambda: term_grads(model, x, ce_term(y))[0]
        )

    def test_source_frozen_during_loss(self, small_pair, micro_batch):
        x_l, y_l, _ = micro_batch
        before = {k: v.copy() for k, v in small_pair.source.params().items()}
        for _ in range(3):
            _, grads = term_grads(small_pair.target, x_l, ce_term(y_l))
            for k, p in small_pair.target.params().items():
                p -= 0.01 * grads[k]
        for k, v in small_pair.source.params().items():
            assert np.array_equal(v, before[k])


class TestImprint:
    def test_single_example_per_class(self):
        rng = np.random.default_rng(8)
        f = rng.normal(size=(3, 4))
        head = LinearHead(3, 4)
        imprint(head, f, [0, 1, 2])
        expect = f / np.linalg.norm(f, axis=1, keepdims=True)
        np.testing.assert_allclose(head.w, expect, atol=1e-12)
        assert np.all(head.b == 0)

    def test_duplicates_same_as_single(self):
        rng = np.random.default_rng(9)
        f = rng.normal(size=(2, 4))
        h1 = imprint(LinearHead(2, 4), f, [0, 1])
        h2 = imprint(
            LinearHead(2, 4), np.vstack([f, f]), [0, 1, 0, 1]
        )
        np.testing.assert_allclose(h1.w, h2.w, atol=1e-12)

    def test_rows_unit_norm(self):
        rng = np.random.default_rng(10)
        f = rng.normal(size=(20, 6))
        y = rng.integers(0, 4, size=20)
        y[:4] = [0, 1, 2, 3]
        head = imprint(LinearHead(4, 6), f, y)
        np.testing.assert_allclose(
            np.linalg.norm(head.w, axis=1), np.ones(4), atol=1e-9
        )

    def test_missing_class_rejected(self):
        with pytest.raises(MissingClassError):
            imprint(LinearHead(3, 4), np.ones((2, 4)), [0, 1])


class TestEmaUpdate:
    def test_alpha_zero_copies_student(self):
        t = np.zeros((2, 2))
        s = np.ones((2, 2))
        ema_update(t, s, 0.0)
        np.testing.assert_array_equal(t, s)

    def test_alpha_one_keeps_teacher(self):
        t = np.full((2, 2), 5.0)
        ema_update(t, np.ones((2, 2)), 1.0)
        assert np.all(t == 5.0)

    def test_scalar_arithmetic(self):
        t = np.array([[0.0]])
        ema_update(t, np.array([[1.0]]), 0.999)
        assert t[0, 0] == pytest.approx(0.001, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ema_update(np.zeros((2, 2)), np.zeros(3), 0.5)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        model = Classifier(MlpExtractor([5, 8, 4], rng), LinearHead(3, 4, rng))
        path = tmp_path / "model.npz"
        save_checkpoint(path, model)
        with np.load(path) as z:
            saved = {name: z[name] for name in z.files}
        params = {name.replace(".", "__"): v for name, v in model.params().items()}
        assert sorted(params) == ["ext__W0", "ext__W1", "ext__b0", "ext__b1",
                                  "head__W", "head__b"]
        assert set(saved) == set(params) | {"__dims", "__classes", "__version"}
        for name, v in params.items():
            assert saved[name].dtype == v.dtype and saved[name].shape == v.shape
            assert saved[name].tobytes() == v.tobytes()
        assert saved["__dims"].tolist() == [5, 8, 4]
        assert saved["__classes"].tolist() == [3]
        assert saved["__version"].tolist() == [1]


class TestModelPair:
    def test_architecture_mismatch_rejected(self):
        a = Classifier(MlpExtractor([5, 8, 4]), LinearHead(3, 4))
        b = Classifier(MlpExtractor([5, 6, 4]), LinearHead(3, 4))
        with pytest.raises(ShapeError):
            ModelPair(source=a, target=b)

    def test_source_defensively_copied(self):
        src = Classifier(MlpExtractor([5, 8, 4]), LinearHead(3, 4))
        pair = ModelPair(source=src, target=src.copy())
        src.extractor.weights[0][...] = 999.0
        assert not np.any(pair.source.extractor.weights[0] == 999.0)


def layer_arrays(model):
    """A classifier's parameter arrays as its layers hold them, in the
    order of its flat vector."""
    ext = model.extractor
    pairs = [a for wb in zip(ext.weights, ext.biases) for a in wb]
    return pairs + [model.head.w, model.head.b]


class TestFlatParameters:
    def make(self, seed=13):
        rng = np.random.default_rng(seed)
        return Classifier(MlpExtractor([5, 8, 4], rng), LinearHead(3, 4, rng))

    def test_params_and_layers_alias_the_flat_vector(self):
        model = self.make()
        params = model.params()
        assert list(params) == ["ext.W0", "ext.b0", "ext.W1", "ext.b1", "head.W", "head.b"]
        assert [p.shape for p in params.values()] == [
            (5, 8), (1, 8), (8, 4), (1, 4), (3, 4), (1, 3)]
        assert model.theta.shape == model.grad.shape == (
            sum(p.size for p in params.values()),)
        assert model.theta.dtype == model.grad.dtype == np.float64
        model.theta[:] = np.arange(model.theta.size)
        for view in list(params.values()) + layer_arrays(model):
            assert view.base is model.theta
        assert np.array_equal(np.concatenate([a.ravel() for a in layer_arrays(model)]),
                              model.theta)
        model.head.b[0, 2] = -1.0  # a write through a layer reaches theta
        assert model.theta[-1] == -1.0

    def test_backward_writes_the_flat_gradient(self):
        model = self.make()
        rng = np.random.default_rng(14)
        acts = model.extractor.activations(rng.normal(size=(6, 5)))
        d_logits = rng.normal(size=(6, 3))
        grad = model.backward(acts, d_logits)
        assert grad is model.grad
        want = reference_backward(model.extractor.weights, model.head.w, acts, d_logits)
        assert [g.tobytes() for g in model.named(grad).values()] == [
            g.tobytes() for g in want]

    @pytest.mark.parametrize("how", ["copy", "deepcopy"])
    def test_a_copy_shares_no_memory_with_its_original(self, how):
        model = self.make()
        twin = model.copy() if how == "copy" else copy.deepcopy(model)
        assert np.array_equal(twin.theta, model.theta)
        for a in [twin.theta, twin.grad] + layer_arrays(twin):
            for b in [model.theta, model.grad] + layer_arrays(model):
                assert not np.shares_memory(a, b)
        assert all(a.base is twin.theta for a in layer_arrays(twin))
        twin.theta += 1.0
        assert not np.array_equal(twin.theta, model.theta)
        assert np.array_equal(twin.extractor.weights[0], model.extractor.weights[0] + 1.0)

    def test_imprint_writes_into_the_flat_vector(self):
        model = self.make()
        imprint(model.head, np.random.default_rng(15).normal(size=(3, 4)), [0, 1, 2])
        assert model.head.w.base is model.theta and model.head.b.base is model.theta
        assert np.array_equal(model.theta[-15:-3], model.head.w.ravel())
