import copy
import math

import numpy as np
import pytest

from akcarc import consistency, numerics
from akcarc.config import ExperimentConfig
from akcarc.consistency import (
    ArcState,
    ReplayBuffer,
    akc_loss,
    akc_weights,
    arc_loss,
    buffer_update_and_fetch,
    entropy_gate,
)
from akcarc.errors import EmptyInput, InvalidInput, ShapeError
from akcarc.training import run_pipeline

from conftest import assert_grads_match, hold_sigmas, pushed_pool, rows_by_age, term_grads
from oracles import brute_force_mmd2, dense_median_sigmas, dense_mmd2_value_grad


def akc_on(pair, x, eps_k, mode="mse", weights=None):
    """akc_loss on the target and frozen source features of x."""
    if weights is None:
        weights = akc_weights(pair.source, x, eps_k)
    return akc_loss(pair.target.extractor.forward(x),
                    pair.source.extractor.forward(x), weights, mode)


def akc_term(pair, x, eps_k, mode="mse", weights=None):
    """The AKC term of the rows x, for `term_grads`."""
    f0 = pair.source.extractor.forward(x)
    w = akc_weights(pair.source, x, eps_k) if weights is None else weights

    def term(features, logits):
        value, d_f, _ = akc_loss(features, f0, w, mode)
        return value, None, d_f

    return term


def arc_on(pair, x_l, x_u, eps_r, state):
    """arc_loss on the target features and logits of x_l and x_u."""
    ext, head = pair.target.extractor, pair.target.head
    f_l, f_u = ext.forward(x_l), ext.forward(x_u)
    return arc_loss(f_l, f_u, head.forward(f_l), head.forward(f_u),
                    eps_r, state)


def arc_term(n_l, eps_r, state):
    """The ARC term of the stacked rows [x_l; x_u], for `term_grads`."""

    def term(features, logits):
        value, (d_l, d_u), _, _ = arc_loss(
            features[:n_l], features[n_l:], logits[:n_l], logits[n_l:],
            eps_r, state,
        )
        return value, None, np.vstack([d_l, d_u])

    return term


class Logits:
    """A stand-in source model whose `forward` returns its input as logits."""

    def forward(self, z):
        return z


def gate(p, eps_k):
    """AKC gate weights of probability rows p, passed as the logits log p."""
    return akc_weights(Logits(), np.log(np.atleast_2d(p)), eps_k)


class TestAkcGate:
    def test_below_threshold_selected(self):
        # H([0.9, 0.1]) ~ 0.325 < 0.7
        assert gate([0.9, 0.1], 0.7).tolist() == [1.0]

    def test_boundary_inclusive(self):
        z = np.zeros((1, 2))
        h = numerics.entropy_rows(numerics.softmax_rows(z))[0]
        assert h == pytest.approx(np.log(2), abs=1e-15)
        assert akc_weights(Logits(), z, h).tolist() == [1.0]
        assert akc_weights(Logits(), z, h - 1e-9).tolist() == [0.0]

    def test_max_entropy_threshold_selects_everything(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(6), size=50)
        assert np.all(gate(p, np.log(6)) == 1.0)

    def test_monotone_in_eps(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(5))
            eps = sorted(rng.uniform(0, np.log(5), size=2))
            if gate(p, eps[0])[0]:
                assert gate(p, eps[1])[0]


class TestAkcLoss:
    def test_identical_models_zero(self, small_pair, micro_batch):
        x_l, _, x_u = micro_batch
        pair = small_pair
        pair.target.extractor = copy.deepcopy(pair.source.extractor)
        v, _, _ = akc_on(pair, np.vstack([x_l, x_u]), eps_k=np.log(4))
        assert v == pytest.approx(0.0, abs=1e-15)

    def test_all_gates_closed_zero(self, small_pair, micro_batch):
        x_l, _, x_u = micro_batch
        v, d_f, frac = akc_on(small_pair, np.vstack([x_l, x_u]), eps_k=0.0)
        assert v == 0.0
        assert frac == 0.0
        assert np.all(d_f == 0)

    def test_hand_denominator(self, small_pair):
        # two samples, divergences 0.4 (selected) and 0.6 (rejected): the
        # mean is still over the full batch, so R_K = 0.4 / 2
        x = np.random.default_rng(2).normal(size=(2, 5))
        f0 = small_pair.source.extractor.forward(x)
        f = small_pair.target.extractor.forward(x)
        d = ((f - f0) ** 2).sum(axis=1)
        v, _, frac = akc_loss(f, f0, [1.0, 0.0], "mse")
        assert v == pytest.approx(d[0] / 2, abs=1e-12)
        assert frac == 0.5

    def test_empty_batch_rejected(self, small_pair):
        with pytest.raises(EmptyInput):
            akc_loss(np.zeros((0, 3)), np.zeros((0, 3)), [], "mse")

    def test_source_features_must_match(self):
        with pytest.raises(ShapeError):
            akc_loss(np.zeros((2, 3)), np.zeros((3, 3)), [1.0, 1.0], "mse")

    def test_unknown_mode_is_invalid_input(self):
        f = np.ones((2, 3))
        with pytest.raises(InvalidInput, match="bogus"):
            akc_loss(f, f, [1.0, 1.0], "bogus")

    def test_selected_fraction_statistic(self, small_pair):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 5))
        w = akc_weights(small_pair.source, x, 0.8)
        _, _, frac = akc_on(small_pair, x, eps_k=0.8)
        assert frac == pytest.approx(w.sum() / 16)
        assert 0.0 <= frac <= 1.0

    @pytest.mark.parametrize("mode", ["mse", "kl"])
    def test_gradient_finite_differences(self, small_pair, micro_batch, mode):
        x_l, _, x_u = micro_batch
        x = np.vstack([x_l, x_u])
        w = akc_weights(small_pair.source, x, 1.2)
        assert 0 < w.sum() < len(w) or w.sum() > 0
        term = akc_term(small_pair, x, 1.2, mode=mode, weights=w)
        v, grads = term_grads(small_pair.target, x, term)
        ext_params = {
            f"ext.{k}": p for k, p in small_pair.target.extractor.params().items()
        }
        assert_grads_match(
            ext_params, grads,
            lambda: term_grads(small_pair.target, x, term)[0],
        )

    def test_head_receives_no_gradient(self, small_pair, micro_batch):
        x_l, _, _ = micro_batch
        term = akc_term(small_pair, x_l, np.log(4))
        _, grads = term_grads(small_pair.target, x_l, term)
        assert any(np.any(g != 0) for k, g in grads.items() if k.startswith("ext."))
        assert all(np.all(g == 0) for k, g in grads.items() if k.startswith("head."))

    def test_source_not_mutated(self, small_pair, micro_batch):
        x_l, _, _ = micro_batch
        before = {k: v.copy() for k, v in small_pair.source.params().items()}
        term_grads(small_pair.target, x_l, akc_term(small_pair, x_l, np.log(4)))
        for k, v in small_pair.source.params().items():
            assert np.array_equal(v, before[k])


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(2)
        for v in ([[1.0]], [[2.0]], [[3.0]]):
            buf.update(v)
        np.testing.assert_array_equal(rows_by_age(buf), [[2.0], [3.0]])

    def test_window_shorter_than_capacity(self):
        buf = ReplayBuffer(10)
        buf.update([[1.0], [2.0]])
        assert len(buf) == 2 and rows_by_age(buf).shape == (2, 1)

    def test_capacity_bound_always_holds(self):
        rng = np.random.default_rng(4)
        buf = ReplayBuffer(3)
        for _ in range(50):
            buf.update(rng.normal(size=(rng.integers(0, 5), 2)))
            assert len(buf) <= 3

    def test_matches_reference_queue_interleaved(self):
        rng = np.random.default_rng(5)
        for trial in range(1000):
            cap = int(rng.integers(1, 9))
            k = int(rng.integers(1, 9))
            buf = ReplayBuffer(min(cap, k))
            ref = []
            for _ in range(rng.integers(1, 12)):
                if rng.random() < 0.7:
                    rows = rng.normal(size=(rng.integers(0, 4), 3))
                    buf.update(rows)
                    ref.extend([r.copy() for r in rows])
                    del ref[:-cap]
                else:
                    got = rows_by_age(buf)
                    expect = np.asarray(ref[-k:]) if ref else np.zeros((0, 3))
                    assert got.shape[0] == len(ref[-k:])
                    if got.size:
                        np.testing.assert_array_equal(got, expect)

    def test_new_names_the_slots_of_the_newest_rows(self):
        # after each update, rows[new] are the newest min(p, w) rows of a
        # reference queue, oldest first: empty updates name no slot, and
        # an update larger than the window names every slot once
        rng = np.random.default_rng(6)
        for w in (1, 2, 3, 5):
            buf, ref = ReplayBuffer(w), []
            for p in (0, 2, 0, 7, 1, 0, w, 3, w + 1, 0):
                rows = rng.normal(size=(p, 2))
                buf.update(rows)
                ref.extend(rows)
                t = min(p, w)
                assert buf.new.shape == (t,) and len(set(buf.new.tolist())) == t
                assert set(buf.new.tolist()) <= set(range(len(buf)))
                if t:
                    np.testing.assert_array_equal(buf.rows[buf.new], ref[len(ref) - t:])

    def test_stored_rows_detached(self):
        buf = ReplayBuffer(4)
        rows = np.ones((2, 2))
        buf.update(rows)
        rows[...] = 99.0
        assert np.all(rows_by_age(buf) == 1.0)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_size_below_one_is_invalid_input(self, capacity):
        with pytest.raises(InvalidInput):
            ReplayBuffer(capacity)

    def test_dim_mismatch(self):
        buf = ReplayBuffer(4)
        buf.update(np.ones((1, 3)))
        with pytest.raises(ShapeError):
            buf.update(np.ones((1, 2)))

    def test_update_and_fetch_helper(self):
        buf = ReplayBuffer(2)
        out = buffer_update_and_fetch(buf, np.arange(8.0).reshape(4, 2))
        np.testing.assert_array_equal(out, [[4.0, 5.0], [6.0, 7.0]])


class TestArcSelect:
    """ARC's selection is the entropy gate on the target logits; the
    probability rows p are passed as the logits log p."""

    def test_max_entropy_selects_all(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(5, 3))
        p = rng.dirichlet(np.ones(4), size=5)
        idx = np.flatnonzero(entropy_gate(np.log(p), np.log(4)))
        assert list(idx) == [0, 1, 2, 3, 4]

    def test_zero_eps_selects_none(self):
        rng = np.random.default_rng(7)
        f = rng.normal(size=(5, 3))
        p = rng.dirichlet(np.ones(4), size=5)
        selected = entropy_gate(np.log(p), 0.0)
        assert not selected.any() and f[selected].shape == (0, 3)

    def test_threshold_keeps_order(self):
        f = np.arange(9.0).reshape(3, 3)
        # entropies ~ {0.056, 0.898, 0.325}
        p = np.array([[0.99, 0.01], [0.4, 0.6], [0.93, 0.07]])
        selected = entropy_gate(np.log(p), 0.5)
        assert list(np.flatnonzero(selected)) == [0, 2]
        np.testing.assert_array_equal(f[selected], f[[0, 2]])

    def test_nested_in_eps(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            f = rng.normal(size=(8, 2))
            p = rng.dirichlet(np.ones(3), size=8)
            lo, hi = sorted(rng.uniform(0, np.log(3), size=2))
            assert np.all(entropy_gate(np.log(p), lo) <= entropy_gate(np.log(p), hi))


class TestEntropyGate:
    def test_akc_weights_are_the_gate_of_the_source_logits(self, small_pair):
        x = np.random.default_rng(13).normal(size=(40, 5))
        for eps in (0.0, 0.3, 0.7, np.log(4)):
            w = akc_weights(small_pair.source, x, eps)
            gate = entropy_gate(small_pair.source.forward(x), eps)
            assert w.dtype == np.float64
            np.testing.assert_array_equal(w, gate)

    def test_arc_fractions_are_the_gate_means(self, small_pair):
        rng = np.random.default_rng(14)
        ext, head = small_pair.target.extractor, small_pair.target.head
        f_l = ext.forward(rng.normal(size=(7, 5)))
        f_u = ext.forward(rng.normal(size=(9, 5)))
        z_l, z_u = head.forward(f_l), head.forward(f_u)
        for eps in (0.0, 0.8, 1.0, np.log(3)):
            _, _, frac_l, frac_u = arc_loss(f_l, f_u, z_l, z_u, eps, fresh_state())
            assert frac_l == entropy_gate(z_l, eps).mean()
            assert frac_u == entropy_gate(z_u, eps).mean()


def fresh_state(w=16):
    return ArcState(w)


class TestArcState:
    def test_buffers_hold_no_more_than_the_window(self):
        # a buffer serves only its last k rows, so it is sized to those
        buf = ReplayBuffer(min(100000, 5))
        rng = np.random.default_rng(0)
        seen = 0
        for p in (3, 0, 8, 2, 12):
            buf.update(rng.normal(size=(p, 3)))
            seen += p
            assert len(buf) == min(seen, 5) and buf.rows.shape == (5, 3)

    def test_deep_copy_of_a_full_state_steps_like_the_original(self):
        # four pushes of 3 rows fill both windows of w = 6 and wrap them
        rng = np.random.default_rng(21)
        state = ArcState(6)
        for _ in range(4):
            f = rng.normal(size=(3, 3))
            arc_loss(f, 0.5 - f, open_gate(f), open_gate(f), 0.0, state)
        twin = copy.deepcopy(state)
        f_l, f_u = rng.normal(size=(2, 3)), rng.normal(size=(4, 3)) + 0.3
        (v0, d0, _, _), (v1, d1, _, _) = (
            arc_loss(f_l, f_u, open_gate(f_l), open_gate(f_u), 0.0, s)
            for s in (state, twin))
        assert v0 == v1 > 0
        for a, b in zip(d0, d1):
            np.testing.assert_array_equal(a, b)

    def test_no_attribute_is_a_view_of_another(self):
        state = ArcState(6)
        rng = np.random.default_rng(22)
        for p in (4, 5):
            f = rng.normal(size=(p, 3))
            arc_loss(f, f + 1.0, open_gate(f), open_gate(f), 0.0, state)
        arrays = [a for obj in (state.buf_l, state.buf_u, state)
                  for a in vars(obj).values() if isinstance(a, np.ndarray)]
        # the buffers' rows and new slots, d2, the cell map and slab
        assert len(arrays) == 7
        assert state.new[0] is state.buf_l.new and state.new[1] is state.buf_u.new
        for i, a in enumerate(arrays):
            assert all(not np.shares_memory(a, b) for b in arrays[i + 1:])


class TestArcLoss:
    def test_identical_selected_sets_zero(self, small_pair):
        x = np.random.default_rng(9).normal(size=(6, 5))
        v, _, fl, fu = arc_on(small_pair, x, x.copy(), np.log(3), fresh_state())
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_empty_selection_skips(self, small_pair, micro_batch):
        x_l, _, x_u = micro_batch
        v, d_fs, fl, fu = arc_on(small_pair, x_l, x_u, 0.0, fresh_state())
        assert v == 0.0 and fl == 0.0 and fu == 0.0
        assert all(np.all(d == 0) for d in d_fs)

    def test_matches_mmd_oracle_on_buffered_sets(self, small_pair, monkeypatch):
        rng = np.random.default_rng(10)
        state = fresh_state()
        # pre-populate buffers, then check the loss equals the brute-force
        # MMD^2 of the fetched sets
        warm_l = rng.normal(size=(5, 5)) + 2.0
        warm_u = rng.normal(size=(5, 5)) - 2.0
        arc_on(small_pair, warm_l, warm_u, np.log(3), state)
        x_l = rng.normal(size=(4, 5))
        x_u = rng.normal(size=(4, 5))
        snap = copy.deepcopy(state)
        sigmas = [0.9, 2.1]
        hold_sigmas(monkeypatch, sigmas)
        v, _, _, _ = arc_on(small_pair, x_l, x_u, np.log(3), state)
        star_l = buffer_update_and_fetch(
            snap.buf_l, arc_loss_selected(small_pair, x_l, np.log(3))
        )
        star_u = buffer_update_and_fetch(
            snap.buf_u, arc_loss_selected(small_pair, x_u, np.log(3))
        )
        assert v == pytest.approx(brute_force_mmd2(star_l, star_u, sigmas), abs=1e-10)

    def test_gradient_finite_differences_with_buffer(self, small_pair, micro_batch,
                                                     monkeypatch):
        x_l, _, x_u = micro_batch
        rng = np.random.default_rng(11)
        state = fresh_state()
        arc_on(
            small_pair, rng.normal(size=(5, 5)), rng.normal(size=(5, 5)),
            np.log(3), state,
        )
        hold_sigmas(monkeypatch, [1.0, 2.0])
        eps = np.log(3)  # select everything: gate flips cannot perturb the fd
        x = np.vstack([x_l, x_u])

        def call():
            term = arc_term(len(x_l), eps, copy.deepcopy(state))
            return term_grads(small_pair.target, x, term)

        v, grads = call()
        assert v > 0
        ext_params = {
            f"ext.{k}": p for k, p in small_pair.target.extractor.params().items()
        }
        assert_grads_match(ext_params, grads, lambda: call()[0], rel=1e-4,
                           abs_tol=1e-8)

    def test_buffered_rows_carry_no_gradient(self, small_pair, monkeypatch):
        # a parameter perturbation must influence the loss only through the
        # current batch: recompute with analytically frozen buffer rows and
        # compare against the full finite difference
        rng = np.random.default_rng(12)
        x_l = rng.normal(size=(4, 5))
        x_u = rng.normal(size=(4, 5))
        state = fresh_state()
        arc_on(small_pair, rng.normal(size=(6, 5)), rng.normal(size=(6, 5)),
               np.log(3), state)
        hold_sigmas(monkeypatch, [1.5])
        x = np.vstack([x_l, x_u])

        def call():
            term = arc_term(len(x_l), np.log(3), copy.deepcopy(state))
            return term_grads(small_pair.target, x, term)

        _, grads = call()
        w = small_pair.target.extractor.weights[0]
        h = 1e-5
        w[0, 0] += h
        hi = call()[0]
        w[0, 0] -= 2 * h
        lo = call()[0]
        w[0, 0] += h
        fd = (hi - lo) / (2 * h)
        assert grads["ext.W0"][0, 0] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def arc_loss_selected(pair, x, eps):
    """Reference re-selection: current-batch features that pass the gate."""
    f = pair.target.extractor.forward(x)
    return f[entropy_gate(pair.target.head.forward(f), eps)]


class RebuildCheck:
    """Stands in for `consistency.mmd2_value_grad` and compares every step's
    pool kernel with the dense oracle on the same fetched sets: the numpy
    median sigmas of their pair distances, and the value and gradients of
    every row at those sigmas. Keeps the worst relative difference of the
    sigmas, the value and each new-row gradient."""

    def __init__(self, monkeypatch):
        self.kernel = numerics.mmd2_value_grad
        self.worst = dict.fromkeys(("sigmas", "value", "d_l", "d_u"), 0.0)
        self.calls = 0
        monkeypatch.setattr(consistency, "mmd2_value_grad", self)

    @staticmethod
    def rel(got, ref):
        got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
        assert got.shape == ref.shape
        if not ref.size:
            return 0.0
        return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))

    def __call__(self, v, u, sigmas, pairs):
        ref_sigmas = dense_median_sigmas(v, u)
        value, dv, du = dense_mmd2_value_grad(v, u, ref_sigmas)
        ref = (value, dv[pairs.new[0]], du[pairs.new[1]])
        got = self.kernel(v, u, sigmas, pairs)
        for key, a, b in zip(self.worst, (sigmas,) + got, (ref_sigmas,) + ref):
            self.worst[key] = max(self.worst[key], self.rel(a, b))
        self.calls += 1
        return got


def open_gate(rows):
    """One-class logits: entropy 0, so every row passes ARC's gate."""
    return np.zeros((len(rows), 1))


class TestArcStateRebuild:
    @pytest.mark.slow
    def test_matches_a_full_rebuild_over_a_default_run(self, monkeypatch):
        check = RebuildCheck(monkeypatch)
        cfg = ExperimentConfig(method="akc+arc", seed=0)
        res = run_pipeline(cfg)
        pool = len(res.target_split.labeled_x) + len(res.target_split.unlabeled_x)
        assert check.calls == cfg.epochs * math.ceil(pool / cfg.batch_unlabeled)
        assert max(check.worst.values()) <= 1e-12, check.worst
        assert res.metrics.records[-1]["loss_arc"] > 0

    @pytest.mark.parametrize("capacity,k", [(6, 6), (9, 5), (4, 7)],
                             ids=["equal", "k-below-capacity", "capacity-below-k"])
    def test_scripted_stream_matches_a_full_rebuild(self, monkeypatch, capacity, k):
        # fill, eviction, empty pushes, pushes larger than the window, and
        # windows under 2 rows, whose distances the pool must still keep
        pushes = [(1, 0), (0, 1), (0, 2), (3, 0), (2, 2), (0, 0), (9, 1),
                  (1, 8), (2, 3), (0, 0), (5, 5), (1, 0), (12, 12), (3, 4)]
        w = min(capacity, k)
        check = RebuildCheck(monkeypatch)
        state = ArcState(w)
        rng = np.random.default_rng(capacity * 10 + k)
        seen_l = seen_u = 0
        skipped = 0
        for p_l, p_u in pushes:
            f_l = rng.normal(size=(p_l, 3)) + 0.5
            f_u = rng.normal(size=(p_u, 3))
            calls = check.calls
            value, (d_l, d_u), _, _ = arc_loss(f_l, f_u, open_gate(f_l), open_gate(f_u),
                                               0.0, state)
            seen_l, seen_u = seen_l + p_l, seen_u + p_u
            fill = (min(seen_l, w), min(seen_u, w))
            assert state.fill == fill
            if min(fill) < 2:
                skipped += 1
                assert check.calls == calls and value == 0.0
                assert not d_l.any() and not d_u.any()
            else:
                assert check.calls == calls + 1
                # rows beyond the window carry no gradient
                assert not d_l[:max(p_l - w, 0)].any()
                assert not d_u[:max(p_u - w, 0)].any()
        assert skipped >= 3 and check.calls >= 8
        assert max(check.worst.values()) <= 1e-12, check.worst

    def test_pool_must_follow_its_windows(self):
        rng = np.random.default_rng(0)
        v, u = rng.normal(size=(3, 2)), rng.normal(size=(2, 2))
        pool = pushed_pool(v, u, (3, 2))
        sigmas = numerics.median_sigmas(pool)
        with pytest.raises(ShapeError):
            numerics.mmd2_value_grad(v[:2], u, sigmas, pool)  # not the pushed rows
        with pytest.raises(ShapeError):
            numerics.mmd2_value_grad(v, u[:1], sigmas, pool)  # not the pushed rows
