import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akcarc import numerics
from akcarc.consistency import akc_loss
from akcarc.errors import InvalidInput, ShapeError

from conftest import pushed_pool
from oracles import brute_force_mmd2, dense_mmd2_value_grad, pair_sq_dists, rbf_kernel


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(numerics.softmax_rows([0, 0]), [[0.5, 0.5]])

    def test_overflow_stabilized(self):
        np.testing.assert_allclose(
            numerics.softmax_rows([[1000, 1000], [-1000, 0]]), [[0.5, 0.5], [0, 1]]
        )

    def test_reference_values(self):
        # exp/sum oracle on [1,2,3]
        expect = np.exp([1.0, 2, 3]) / np.exp([1.0, 2, 3]).sum()
        np.testing.assert_allclose(numerics.softmax_rows([1, 2, 3])[0], expect, atol=1e-9)
        np.testing.assert_allclose(
            numerics.softmax_rows([1, 2, 3])[0], [0.09003057, 0.24472847, 0.66524096],
            atol=1e-7,
        )

    def test_nonfinite_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInput, match="logits"):
                numerics.softmax_rows([[0.0, 1.0], [bad, 0.0]])


class TestEntropy:
    def test_uniform(self):
        assert numerics.entropy_rows([0.5, 0.5])[0] == pytest.approx(np.log(2), abs=1e-12)

    def test_degenerate(self):
        assert numerics.entropy_rows([1.0, 0.0, 0.0])[0] == 0.0

    def test_summation_oracle(self):
        p = [0.7, 0.2, 0.1]
        expect = -sum(x * np.log(x) for x in p)
        h = numerics.entropy_rows([p, p[::-1]])
        assert h == pytest.approx([expect, expect], abs=1e-12)
        assert h[0] == pytest.approx(0.801819, abs=1e-6)

    @pytest.mark.parametrize("c", [2, 3, 10, 100, 1000])
    def test_uniform_equals_log_c(self, c):
        p = np.full(c, 1.0 / c)
        assert abs(numerics.entropy_rows(p)[0] - np.log(c)) <= 1e-12


class TestKlDiv:
    """KL(p || q) per row as the AKC `kl` mode computes it: p and q are the
    softmax of the source and target features, and q is clamped to
    LOG_CLAMP before the log. Logits of -1000 give an exact 0 probability."""

    @staticmethod
    def kl(zp, zq):
        zp, zq = np.atleast_2d(zp), np.atleast_2d(zq)
        value, _, _ = akc_loss(zq, zp, np.ones(len(zp)), "kl")
        return value

    def test_identity(self):
        z = np.log([0.3, 0.7])
        assert self.kl(z, z) == 0.0

    def test_onehot_vs_uniform(self):
        # sum oracle: 1*log(1/0.5) = log 2
        assert self.kl([0, -1000], [0, 0]) == pytest.approx(np.log(2), abs=1e-12)

    def test_clamp_governs_zero_q(self):
        expect = 0.5 * np.log(0.5 / 1e-12) + 0.5 * np.log(0.5 / 1.0)
        assert self.kl([0, 0], [0, -1000]) == pytest.approx(expect, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            self.kl([0.0, 0.0], [0.0, 0.0, 0.0])

    def test_nonnegative_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.dirichlet(np.ones(5))
            q = rng.dirichlet(np.ones(5))
            assert self.kl(np.log(p), np.log(q)) >= -1e-9


class TestRbfKernel:
    """The scalar kernel of the brute-force MMD oracle, against closed forms."""

    def test_self_is_one(self):
        x = [1.0, -2.0, 3.0]
        assert rbf_kernel(x, x, 2.0) == 1.0

    def test_closed_form(self):
        assert rbf_kernel([0.0], [1.0], 1.0) == pytest.approx(
            np.exp(-0.5), abs=1e-12
        )

    def test_monotone_in_sigma(self):
        vals = [rbf_kernel([0.0], [1.0], s) for s in (0.5, 1, 2, 10, 100)]
        assert vals == sorted(vals)
        assert vals[-1] > 0.999

    def test_bad_sigma(self):
        with pytest.raises(InvalidInput):
            rbf_kernel([0.0], [1.0], 0.0)


def tail_value_grad(v, u, sig, tail):
    """mmd2_value_grad of a fresh pool whose last push made `tail` new."""
    return numerics.mmd2_value_grad(v, u, sig, pushed_pool(v, u, tail))


def full_value_grad(v, u, sig):
    """mmd2_value_grad with the gradients of every row of v and of u."""
    return tail_value_grad(v, u, sig, (len(v), len(u)))


def pool_sigmas(v, u):
    """median_sigmas of a fresh pool whose last push made one row of each
    set new."""
    return numerics.median_sigmas(pushed_pool(v, u, (1, 1)))


def dense_value(v, u, sig):
    """The dense oracle's MMD^2 of v and u, which takes sets of any size."""
    return dense_mmd2_value_grad(v, u, sig)[0]


class TestMmd2:
    def test_identical_sets_zero(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(5, 3))
        value, _, _ = full_value_grad(v, v.copy(), [1.3])
        assert abs(value) <= 1e-12

    def test_closed_form_singletons(self):
        expect = 2.0 - 2.0 * np.exp(-0.5)
        assert brute_force_mmd2([[0.0]], [[1.0]], [1.0]) == pytest.approx(
            expect, abs=1e-12
        )
        # the kernel takes 2 rows per set: each point twice is the same
        # distribution
        value, _, _ = full_value_grad(np.zeros((2, 1)), np.ones((2, 1)), [1.0])
        assert value == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.786939, abs=1e-6)

    def test_brute_force_oracle_200_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m, n, d = rng.integers(1, 17), rng.integers(1, 17), rng.integers(1, 9)
            v, u = rng.normal(size=(m, d)), rng.normal(size=(n, d))
            sigmas = list(rng.uniform(0.3, 3.0, size=rng.integers(1, 4)))
            expect = brute_force_mmd2(v, u, sigmas)
            assert dense_value(v, u, sigmas) == pytest.approx(expect, abs=1e-10)
            if m >= 2 and n >= 2:
                value, _, _ = full_value_grad(v, u, sigmas)
                assert value == pytest.approx(expect, abs=1e-10)
            else:
                with pytest.raises(ShapeError, match="2 rows per window"):
                    full_value_grad(v, u, sigmas)

    def test_symmetry_and_permutation_invariance(self):
        rng = np.random.default_rng(4)
        v, u = rng.normal(size=(6, 4)), rng.normal(size=(9, 4))
        sig = [0.7, 1.7]
        base, _, _ = full_value_grad(v, u, sig)
        assert full_value_grad(u, v, sig)[0] == pytest.approx(base, abs=1e-12)
        assert full_value_grad(
            v[rng.permutation(6)], u[rng.permutation(9)], sig
        )[0] == pytest.approx(base, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v, u = rng.normal(size=(4, 2)), rng.normal(size=(7, 2))
            assert full_value_grad(v, u, [1.0])[0] >= -1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="2 rows per window"):
            full_value_grad(np.zeros((0, 2)), np.zeros((3, 2)), [1.0])

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match="dim mismatch"):
            full_value_grad(np.zeros((2, 2)), np.zeros((3, 4)), [1.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        h = 1e-5
        for _ in range(20):
            v = rng.normal(size=(4, 3))
            u = rng.normal(size=(5, 3))
            sig = [0.8, 1.5]
            _, dv, du = full_value_grad(v, u, sig)
            for arr, grad in ((v, dv), (u, du)):
                i = rng.integers(arr.shape[0])
                j = rng.integers(arr.shape[1])
                arr[i, j] += h
                hi = dense_value(v, u, sig)
                arr[i, j] -= 2 * h
                lo = dense_value(v, u, sig)
                arr[i, j] += h
                fd = (hi - lo) / (2 * h)
                assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def fd_grad(v, u, sig, arr, i, j, h=1e-5):
    """Central difference of the dense oracle's MMD^2 in entry (i, j) of
    `arr` (v or u)."""
    arr[i, j] += h
    hi = dense_value(v, u, sig)
    arr[i, j] -= 2 * h
    lo = dense_value(v, u, sig)
    arr[i, j] += h
    return (hi - lo) / (2 * h)


# 1.3 * (0.5, 1, 2) is a 2x ladder; (0.4, 1.0, 2.5) is not
LADDER = [f * 1.3 for f in (0.5, 1.0, 2.0)]
NON_LADDER = [0.4, 1.0, 2.5]


class TestMedianSigmas:
    def test_scales_with_median(self):
        v = np.array([[0.0], [0.0]])
        u = np.array([[2.0], [2.0]])
        assert pool_sigmas(v, u) == [1.0, 2.0, 4.0]

    def test_zero_median_fallback(self):
        v = np.zeros((3, 2))
        assert pool_sigmas(v, v.copy())[1] == 1.0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (256, 256)])
    def test_equals_numpy_median_of_pair_distances(self, m, n):
        # pairs among p = m + n rows: 1 and 3 (odd), 6, 10 and 130816 (even)
        rng = np.random.default_rng(m * 100 + n)
        v, u = rng.normal(size=(m, 5)), rng.normal(size=(n, 5))
        pool = pushed_pool(v, u, (1, 1))
        # the pool holds each pair once, as the dense oracle has them
        expect = pair_sq_dists(v, u)[np.triu_indices(m + n, 1)]
        d2 = np.concatenate(pool.parts(), axis=None)
        np.testing.assert_allclose(np.sort(d2), np.sort(expect), rtol=0, atol=1e-12)
        med = np.median(np.sqrt(d2))
        assert numerics.median_sigmas(pool) == [0.5 * med, med, 2.0 * med]

    def test_fallback_is_scaled_by_factors(self):
        v = np.ones((2, 3))
        assert pool_sigmas(v, v.copy()) == [0.5, 1.0, 2.0]


class TestMmd2ValueGradPooled:
    def test_value_matches_mmd2(self):
        rng = np.random.default_rng(8)
        v, u = rng.normal(size=(5, 3)), rng.normal(size=(8, 3))
        sig = [0.4, 1.0, 2.5]
        value, _, _ = full_value_grad(v, u, sig)
        assert value == pytest.approx(brute_force_mmd2(v, u, sig), abs=1e-12)

    def test_wrong_distance_shape_rejected(self):
        v, u = np.zeros((2, 2)), np.ones((3, 2))
        with pytest.raises(ShapeError):
            numerics.mmd2_value_grad(v, u[:2], [1.0], pushed_pool(v, u, (2, 3)))

    def test_gradient_three_unequal_bandwidths_finite_differences(self):
        rng = np.random.default_rng(9)
        sig = [0.6, 1.1, 2.3]
        for _ in range(10):
            v, u = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
            _, dv, du = full_value_grad(v, u, sig)
            for arr, grad in ((v, dv), (u, du)):
                for i in range(arr.shape[0]):
                    for j in range(arr.shape[1]):
                        fd = fd_grad(v, u, sig, arr, i, j)
                        assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)


class TestMmd2ValueGradLadder:
    @pytest.mark.parametrize("sig", [LADDER, NON_LADDER, LADDER[::-1], [0.9]],
                             ids=["ladder", "non-ladder", "ladder-ascending", "single"])
    def test_value_matches_mmd2_relative(self, sig):
        rng = np.random.default_rng(10)
        for m, n in ((40, 30), (1, 7), (256, 256)):
            v, u = rng.normal(size=(m, 6)), 1.2 * rng.normal(size=(n, 6)) + 0.3
            if m < 2:  # arc_loss returns 0 before a window under 2 rows
                with pytest.raises(ShapeError, match="2 rows per window"):
                    full_value_grad(v, u, sig)
                continue
            value, _, _ = full_value_grad(v, u, sig)
            assert value == pytest.approx(dense_value(v, u, sig), rel=1e-12)

    @pytest.mark.parametrize("sig", [LADDER, NON_LADDER], ids=["ladder", "non-ladder"])
    def test_tail_gradient_finite_differences(self, sig):
        rng = np.random.default_rng(11)
        for tv, tu in ((2, 3), (0, 4), (6, 0), (6, 5)):
            v, u = rng.normal(size=(6, 3)), rng.normal(size=(5, 3))
            _, dv, du = tail_value_grad(v, u, sig, (tv, tu))
            assert dv.shape == (tv, 3) and du.shape == (tu, 3)
            for arr, grad in ((v, dv), (u, du)):
                first = arr.shape[0] - grad.shape[0]
                for i in range(grad.shape[0]):
                    for j in range(arr.shape[1]):
                        fd = fd_grad(v, u, sig, arr, first + i, j)
                        assert grad[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_tail_is_the_end_of_the_full_gradient(self):
        rng = np.random.default_rng(12)
        v, u = rng.normal(size=(30, 4)), rng.normal(size=(20, 4))
        _, dv, du = full_value_grad(v, u, LADDER)
        _, tdv, tdu = tail_value_grad(v, u, LADDER, (7, 11))
        np.testing.assert_allclose(tdv, dv[-7:], rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(tdu, du[-11:], rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("sig,exps", [(LADDER, 2), (NON_LADDER, 6)],
                             ids=["ladder", "non-ladder"])
    def test_one_exp_per_block_on_a_ladder(self, monkeypatch, sig, exps):
        # the value's pool and the gradient's slabs are two working sets:
        # one exp each per bandwidth that is not half the one before, so a
        # ladder's 2nd and 3rd kernels come from squarings
        calls, exp = [], np.exp
        monkeypatch.setattr(numerics.np, "exp", lambda *a, **k: calls.append(1) or exp(*a, **k))
        rng = np.random.default_rng(13)
        full_value_grad(rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), sig)
        assert len(calls) == exps

    def test_nonpositive_sigma_rejected(self):
        v, u = np.zeros((2, 2)), np.ones((3, 2))
        for sigmas in ([1.0, 0.0], []):
            with pytest.raises(InvalidInput):
                full_value_grad(v, u, sigmas)

    def test_peak_memory_at_full_windows(self):
        # the value's pool buffer and the gradient's slab buffers are never
        # alive at once, so one call's traced peak stays under the size of
        # the pool's distances plus the slab, which the state already holds
        rng = np.random.default_rng(14)
        v, u = rng.normal(size=(256, 32)), rng.normal(size=(256, 32)) + 0.3
        state = pushed_pool(v, u, (37, 45))
        sig = numerics.median_sigmas(state)
        tracemalloc.start()
        try:
            numerics.mmd2_value_grad(v, u, sig, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= state.d2.nbytes + state.slab.nbytes, peak


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.01, max_value=10), min_size=2, max_size=8)
)
def test_entropy_bounds_property(raw):
    p = np.asarray(raw) / np.sum(raw)
    h = numerics.entropy_rows(p)[0]
    assert -1e-12 <= h <= np.log(len(raw)) + 1e-9
