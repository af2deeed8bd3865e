"""Gradient and semantics tests for the reverse-mode engine.

All gradient checks run in 64-bit where central finite differences are good
to ~1e-10, so the 1e-6 relative tolerance is a real statement about the
backward formulas, not about float noise.
"""

import multiprocessing
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import tape_reference
from gradcheck import grad_check
from hypothesis import given, settings
from hypothesis import strategies as st
from tape_reference import concat, sigmoid, slice_rows, tanh

from pvae import autodiff as ad
from pvae import nn, parallel
from pvae.autodiff import Tensor


def t(data, requires_grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def check(f, xs, tol=1e-6):
    report = grad_check(f, xs, step=1e-5, tol=tol)
    assert report.passed, str(report)
    return report


class TestPrimitiveGradients:
    """Every primitive against central finite differences, seeded inputs."""

    def test_add(self, rng):
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        check(lambda a, b: ad.tsum(ad.add(a, b)), (a, b))

    def test_sub(self, rng):
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        check(lambda a, b: ad.tsum(ad.mul(ad.sub(a, b), ad.sub(a, b))), (a, b))

    def test_mul(self, rng):
        a, b = t(rng.normal(size=(5,))), t(rng.normal(size=(5,)))
        check(lambda a, b: ad.tsum(ad.mul(a, b)), (a, b))

    def test_scalar_broadcast(self, rng):
        a, s = t(rng.normal(size=(3, 4))), t(1.7)
        check(lambda a, s: ad.tsum(ad.mul(a, s)), (a, s))
        check(lambda a, s: ad.tsum(ad.add(a, s)), (a, s))

    def test_matmul(self, rng):
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(3, 4)))
        check(lambda a, b: ad.tsum(ad.matmul(a, b)), (a, b))

    def test_transpose(self, rng):
        a = t(rng.normal(size=(3, 5)))
        w = t(rng.normal(size=(5, 3)), requires_grad=False)
        check(lambda a: ad.tsum(ad.mul(ad.transpose(a), w)), a)

    def test_broadcast_rows(self, rng):
        v = t(rng.normal(size=(5,)))
        w = t(rng.normal(size=(7, 5)), requires_grad=False)
        check(lambda v: ad.tsum(ad.mul(ad.broadcast_rows(v, 7), w)), v)

    def test_exp(self, rng):
        a = t(rng.normal(size=(6,)))
        check(lambda a: ad.tsum(ad.exp(a)), a)

    def test_log(self, rng):
        a = t(rng.uniform(0.5, 3.0, size=(6,)))
        check(lambda a: ad.tsum(ad.log(a)), a)

    def test_sqrt(self, rng):
        a = t(rng.uniform(0.5, 3.0, size=(6,)))
        check(lambda a: ad.tsum(ad.sqrt(a)), a)

    def test_reciprocal(self, rng):
        a = t(rng.uniform(0.5, 3.0, size=(6,)))
        check(lambda a: ad.tsum(ad.reciprocal(a)), a)

    def test_tanh(self, rng):
        a = t(rng.normal(size=(6,)))
        check(lambda a: ad.tsum(tanh(a)), a)

    def test_sigmoid(self, rng):
        a = t(rng.normal(size=(6,)))
        check(lambda a: ad.tsum(sigmoid(a)), a)

    def test_square(self, rng):
        a = t(rng.normal(size=(6,)))
        check(lambda a: ad.tsum(ad.square(a)), a)

    def test_clamp_min(self, rng):
        vals = rng.normal(size=(8,))
        vals[np.abs(vals - 0.3) < 0.05] = 1.0
        a = t(vals)
        check(lambda a: ad.tsum(ad.square(ad.clamp_min(a, 0.3))), a)

    def test_sum_axis(self, rng):
        a = t(rng.normal(size=(3, 4)))
        check(lambda a: ad.tsum(ad.square(ad.tsum(a, axis=0))), a)
        check(lambda a: ad.tsum(ad.square(ad.tsum(a, axis=1))), a)

    def test_mean_full_and_axis(self, rng):
        a = t(rng.normal(size=(3, 4)))
        check(lambda a: ad.tmean(a), a)
        check(lambda a: ad.tsum(ad.square(ad.tmean(a, axis=0))), a)
        check(lambda a: ad.tsum(ad.square(ad.tmean(a, axis=1))), a)

    def test_concat(self, rng):
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(4, 3)))
        check(lambda a, b: ad.tsum(ad.square(concat([a, b], axis=0))), (a, b))
        c, d = t(rng.normal(size=(3, 2))), t(rng.normal(size=(3, 5)))
        check(lambda c, d: ad.tsum(ad.square(concat([c, d], axis=1))), (c, d))

    def test_slice_rows(self, rng):
        a = t(rng.normal(size=(6, 3)))
        check(lambda a: ad.tsum(ad.square(slice_rows(a, 1, 4))), a)
        # untouched rows get exactly zero gradient
        out = ad.tsum(slice_rows(a, 1, 4))
        ad.backward(out)
        assert np.all(a.grad[0] == 0) and np.all(a.grad[4:] == 0)


class TestForwardExamples:
    def test_sigmoid_zero(self):
        assert sigmoid(t(0.0)).item() == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid(t([-800.0, 800.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_matmul_against_triple_loop(self, rng):
        a = rng.normal(size=(2, 3))
        b = rng.normal(size=(3, 4))
        expect = np.zeros((2, 4))
        for i in range(2):
            for j in range(4):
                for k in range(3):
                    expect[i, j] += a[i, k] * b[k, j]
        got = ad.matmul(t(a), t(b))
        assert got.shape == (2, 4)
        np.testing.assert_allclose(got.data, expect, rtol=1e-12)


class TestSigmoidForm:
    def test_bitwise_equal_to_boolean_index_form(self):
        # the form the branch-free sigmoid replaced
        def indexed(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        r = np.random.default_rng(3)
        special = [0.0, -0.0, 1e-30, -1e-30, 100.5, -100.5, 750.0, -750.0, 1e30, -1e30]
        for dtype in (np.float32, np.float64):
            x = np.concatenate([special, r.normal(scale=4.0, size=3000),
                                r.uniform(-200.0, 200.0, size=1000)]).astype(dtype)
            for arr in (x, x[:512].reshape(1, 512)):
                got = sigmoid(Tensor(arr)).data
                assert got.dtype == dtype
                assert got.tobytes() == indexed(arr).tobytes()


class TestBlasFacts:
    """Bit-level facts of the numpy/BLAS build that `linear_seq` and
    `gru_seq` rest on. If an upgrade breaks one, the sequence ops are no
    longer bit-identical to frame-by-frame evaluation, and encoder
    causality (outputs for frame n unchanged by later frames) is lost."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_batch", [1, 16])
    @pytest.mark.parametrize("n_in,n_out", [(4, 8), (64, 64), (257, 512), (512, 512)])
    def test_stacked_matmul_equals_per_frame_products(self, dtype, n_batch, n_in, n_out):
        r = np.random.default_rng(n_in + n_batch)
        x = r.normal(size=(9, n_batch, n_in)).astype(dtype)
        w = r.normal(size=(n_in, n_out)).astype(dtype)
        stacked = np.matmul(x, w)
        for n in range(9):
            assert stacked[n].tobytes() == (x[n] @ w).tobytes(), (
                f"BLAS: a stacked ({x.shape}) @ {w.shape} matmul no longer equals the "
                f"per-frame products bit for bit (frame {n})")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_batch", [1, 16])
    @pytest.mark.parametrize("n_in,n_out", [(4, 8), (64, 64), (257, 512), (512, 512)])
    def test_stacked_weight_terms_equal_per_frame_products(self, dtype, n_batch, n_in, n_out):
        # the weight-gradient terms x[t].T @ g[t], stacked over frames in
        # either order, as the sequence ops' backward passes compute them
        r = np.random.default_rng(n_in + n_out + n_batch)
        x = r.normal(size=(9, n_batch, n_in)).astype(dtype)
        g = r.normal(size=(9, n_batch, n_out)).astype(dtype)
        for xs, gs, order in ((x, g, "first-frame-first"), (x[::-1], g[::-1], "last-frame-first")):
            stacked = np.matmul(xs.transpose(0, 2, 1), gs)
            for n in range(9):
                assert stacked[n].tobytes() == (xs[n].T @ gs[n]).tobytes(), (
                    f"BLAS: a stacked transposed {x.shape} @ {g.shape} matmul ({order}) no "
                    f"longer equals the per-frame products bit for bit (frame {n})")


class TestBackwardSemantics:
    def test_sum_grad_all_ones(self, rng):
        x = t(rng.normal(size=(3, 4)))
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_square_sum_grad_2x(self, rng):
        x = t(rng.normal(size=(5,)))
        ad.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.data, rtol=1e-12)

    def test_composite_matmul_tanh_mean(self, rng):
        w = t(rng.normal(size=(4, 3)))
        x = t(rng.normal(size=(3, 2)))
        check(lambda w, x: ad.tmean(tanh(ad.matmul(w, x))), (w, x))

    def test_accumulation_matches_expanded_form(self, rng):
        # x appears on two paths; grad must equal the single-path expansion
        a = rng.normal(size=(5,))
        b = rng.normal(size=(5,))
        x = t(rng.normal(size=(5,)))
        ta, tb = t(a, requires_grad=False), t(b, requires_grad=False)
        loss = ad.add(ad.tsum(ad.mul(x, ta)), ad.tsum(ad.mul(x, tb)))
        ad.backward(loss)
        np.testing.assert_allclose(x.grad, a + b, rtol=1e-12)

    def test_grad_accumulates_across_backward_calls(self, rng):
        x = t(rng.normal(size=(4,)))
        ad.backward(ad.tsum(x))
        ad.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data, rtol=1e-12)

    def test_graph_freed_after_backward(self, rng):
        x = t(rng.normal(size=(4,)))
        loss = ad.tsum(ad.mul(x, x))
        ad.backward(loss)
        first = x.grad.copy()
        ad.backward(loss)  # graph consumed: second pass finds no edges
        np.testing.assert_array_equal(x.grad, first)

    def test_determinism_bitwise(self):
        def run():
            r = np.random.default_rng(99)
            x = t(r.normal(size=(6, 6)))
            w = t(r.normal(size=(6, 6)))
            loss = ad.tmean(ad.square(tanh(ad.matmul(w, x))))
            ad.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1.tobytes() == l2.tobytes()
        assert gx1.tobytes() == gx2.tobytes()
        assert gw1.tobytes() == gw2.tobytes()

    def test_no_grad_suppresses_recording(self, rng):
        x = t(rng.normal(size=(3,)))
        with ad.no_grad():
            y = ad.tsum(ad.mul(x, x))
        assert not y.requires_grad
        with pytest.raises(ValueError):
            ad.backward(y)

    def test_frozen_leaf_gets_no_grad(self, rng):
        x = t(rng.normal(size=(3,)))
        c = t(rng.normal(size=(3,)), requires_grad=False)
        ad.backward(ad.tsum(ad.mul(x, c)))
        assert c.grad is None


class TestErrorPaths:
    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ad.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))

    def test_matmul_inner_dim_mismatch(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((4, 2))))

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="log"):
            ad.log(t([1.0, 0.0]))
        with pytest.raises(ValueError, match="log"):
            ad.log(t([-1.0]))

    def test_sqrt_domain_error(self):
        with pytest.raises(ValueError, match="sqrt"):
            ad.sqrt(t([-0.5]))

    def test_backward_requires_scalar(self, rng):
        x = t(rng.normal(size=(3,)))
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(x, x))

    def test_overflow_raises_numeric_error(self):
        with np.errstate(over="ignore"):
            with pytest.raises(ad.NumericError):
                ad.exp(t(1000.0))

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ad.NumericError):
            Tensor(np.array([1.0, np.inf]))

    def test_gru_names_the_first_nonfinite_frame_of_any_gate(self):
        """A candidate pre-activation that turns NaN at frame 3 makes h_3 NaN,
        and with it the reset gate of frame 4: the error names frame 3, a
        run split after frame 3 or not."""
        gru = nn.GruLayer(2, 1, rng=None, dtype=np.float32)
        gru.W_h.data[:, 0] = [1e30, -1e30]           # inf - inf at frame 3
        gru.U_r.data[:] = 1.0
        x = np.ones((6, 2), np.float32)
        x[3] = 1e30
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ad.NumericError) as err:
                ad.gru_seq(Tensor(x), gru.initial_state(1), gru.parameters())
            assert err.value.row == 3
            with pytest.raises(ad.NumericError) as err:
                h = gru.recur(gru.project(Tensor(x[:4]), 1), gru.initial_state(1).data)[-1]
                gru.recur(gru.project(Tensor(x[4:]), 1), h)
            assert err.value.row == 3


class TestGradCheckHarness:
    def test_sum_of_squares_passes(self, rng):
        x = t(rng.normal(size=(7,)))
        report = grad_check(lambda x: ad.tsum(ad.square(x)), x, step=1e-5, tol=1e-6)
        assert report.passed
        assert report.checked == 7
        assert report.max_rel_error < 1e-6

    def test_mismatch_reported_not_raised(self):
        # a kink at 0: FD sees slope 0.5, backward says 0 -> must report, not throw
        x = t(np.zeros(4))
        report = grad_check(lambda v: ad.tsum(ad.clamp_min(v, 0.0)), x,
                               step=1e-5, tol=1e-6)
        assert not report.passed
        assert "FAIL" in str(report)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_property_matmul_grad_matches_fd(n, m, seed):
    # oracle: the closed form of d mean(tanh(AB)), not finite differences.
    # Where tanh saturates (n=1, m=5, seed=10855: AB = 11.7) the gradient is
    # about 1e-10 and central differences are off by 4e-4 relative.
    r = np.random.default_rng(seed)
    a = t(r.normal(size=(n, m)))
    b = t(r.normal(size=(m, n)))
    ad.backward(ad.tmean(tanh(ad.matmul(a, b))))
    d = 1.0 - np.tanh(a.data @ b.data) ** 2
    np.testing.assert_allclose(a.grad, d @ b.data.T / n**2, rtol=1e-9)
    np.testing.assert_allclose(b.grad, a.data.T @ d / n**2, rtol=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_reuse_accumulation(seed):
    r = np.random.default_rng(seed)
    x = t(r.normal(size=(6,)))
    # loss = sum(x) + sum(x*x): grad must be 1 + 2x by linearity of paths
    loss = ad.add(ad.tsum(x), ad.tsum(ad.mul(x, x)))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 1.0 + 2.0 * x.data, rtol=1e-10)


# ---------------------------------------------------------------------------
# stacked products split between two threads at a frame boundary
# ---------------------------------------------------------------------------

@pytest.fixture
def split(monkeypatch):
    """Two cores, whatever the machine has, and every stacked product splits,
    on a worker of the test's own."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        monkeypatch.setattr(parallel, "_pool", pool)
        monkeypatch.setattr(parallel, "_SPLIT_MACS", 0)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
        yield pool


@pytest.fixture
def inline(monkeypatch):
    """No pool, and one core, so no pool is made: every product runs inline."""
    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(parallel, "_SPLIT_MACS", 0)


@pytest.fixture(params=["split", "inline"])
def frame_mode(request, monkeypatch):
    # weight-term blocks of 2-3 frames, so splits also land inside blocks
    monkeypatch.setattr(ad, "_BLOCK_BYTES", 3 * 5 * 6 * 8)
    request.getfixturevalue(request.param)
    return request.param


def _gru_runs(run, dtype, n_frames, n_batch):
    """`TestFrameSplit.run` of a 5-to-6 GRU over a random stack, from `gru_seq`
    and from the per-frame tape."""
    r = np.random.default_rng(10 * n_frames + n_batch)
    gru = nn.GruLayer(5, 6, rng=r, dtype=dtype)
    for b in (gru.b_r, gru.b_z, gru.b_h):
        b.data = r.uniform(-0.5, 0.5, size=6).astype(dtype)
    x = Tensor(r.normal(size=(n_frames * n_batch, 5)).astype(dtype), requires_grad=True)
    h0 = Tensor(r.normal(size=(n_batch, 6)).astype(dtype), requires_grad=True)
    w = Tensor(r.normal(size=(n_frames * n_batch, 6)).astype(dtype))

    def tape(x):
        h, outs = h0, []
        for t in range(n_frames):
            h = tape_reference.gru_step(gru, slice_rows(x, t * n_batch, (t + 1) * n_batch), h)
            outs.append(h)
        return concat(outs, axis=0)

    return (run(lambda x: ad.gru_seq(x, h0, gru.parameters()), x, w, gru, h0),
            run(tape, x, w, gru, h0))


def _split_linear_in_child():
    x = Tensor(np.ones((8, 3)))
    layer = nn.LinearLayer(3, 4, rng=np.random.default_rng(0))
    layer(x, 2)


class TestFrameSplit:
    """`parallel.by_frames` runs the frames of a stacked product as two halves, one
    on the calling thread and one on a worker. Each frame is the same BLAS
    call either way, so forward values and gradients keep the per-frame
    tape's bytes."""

    def test_second_half_runs_on_the_worker(self, split):
        seen = []
        parallel.by_frames(5, 0, lambda lo, hi: seen.append((lo, hi, threading.get_ident())))
        here, there = sorted(seen)
        assert here == (0, 2, threading.get_ident())
        assert there[:2] == (2, 5) and there[2] != threading.get_ident()

    def test_small_or_single_frame_products_run_inline(self, split, monkeypatch):
        monkeypatch.setattr(parallel, "_SPLIT_MACS", 100)
        seen = []
        parallel.by_frames(5, 99, lambda lo, hi: seen.append((lo, hi, threading.get_ident())))
        parallel.by_frames(1, 100, lambda lo, hi: seen.append((lo, hi, threading.get_ident())))
        assert seen == [(0, 5, threading.get_ident()), (0, 1, threading.get_ident())]

    def test_no_pool_on_one_core(self, inline):
        seen = []
        parallel.by_frames(4, 1 << 30, lambda lo, hi: seen.append((lo, hi)))
        assert seen == [(0, 4)] and parallel._pool is None

    def test_waits_for_the_worker_and_raises_its_error(self, split):
        done = []

        def worker_fails(lo, hi):
            if lo:
                time.sleep(0.05)
                raise ValueError("worker half")
            done.append("caller")

        def caller_fails(lo, hi):
            if not lo:
                raise ValueError("caller half")
            time.sleep(0.05)
            done.append("worker")

        with pytest.raises(ValueError, match="worker half"):
            parallel.by_frames(4, 0, worker_fails)
        with pytest.raises(ValueError, match="caller half"):
            parallel.by_frames(4, 0, caller_fails)
        assert done == ["caller", "worker"]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 32])
    @pytest.mark.parametrize("n_batch", [1, 16])
    def test_linear_seq_matches_per_frame_tape(self, frame_mode, dtype, n_frames, n_batch):
        r = np.random.default_rng(10 * n_frames + n_batch)
        for activation in ("relu", "none"):
            layer = nn.LinearLayer(5, 6, activation, rng=r, dtype=dtype)
            layer.bias.data = r.uniform(-0.5, 0.5, size=6).astype(dtype)
            x = Tensor(r.normal(size=(n_frames * n_batch, 5)).astype(dtype), requires_grad=True)
            w = Tensor(r.normal(size=(n_frames * n_batch, 6)).astype(dtype))

            def tape(x):
                return concat([tape_reference.linear(layer, slice_rows(
                    x, t * n_batch, (t + 1) * n_batch)) for t in range(n_frames)], axis=0)

            runs = [self.run(lambda x: layer(x, n_batch), x, w, layer), self.run(tape, x, w, layer)]
            assert runs[0] == runs[1], activation

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 32])
    @pytest.mark.parametrize("n_batch", [1, 16])
    def test_gru_seq_matches_per_frame_tape(self, frame_mode, dtype, n_frames, n_batch):
        r = np.random.default_rng(10 * n_frames + n_batch)
        gru = nn.GruLayer(5, 6, rng=r, dtype=dtype)
        for b in (gru.b_r, gru.b_z, gru.b_h):
            b.data = r.uniform(-0.5, 0.5, size=6).astype(dtype)
        x = Tensor(r.normal(size=(n_frames * n_batch, 5)).astype(dtype), requires_grad=True)
        h0 = Tensor(r.normal(size=(n_batch, 6)).astype(dtype), requires_grad=True)
        w = Tensor(r.normal(size=(n_frames * n_batch, 6)).astype(dtype))

        def tape(x):
            h, outs = h0, []
            for t in range(n_frames):
                h = tape_reference.gru_step(gru, slice_rows(x, t * n_batch, (t + 1) * n_batch), h)
                outs.append(h)
            return concat(outs, axis=0)

        seq = self.run(lambda x: ad.gru_seq(x, h0, gru.parameters()), x, w, gru, h0)
        assert seq == self.run(tape, x, w, gru, h0)

    @staticmethod
    def run(forward, x, w, layer, *extra):
        """Output bytes, then the gradient bytes of x, `extra` and every parameter."""
        leaves = [x, *extra, *layer.parameters()]
        for p in leaves:
            p.grad = None
        out = forward(x)
        ad.backward(ad.tsum(ad.mul(out, w)))
        return [out.data.tobytes()] + [p.grad.tobytes() for p in leaves]

    @pytest.mark.parametrize("frame", [0, 7], ids=["caller-half", "worker-half"])
    def test_overflow_raises_in_either_half(self, split, frame):
        layer = nn.LinearLayer(3, 4, rng=np.random.default_rng(1))
        layer.weight.data[:] = 2.0
        x = np.ones((8 * 2, 3))
        x[2 * frame:2 * frame + 2] = 1e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            layer(Tensor(x), 2)
        assert layer(Tensor(np.ones((16, 3))), 2).data.shape == (16, 4)   # the worker lives on

    def test_worker_keeps_the_callers_error_state(self, split):
        layer = nn.LinearLayer(3, 4, rng=np.random.default_rng(1))
        layer.weight.data[:] = 2.0
        x = np.ones((8 * 2, 3))
        x[14:] = 1e308                        # frame 7, in the worker's half
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with np.errstate(over="ignore"), pytest.raises(ad.NumericError) as err:
                layer(Tensor(x), 2)
        assert err.value.row == 14
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_frames", [1, 3, 4, 5, 32])
    def test_streamed_weight_sums_match_per_frame_tape(self, frame_mode, dtype, n_frames,
                                                       stage_threads):
        """With the gate forced open on two cores the GRU's six weight sums
        run on the worker, one task per block of frames, last block first;
        on one core they run here, as below the gate. Either way every
        gradient has the per-frame tape's bytes."""
        seq, tape = _gru_runs(self.run, dtype, n_frames, 16)
        assert seq == tape
        per_block = ad._BLOCK_BYTES // (6 * 6 * np.dtype(dtype).itemsize)
        on_worker = [name != "MainThread" for name, _ in stage_threads]
        if frame_mode == "split":
            # the forward's input projections: one task for their second
            # half when there are two frames or more; then one per block
            assert on_worker == [True] * ((n_frames > 1) + -(-n_frames // per_block))
        else:
            assert on_worker == []

    def test_streamed_sums_under_a_short_switch_interval(self, split, monkeypatch):
        """The caller writes the d rows of lower frames while the worker reads
        a finished block; with threads switching every microsecond the bytes
        stay those of the tape, run after run."""
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 6 * 6 * 8)     # blocks of 2 frames
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [_gru_runs(self.run, np.float64, 32, 4) for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        assert all(seq == tape == runs[0][1] for seq, tape in runs)

    def test_error_in_a_worker_block_is_raised_by_backward(self, split, stage_threads,
                                                           monkeypatch):
        """An overflow in one block's weight terms, on the worker, is raised
        by `backward`, and no block outlives it. Input 0 has zero weights, so
        a huge value there overflows only the terms x[t].T @ d[t] of W."""
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 6 * 6 * 8)     # blocks of 2 frames
        r = np.random.default_rng(2)
        gru = nn.GruLayer(5, 6, rng=r)
        for w in (gru.W_r, gru.W_z, gru.W_h):
            w.data[0] = 0.0
        n_frames, n_batch = 9, 2
        x = r.normal(size=(n_frames * n_batch, 5))
        x[2 * n_batch:3 * n_batch, 0] = 1e300          # frame 2, in the fourth block
        loss = ad.tsum(ad.mul(gru(Tensor(x), n_batch),
                              Tensor(np.full((n_frames * n_batch, 6), 1e10))))
        stage_threads.clear()                          # the forward's task
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            ad.backward(loss)
        assert len(stage_threads) == 5 and all(f.done() for _, f in stage_threads)
        assert all(p.grad is None for p in gru.parameters()[:6])

    def test_caller_error_waits_for_the_blocks(self, split, stage_threads, monkeypatch):
        """An error on the caller during the BPTT loop propagates only after
        every block started on the worker has finished."""
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 6 * 6 * 8)     # blocks of 2 frames
        block, made = ad._WeightSums._block, ad._WeightSums.made

        def slow_block(sums, lo, hi):
            time.sleep(0.05)
            block(sums, lo, hi)

        def failing_made(sums, n):
            made(sums, n)
            if n == 5:                 # frames 8 down to 4 made: two blocks started
                raise RuntimeError("caller")

        monkeypatch.setattr(ad._WeightSums, "_block", slow_block)
        monkeypatch.setattr(ad._WeightSums, "made", failing_made)
        gru = nn.GruLayer(5, 6, rng=np.random.default_rng(3))
        x = Tensor(np.random.default_rng(4).normal(size=(18, 5)))
        with pytest.raises(RuntimeError, match="caller"):
            ad.backward(ad.tsum(gru(x, 2)))
        # the forward's input projections (frames 4-8), then the two blocks
        assert len(stage_threads) == 1 + 2 and all(f.done() for _, f in stage_threads)

    @pytest.mark.parametrize("case", ["two cores", "one core", "below the gate",
                                      "no input gradient"])
    def test_linear_weight_sums_run_on_the_worker_beside_the_input_gradient(
            self, split, stage_threads, monkeypatch, case):
        """Above the gate on two cores, a linear layer's weight sum runs on the
        worker, one task per block of frames, while the caller runs the input
        gradient. On one core, below the gate, or with no input gradient to
        run meanwhile, it runs here. The gradients have the tape's bytes."""
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 5 * 6 * 8)     # blocks of 2 frames
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: {0} if case == "one core" else {0, 1})
        n_frames, n_batch = 5, 2
        if case == "below the gate":
            monkeypatch.setattr(parallel, "_SPLIT_MACS", n_frames * n_batch * 5 * 6 + 1)
        r = np.random.default_rng(7)
        layer = nn.LinearLayer(5, 6, "relu", rng=r)
        x = Tensor(r.normal(size=(n_frames * n_batch, 5)), requires_grad=case != "no input gradient")
        w = Tensor(r.normal(size=(n_frames * n_batch, 6)))
        def grads(forward):
            for p in (x, *layer.parameters()):
                p.grad = None
            ad.backward(ad.tsum(ad.mul(forward(), w)))
            return [p.grad.tobytes() for p in (x, *layer.parameters()) if p.requires_grad]

        seq = grads(lambda: layer(x, n_batch))
        on_worker = [name != "MainThread" for name, _ in stage_threads]
        assert seq == grads(lambda: concat([tape_reference.linear(
            layer, slice_rows(x, t * n_batch, (t + 1) * n_batch)) for t in range(n_frames)]))
        # the forward's second half (frames 2-4) is a task on two cores above
        # the gate; then 3 blocks of 2 frames, where the weight sum goes to
        # the worker
        tasks = {"two cores": 1 + 3, "no input gradient": 1}.get(case, 0)
        assert on_worker == [True] * tasks

    @pytest.mark.parametrize("where", ["worker block", "caller input gradient"])
    def test_linear_overflow_is_raised_once_every_block_is_done(
            self, split, stage_threads, monkeypatch, where):
        """An overflow in a linear layer's backward, in a block of weight terms
        on the worker or in the input gradient here, is raised by `backward`
        once every block is done, and the weight's `grad` is not bound. Input
        0 has zero weights or zero values, so a huge value there overflows
        only the weight terms x[t].T @ g[t], or only the input gradient."""
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 3 * 4 * 8)     # blocks of 2 frames
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
        block = ad._WeightSums._block

        def slow_block(sums, lo, hi):
            time.sleep(0.01)
            block(sums, lo, hi)

        monkeypatch.setattr(ad._WeightSums, "_block", slow_block)
        r = np.random.default_rng(8)
        layer = nn.LinearLayer(3, 4, rng=r)
        n_frames, n_batch = 9, 2
        x = r.normal(size=(n_frames * n_batch, 3))
        if where == "worker block":
            layer.weight.data[0] = 0.0
            x[2 * n_batch:3 * n_batch, 0] = 1e300      # frame 2, in the second block
        else:
            x[:, 0] = 0.0
            layer.weight.data[0] = 1e300
        loss = ad.tsum(ad.mul(layer(Tensor(x, requires_grad=True), n_batch),
                              Tensor(np.full((n_frames * n_batch, 4), 1e10))))
        stage_threads.clear()                          # the forward's task
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            ad.backward(loss)
        assert [name != "MainThread" for name, _ in stage_threads] == [True] * 5
        assert all(f.done() for _, f in stage_threads)
        assert layer.weight.grad is None

    def test_forked_child_runs_a_split(self, split):
        _split_linear_in_child()             # the worker thread now exists
        child = multiprocessing.get_context("fork").Process(target=_split_linear_in_child)
        child.start()
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
            pytest.fail("a forked child hung on the parent's split worker")
        assert child.exitcode == 0
