"""Layer, initializer, and optimizer tests."""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_reference
from gradcheck import grad_check
from pvae import autodiff as ad
from pvae import nn, parallel
from pvae.autodiff import NumericError, Tensor


def t64(data, req=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=req)


@pytest.fixture
def worker(monkeypatch, stage_threads):
    """The gate forced open on two cores, with a worker of the test's own:
    the GRU's weight sums and Adam's second run go to it. Yields the name
    of the thread that ran each task started by `parallel.Tasks.start`."""
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="test-worker") as pool:
        monkeypatch.setattr(parallel, "_pool", pool)
        monkeypatch.setattr(parallel, "_SPLIT_MACS", 0)
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})
        yield stage_threads


class TestInitParameters:
    def test_bound_for_3_3(self, rng):
        w = nn.init_parameters(3, 3, rng)
        assert w.shape == (3, 3)
        assert np.all(np.abs(w) <= 1.0)

    def test_deterministic_given_seed(self):
        a = nn.init_parameters(10, 20, np.random.default_rng(7))
        b = nn.init_parameters(10, 20, np.random.default_rng(7))
        assert a.tobytes() == b.tobytes()

    def test_empirical_variance(self):
        # var of U(-b, b) is b^2/3 = 2/(fan_in+fan_out)
        rng = np.random.default_rng(5)
        fan_in, fan_out = 40, 60
        w = nn.init_parameters(fan_in, fan_out, rng)
        draws = np.concatenate([
            nn.init_parameters(fan_in, fan_out, rng).ravel() for _ in range(50)])
        assert draws.size >= 1e5
        expect = 2.0 / (fan_in + fan_out)
        assert abs(draws.var() - expect) / expect < 0.05

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            nn.init_parameters(0, 5, np.random.default_rng(0))


class TestLinearLayer:
    def test_zero_weights_relu_gives_zero(self, rng):
        layer = nn.LinearLayer(4, 3, activation="relu", rng=rng)
        layer.weight.data[:] = 0.0
        out = layer(t64(rng.normal(size=(2, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_identity_weight_passthrough(self, rng):
        layer = nn.LinearLayer(3, 3, activation="none", rng=rng)
        layer.weight.data[:] = np.eye(3)
        layer.bias.data[:] = 0.0
        x = rng.normal(size=(5, 3))
        np.testing.assert_allclose(layer(t64(x)).data, x, rtol=1e-12)

    def test_matches_brute_force(self, rng):
        layer = nn.LinearLayer(4, 3, activation="none", rng=rng)
        x = rng.normal(size=(2, 4))
        expect = np.zeros((2, 3))
        for b in range(2):
            for o in range(3):
                expect[b, o] = layer.bias.data[o]
                for i in range(4):
                    expect[b, o] += x[b, i] * layer.weight.data[i, o]
        np.testing.assert_allclose(layer(t64(x)).data, expect, rtol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        layer = nn.LinearLayer(4, 3, rng=rng)
        with pytest.raises(ValueError, match="expected"):
            layer(t64(np.zeros((2, 5))))

    def test_gradients_pass_check(self, rng):
        layer = nn.LinearLayer(3, 2, activation="relu", rng=rng)
        x = t64(rng.normal(size=(4, 3)) + 0.3, req=False)

        def f(w, b):
            out = ad.add(ad.matmul(x, w), ad.broadcast_rows(b, 4))
            return ad.tmean(ad.square(ad.clamp_min(out, 0.0)))

        report = grad_check(f, (layer.weight, layer.bias), step=1e-5, tol=1e-4)
        assert report.passed, str(report)


class TestGru:
    def make(self, rng, in_dim=3, hidden=4):
        return nn.GruLayer(in_dim, hidden, rng=rng)

    def zero_out(self, gru):
        for p in gru.parameters():
            p.data[:] = 0.0

    def test_zero_weights_zero_state(self, rng):
        gru = self.make(rng)
        self.zero_out(gru)
        h = gru.step(t64(rng.normal(size=(2, 3))), gru.initial_state(2))
        np.testing.assert_array_equal(h.data, np.zeros((2, 4)))

    def test_zero_weights_halve_state(self, rng):
        # z = sigmoid(0) = 0.5 and h~ = 0, so h_t = 0.5 h_prev
        gru = self.make(rng)
        self.zero_out(gru)
        h_prev = rng.normal(size=(2, 4))
        h = gru.step(t64(rng.normal(size=(2, 3))), t64(h_prev))
        np.testing.assert_allclose(h.data, 0.5 * h_prev, rtol=1e-12)

    def test_hand_evaluated_step(self, rng):
        gru = self.make(rng, in_dim=2, hidden=2)
        x = rng.normal(size=(1, 2))
        h0 = rng.normal(size=(1, 2))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        r = sig(x @ gru.W_r.data + h0 @ gru.U_r.data + gru.b_r.data)
        z = sig(x @ gru.W_z.data + h0 @ gru.U_z.data + gru.b_z.data)
        h_tilde = np.tanh(x @ gru.W_h.data + (r * h0) @ gru.U_h.data + gru.b_h.data)
        expect = (1 - z) * h0 + z * h_tilde
        got = gru.step(t64(x), t64(h0))
        np.testing.assert_allclose(got.data, expect, rtol=1e-12)

    def test_three_step_chain_gradcheck(self, rng):
        gru = self.make(rng, in_dim=2, hidden=3)
        xs = [t64(rng.normal(size=(2, 2)), req=False) for _ in range(3)]

        def f(*params):
            h = gru.initial_state(2)
            for x in xs:
                h = gru.step(x, h)
            return ad.tmean(ad.square(h))

        report = grad_check(f, tuple(gru.parameters()), step=1e-5, tol=1e-4)
        assert report.passed, str(report)

    def test_state_shape_mismatch_rejected(self, rng):
        gru = self.make(rng)
        with pytest.raises(ValueError, match="state"):
            gru.step(t64(np.zeros((2, 3))), t64(np.zeros((2, 5))))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_convex_hull(self, seed):
        # h_t interpolates h_prev toward tanh output: |h_t| <= max(|h_prev|, 1)
        r = np.random.default_rng(seed)
        gru = nn.GruLayer(3, 4, rng=r)
        for p in gru.parameters():
            p.data *= 3.0  # exaggerate to stress the bound
        h = Tensor(r.normal(size=(2, 4)) * 2)
        bound = np.maximum(np.abs(h.data), 1.0)
        h_t = gru.step(Tensor(r.normal(size=(2, 3))), h)
        assert np.all(np.abs(h_t.data) <= bound + 1e-12)


def _jitter_biases(layer, r):
    for p in layer.parameters():
        if p.data.ndim == 1:
            p.data = r.uniform(-0.5, 0.5, size=p.data.shape).astype(p.data.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_batch", [1, 16])
@pytest.mark.parametrize("n_in,hidden", [(4, 8), (257, 64), (6, 1)])
class TestSequenceOpsBitwise:
    """A whole time-major stack gives the bytes of T single-frame calls and
    of the per-frame tape composition the sequence ops replaced."""

    T = 7

    def frames(self, x, n_batch, n_frames):
        return [Tensor(x[t * n_batch:(t + 1) * n_batch]) for t in range(n_frames)]

    def check_gru(self, dtype, n_batch, n_in, hidden, n_frames):
        r = np.random.default_rng(n_in + n_batch)
        gru = nn.GruLayer(n_in, hidden, rng=r, dtype=dtype)
        _jitter_biases(gru, r)
        x = r.normal(size=(n_frames * n_batch, n_in)).astype(dtype)
        out = gru(Tensor(x), n_batch).data
        h = tape = gru.initial_state(n_batch)
        for t, x_t in enumerate(self.frames(x, n_batch, n_frames)):
            h = gru.step(x_t, h)
            tape = tape_reference.gru_step(gru, x_t, tape)
            rows = out[t * n_batch:(t + 1) * n_batch]
            assert rows.tobytes() == h.data.tobytes() == tape.data.tobytes(), f"frame {t}"

    def check_linear(self, dtype, n_batch, n_in, hidden, n_frames):
        r = np.random.default_rng(n_in + n_batch)
        for activation in ("relu", "none"):
            layer = nn.LinearLayer(n_in, hidden, activation, rng=r, dtype=dtype)
            _jitter_biases(layer, r)
            x = r.normal(size=(n_frames * n_batch, n_in)).astype(dtype)
            out = layer(Tensor(x), n_batch).data
            for t, x_t in enumerate(self.frames(x, n_batch, n_frames)):
                rows = out[t * n_batch:(t + 1) * n_batch]
                assert rows.tobytes() == layer(x_t).data.tobytes() == \
                    tape_reference.linear(layer, x_t).data.tobytes(), f"{activation} frame {t}"

    def test_gru_seq_equals_chained_steps(self, dtype, n_batch, n_in, hidden):
        self.check_gru(dtype, n_batch, n_in, hidden, self.T)

    def test_linear_seq_equals_per_frame_layer(self, dtype, n_batch, n_in, hidden):
        self.check_linear(dtype, n_batch, n_in, hidden, self.T)

    def test_one_frame_stack(self, dtype, n_batch, n_in, hidden):
        self.check_gru(dtype, n_batch, n_in, hidden, 1)
        self.check_linear(dtype, n_batch, n_in, hidden, 1)


class TestClipGradNorm:
    def test_small_gradients_untouched(self):
        p = t64(np.zeros(3))
        p.grad = np.array([0.3, 0.4, 0.0])
        norm = nn.clip_grad_norm([p], max_norm=5.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(p.grad, [0.3, 0.4, 0.0])

    def test_large_gradients_scaled_to_max(self):
        p = t64(np.zeros(2))
        p.grad = np.array([30.0, 40.0])
        norm = nn.clip_grad_norm([p], max_norm=5.0)
        assert norm == pytest.approx(50.0)
        np.testing.assert_allclose(np.linalg.norm(p.grad), 5.0, rtol=1e-12)

    def test_overflowing_norm_rejected(self):
        p = t64(np.zeros(2))
        p.grad = np.array([1e200, 1.0])
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match="^clip_grad_norm: the norm overflows"):
            nn.clip_grad_norm([p], max_norm=5.0)
        np.testing.assert_array_equal(p.grad, [1e200, 1.0])


class TestAdam:
    def test_zero_gradient_is_noop(self, rng):
        p = t64(rng.normal(size=(3,)))
        before = p.data.copy()
        opt = nn.Adam([p])
        for _ in range(5):
            p.grad = np.zeros(3)
            opt.step()
        np.testing.assert_array_equal(p.data, before)
        assert opt.t == 5

    def test_missing_gradient_skipped(self, rng):
        p = t64(rng.normal(size=(3,)))
        before = p.data.copy()
        opt = nn.Adam([p])
        opt.step()
        np.testing.assert_array_equal(p.data, before)

    def test_single_step_hand_evaluation(self):
        # t=1, g=1: m_hat = v_hat = 1, so the step is -lr/(1+eps) ~ -lr
        p = t64(np.array([0.0]))
        opt = nn.Adam([p], lr=1e-4)
        p.grad = np.array([1.0])
        opt.step()
        expect = -1e-4 * 1.0 / (1.0 + 1e-8)
        np.testing.assert_allclose(p.data, [expect], rtol=1e-12)

    def test_descent_on_quadratic(self):
        p = t64(np.array([1.0]))
        opt = nn.Adam([p], lr=1e-2)
        values = []
        for _ in range(100):
            p.grad = 2.0 * p.data
            opt.step()
            values.append(abs(float(p.data[0])))
        # strictly decreasing after burn-in
        assert all(b < a for a, b in zip(values[10:], values[11:]))
        assert values[-1] < 0.5

    def test_shape_mismatch_rejected(self):
        p = t64(np.zeros(3))
        opt = nn.Adam([p])
        p.grad = np.zeros(4)
        with pytest.raises(ValueError, match="shape"):
            opt.step()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_batch", [1, 16])
class TestGradientBuffers:
    """The sequence ops sum each weight gradient in a buffer of their own.
    A layer called twice in one graph finds `grad` set by the other call
    and must continue the per-frame order from a copy of it; no array that
    a `grad` pointed to is ever written."""

    dims = (5, 6, 8)                   # frames, input width, output width

    def setup_layers(self, dtype, n_batch, dims=dims):
        n_frames, n_in, hidden = dims
        r = np.random.default_rng(7 + n_batch)
        linear = nn.LinearLayer(n_in, hidden, "relu", rng=r, dtype=dtype)
        gru = nn.GruLayer(n_in, hidden, rng=r, dtype=dtype)
        _jitter_biases(linear, r)
        _jitter_biases(gru, r)
        rows = n_frames * n_batch
        xs = [Tensor(r.normal(size=(rows, n_in)).astype(dtype)) for _ in range(2)]
        weights = [Tensor(r.normal(size=(rows, hidden)).astype(dtype)) for _ in range(2)]
        return linear, gru, xs, weights

    def sequence_loss(self, layer, xs, weights, n_batch):
        a, b = (ad.tsum(ad.mul(layer(x, n_batch), w)) for x, w in zip(xs, weights))
        return ad.add(a, b)

    def tape_loss(self, layer, xs, weights, n_batch):
        def call(x):
            n_frames = x.data.shape[0] // n_batch
            frames = [tape_reference.slice_rows(x, t * n_batch, (t + 1) * n_batch)
                      for t in range(n_frames)]
            if isinstance(layer, nn.GruLayer):
                outs, h = [], layer.initial_state(n_batch)
                for x_t in frames:
                    h = tape_reference.gru_step(layer, x_t, h)
                    outs.append(h)
            else:
                outs = [tape_reference.linear(layer, x_t) for x_t in frames]
            return tape_reference.concat(outs, axis=0)
        a, b = (ad.tsum(ad.mul(call(x), w)) for x, w in zip(xs, weights))
        return ad.add(a, b)

    def grads(self, layer, loss, held=None):
        # `held`: arrays the parameters' grads start from, as if an earlier
        # backward pass had set them
        for i, p in enumerate(layer.parameters()):
            p.grad = None if held is None else held[i].copy()
        ad.backward(loss)
        return [p.grad.tobytes() for p in layer.parameters()]

    def mismatches(self, layer, xs, weights, n_batch, held=None):
        got = self.grads(layer, self.sequence_loss(layer, xs, weights, n_batch), held)
        expect = self.grads(layer, self.tape_loss(layer, xs, weights, n_batch), held)
        names = list(layer.named_parameters())
        return [n for n, g, e in zip(names, got, expect) if g != e]

    def test_two_calls_match_per_frame_tape(self, dtype, n_batch):
        linear, gru, xs, weights = self.setup_layers(dtype, n_batch)
        for layer in (linear, gru):
            assert self.mismatches(layer, xs, weights, n_batch) == []

    @pytest.mark.parametrize("dims", [(9, 6, 1), (1, 6, 8)], ids=["width-one", "one-frame"])
    def test_edge_shapes_match_per_frame_tape(self, dtype, n_batch, dims):
        # width one: each frame's bias term is a sum over a contiguous batch
        # column, and over frames the sum must stay sequential, not pairwise
        linear, gru, xs, weights = self.setup_layers(dtype, n_batch, dims)
        for layer in (linear, gru):
            assert self.mismatches(layer, xs, weights, n_batch) == []

    def test_wide_gru_blocks_match_per_frame_tape(self, dtype, n_batch):
        # a 512 x 512 U term takes 1 or 2 MB, so 9 frames span several
        # blocks of stacked terms; every grad starts out set
        _, gru, xs, weights = self.setup_layers(dtype, n_batch, (9, 6, 512))
        r = np.random.default_rng(11)
        held = [r.normal(size=p.data.shape).astype(dtype) for p in gru.parameters()]
        assert self.mismatches(gru, xs, weights, n_batch, held) == []

    def test_streamed_sums_match_per_frame_tape(self, dtype, n_batch, worker, monkeypatch):
        # blocks of 2 frames of weight sums on the worker; the GRU is called
        # twice in one graph, and then again from held grads
        monkeypatch.setattr(ad, "_BLOCK_BYTES", 2 * 8 * 8 * np.dtype(dtype).itemsize)
        _, gru, xs, weights = self.setup_layers(dtype, n_batch)
        r = np.random.default_rng(12)
        held = [r.normal(size=p.data.shape).astype(dtype) for p in gru.parameters()]
        assert self.mismatches(gru, xs, weights, n_batch) == []
        assert self.mismatches(gru, xs, weights, n_batch, held) == []
        # per `mismatches`: the second half of each of the two GRU calls'
        # forward input projections, and the 3 blocks (of 2, 2 and 1 of the 5
        # frames) of each call's backward
        assert [name.split("_")[0] for name, _ in worker] == ["test-worker"] * 2 * (2 + 2 * 3)

    def test_held_and_shared_grads_never_written(self, dtype, n_batch):
        linear, gru, xs, weights = self.setup_layers(dtype, n_batch)
        for layer in (linear, gru):
            params = layer.parameters()
            for p in params:
                p.grad = None
            ad.backward(self.sequence_loss(layer, xs, weights, n_batch))
            held = [p.grad for p in params]
            held_bytes = [g.tobytes() for g in held]
            ad.backward(self.sequence_loss(layer, xs, weights, n_batch))
            assert [g.tobytes() for g in held] == held_bytes
            assert all(p.grad is not g for p, g in zip(params, held))

            # one array bound to a parameter's grad and to another leaf's
            shared = [np.ones_like(p.data) for p in params]
            others = [Tensor(np.zeros_like(p.data), requires_grad=True) for p in params]
            for p, other, s in zip(params, others, shared):
                p.grad = other.grad = s
            ad.backward(self.sequence_loss(layer, xs, weights, n_batch))
            for p, other, s in zip(params, others, shared):
                assert other.grad is s
                assert s.tobytes() == np.ones_like(s).tobytes()
                assert p.grad is not s


class _ReferenceAdam:
    """`nn.Adam.step` as it was written before it updated m and v in place:
    one fresh array per operation."""

    def __init__(self, params, lr):
        self.params, self.lr, self.t = params, lr, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        b1, b2, eps = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS
        self.t += 1
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + eps)


def _reference_clip(grads, max_norm):
    """`nn.clip_grad_norm`'s formulas on a list of arrays (None skipped)."""
    total = 0.0
    for g in grads:
        if g is not None:
            total += float(np.sum(g.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        grads = [None if g is None else (g * scale).astype(g.dtype) for g in grads]
    return norm, grads


def _param_set(dtype, r):
    shapes = [(7, 5), (5,), (3, 3), (4,)]
    return [Tensor(r.normal(size=s).astype(dtype), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestOptimiserBitwise:
    """Adam and clipping keep the bytes of the one-array-per-operation
    formulas, kept above as the reference."""

    def test_adam_steps_match_reference(self, dtype):
        r = np.random.default_rng(3)
        params = _param_set(dtype, r)
        twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        opt, ref = nn.Adam(params, lr=3e-3), _ReferenceAdam(twins, lr=3e-3)
        for step in range(6):
            grads = [r.normal(size=p.data.shape).astype(dtype) * 10.0 ** (step - 3)
                     for p in params]
            grads[1] = None if step % 2 else grads[1]        # a parameter without grad
            grads[2] = np.zeros_like(grads[2]) if step < 3 else grads[2]
            for p, twin, g in zip(params, twins, grads):
                p.grad = g
                twin.grad = None if g is None else g.copy()
            held = [p.data for p in params]
            held_bytes = [d.tobytes() for d in held]
            opt.step()
            ref.step()
            for i, (p, twin) in enumerate(zip(params, twins)):
                assert p.data.dtype == dtype
                assert p.data.tobytes() == twin.data.tobytes(), f"step {step} param {i}"
                assert opt.m[i].tobytes() == ref.m[i].tobytes()
                assert opt.v[i].tobytes() == ref.v[i].tobytes()
                if grads[i] is not None:
                    assert p.data is not held[i]            # rebound, not written
            assert [d.tobytes() for d in held] == held_bytes

    def test_adam_rejects_dtype_mismatch(self, dtype):
        other = np.float64 if dtype == np.float32 else np.float32
        params = _param_set(dtype, np.random.default_rng(4))
        opt = nn.Adam(params)
        params[0].grad = np.zeros(params[0].data.shape, dtype=dtype)
        params[2].grad = np.zeros(params[2].data.shape, dtype=other)
        with pytest.raises(ValueError, match="^adam: parameter 2: gradient dtype"):
            opt.step()

    def test_split_adam_steps_match_reference(self, dtype, worker):
        """With the gate forced open, the worker updates the second run of
        parameters, with the same bytes."""
        r = np.random.default_rng(3)
        params = _param_set(dtype, r)
        twins = [Tensor(p.data.copy(), requires_grad=True) for p in params]
        opt, ref = nn.Adam(params, lr=3e-3), _ReferenceAdam(twins, lr=3e-3)
        for step in range(4):
            for p, twin in zip(params, twins):
                p.grad = r.normal(size=p.data.shape).astype(dtype)
                twin.grad = p.grad.copy()
            opt.step()
            ref.step()
            for i, (p, twin) in enumerate(zip(params, twins)):
                assert p.data.tobytes() == twin.data.tobytes(), f"step {step} param {i}"
                assert opt.m[i].tobytes() == ref.m[i].tobytes()
                assert opt.v[i].tobytes() == ref.v[i].tobytes()
        assert [name.split("_")[0] for name, _ in worker] == ["test-worker"] * 4

    def test_split_runs_are_about_equal(self, dtype, worker, monkeypatch):
        runs = []
        update = nn.Adam._update

        def recording(opt, indices, buffers=None):
            runs.append((threading.get_ident() == here, indices))
            update(opt, indices, buffers)

        here = threading.get_ident()
        monkeypatch.setattr(nn.Adam, "_update", recording)
        sizes = [(3, 4), (12,), (2, 2, 3), (6,), (6,), (5,)]
        params = [Tensor(np.ones(s, dtype), requires_grad=True) for s in sizes]
        for p in params:
            p.grad = np.ones_like(p.data)
        params[4].grad = None                     # skipped, in neither run
        nn.Adam(params).step()
        assert sorted(runs) == [(False, [2, 3, 5]), (True, [0, 1])]

    @pytest.mark.parametrize("split", [False, True], ids=["one-run", "split"])
    @pytest.mark.parametrize("bad", ["shape", "dtype"])
    def test_rejected_adam_step_writes_nothing(self, dtype, split, bad, request):
        if split:
            request.getfixturevalue("worker")
        r = np.random.default_rng(7)
        params = _param_set(dtype, r)
        opt = nn.Adam(params, lr=3e-3)
        for _ in range(2):
            for p in params:
                p.grad = r.normal(size=p.data.shape).astype(dtype)
            opt.step()
        before = [p.data for p in params]
        state = [[a.tobytes() for a in arrays] for arrays in (before, opt.m, opt.v)]
        other = np.float64 if dtype == np.float32 else np.float32
        params[3].grad = np.zeros(5, dtype) if bad == "shape" else np.zeros(4, other)
        with pytest.raises(ValueError, match=f"^adam: parameter 3: gradient {bad}"):
            opt.step()
        assert opt.t == 2
        assert all(p.data is d for p, d in zip(params, before))
        assert [[a.tobytes() for a in arrays] for arrays in (before, opt.m, opt.v)] == state

    def test_error_in_the_workers_run_is_raised_by_step(self, dtype, worker):
        params = _param_set(dtype, np.random.default_rng(8))
        for p in params:
            p.grad = np.ones_like(p.data)
        params[3].grad[0] = np.finfo(dtype).max               # g*g overflows
        opt = nn.Adam(params)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            opt.step()
        assert [name.split("_")[0] for name, _ in worker] == ["test-worker"]

    def test_clip_rejects_a_non_finite_gradient(self, dtype):
        """An infinite gradient raises before anything is scaled; before,
        5/inf = 0 scaled it to NaN and Adam wrote NaN parameters."""
        params = [Tensor(np.zeros(3, dtype), requires_grad=True),
                  Tensor(np.zeros((2, 2), dtype), requires_grad=True)]
        params[0].grad = np.full(3, 100.0, dtype)
        params[1].grad = np.array([[np.inf, 1], [1, 1]], dtype)
        held = [p.grad for p in params]
        held_bytes = [g.tobytes() for g in held]
        with pytest.raises(NumericError, match="^clip_grad_norm: parameter 1: non-finite"):
            nn.clip_grad_norm(params, max_norm=5.0)
        assert all(p.grad is g for p, g in zip(params, held))
        assert [g.tobytes() for g in held] == held_bytes

    @pytest.mark.parametrize("scale", [1e-3, 0.1, 100.0])
    def test_clip_matches_reference(self, dtype, scale):
        r = np.random.default_rng(5)
        params = _param_set(dtype, r)
        for p in params:
            p.grad = r.normal(size=p.data.shape).astype(dtype) * scale
        params[1].grad = None
        held = [p.grad for p in params]
        held_bytes = [None if g is None else g.tobytes() for g in held]
        norm_ref, expect = _reference_clip(held, max_norm=5.0)
        norm = nn.clip_grad_norm(params, max_norm=5.0)
        assert norm == norm_ref
        for p, e in zip(params, expect):
            assert (p.grad is None) == (e is None)
            if e is not None:
                assert p.grad.dtype == dtype and p.grad.tobytes() == e.tobytes()
        assert [None if g is None else g.tobytes() for g in held] == held_bytes
        clipped = norm > 5.0
        assert clipped == (scale == 100.0)
        assert all((p.grad is g) != clipped for p, g in zip(params, held) if g is not None)

    def test_clip_zero_gradients(self, dtype):
        params = _param_set(dtype, np.random.default_rng(6))
        for p in params:
            p.grad = np.zeros_like(p.data)
        held = [p.grad for p in params]
        assert nn.clip_grad_norm(params, max_norm=5.0) == 0.0
        assert all(p.grad is g for p, g in zip(params, held))
