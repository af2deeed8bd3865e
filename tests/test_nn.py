"""Layer, initializer, and optimizer tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tape_reference
from pvae import autodiff as ad
from pvae import nn
from pvae.autodiff import Tensor


def t64(data, req=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=req)


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
            return ad.tmean(ad.square(ad.relu(out)))

        report = ad.grad_check(f, (layer.weight, layer.bias), step=1e-5, tol=1e-4)
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

        report = ad.grad_check(f, tuple(gru.parameters()), step=1e-5, tol=1e-4)
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
@pytest.mark.parametrize("n_in,hidden", [(4, 8), (257, 64)])
class TestSequenceOpsBitwise:
    """A whole time-major stack gives the bytes of T single-frame calls and
    of the per-frame tape composition the sequence ops replaced."""

    T = 7

    def frames(self, x, n_batch):
        return [Tensor(x[t * n_batch:(t + 1) * n_batch]) for t in range(self.T)]

    def test_gru_seq_equals_chained_steps(self, dtype, n_batch, n_in, hidden):
        r = np.random.default_rng(n_in + n_batch)
        gru = nn.GruLayer(n_in, hidden, rng=r, dtype=dtype)
        _jitter_biases(gru, r)
        x = r.normal(size=(self.T * n_batch, n_in)).astype(dtype)
        out = gru(Tensor(x), n_batch).data
        h = tape = gru.initial_state(n_batch)
        for t, x_t in enumerate(self.frames(x, n_batch)):
            h = gru.step(x_t, h)
            tape = tape_reference.gru_step(gru, x_t, tape)
            rows = out[t * n_batch:(t + 1) * n_batch]
            assert rows.tobytes() == h.data.tobytes() == tape.data.tobytes(), f"frame {t}"

    def test_linear_seq_equals_per_frame_layer(self, dtype, n_batch, n_in, hidden):
        r = np.random.default_rng(n_in + n_batch)
        for activation in ("relu", "none"):
            layer = nn.LinearLayer(n_in, hidden, activation, rng=r, dtype=dtype)
            _jitter_biases(layer, r)
            x = r.normal(size=(self.T * n_batch, n_in)).astype(dtype)
            out = layer(Tensor(x), n_batch).data
            for t, x_t in enumerate(self.frames(x, n_batch)):
                rows = out[t * n_batch:(t + 1) * n_batch]
                assert rows.tobytes() == layer(x_t).data.tobytes() == \
                    tape_reference.linear(layer, x_t).data.tobytes(), f"{activation} frame {t}"


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
