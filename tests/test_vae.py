"""Encoder/decoder contracts, reparameterization, and the ELBO terms.

Closed-form losses are cross-checked against Monte-Carlo estimates and an
independent scipy log-density oracle; gradient checks run on a shrunken
topology so finite differences stay fast.
"""

import re

import numpy as np
import pytest
import scipy.stats

import tape_reference
from gradcheck import grad_check
from oracles import elbo_loss, gaussian_log_likelihood, kl_to_standard_normal
from pvae import autodiff as ad
from pvae import vae
from pvae.autodiff import Tensor
from pvae.diploss import SETTINGS, dip_total_loss
from pvae.nsvae import NsvaeModel, permutation_loss
from pvae.vae import GaussianParams, VaeModel


def tiny_model(rng=None, input_dim=6, hidden_dim=5, latent_dim=3, role="speech"):
    rng = rng or np.random.default_rng(42)
    return VaeModel(input_dim=input_dim, hidden_dim=hidden_dim,
                    latent_dim=latent_dim, role=role, rng=rng)


def zero_heads(model):
    for layer in (model.enc_mu, model.enc_logvar):
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 0.0


class TestReparameterize:
    def test_var_floor_collapses_to_mean(self, rng):
        mu = rng.normal(size=(4, 3))
        q = GaussianParams(Tensor(mu), Tensor(np.full((4, 3), vae.VAR_FLOOR)))
        z = vae.reparameterize(q, np.random.default_rng(0))
        eps = np.random.default_rng(0).standard_normal(mu.shape)
        assert np.max(np.abs(z.data - mu)) <= np.sqrt(vae.VAR_FLOOR) * np.max(np.abs(eps))

    def test_seed_determinism(self):
        q = GaussianParams(Tensor(np.ones((5, 2))), Tensor(np.full((5, 2), 2.0)))
        a = vae.reparameterize(q, np.random.default_rng(7))
        b = vae.reparameterize(q, np.random.default_rng(7))
        assert a.data.tobytes() == b.data.tobytes()

    def test_sample_reconstruction_identity(self, rng):
        mu = rng.normal(size=(3, 4))
        var = rng.uniform(0.5, 2.0, size=(3, 4))
        z = vae.reparameterize(GaussianParams(Tensor(mu), Tensor(var)), np.random.default_rng(3))
        eps = np.random.default_rng(3).standard_normal(mu.shape)
        np.testing.assert_allclose(z.data, mu + np.sqrt(var) * eps, rtol=1e-12)

    def test_monte_carlo_moments(self):
        n = 10**6
        q = GaussianParams(Tensor(np.full((n, 1), 1.0)), Tensor(np.full((n, 1), 4.0)))
        z = vae.reparameterize(q, np.random.default_rng(11)).data.ravel()
        assert abs(z.mean() - 1.0) < 0.01
        assert abs(z.var() - 4.0) < 0.05


class TestEncode:
    def test_variance_strictly_positive(self, rng):
        m = tiny_model(rng)
        q = m.encode(rng.normal(size=(7, 6)) * 5)
        assert np.all(q.var.data > 0)

    def test_zero_heads_give_standard_normal(self, rng):
        m = tiny_model(rng)
        zero_heads(m)
        q = m.encode(rng.normal(size=(4, 6)))
        np.testing.assert_array_equal(q.mu.data, np.zeros((4, 3)))
        np.testing.assert_array_equal(q.var.data, np.ones((4, 3)))

    def test_causality_prefix_bit_identical(self, rng):
        m = tiny_model(rng)
        frames = rng.normal(size=(10, 6))
        q_full = m.encode(frames)
        q_prefix = m.encode(frames[:4])
        assert q_prefix.mu.data.tobytes() == q_full.mu.data[:4].tobytes()
        assert q_prefix.var.data.tobytes() == q_full.var.data[:4].tobytes()

    def test_causality_at_full_width(self):
        # the width where batched BLAS kernels start reordering sums
        rng = np.random.default_rng(0)
        m = VaeModel(input_dim=257, hidden_dim=512, latent_dim=128, rng=rng)
        frames = rng.normal(size=(6, 257))
        q_full = m.encode(frames)
        q_prefix = m.encode(frames[:2])
        assert q_prefix.mu.data.tobytes() == q_full.mu.data[:2].tobytes()

    @pytest.mark.parametrize("model_cls", [VaeModel, NsvaeModel])
    def test_f_ordered_input_gives_same_bytes(self, model_cls):
        # enhancement hands the encoder lps(...).T, an F-ordered (T, F) view
        rng = np.random.default_rng(0)
        m = model_cls(input_dim=257, hidden_dim=512, latent_dim=128, rng=rng,
                      dtype=np.float32)
        frames = rng.normal(size=(257, 6)).T.astype(np.float32)
        assert not frames.flags.c_contiguous

        def posteriors(arr):               # the NSVAE returns two
            q = m.encode(arr)
            return q if isinstance(q, tuple) else (q,)

        for a, b in zip(posteriors(frames), posteriors(np.ascontiguousarray(frames))):
            assert a.mu.data.tobytes() == b.mu.data.tobytes()
            assert a.var.data.tobytes() == b.var.data.tobytes()

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="expected"):
            tiny_model(rng).encode(rng.normal(size=(4, 7)))


    def test_numeric_error_names_stage_and_frame(self, rng):
        m = tiny_model(rng)
        m.named_parameters()["enc.fc0.weight"].data[:] = 2.0
        frames = rng.normal(size=(4, 6))
        frames[2] = 1e308                  # frame 2 overflows the first matmul
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match=r"^encode frame 2: "):
            m.encode(frames)


class TestDecode:
    def test_variance_strictly_positive(self, rng):
        m = tiny_model(rng)
        p = m.decode(Tensor(rng.normal(size=(5, 3))))
        assert np.all(p.var.data > 0)
        assert p.mu.data.shape == (5, 6)

    def test_deterministic(self, rng):
        m = tiny_model(rng)
        z = Tensor(rng.normal(size=(5, 3)))
        a, b = m.decode(z), m.decode(z)
        assert a.mu.data.tobytes() == b.mu.data.tobytes()

    def test_gradient_wrt_z(self, rng):
        m = tiny_model(rng)
        z = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

        def f(z):
            p = m.decode_batch(z, n_batch=1)
            return ad.tmean(ad.add(ad.square(p.mu), p.var))

        report = grad_check(f, z, step=1e-5, tol=1e-4)
        assert report.passed, str(report)


    def test_numeric_error_names_stage_and_frame(self, rng):
        m = tiny_model(rng)
        m.named_parameters()["dec.gru.W_r"].data[:] = 2.0
        z = rng.normal(size=(4, 3))
        z[2] = 1e308
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match=r"^decode frame 2: "):
            m.decode(Tensor(z))


class TestSequenceOpsMatchPerFrameTape:
    """Forward values and every parameter gradient of the training losses
    equal, bit for bit, those of the per-frame graph of primitive ops: the
    same training steps, so the same trained models."""

    def models(self, dtype):
        rng = np.random.default_rng(3)
        dims = dict(input_dim=257, hidden_dim=32, latent_dim=8, rng=rng, dtype=dtype)
        return VaeModel(role="speech", **dims), VaeModel(role="noise", **dims), NsvaeModel(**dims)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("setting", [1, 2, 3, 4])
    def test_dip_total_loss(self, dtype, setting):
        batch = np.random.default_rng(setting).normal(size=(5, 9, 257))
        runs = []
        for model in (self.models(dtype)[0], tape_reference.use_tape(self.models(dtype)[0])):
            loss = dip_total_loss(model, batch, SETTINGS[setting], np.random.default_rng(7))
            runs.append((loss.data.tobytes(), tape_reference.gradients(model, loss)))
        assert runs[0][0] == runs[1][0]
        assert [k for k in runs[0][1] if runs[0][1][k] != runs[1][1][k]] == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_permutation_loss(self, dtype):
        r = np.random.default_rng(4)
        y, x, v = (r.normal(size=(5, 9, 257)) for _ in range(3))
        runs = []
        for tape in (False, True):
            cvae, nvae, ns = self.models(dtype)
            cvae.freeze()
            nvae.freeze()
            if tape:
                for model in (cvae, nvae, ns):
                    tape_reference.use_tape(model)
            loss = permutation_loss(ns, cvae, nvae, y, x, v)
            runs.append((loss.data.tobytes(), tape_reference.gradients(ns, loss)))
        assert runs[0][0] == runs[1][0]
        assert [k for k in runs[0][1] if runs[0][1][k] != runs[1][1][k]] == []


class TestNamedParameters:
    def test_ordered_names_pinned(self):
        # this order fixes checkpoint names, Adam state order and the
        # summation order of clip_grad_norm
        gru = [f"gru.{n}" for n in ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h",
                                    "b_r", "b_z", "b_h")]

        def linear(prefix):
            return [f"{prefix}.weight", f"{prefix}.bias"]

        expected = (linear("enc.fc0") + linear("enc.fc1") + linear("enc.fc2")
                    + [f"enc.{n}" for n in gru] + linear("enc.mu") + linear("enc.logvar")
                    + [f"dec.{n}" for n in gru] + linear("dec.fc0") + linear("dec.fc1")
                    + linear("dec.fc2") + linear("dec.mu") + linear("dec.logvar"))
        assert list(tiny_model().named_parameters()) == expected
        assert len(tiny_model().parameters()) == len(expected)


class TestGaussianLogLikelihood:
    def test_match_at_mean_unit_variance(self):
        s = np.linspace(-1, 1, 257)
        expect = -0.5 * 257 * np.log(2 * np.pi)  # = -236.167...
        assert gaussian_log_likelihood(s, s.copy(), np.ones(257)) == pytest.approx(expect, rel=1e-12)

    def test_variance_one_over_2pi_gives_zero(self):
        s = np.zeros(257)
        var = np.full(257, 1.0 / (2 * np.pi))
        assert gaussian_log_likelihood(s, s.copy(), var) == pytest.approx(0.0, abs=1e-10)

    def test_against_scipy_oracle(self, rng):
        s = rng.normal(size=31)
        mu = rng.normal(size=31)
        var = rng.uniform(0.3, 3.0, size=31)
        ours = gaussian_log_likelihood(s, mu, var)
        oracle = float(np.sum(scipy.stats.norm.logpdf(s, loc=mu, scale=np.sqrt(var))))
        assert ours == pytest.approx(oracle, rel=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            gaussian_log_likelihood(np.zeros(3), np.zeros(4), np.ones(4))


class TestKlToStandardNormal:
    def test_prior_gives_zero(self):
        assert kl_to_standard_normal(np.zeros(5), np.ones(5)) == 0.0

    def test_unit_mean_shift(self):
        assert kl_to_standard_normal(np.array([1.0]), np.array([1.0])) == pytest.approx(0.5, rel=1e-12)

    def test_monte_carlo_log_ratio(self):
        # E_q[log q(z) - log p(z)] over 10^6 draws
        mu, var = 1.0, 1.0
        r = np.random.default_rng(21)
        z = mu + np.sqrt(var) * r.standard_normal(10**6)
        log_q = scipy.stats.norm.logpdf(z, loc=mu, scale=np.sqrt(var))
        log_p = scipy.stats.norm.logpdf(z)
        mc = float(np.mean(log_q - log_p))
        closed = kl_to_standard_normal(np.array([mu]), np.array([var]))
        assert abs(closed - mc) / closed < 0.01

    def test_nonnegative_on_random_draws(self, rng):
        for _ in range(50):
            assert kl_to_standard_normal(rng.normal(size=4), rng.uniform(0.1, 5.0, size=4)) >= 0.0


class TestElboLoss:
    def test_tensor_terms_match_scalar_references(self, rng):
        # one consistency check between the two formula paths
        s = rng.normal(size=(4, 6))
        mu = rng.normal(size=(4, 6))
        var = rng.uniform(0.5, 2.0, size=(4, 6))
        nll_t = vae.gaussian_nll_sum(Tensor(s), Tensor(mu), Tensor(var)).item()
        ref = -sum(gaussian_log_likelihood(s[i], mu[i], var[i])
                   for i in range(4))
        assert nll_t == pytest.approx(ref, rel=1e-12)

        kl_t = vae.kl_std_normal_sum(Tensor(mu), Tensor(var)).item()
        ref_kl = sum(kl_to_standard_normal(mu[i], var[i])
                     for i in range(4))
        assert kl_t == pytest.approx(ref_kl, rel=1e-12)

    def test_empty_batch_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            elbo_loss(tiny_model(rng), np.zeros((0, 0, 6)), np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(7, 6), (6,), (1, 2, 7, 6)])
    def test_batch_not_btf_rejected_naming_shape(self, rng, shape):
        with pytest.raises(ValueError, match=rf"expected a \(B, T, F\) batch, got shape "
                                             rf"{re.escape(str(shape))}"):
            elbo_loss(tiny_model(rng), np.zeros(shape), np.random.default_rng(0))

    def test_full_loss_gradient_check(self, rng):
        m = tiny_model(rng, input_dim=4, hidden_dim=3, latent_dim=2)
        # zero-init biases can land ReLU inputs exactly on the kink when a
        # frame goes fully dead; jitter to a generic point for FD validity
        for name, p in m.named_parameters().items():
            if name.endswith("bias") or name.startswith(("enc.gru.b", "dec.gru.b")):
                p.data += rng.uniform(0.05, 0.15, size=p.data.shape)
        batch = rng.normal(size=(1, 4, 4))  # 4-frame batch
        eps_rng_seed = 5

        def f(*params):
            return elbo_loss(m, batch, np.random.default_rng(eps_rng_seed))

        report = grad_check(f, tuple(m.parameters()), step=1e-5, tol=1e-4)
        assert report.passed, str(report)

    def test_one_sample_estimate_unbiased_on_linear_gaussian(self):
        # decoder p(s|z) = N(a z + b, 1), encoder q = N(mu, var) held fixed:
        # analytic ELBO = -1/2 log 2pi - 1/2[(s - a mu - b)^2 + a^2 var] - KL(q || N(0,1))
        mu, var, a, b, s = 0.7, 0.6, 1.3, -0.2, 0.9
        q = (np.array([mu]), np.array([var]))
        analytic_ll = -0.5 * np.log(2 * np.pi) - 0.5 * ((s - a * mu - b) ** 2 + a * a * var)
        analytic = analytic_ll - kl_to_standard_normal(*q)

        r = np.random.default_rng(17)
        n = 200_000
        z = mu + np.sqrt(var) * r.standard_normal(n)
        ll = scipy.stats.norm.logpdf(s, loc=a * z + b, scale=1.0)
        one_sample_mean = float(np.mean(ll)) - kl_to_standard_normal(*q)
        assert one_sample_mean == pytest.approx(analytic, abs=3e-3)

    def test_training_loss_trend_decreases(self, rng):
        # 200 Adam steps on a 50-frame toy dataset: first vs last window mean
        from pvae import nn as nn_mod
        m = tiny_model(np.random.default_rng(3), input_dim=8, hidden_dim=6, latent_dim=2)
        t = np.arange(50)
        data = np.stack([np.sin(t / 4.0 + k) for k in np.linspace(0, 1, 8)], axis=1)
        batch = data[None]  # (1, 50, 8)
        opt = nn_mod.Adam(m.parameters(), lr=3e-3)
        losses = []
        step_rng = np.random.default_rng(9)
        for _ in range(200):
            opt.zero_grad()
            loss = elbo_loss(m, batch, step_rng)
            ad.backward(loss)
            nn_mod.clip_grad_norm(m.parameters(), 5.0)
            opt.step()
            losses.append(loss.item())
        assert np.mean(losses[-20:]) < np.mean(losses[:20])


class TestFreeze:
    def test_frozen_params_get_no_gradients(self, rng):
        m = tiny_model(rng)
        m.freeze()
        loss = elbo_loss(m, rng.normal(size=(1, 3, 6)), np.random.default_rng(0))
        assert not loss.requires_grad  # nothing in the graph needs gradients
        for p in m.parameters():
            assert p.grad is None
