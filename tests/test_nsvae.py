"""Dual-posterior encoder and the KL-matching training loss."""

import numpy as np
import pytest
import scipy.stats
from gradcheck import grad_check
from oracles import kl_diag_gaussians

from pvae import autodiff as ad
from pvae import nsvae as ns_mod
from pvae.autodiff import Tensor
from pvae.nsvae import NsvaeModel, kl_diag_sum, permutation_loss
from pvae.vae import VaeModel


def tiny_nsvae(seed=42, input_dim=5, hidden_dim=4, latent_dim=3):
    return NsvaeModel(input_dim=input_dim, hidden_dim=hidden_dim,
                      latent_dim=latent_dim, rng=np.random.default_rng(seed))


def tiny_vae(seed, role, input_dim=5, hidden_dim=4, latent_dim=3):
    m = VaeModel(input_dim=input_dim, hidden_dim=hidden_dim, latent_dim=latent_dim,
                 role=role, rng=np.random.default_rng(seed))
    m.freeze()
    return m


def zero_all_heads(ns, cvae, nvae):
    layers = [ns.head_mu_x, ns.head_logvar_x, ns.head_mu_v, ns.head_logvar_v,
              cvae.enc_mu, cvae.enc_logvar, nvae.enc_mu, nvae.enc_logvar]
    for layer in layers:
        layer.weight.data[:] = 0.0
        layer.bias.data[:] = 0.0


class TestEncode:
    def test_variances_strictly_positive(self, rng):
        ns = tiny_nsvae()
        qx, qv = ns.encode(rng.normal(size=(6, 5)) * 3)
        assert np.all(qx.var.data > 0) and np.all(qv.var.data > 0)
        assert qx.mu.data.shape == (6, 3)

    def test_zero_heads_give_standard_normal_pair(self, rng):
        ns = tiny_nsvae()
        for layer in (ns.head_mu_x, ns.head_logvar_x, ns.head_mu_v, ns.head_logvar_v):
            layer.weight.data[:] = 0.0
            layer.bias.data[:] = 0.0
        qx, qv = ns.encode(rng.normal(size=(4, 5)))
        for q in (qx, qv):
            np.testing.assert_array_equal(q.mu.data, np.zeros((4, 3)))
            np.testing.assert_array_equal(q.var.data, np.ones((4, 3)))

    def test_causality_prefix_bit_identical(self, rng):
        ns = tiny_nsvae()
        frames = rng.normal(size=(9, 5))
        full_x, full_v = ns.encode(frames)
        pre_x, pre_v = ns.encode(frames[:3])
        assert pre_x.mu.data.tobytes() == full_x.mu.data[:3].tobytes()
        assert pre_v.var.data.tobytes() == full_v.var.data[:3].tobytes()

    def test_no_decoder_exists(self):
        ns = tiny_nsvae()
        assert not hasattr(ns, "decode")
        assert not hasattr(ns, "decode_batch")
        assert not any(name.startswith("dec") for name in ns.named_parameters())

    def test_four_heads_share_trunk(self):
        names = tiny_nsvae().named_parameters()
        heads = [n for n in names if n.startswith("head.")]
        assert sorted(heads) == ["head.logvar_v.bias", "head.logvar_v.weight",
                                 "head.logvar_x.bias", "head.logvar_x.weight",
                                 "head.mu_v.bias", "head.mu_v.weight",
                                 "head.mu_x.bias", "head.mu_x.weight"]


    def test_ordered_names_pinned(self):
        # this order fixes checkpoint names, Adam state order and the
        # summation order of clip_grad_norm
        def linear(prefix):
            return [f"{prefix}.weight", f"{prefix}.bias"]

        expected = (linear("trunk.fc0") + linear("trunk.fc1") + linear("trunk.fc2")
                    + [f"trunk.gru.{n}" for n in ("W_r", "W_z", "W_h", "U_r", "U_z",
                                                  "U_h", "b_r", "b_z", "b_h")]
                    + linear("trunk.wide") + linear("head.mu_x") + linear("head.logvar_x")
                    + linear("head.mu_v") + linear("head.logvar_v"))
        assert list(tiny_nsvae().named_parameters()) == expected

    def test_numeric_error_names_stage_and_frame(self, rng):
        ns = tiny_nsvae()
        ns.named_parameters()["trunk.fc0.weight"].data[:] = 2.0
        frames = rng.normal(size=(4, 5))
        frames[2] = 1e308                  # frame 2 overflows the first matmul
        with np.errstate(over="ignore"), pytest.raises(ad.NumericError, match=r"^encode frame 2: "):
            ns.encode(frames)


class TestKlDiagGaussians:
    def test_identical_gives_zero(self, rng):
        mu = rng.normal(size=4)
        var = rng.uniform(0.5, 2.0, size=4)
        q = (mu, var)
        assert kl_diag_gaussians(*q, *q) == 0.0

    def test_unit_mean_shift(self):
        q1 = (np.array([1.0]), np.array([1.0]))
        q2 = (np.array([0.0]), np.array([1.0]))
        assert kl_diag_gaussians(*q1, *q2) == pytest.approx(0.5, rel=1e-12)

    def test_monte_carlo_log_ratio(self):
        q1 = (np.array([1.0]), np.array([1.0]))
        q2 = (np.array([0.0]), np.array([1.0]))
        r = np.random.default_rng(3)
        z = 1.0 + r.standard_normal(10**6)
        mc = float(np.mean(scipy.stats.norm.logpdf(z, 1.0, 1.0)
                           - scipy.stats.norm.logpdf(z, 0.0, 1.0)))
        assert abs(kl_diag_gaussians(*q1, *q2) - mc) / 0.5 < 0.01

    def test_asymmetry_with_closed_forms(self):
        # equal means, var 1 vs 4: KL is 1/2[ln 4 - 3/4] forward and
        # 1/2[3 - ln 4] reverse; both cross-checked by Monte-Carlo below
        q1 = (np.array([0.0]), np.array([1.0]))
        q2 = (np.array([0.0]), np.array([4.0]))
        fwd = kl_diag_gaussians(*q1, *q2)
        rev = kl_diag_gaussians(*q2, *q1)
        assert fwd == pytest.approx(0.5 * (np.log(4.0) - 0.75), rel=1e-12)
        assert rev == pytest.approx(0.5 * (3.0 - np.log(4.0)), rel=1e-12)
        assert fwd != rev

        r = np.random.default_rng(9)
        z1 = r.normal(0.0, 1.0, 10**6)
        z2 = r.normal(0.0, 2.0, 10**6)
        mc_fwd = np.mean(scipy.stats.norm.logpdf(z1, 0, 1) - scipy.stats.norm.logpdf(z1, 0, 2))
        mc_rev = np.mean(scipy.stats.norm.logpdf(z2, 0, 2) - scipy.stats.norm.logpdf(z2, 0, 1))
        assert abs(fwd - mc_fwd) / fwd < 0.01
        assert abs(rev - mc_rev) / rev < 0.01

    def test_positive_for_distinct(self, rng):
        for _ in range(25):
            q1 = (rng.normal(size=3), rng.uniform(0.2, 3.0, size=3))
            q2 = (rng.normal(size=3), rng.uniform(0.2, 3.0, size=3))
            if np.allclose(q1[0], q2[0]) and np.allclose(q1[1], q2[1]):
                continue
            assert kl_diag_gaussians(*q1, *q2) > 0.0

    def test_shape_mismatch_rejected(self):
        q1 = (np.zeros(3), np.ones(3))
        q2 = (np.zeros(4), np.ones(4))
        with pytest.raises(ValueError, match="shape"):
            kl_diag_gaussians(*q1, *q2)

    def test_tensor_path_matches_scalar(self, rng):
        mu1, mu2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        v1, v2 = rng.uniform(0.3, 2.0, (4, 3)), rng.uniform(0.3, 2.0, (4, 3))
        total = kl_diag_sum(Tensor(mu1), Tensor(v1), Tensor(mu2), Tensor(v2)).item()
        ref = sum(kl_diag_gaussians(mu1[i], v1[i], mu2[i], v2[i])
                  for i in range(4))
        assert total == pytest.approx(ref, rel=1e-12)


class TestPermutationLoss:
    def setup_models(self):
        ns = tiny_nsvae(1)
        cvae = tiny_vae(2, "speech")
        nvae = tiny_vae(3, "noise")
        return ns, cvae, nvae

    def test_matched_posteriors_give_zero(self, rng):
        ns, cvae, nvae = self.setup_models()
        zero_all_heads(ns, cvae, nvae)  # every posterior is N(0, I)
        y = rng.normal(size=(2, 3, 5))
        x = rng.normal(size=(2, 3, 5))
        v = rng.normal(size=(2, 3, 5))
        assert permutation_loss(ns, cvae, nvae, y, x, v).item() == 0.0

    def test_nonnegative(self, rng):
        ns, cvae, nvae = self.setup_models()
        for _ in range(5):
            y, x, v = (rng.normal(size=(1, 4, 5)) for _ in range(3))
            assert permutation_loss(ns, cvae, nvae, y, x, v).item() >= 0.0

    def test_unbatched_sequences_rejected_naming_shape(self, rng):
        ns, cvae, nvae = self.setup_models()
        y, x, v = (rng.normal(size=(3, 5)) for _ in range(3))
        with pytest.raises(ValueError, match=r"expected a \(B, T, F\) batch, got shape \(3, 5\)"):
            permutation_loss(ns, cvae, nvae, y, x, v)

    def test_frozen_models_receive_zero_gradient(self, rng):
        ns, cvae, nvae = self.setup_models()
        loss = permutation_loss(ns, cvae, nvae, *(rng.normal(size=(1, 3, 5)) for _ in range(3)))
        ad.backward(loss)
        for p in cvae.parameters() + nvae.parameters():
            assert p.grad is None
        assert any(p.grad is not None and np.any(p.grad != 0) for p in ns.parameters())

    def test_gradient_check(self, rng):
        ns = tiny_nsvae(1, input_dim=3, hidden_dim=2, latent_dim=2)
        cvae = tiny_vae(2, "speech", input_dim=3, hidden_dim=2, latent_dim=2)
        nvae = tiny_vae(3, "noise", input_dim=3, hidden_dim=2, latent_dim=2)
        for name, p in ns.named_parameters().items():
            if ".b" in name or name.endswith("bias"):
                p.data += rng.uniform(0.05, 0.15, size=p.data.shape)
        y, x, v = (rng.normal(size=(2, 2, 3)) for _ in range(3))

        def f(*params):
            return permutation_loss(ns, cvae, nvae, y, x, v)

        report = grad_check(f, tuple(ns.parameters()), step=1e-5, tol=1e-4)
        assert report.passed, str(report)

    def test_branch_swap_symmetry(self, rng):
        ns, cvae, nvae = self.setup_models()
        y, x, v = (rng.normal(size=(1, 4, 5)) for _ in range(3))
        base = permutation_loss(ns, cvae, nvae, y, x, v).item()
        # swap the speech/noise head identities together with their targets
        ns.head_mu_x, ns.head_mu_v = ns.head_mu_v, ns.head_mu_x
        ns.head_logvar_x, ns.head_logvar_v = ns.head_logvar_v, ns.head_logvar_x
        swapped = permutation_loss(ns, nvae, cvae, y, v, x).item()
        assert swapped == base

    def test_shape_mismatch_rejected(self, rng):
        ns, cvae, nvae = self.setup_models()
        with pytest.raises(ValueError, match="aligned"):
            permutation_loss(ns, cvae, nvae, rng.normal(size=(1, 3, 5)),
                             rng.normal(size=(1, 2, 5)), rng.normal(size=(1, 3, 5)))

    def test_latent_dim_mismatch_rejected(self, rng):
        ns = tiny_nsvae(1, latent_dim=4)
        cvae = tiny_vae(2, "speech", latent_dim=3)
        nvae = tiny_vae(3, "noise", latent_dim=3)
        with pytest.raises(ValueError, match="latent"):
            permutation_loss(ns, cvae, nvae, *(np.zeros((1, 2, 5)) for _ in range(3)))
