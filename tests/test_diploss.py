"""Covariance statistics, the disentangling penalty, and the combined loss."""

import numpy as np
import pytest
from gradcheck import grad_check
from oracles import elbo_loss, total_covariance

from pvae import diploss, vae
from pvae.autodiff import Tensor
from pvae.diploss import SETTINGS, LossWeights
from pvae.vae import GaussianParams, VaeModel


def tiny_model(seed=42, input_dim=5, hidden_dim=4, latent_dim=3):
    return VaeModel(input_dim=input_dim, hidden_dim=hidden_dim,
                    latent_dim=latent_dim, rng=np.random.default_rng(seed))


class TestLossWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="beta"):
            LossWeights(beta=-0.1)
        with pytest.raises(ValueError, match="lambda_od"):
            LossWeights(lambda_od=-1)

    def test_settings_grid(self):
        assert SETTINGS[1] == LossWeights(1.0, 0.0, 0.0)
        assert SETTINGS[2] == LossWeights(1.0, 1e4, 1e2)
        assert SETTINGS[3] == LossWeights(0.0, 0.0, 0.0)
        assert SETTINGS[4] == LossWeights(0.0, 1e4, 1e2)


class TestMeanCovariance:
    def test_identical_rows_give_zero(self):
        mus = np.tile([1.5, -2.0, 0.3], (6, 1))
        np.testing.assert_array_equal(diploss.mean_covariance(Tensor(mus)).data, np.zeros((3, 3)))

    def test_two_point_hand_case(self):
        cov = diploss.mean_covariance(Tensor(np.array([[1.0, 0.0], [-1.0, 0.0]])))
        np.testing.assert_allclose(cov.data, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_matches_two_pass_oracle(self, rng):
        mus = rng.normal(size=(40, 5))
        mean = np.zeros(5)
        for row in mus:                      # pass 1
            mean += row
        mean /= 40
        expect = np.zeros((5, 5))
        for row in mus:                      # pass 2
            d = row - mean
            expect += np.outer(d, d)
        expect /= 40
        np.testing.assert_allclose(diploss.mean_covariance(Tensor(mus)).data, expect, atol=1e-12)

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match=">= 2"):
            diploss.mean_covariance(Tensor(np.ones((1, 4))))

    def test_symmetric_nonneg_diag(self, rng):
        cov = diploss.mean_covariance(Tensor(rng.normal(size=(25, 6)))).data
        assert np.max(np.abs(cov - cov.T)) < 1e-9
        assert np.all(np.diag(cov) >= 0)


class TestTotalCovariance:
    def test_identical_mu_unit_var_gives_identity(self):
        q = GaussianParams(Tensor(np.tile([0.2, -1.0, 0.5], (8, 1))), Tensor(np.ones((8, 3))))
        np.testing.assert_allclose(total_covariance(q).data, np.eye(3), atol=1e-12)

    def test_var_floor_reduces_to_mean_covariance(self, rng):
        mus = rng.normal(size=(10, 4))
        q = GaussianParams(Tensor(mus), Tensor(np.full((10, 4), 1e-12)))
        np.testing.assert_allclose(total_covariance(q).data,
                                   diploss.mean_covariance(Tensor(mus)).data, atol=1e-10)

    def test_monte_carlo_pooled_covariance(self):
        # pooled z: pick a batch row uniformly, then z ~ N(mu_b, diag var_b)
        r = np.random.default_rng(77)
        b, dim, n = 12, 4, 10**6
        mus = r.normal(size=(b, dim))
        vars_ = r.uniform(0.2, 2.0, size=(b, dim))
        analytic = total_covariance(GaussianParams(Tensor(mus), Tensor(vars_))).data
        idx = r.integers(0, b, size=n)
        z = mus[idx] + np.sqrt(vars_[idx]) * r.standard_normal((n, dim))
        empirical = np.cov(z.T, bias=True)
        frob = np.linalg.norm(empirical - analytic) / np.linalg.norm(analytic)
        assert frob < 0.02

    def test_positive_semidefinite(self, rng):
        for _ in range(10):
            q = GaussianParams(Tensor(rng.normal(size=(6, 5))),
                               Tensor(rng.uniform(0.05, 3.0, size=(6, 5))))
            eig = np.linalg.eigvalsh(total_covariance(q).data)
            assert np.all(eig >= -1e-9)


class TestDipRegularizer:
    def test_identity_gives_zero(self):
        w = LossWeights(1.0, 1e4, 1e2)
        assert diploss.dip_regularizer(Tensor(np.eye(5)), w).item() == 0.0

    def test_hand_case_5000(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        w = LossWeights(1.0, 1e4, 1e2)
        assert diploss.dip_regularizer(Tensor(cov), w).item() == pytest.approx(5000.0, rel=1e-12)

    def test_zero_iff_identity(self, rng):
        w = LossWeights(1.0, 1.0, 1.0)
        for _ in range(10):
            c = rng.normal(size=(4, 4))
            c = 0.5 * (c + c.T)
            val = diploss.dip_regularizer(Tensor(c), w).item()
            if np.allclose(c, np.eye(4)):
                assert val == 0.0
            else:
                assert val > 0.0

    def test_permutation_invariance(self, rng):
        c = rng.normal(size=(5, 5))
        c = 0.5 * (c + c.T)
        w = LossWeights(1.0, 3.0, 7.0)
        perm = rng.permutation(5)
        permuted = c[np.ix_(perm, perm)]
        assert diploss.dip_regularizer(Tensor(c), w).item() == pytest.approx(
            diploss.dip_regularizer(Tensor(permuted), w).item(), rel=1e-12)

    def test_lambda_od_scaling_exact(self, rng):
        c = rng.normal(size=(4, 4))
        c = 0.5 * (c + c.T)
        base = diploss.dip_regularizer(Tensor(c), LossWeights(0.0, 1e4, 0.0)).item()
        doubled = diploss.dip_regularizer(Tensor(c), LossWeights(0.0, 2e4, 0.0)).item()
        assert doubled == 2.0 * base  # power-of-two scaling is exact in floats

    def test_gradient_check(self, rng):
        c = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        w = LossWeights(1.0, 2.0, 3.0)
        report = grad_check(lambda c: diploss.dip_regularizer(c, w), c,
                               step=1e-5, tol=1e-6)
        assert report.passed, str(report)


class TestDipTotalLoss:
    def test_beta_1_lambda_0_equals_elbo_bitwise(self, rng):
        m = tiny_model()
        batch = rng.normal(size=(2, 3, 5))
        a = elbo_loss(m, batch, np.random.default_rng(8))
        b = diploss.dip_total_loss(m, batch, SETTINGS[1], np.random.default_rng(8))
        assert a.data.tobytes() == b.data.tobytes()

    def test_beta_0_lambda_0_is_pure_reconstruction(self, rng):
        m = tiny_model()
        batch = rng.normal(size=(2, 3, 5))
        nll, _, _ = vae.forward_terms(m, batch, np.random.default_rng(8))
        loss = diploss.dip_total_loss(m, batch, SETTINGS[3], np.random.default_rng(8))
        assert loss.data.tobytes() == nll.data.tobytes()

    def test_regularizer_changes_loss(self, rng):
        m = tiny_model()
        batch = rng.normal(size=(2, 4, 5))
        plain = diploss.dip_total_loss(m, batch, SETTINGS[3], np.random.default_rng(8))
        reg = diploss.dip_total_loss(m, batch, SETTINGS[4], np.random.default_rng(8))
        assert reg.item() > plain.item()  # penalty is strictly positive off-identity

    def test_full_loss_gradient_check_b8(self, rng):
        m = tiny_model(input_dim=4, hidden_dim=3, latent_dim=2)
        for name, p in m.named_parameters().items():
            if ".b" in name or name.endswith("bias"):
                p.data += rng.uniform(0.05, 0.15, size=p.data.shape)
        batch = rng.normal(size=(8, 1, 4))  # B=8 single-frame sequences
        w = LossWeights(beta=0.7, lambda_od=3.0, lambda_d=2.0)

        def f(*params):
            return diploss.dip_total_loss(m, batch, w, np.random.default_rng(13))

        report = grad_check(f, tuple(m.parameters()), step=1e-5, tol=1e-4)
        assert report.passed, str(report)

    def test_regularizer_needs_two_frames(self, rng):
        m = tiny_model()
        with pytest.raises(ValueError, match=">= 2"):
            diploss.dip_total_loss(m, rng.normal(size=(1, 1, 5)), SETTINGS[2],
                                   np.random.default_rng(0))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            diploss.dip_total_loss(tiny_model(), np.zeros((0, 2, 5)), SETTINGS[1],
                                   np.random.default_rng(0))
