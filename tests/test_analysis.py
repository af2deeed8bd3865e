"""Metric and latent-geometry tests.

Oracles: SI-SNR on hand-constructed orthogonal pairs (disjoint support, so
orthogonality is exact in floating point); LSD against the closed-form
10*log10(4) offset of a doubled signal; PCA against a brute-force
characteristic-polynomial eigenvalue solve on 3x3 cases; separation stats
against Monte-Carlo Gaussians with known geometry.
"""

import numpy as np
import pytest

from pvae.analysis import (LatentCloud, PcaModel, SI_SNR_SENTINEL_DB,
                           log_spectral_distance, pca_fit,
                           pca_transform, separation_stats, si_snr,
                           write_latent_csv, write_latent_svg,
                           write_metrics_csv)
from pvae.dsp import Waveform


def orthogonal_pair(n_half=512, noise_scale=np.sqrt(0.1)):
    """Zero-mean signals on disjoint supports: s on even, n on odd indices."""
    s = np.zeros(4 * n_half)
    n = np.zeros(4 * n_half)
    s[0::4], s[2::4] = 1.0, -1.0
    n[1::4], n[3::4] = noise_scale, -noise_scale
    return s, n


class TestSiSnr:
    def test_identical_hits_sentinel(self, rng):
        x = rng.standard_normal(1000)
        assert si_snr(x, x) == SI_SNR_SENTINEL_DB

    def test_doubled_signal_hits_sentinel(self, rng):
        x = rng.standard_normal(1000)
        assert si_snr(2.0 * x, x) == SI_SNR_SENTINEL_DB

    def test_orthogonal_noise_at_ratio_ten_gives_ten_db(self):
        s, n = orthogonal_pair()
        assert abs(si_snr(s + n, s) - 10.0) < 1e-9

    def test_power_of_two_scaling_is_bit_exact(self, rng):
        s = rng.standard_normal(2000)
        e = s + 0.3 * rng.standard_normal(2000)
        base = si_snr(e, s)
        for alpha in (0.25, 0.5, 2.0, 1024.0):
            assert si_snr(alpha * e, s) == base

    def test_arbitrary_scaling_invariant_to_1e10(self, rng):
        s = rng.standard_normal(2000)
        e = s + 0.3 * rng.standard_normal(2000)
        base = si_snr(e, s)
        for alpha in (0.137, 3.0, 7.77e3):
            assert abs(si_snr(alpha * e, s) - base) < 1e-10

    def test_mean_offset_removed(self, rng):
        s = rng.standard_normal(1500)
        e = s + 0.2 * rng.standard_normal(1500)
        assert abs(si_snr(e + 5.0, s - 3.0) - si_snr(e, s)) < 1e-9

    def test_direction_swap_agrees_to_rounding(self, rng):
        """After centering, the projection ratio is cos^2/sin^2 of the angle
        between the two vectors, which is symmetric; swapping arguments can
        differ only by floating-point rounding."""
        s = rng.standard_normal(2000)
        e = s + 0.7 * rng.standard_normal(2000)
        assert abs(si_snr(e, s) - si_snr(s, e)) < 1e-9

    def test_orthogonal_estimate_gives_negative_sentinel(self):
        s, n = orthogonal_pair()
        assert si_snr(n, s) == -SI_SNR_SENTINEL_DB

    def test_zero_reference_rejected(self, rng):
        with pytest.raises(ValueError, match="zero energy"):
            si_snr(rng.standard_normal(100), np.zeros(100))

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="length"):
            si_snr(rng.standard_normal(100), rng.standard_normal(99))

    def test_accepts_waveforms(self, rng):
        x = 0.1 * rng.standard_normal(1000)
        assert si_snr(Waveform(x), Waveform(x)) == SI_SNR_SENTINEL_DB

    def test_more_noise_scores_lower(self, rng):
        s = rng.standard_normal(4000)
        n = rng.standard_normal(4000)
        assert si_snr(s + 0.1 * n, s) > si_snr(s + 0.5 * n, s)


class TestLogSpectralDistance:
    def test_identical_signals_zero(self, rng):
        x = 0.3 * rng.standard_normal(4000)
        assert log_spectral_distance(x, x) == 0.0

    def test_doubled_signal_constant_offset(self, rng):
        x = 0.3 * rng.standard_normal(4000)
        lsd = log_spectral_distance(2.0 * x, x)
        assert abs(lsd - 10.0 * np.log10(4.0)) < 1e-9

    def test_symmetry_exact(self, rng):
        a = 0.3 * rng.standard_normal(4000)
        b = 0.3 * rng.standard_normal(4000)
        assert log_spectral_distance(a, b) == log_spectral_distance(b, a)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="length"):
            log_spectral_distance(rng.standard_normal(4000),
                                  rng.standard_normal(4001))


def charpoly_eigs(a):
    """Brute-force 3x3 eigenvalues via the characteristic polynomial."""
    assert a.shape == (3, 3)
    return np.sort(np.roots(np.poly(a)).real)[::-1]


def rotation(dim, rng):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


class TestPcaFit:
    def test_axis_aligned_components(self):
        rng = np.random.default_rng(5)
        pts = np.stack([3.0 * rng.standard_normal(500),
                        0.5 * rng.standard_normal(500)], axis=1)
        model = pca_fit(pts)
        np.testing.assert_allclose(np.abs(model.components[0]), [1, 0], atol=0.02)
        np.testing.assert_allclose(np.abs(model.components[1]), [0, 1], atol=0.02)
        # sign rule: the dominant entry of each row is positive
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_explained_variance_matches_charpoly_oracle(self, rng):
        q = rotation(3, rng)
        lam = np.array([5.0, 2.0, 1.0])
        # six points +-sqrt(3 lam_i) q_i have exactly this population covariance
        pts = np.concatenate([np.sqrt(3.0 * lam)[:, None] * q.T,
                              -np.sqrt(3.0 * lam)[:, None] * q.T])
        cov = pts.T @ pts / len(pts)
        model = pca_fit(pts)
        np.testing.assert_allclose(model.explained_variance,
                                   charpoly_eigs(cov)[:2], rtol=1e-9)

    def test_rotation_carries_components(self, rng):
        pts = rng.standard_normal((200, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
        q = rotation(4, rng)
        m1 = pca_fit(pts)
        m2 = pca_fit(pts @ q.T)
        proj1 = pca_transform(m1, pts)
        proj2 = pca_transform(m2, pts @ q.T)
        for k in range(2):
            np.testing.assert_allclose(np.abs(proj1[:, k]), np.abs(proj2[:, k]),
                                       atol=1e-8)
            np.testing.assert_allclose(np.abs(m2.components[k]),
                                       np.abs(m1.components[k] @ q.T), atol=1e-8)

    def test_projected_variance_equals_explained(self, rng):
        pts = rng.standard_normal((300, 5)) * np.array([4, 3, 2, 1, 0.5])
        model = pca_fit(pts)
        proj = pca_transform(model, pts)
        var = proj.var(axis=0)        # population, matches covariance scaling
        np.testing.assert_allclose(var, model.explained_variance, rtol=1e-6)

    def test_component_rows_orthonormal(self, rng):
        model = pca_fit(rng.standard_normal((50, 7)))
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(2), atol=1e-9)
        assert model.explained_variance[0] >= model.explained_variance[1]

    def test_full_latent_width_repeatable_and_orthonormal(self, rng):
        # L = 128, the paper's latent size: repeat fits (also of a copy in
        # another buffer) give the same bytes, which the same-argv-same-bytes
        # contract of latents.csv rests on
        pts = rng.standard_normal((4000, 128)) * np.linspace(3.0, 0.1, 128)
        first = pca_fit(pts)
        for again in (pca_fit(pts), pca_fit(pts.copy())):
            for field in ("mean", "components", "explained_variance"):
                assert getattr(again, field).tobytes() == getattr(first, field).tobytes()
        np.testing.assert_allclose(first.components @ first.components.T,
                                   np.eye(2), atol=1e-12)

    def test_cloud_list_accepted(self, rng):
        a = LatentCloud(rng.standard_normal((20, 3)), "speech")
        b = LatentCloud(rng.standard_normal((20, 3)), "noise")
        model = pca_fit([a, b])
        assert pca_transform(model, a).shape == (20, 2)

    def test_too_few_points_rejected(self, rng):
        with pytest.raises(ValueError, match="3 points"):
            pca_fit(rng.standard_normal((2, 4)))

    def test_too_low_dimension_rejected(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            pca_fit(rng.standard_normal((10, 1)))

    def test_non_orthonormal_model_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            PcaModel(mean=np.zeros(3),
                     components=np.array([[1.0, 0, 0], [1.0, 0, 0]]),
                     explained_variance=np.array([2.0, 1.0]))


class TestSeparationStats:
    def test_identical_clouds_zero_distance(self, rng):
        pts = rng.standard_normal((40, 6))
        stats = separation_stats(LatentCloud(pts, "speech"),
                                 LatentCloud(pts, "noise"))
        assert stats["centroid_distance"] == 0.0
        assert stats["ratio"] == 0.0

    def test_gaussian_clouds_match_known_geometry(self):
        rng = np.random.default_rng(77)
        dim, n, d = 16, 20000, 6.0
        a = rng.standard_normal((n, dim))
        b = rng.standard_normal((n, dim))
        a[:, 0] += d / 2
        b[:, 0] -= d / 2
        stats = separation_stats(LatentCloud(a, "speech"),
                                 LatentCloud(b, "noise"))
        assert abs(stats["centroid_distance"] - d) < 0.05
        assert abs(stats["mean_within_spread"] - np.sqrt(dim)) < 0.08
        assert abs(stats["ratio"] - d / np.sqrt(dim)) < 0.05

    def test_ratio_grows_with_distance(self, rng):
        a = rng.standard_normal((500, 4))
        b = rng.standard_normal((500, 4))
        ratios = []
        for d in (1.0, 2.0, 4.0):
            shifted = b + np.array([d, 0, 0, 0])
            ratios.append(separation_stats(
                LatentCloud(a, "speech"), LatentCloud(shifted, "noise"))["ratio"])
        assert ratios[0] < ratios[1] < ratios[2]

    def test_rigid_motion_invariant(self, rng):
        a = rng.standard_normal((100, 5)) + 2.0
        b = rng.standard_normal((100, 5))
        q = rotation(5, rng)
        t = rng.standard_normal(5)
        s1 = separation_stats(LatentCloud(a, "speech"), LatentCloud(b, "noise"))
        s2 = separation_stats(LatentCloud(a @ q.T + t, "speech"),
                              LatentCloud(b @ q.T + t, "noise"))
        for key in s1:
            assert abs(s1[key] - s2[key]) < 1e-9

    def test_empty_cloud_rejected(self, rng):
        with pytest.raises(ValueError):
            LatentCloud(np.zeros((0, 4)), "speech")

    def test_bad_label_rejected(self, rng):
        with pytest.raises(ValueError, match="label"):
            LatentCloud(rng.standard_normal((5, 3)), "music")


class TestExports:
    def make_clouds(self, rng):
        a = LatentCloud(rng.standard_normal((15, 4)) + 3.0, "speech")
        b = LatentCloud(rng.standard_normal((15, 4)), "noise")
        return [a, b], pca_fit([a, b])

    def test_latent_csv_layout(self, tmp_path, rng):
        clouds, pca = self.make_clouds(rng)
        path = tmp_path / "latents.csv"
        write_latent_csv(path, clouds, pca)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frame,label,pc1,pc2"
        assert len(lines) == 1 + 30
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "speech"
        float(first[2]), float(first[3])

    def test_svg_scatter_contents(self, tmp_path, rng):
        clouds, pca = self.make_clouds(rng)
        path = tmp_path / "latents.svg"
        write_latent_svg(path, clouds, pca)
        svg = path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<circle") >= 30
        assert "#1f77b4" in svg and "#d62728" in svg
        assert ">PC 1<" in svg and ">PC 2<" in svg
        assert ">speech<" in svg and ">noise<" in svg

    def test_exports_deterministic(self, tmp_path, rng):
        clouds, pca = self.make_clouds(rng)
        write_latent_svg(tmp_path / "a.svg", clouds, pca)
        write_latent_svg(tmp_path / "b.svg", clouds, pca)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_metrics_csv_layout(self, tmp_path):
        rows = [dict(clip_id="clip_000", si_snr_noisy=1.0, si_snr_enhanced=4.5,
                     lsd_noisy=8.0, lsd_enhanced=5.0)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, rows)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "clip_id,si_snr_noisy,si_snr_enhanced,lsd_noisy,lsd_enhanced"
        assert lines[1].startswith("clip_000,1.000000,4.500000")
