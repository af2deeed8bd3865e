"""Acceptance gate: the shipping criteria, one PASS/FAIL line each.

Each criterion prints exactly one line (visible under `pytest -s`, or in
the failure report otherwise) and asserts it. Criterion 6 trains the full
desk-scale ablation grid with the committed config, which takes a few
minutes of real training; every other criterion runs in seconds.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
import tape_reference
from gradcheck import grad_check
from oracles import elbo_loss, kl_diag_gaussians, kl_to_standard_normal, total_covariance

from pvae import autodiff as ad
from pvae import nn
from pvae import vae as vae_mod
from pvae import cli, new_file
from pvae.analysis import si_snr
from pvae.autodiff import Tensor
from pvae.checkpoint import CheckpointError, load_checkpoint, load_vae, save_checkpoint, save_vae
from pvae.config import load_config
from pvae.diploss import LossWeights, dip_regularizer, dip_total_loss, mean_covariance
from pvae.dsp import Waveform, hann_window, istft, lps_to_magnitude, stft, wiener_mask
from pvae.nsvae import NsvaeModel, permutation_loss
from pvae.vae import GaussianParams, VaeModel

REPO = Path(__file__).resolve().parents[1]


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    assert ok, line


def _jitter_biases(model, rng) -> None:
    # zero-init biases can land ReLU inputs exactly on the kink; finite
    # differences need a generic point
    for name, p in model.named_parameters().items():
        if "bias" in name or ".b" in name or name.startswith("b"):
            p.data += rng.uniform(0.05, 0.15, size=p.data.shape)


# --- criterion 1: gradient checks for every primitive, layer, and loss ----

def test_criterion_1_gradient_battery():
    t0 = time.time()
    rng = np.random.default_rng(7)

    def t(shape, lo=-1.5, hi=1.5):
        return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)

    def sq_sum(x):
        return ad.tsum(ad.square(x))

    primitive_cases = [
        ("add", lambda a, b: sq_sum(ad.add(a, b)), (t((3, 4)), t((3, 4)))),
        ("sub", lambda a, b: sq_sum(ad.sub(a, b)), (t((3, 4)), t((3, 4)))),
        ("mul", lambda a, b: sq_sum(ad.mul(a, b)), (t((3, 4)), t((3, 4)))),
        ("matmul", lambda a, b: sq_sum(ad.matmul(a, b)), (t((3, 4)), t((4, 2)))),
        ("transpose", lambda a: sq_sum(ad.transpose(a)), (t((3, 4)),)),
        ("broadcast_rows", lambda v: sq_sum(ad.broadcast_rows(v, 4)), (t((5,)),)),
        ("exp", lambda a: sq_sum(ad.exp(a)), (t((3, 4)),)),
        ("log", lambda a: sq_sum(ad.log(a)), (t((3, 4), 0.3, 2.0),)),
        ("sqrt", lambda a: sq_sum(ad.sqrt(a)), (t((3, 4), 0.3, 2.0),)),
        ("reciprocal", lambda a: sq_sum(ad.reciprocal(a)), (t((3, 4), 0.3, 2.0),)),
        ("tanh", lambda a: sq_sum(tape_reference.tanh(a)), (t((3, 4), -2.0, 2.0),)),
        ("sigmoid", lambda a: sq_sum(tape_reference.sigmoid(a)), (t((3, 4), -2.0, 2.0),)),
        ("square", lambda a: ad.tsum(ad.square(a)), (t((3, 4)),)),
        ("clamp_min", lambda a: sq_sum(ad.clamp_min(a, 0.5)),
         (Tensor(rng.uniform(0.6, 2.0, size=(3, 4))
                 + rng.choice([-2.0, 0.0], size=(3, 4)), requires_grad=True),)),
        ("tsum", lambda a: ad.tsum(ad.square(a)), (t((7,)),)),
        ("tmean", lambda a: ad.tmean(ad.square(a)), (t((3, 4)),)),
        ("concat", lambda a, b: sq_sum(tape_reference.concat((a, b), axis=0)),
         (t((2, 3)), t((4, 3)))),
        ("slice_rows", lambda a: sq_sum(tape_reference.slice_rows(a, 1, 4)), (t((5, 3)),)),
    ]
    worst_prim, worst_prim_name = 0.0, ""
    for name, f, xs in primitive_cases:
        rep = grad_check(f, xs, tol=1e-6)
        if rep.max_rel_error > worst_prim:
            worst_prim, worst_prim_name = rep.max_rel_error, name
        assert rep.passed, f"primitive {name}: {rep}"

    worst_rest, worst_rest_name = 0.0, ""

    def check(name, f, xs):
        nonlocal worst_rest, worst_rest_name
        rep = grad_check(f, xs, tol=1e-4)
        if rep.max_rel_error > worst_rest:
            worst_rest, worst_rest_name = rep.max_rel_error, name
        assert rep.passed, f"{name}: {rep}"

    # layers
    fc = nn.LinearLayer(5, 4, activation="relu", rng=np.random.default_rng(11))
    for p in fc.parameters():
        if p.data.ndim == 1:
            p.data += rng.uniform(0.05, 0.15, size=p.data.shape)
    x_fc = rng.normal(size=(6, 5))
    check("fc_relu", lambda *ps: ad.tsum(ad.square(fc(Tensor(x_fc)))),
          tuple(fc.parameters()))

    gru = nn.GruLayer(3, 4, rng=np.random.default_rng(12))
    for p in gru.parameters():
        if p.data.ndim == 1:
            p.data += rng.uniform(0.05, 0.15, size=p.data.shape)
    x_seq = rng.normal(size=(3, 2, 3))  # (T, B, in)

    def gru_loss(*ps):
        h = gru.initial_state(2)
        acc = None
        for step in range(3):
            h = gru.step(Tensor(x_seq[step]), h)
            s = ad.tsum(ad.square(h))
            acc = s if acc is None else ad.add(acc, s)
        return acc

    check("gru_3step", gru_loss, tuple(gru.parameters()))

    # losses, on tiny generically-perturbed models
    m = VaeModel(input_dim=4, hidden_dim=3, latent_dim=2, role="speech",
                 rng=np.random.default_rng(13))
    _jitter_biases(m, rng)
    batch = rng.normal(size=(1, 4, 4))
    check("elbo_loss",
          lambda *ps: elbo_loss(m, batch, np.random.default_rng(5)),
          tuple(m.parameters()))

    w_all = LossWeights(beta=0.7, lambda_od=3.0, lambda_d=2.0)
    batch2 = rng.normal(size=(2, 3, 4))
    check("dip_total_loss",
          lambda *ps: dip_total_loss(m, batch2, w_all, np.random.default_rng(6)),
          tuple(m.parameters()))

    mus = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    check("dip_regularizer",
          lambda mm: dip_regularizer(mean_covariance(mm), w_all), (mus,))

    cvae = VaeModel(input_dim=4, hidden_dim=3, latent_dim=2, role="speech",
                    rng=np.random.default_rng(14))
    nvae = VaeModel(input_dim=4, hidden_dim=3, latent_dim=2, role="noise",
                    rng=np.random.default_rng(15))
    ns = NsvaeModel(input_dim=4, hidden_dim=3, latent_dim=2,
                    rng=np.random.default_rng(16))
    for mm in (cvae, nvae, ns):
        _jitter_biases(mm, rng)
    y = rng.normal(size=(1, 3, 4))
    x = rng.normal(size=(1, 3, 4))
    v = rng.normal(size=(1, 3, 4))
    # pretrained nets feed constant targets, so only NSVAE parameters carry
    # gradients worth checking
    check("permutation_loss",
          lambda *ps: permutation_loss(ns, cvae, nvae, y, x, v),
          tuple(ns.parameters()))

    # sequence ops on time-major stacks of T = 3 frames of B = 2, gradients
    # into the inputs, every weight and the initial state
    gru_shapes = [(3, 4)] * 3 + [(4, 4)] * 3 + [(4,)] * 3
    sequence_cases = [
        ("linear_seq", lambda x, w, b: sq_sum(ad.linear_seq(x, w, b, 2)),
         (t((6, 3)), t((3, 4)), t((4,)))),
        ("linear_seq relu", lambda x, w, b: sq_sum(ad.linear_seq(x, w, b, 2, relu=True)),
         (t((6, 3)), t((3, 4)), t((4,)))),
        ("gru_seq", lambda x, h0, *ps: sq_sum(ad.gru_seq(x, h0, ps)),
         (t((6, 3)), t((2, 4)), *(t(shape) for shape in gru_shapes))),
    ]
    for name, f, xs in sequence_cases:
        rep = grad_check(f, xs, tol=1e-6)
        if rep.max_rel_error > worst_prim:
            worst_prim, worst_prim_name = rep.max_rel_error, name
        assert rep.passed, f"primitive {name}: {rep}"

    elapsed = time.time() - t0
    ok = worst_prim < 1e-6 and worst_rest < 1e-4 and elapsed < 60.0
    _report(1, ok,
            f"primitives worst {worst_prim:.2e} ({worst_prim_name}) < 1e-6, "
            f"layers/losses worst {worst_rest:.2e} ({worst_rest_name}) < 1e-4, "
            f"{elapsed:.1f}s < 60s")


# --- criterion 2: closed forms against Monte-Carlo oracles ----------------

def test_criterion_2_monte_carlo_oracles():
    t0 = time.time()
    n = 1_000_000

    r = np.random.default_rng(11)
    mu = r.uniform(-1.2, 1.2, size=6)
    var = r.uniform(0.4, 2.2, size=6)
    analytic = kl_to_standard_normal(mu, var)
    z = mu + np.sqrt(var) * np.random.default_rng(12).standard_normal((n, 6))
    log_q = scipy.stats.norm.logpdf(z, loc=mu, scale=np.sqrt(var)).sum(axis=1)
    log_p = scipy.stats.norm.logpdf(z).sum(axis=1)
    mc = float(np.mean(log_q - log_p))
    rel_std = abs(mc - analytic) / abs(analytic)

    r = np.random.default_rng(13)
    mu1, mu2 = r.uniform(-1.0, 1.0, size=(2, 5))
    var1, var2 = r.uniform(0.4, 2.0, size=(2, 5))
    analytic2 = kl_diag_gaussians(mu1, var1, mu2, var2)
    z = mu1 + np.sqrt(var1) * np.random.default_rng(14).standard_normal((n, 5))
    log_q1 = scipy.stats.norm.logpdf(z, loc=mu1, scale=np.sqrt(var1)).sum(axis=1)
    log_q2 = scipy.stats.norm.logpdf(z, loc=mu2, scale=np.sqrt(var2)).sum(axis=1)
    mc2 = float(np.mean(log_q1 - log_q2))
    rel_pair = abs(mc2 - analytic2) / abs(analytic2)

    r = np.random.default_rng(15)
    b, dim, per_row = 8, 5, 125_000
    mus = r.uniform(-1.0, 1.0, size=(b, dim))
    vars_ = r.uniform(0.3, 2.0, size=(b, dim))
    analytic_cov = total_covariance(GaussianParams(Tensor(mus), Tensor(vars_))).data
    eps = np.random.default_rng(16).standard_normal((b, per_row, dim))
    draws = (mus[:, None, :] + np.sqrt(vars_)[:, None, :] * eps).reshape(-1, dim)
    centered = draws - draws.mean(axis=0)
    sample_cov = centered.T @ centered / draws.shape[0]
    rel_cov = (np.linalg.norm(sample_cov - analytic_cov)
               / np.linalg.norm(analytic_cov))

    elapsed = time.time() - t0
    ok = rel_std < 0.01 and rel_pair < 0.01 and rel_cov < 0.02 and elapsed < 60.0
    _report(2, ok,
            f"KL-to-prior MC rel {rel_std:.2%} < 1%, "
            f"KL-pair MC rel {rel_pair:.2%} < 1%, "
            f"total-covariance Frobenius rel {rel_cov:.2%} < 2%, "
            f"{elapsed:.1f}s < 60s")


# --- criterion 3: combined loss at beta=1, lambdas=0 is the plain ELBO ----

def test_criterion_3_reduction_identity():
    m = VaeModel(input_dim=9, hidden_dim=8, latent_dim=5, role="speech",
                 rng=np.random.default_rng(21))
    batch = np.random.default_rng(22).normal(size=(3, 4, 9))
    combined = dip_total_loss(m, batch, LossWeights(beta=1.0), np.random.default_rng(7))
    plain = elbo_loss(m, batch, np.random.default_rng(7))
    ok = combined.data.tobytes() == plain.data.tobytes()
    _report(3, ok,
            f"dip_total_loss(beta=1, lambdas=0) == elbo_loss bit-exactly "
            f"({combined.item():.12g} vs {plain.item():.12g})")


# --- criterion 4: analysis-synthesis accuracy, exact COLA, mask range -----

def test_criterion_4_dsp():
    worst = 0.0
    for k in range(100):
        n = 2048 + 41 * k
        x = 0.3 * np.random.default_rng(1000 + k).normal(size=n)
        rec = istft(stft(Waveform(x))).samples
        m = len(rec)
        # sample 0 is the one point the window never covers
        rel = np.max(np.abs(rec[1:] - x[1:m])) / np.max(np.abs(x[:m]))
        worst = max(worst, rel)

    w = hann_window(512)
    cola_exact = bool(np.all(w[:256] + w[256:] == 1.0))

    mask_ok = True
    lo, hi = 1.0, 0.0
    for k in range(10):
        r = np.random.default_rng(2000 + k)
        mx = lps_to_magnitude(r.uniform(-8.0, 2.0, size=(257, 7)))
        mv = lps_to_magnitude(r.uniform(-8.0, 2.0, size=(257, 7)))
        mask = wiener_mask(mx, mv)
        mask_ok = mask_ok and bool(np.all((mask > 0.0) & (mask < 1.0)))
        lo, hi = min(lo, mask.min()), max(hi, mask.max())

    ok = worst <= 1e-6 and cola_exact and mask_ok
    _report(4, ok,
            f"round-trip worst rel {worst:.2e} <= 1e-6 over 100 signals, "
            f"COLA bitwise exact: {cola_exact}, "
            f"masks in (0,1): {mask_ok} (range [{lo:.3g}, {hi:.3g}])")


# --- criterion 5: SI-SNR scale invariance and orthogonal construction -----

def test_criterion_5_si_snr():
    r = np.random.default_rng(31)
    s = r.normal(size=4096)
    e = s + 0.25 * r.normal(size=4096)
    base = si_snr(e, s)
    pow2_exact = all(si_snr(f * e, s) == base
                     for f in (0.00390625, 0.125, 8.0, 1024.0))
    arb_dev = abs(si_snr(1.7 * e, s) - base)

    n = 4096
    clean = np.zeros(n)
    clean[0::4], clean[2::4] = 1.0, -1.0
    ortho = np.zeros(n)
    amp = np.sqrt(0.1)
    ortho[1::4], ortho[3::4] = amp, -amp
    ten = si_snr(clean + ortho, clean)

    ok = pow2_exact and arb_dev <= 1e-10 and abs(ten - 10.0) <= 1e-9
    _report(5, ok,
            f"power-of-two scaling bit-exact: {pow2_exact}, "
            f"arbitrary scale dev {arb_dev:.2e} <= 1e-10 dB, "
            f"orthogonal case {ten:.12f} dB == 10 +- 1e-9")


# --- criterion 6: desk-scale ablation reproduces the headline effect ------

# Values measured for the committed desk config (configs/desk.cfg, seed 1);
# a three-seed replicate study behind scripts/derive_thresholds.py chose the
# committed seed and showed desk-scale run-to-run spread. The gate holds the
# qualitative claims plus a 10% band around the measured values.
DESK_PINS = {  # setting -> (si_snr_improvement dB, separation ratio)
    1: (8.359988249661445, 5.214092516608278),
    2: (8.36006605059715, 6.924598673934253),
    3: (12.225363077052801, 5.43799175383997),
    4: (5.788585685247534, 18.351624859238896),
}


@pytest.fixture(scope="module")
def desk_rows(tmp_path_factory):
    cfg = load_config(REPO / "configs" / "desk.cfg")
    root = tmp_path_factory.mktemp("desk_ablation")
    return {s: cli.run_setting(cfg, s, root / f"setting_{s}")
            for s in (1, 2, 3, 4)}


def test_criterion_6_desk_ablation(desk_rows):
    imp3 = desk_rows[3]["si_snr_improvement"]
    sep3 = desk_rows[3]["separation_ratio"]
    sep1 = desk_rows[1]["separation_ratio"]
    best = max(desk_rows.values(), key=lambda row: row["si_snr_enhanced"])

    gain_ok = imp3 >= 3.0
    sep_ok = sep3 > sep1
    best_ok = best["beta"] == 0.0

    pins_ok = True
    for setting, (pin_imp, pin_sep) in DESK_PINS.items():
        row = desk_rows[setting]
        pins_ok = (pins_ok
                   and abs(row["si_snr_improvement"] - pin_imp) <= 0.10 * abs(pin_imp)
                   and abs(row["separation_ratio"] - pin_sep) <= 0.10 * abs(pin_sep))

    ok = gain_ok and sep_ok and best_ok and pins_ok
    _report(6, ok,
            f"no-KL setting improvement {imp3:+.2f} dB >= 3 dB: {gain_ok}, "
            f"separation {sep3:.2f} > KL-setting {sep1:.2f}: {sep_ok}, "
            f"best enhancement from a beta=0 setting (setting {best['setting']}, "
            f"{best['si_snr_enhanced']:.2f} dB): {best_ok}, "
            f"all four settings within 10% of pinned values: {pins_ok}")


# --- criterion 7: same seed, same bytes ------------------------------------

MICRO_CFG = """
hidden_dim = 8
latent_dim = 4
max_epochs = 2
patience = 1
batch_size = 4
lr = 1e-3
segment_len = 16
val_fraction = 0.25
seed = 5
n_speech = 3
n_noise = 3
n_eval = 2
duration_s = 0.7
snr_lo = -5
snr_hi = 10
snr_eval = 0
"""


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_7_determinism(tmp_path):
    cfg_path = tmp_path / "micro.cfg"
    cfg_path.write_text(MICRO_CFG)

    for sub in ("abl_a", "abl_b"):
        rc = cli.main(["ablation", "--config", str(cfg_path), "--settings", "3",
                       "--out", str(tmp_path / sub)])
        assert rc == 0
    abl_a, abl_b = _tree_bytes(tmp_path / "abl_a"), _tree_bytes(tmp_path / "abl_b")

    for sub in ("data_a", "data_b"):
        rc = cli.main(["synth-data", "--config", str(cfg_path),
                       "--out", str(tmp_path / sub)])
        assert rc == 0
    data_a, data_b = _tree_bytes(tmp_path / "data_a"), _tree_bytes(tmp_path / "data_b")

    bundle = tmp_path / "abl_a" / "setting_3" / "bundle.ckpt"
    noisy = tmp_path / "data_a" / "speech" / "speech_000.wav"
    outs = []
    for name in ("enh_a.wav", "enh_b.wav"):
        rc = cli.main(["enhance", "--config", str(cfg_path),
                       "--bundle", str(bundle), "--in", str(noisy),
                       "--out", str(tmp_path / name)])
        assert rc == 0
        outs.append((tmp_path / name).read_bytes())

    kinds = sorted({Path(k).suffix for k in abl_a} | {Path(k).suffix for k in data_a})
    ablation_same = abl_a == abl_b
    data_same = data_a == data_b
    enhance_same = outs[0] == outs[1]
    ok = ablation_same and data_same and enhance_same
    _report(7, ok,
            f"repeat ablation byte-identical over {len(abl_a)} files: "
            f"{ablation_same}, repeat synthesis over {len(data_a)} WAVs: "
            f"{data_same}, repeat enhancement WAV: {enhance_same} "
            f"(file kinds {', '.join(kinds)})")


# --- criterion 8: checkpoint round-trip and corruption detection ----------

def test_criterion_8_checkpoints(tmp_path):
    m = VaeModel(input_dim=6, hidden_dim=5, latent_dim=3, role="noise",
                 rng=np.random.default_rng(41), dtype=np.float32)
    path = tmp_path / "model.ckpt"
    save_vae(path, m, LossWeights())
    m2, _ = load_vae(path, "noise")
    before = m.named_parameters()
    after = m2.named_parameters()
    round_trip = (sorted(before) == sorted(after)
                  and all(before[k].data.tobytes() == after[k].data.tobytes()
                          for k in before))

    small = tmp_path / "small.ckpt"
    save_checkpoint(small, {"alpha": 1.5, "name": "tiny"},
                    {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                     "b": np.float32(2.5)})
    load_checkpoint(small)  # pristine file parses
    blob = bytearray(small.read_bytes())
    bad = tmp_path / "bad.ckpt"
    undetected = 0
    for i in range(len(blob)):
        corrupted = bytearray(blob)
        corrupted[i] ^= 0xFF
        with new_file(bad, "wb") as fh:
            fh.write(corrupted)
        try:
            load_checkpoint(bad)
            undetected += 1
        except CheckpointError:
            pass

    ok = round_trip and undetected == 0
    _report(8, ok,
            f"model round-trip bit-identical ({len(before)} tensors): "
            f"{round_trip}, single-byte corruptions detected "
            f"{len(blob) - undetected}/{len(blob)}")
