"""The three benchmark workloads, each a closed loop of one caller.

A workload builds its inputs from the seed in `setup()`, hands the harness
one round of operations at a time through `round_ops()`, and verifies the
outputs in `check()`. Every call into the package goes through a module
attribute or a class (`pipeline.enhance_details`, `nn.Adam`), so the span
wrappers that `spans.Tracer` swaps in are the ones reached.

- ablation-desk: round = one `pvae ablation --settings 2` chain (CLI).
- train-wide: round = one `dip_total_loss` step of a VAE plus one
  `permutation_loss` step of an NSVAE at full width.
- enhance-wide: round = `enhance_details` on one 10 s mixture.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import reference
import spans
from pvae import autodiff as ad
from pvae import cli, datagen, diploss, dsp, nn, pipeline
from pvae.nsvae import NsvaeModel
from pvae.vae import VaeModel

SETTING = 2                  # beta 1, lambda_od 1e4, lambda_d 1e2: every loss term on
EDGE_TRIM = 256              # metric support excludes 256 samples at each end
F_BINS = 257
LR = 1e-4
CLIP_NORM = 5.0


class Workload:
    name = ""
    sizes = (None, None)         # (full, smoke)
    setup_repeats = 7
    clips_per_round = 0

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.size = self.sizes[smoke]
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def round_ops(self, index: int) -> list:
        """Callables for round `index`; each returns (frames, model seconds
        or None to take the operation's own wall time)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def extras(self, round_times: list[float]) -> dict:
        return {}


def _lps_segments(waves, segment_len: int) -> np.ndarray:
    seqs = [pipeline.waveform_to_lps(w) for w in waves]
    return pipeline.make_segments(seqs, segment_len).astype(np.float32)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# ablation-desk
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
DESK_CFG = ROOT / "configs" / "desk.cfg"

# Only the epoch count departs from configs/desk.cfg (beside the seed, which
# is --seed): patience = max_epochs - 1, so every stage runs exactly
# max_epochs epochs. The real desk chain runs up to 60 epochs; see the README
# for how the cut changes the chain's cost mix.
DESK_EPOCHS = 3
DESK_SMOKE = {"hidden_dim": 8, "latent_dim": 4, "n_speech": 4, "n_noise": 4,
              "n_eval": 1, "duration_s": 1.0, "batch_size": 4, "segment_len": 8}

TRAINING_LOGS = ("speech_vae_log.csv", "noise_vae_log.csv", "nsvae_log.csv")


def desk_config_text(seed: int, max_epochs: int, overrides: dict | None = None) -> str:
    """configs/desk.cfg with `seed`, `max_epochs`, `patience = max_epochs - 1`
    and `overrides` put in place of the file's own values."""
    keys = dict(overrides or {}, seed=seed, max_epochs=max_epochs,
                patience=max_epochs - 1)
    kept = [line for line in DESK_CFG.read_text().splitlines()
            if line.split("#", 1)[0].partition("=")[0].strip() not in keys]
    return "\n".join(kept + [f"{k} = {v}" for k, v in keys.items()]) + "\n"


class AblationDesk(Workload):
    name = "ablation-desk"
    sizes = ({}, DESK_SMOKE)

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.config_path = workdir / "desk.cfg"
        self.chains = 0
        self.digests = set()
        self.last_out = None

    def setup(self):
        # The chain makes its own inputs, so set-up is what `pvae ablation`
        # costs before the chain starts: a fresh interpreter importing the
        # CLI, where import-time work would escape every other timed part.
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", "import pvae.cli"], check=True,
                       env=dict(os.environ, PYTHONPATH=path))
        self.config_path.write_text(desk_config_text(self.seed, DESK_EPOCHS, self.size))
        self.cfg = cli.load_config(self.config_path)
        self.clips_per_round = self.cfg.n_eval

    def round_ops(self, index):
        return [self.chain]

    def chain(self):
        out = self.workdir / f"chain{self.chains}"
        self.chains += 1
        timer = spans.StepTimer()
        timer.install()
        try:
            rc = cli.main(["ablation", "--config", str(self.config_path),
                           "--settings", str(SETTING), "--out", str(out)])
        finally:
            timer.uninstall()
        if rc != 0:
            raise RuntimeError(f"pvae ablation exited with code {rc}")
        self.digests.add(_tree_digest(out))
        if self.last_out is not None:
            shutil.rmtree(self.last_out)
        self.last_out = out
        return timer.frames, timer.seconds

    def check(self):
        if self.last_out is None:
            return ["no chain completed"]
        fails = []
        if len(self.digests) != 1:
            fails.append(f"{len(self.digests)} different output trees from one argv")
        out = self.last_out / f"setting_{SETTING}"
        for log in TRAINING_LOGS:
            header, rows = _read_csv(out / log)
            epochs = [int(r[0]) for r in rows]
            if header != ["epoch", "train_loss", "val_loss"]:
                fails.append(f"{log}: header {header}")
            if epochs != list(range(1, self.cfg.max_epochs + 1)):
                fails.append(f"{log}: epochs {epochs}, expected 1..{self.cfg.max_epochs}")
            fails += checks.finite(log, [float(v) for r in rows for v in r[1:]])
        header, rows = _read_csv(self.last_out / "comparison.csv")
        if [r[0] for r in rows] != [str(SETTING)]:
            fails.append(f"comparison.csv: settings {[r[0] for r in rows]}")
        fails += checks.finite("comparison.csv", [float(v) for r in rows for v in r[1:]])
        # the chain derives its inputs from this per-setting config; they
        # are rebuilt here, outside the timed and traced parts of the run
        scfg = self.cfg.with_seed(self.cfg.seed + cli.SEED_PER_SETTING * SETTING)
        fails += self._check_against_reference(out, cli.make_eval_triples(scfg))
        fails += self._check_gradients(out, scfg)
        return fails

    def _check_against_reference(self, out: Path, eval_triples) -> list[str]:
        config, tensors = reference.read_checkpoint(out / "bundle.ckpt")
        dims = (config.get("nsvae") or {}).get("hidden_dim")
        if config.get("kind") != "bundle" or dims != self.cfg.hidden_dim:
            return [f"bundle.ckpt: config {config}"]
        header, rows = _read_csv(out / "metrics.csv")
        if len(rows) != len(eval_triples):
            return [f"metrics.csv: {len(rows)} rows for {len(eval_triples)} clips"]
        fails = []
        for row, triple in zip(rows, eval_triples):
            rec = dict(zip(header, row))
            enhanced, mask, _, _ = reference.enhance(tensors, triple.mixture.samples)
            n = len(enhanced)
            core = slice(EDGE_TRIM, n - EDGE_TRIM)
            clean = triple.speech.samples[:n][core]
            expected = {"si_snr_enhanced": reference.si_snr(enhanced[core], clean),
                        "si_snr_noisy": reference.si_snr(triple.mixture.samples[:n][core], clean)}
            for key, value in expected.items():
                if abs(float(rec[key]) - value) > checks.SI_SNR_TOL_DB:
                    fails.append(f"metrics.csv {rec['clip_id']} {key}: {rec[key]} "
                                 f"vs reference {value:.6f}")
            if not (np.all(mask > 0) and np.all(mask < 1)):
                fails.append(f"{rec['clip_id']}: reference mask leaves (0, 1)")
        return fails

    def _check_gradients(self, out: Path, scfg) -> list[str]:
        b, t = scfg.batch_size, scfg.segment_len
        speech, noise = cli.make_datasets(scfg)
        triples = cli.make_training_triples(scfg, speech, noise)
        speech_batch = _lps_segments(speech, t)[:b]
        y, x, v = (_lps_segments([getattr(tr, part) for tr in triples], t)[:b]
                   for part in ("mixture", "speech", "noise"))
        bundle = pipeline.load_bundle(out / "bundle.ckpt")
        twin = checks.float64_copy
        weights = diploss.SETTINGS[SETTING]
        cvae = twin(bundle.cvae)
        fails = checks.directional_derivative(
            "speech VAE at final parameters", cvae,
            lambda m: diploss.dip_total_loss(m, speech_batch, weights,
                                             np.random.default_rng(self.seed)),
            self.seed)
        ns, c_frozen, n_frozen = twin(bundle.nsvae), twin(bundle.cvae, True), twin(bundle.nvae, True)
        fails += checks.directional_derivative(
            "NSVAE at final parameters", ns,
            lambda m: pipeline.permutation_loss(m, c_frozen, n_frozen, y, x, v),
            self.seed + 1)
        return fails


# ---------------------------------------------------------------------------
# train-wide
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WideSize:
    hidden_dim: int = 512
    latent_dim: int = 128
    batch: int = 16
    segment_len: int = 32
    clip_s: float = 2.0


WIDE_SMOKE = WideSize(hidden_dim=16, latent_dim=8, batch=2, segment_len=4, clip_s=0.5)


class TrainWide(Workload):
    name = "train-wide"
    sizes = (WideSize(), WIDE_SMOKE)

    def setup(self):
        s = self.size
        rng = np.random.default_rng(self.seed)
        frames_per_clip = (int(s.clip_s * dsp.SAMPLE_RATE) - dsp.FRAME_LEN) // dsp.HOP + 1
        n_clips = math.ceil(2 * s.batch / (frames_per_clip // s.segment_len))
        speech = datagen.synth_dataset("speech", n_clips, s.clip_s, rng)
        noise = datagen.synth_dataset("noise", n_clips, s.clip_s, rng)
        triples = [datagen.mix_at_snr(sp, no, float(rng.uniform(-5.0, 10.0)), rng)
                   for sp, no in zip(speech, noise)]
        y, x, v = (_lps_segments([getattr(t, part) for t in triples], s.segment_len)
                   for part in ("mixture", "speech", "noise"))
        b = s.batch
        self.batches = [(y[i * b:(i + 1) * b], x[i * b:(i + 1) * b], v[i * b:(i + 1) * b])
                        for i in range(2)]

        mrng = np.random.default_rng(self.seed + 1)

        def vae(role):
            return VaeModel(F_BINS, s.hidden_dim, s.latent_dim, role, rng=mrng,
                            dtype=np.float32)

        self.vae = vae("speech")
        self.nsvae = NsvaeModel(F_BINS, s.hidden_dim, s.latent_dim, rng=mrng,
                                dtype=np.float32)
        self.cvae, self.nvae = vae("speech"), vae("noise")
        self.cvae.freeze()
        self.nvae.freeze()
        self.vae_opt = nn.Adam(self.vae.parameters(), lr=LR)
        self.ns_opt = nn.Adam(self.nsvae.parameters(), lr=LR)
        self.eps_rng = np.random.default_rng(self.seed + 2)
        self.log: list[float] = []
        self.steps = 0
        self.last_batch = self.batches[0]

    def round_ops(self, index):
        batch = self.batches[index % 2]
        return [lambda: self._dip_step(batch), lambda: self._perm_step(batch)]

    def _step(self, loss, opt):
        opt.zero_grad()
        ad.backward(loss)
        nn.clip_grad_norm(opt.params, CLIP_NORM)
        opt.step()
        self.log.append(loss.item())

    def _dip_step(self, batch):
        self.steps += 1
        self.last_batch = batch
        x = batch[1]
        self._step(diploss.dip_total_loss(self.vae, x, diploss.SETTINGS[SETTING],
                                          self.eps_rng), self.vae_opt)
        return x.shape[0] * x.shape[1], None

    def _perm_step(self, batch):
        self.steps += 1
        y, x, v = batch
        self._step(pipeline.permutation_loss(self.nsvae, self.cvae, self.nvae, y, x, v),
                   self.ns_opt)
        return y.shape[0] * y.shape[1], None

    def check(self):
        fails = []
        if len(self.log) != self.steps:
            fails.append(f"training log has {len(self.log)} losses for {self.steps} steps")
        fails += checks.finite("training losses", self.log)
        twin = checks.float64_copy
        y, x, v = self.last_batch
        fails += checks.directional_derivative(
            "VAE at final parameters", twin(self.vae),
            lambda m: diploss.dip_total_loss(m, x, diploss.SETTINGS[SETTING],
                                             np.random.default_rng(self.seed + 3)),
            self.seed)
        c_frozen, n_frozen = twin(self.cvae, True), twin(self.nvae, True)
        fails += checks.directional_derivative(
            "NSVAE at final parameters", twin(self.nsvae),
            lambda m: pipeline.permutation_loss(m, c_frozen, n_frozen, y, x, v),
            self.seed + 1)
        return fails


# ---------------------------------------------------------------------------
# enhance-wide
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnhanceSize:
    hidden_dim: int = 512
    latent_dim: int = 128
    clip_s: float = 10.0
    n_clips: int = 3
    prefix_s: float = 2.0


ENHANCE_SMOKE = EnhanceSize(hidden_dim=16, latent_dim=8, clip_s=1.0, n_clips=2,
                            prefix_s=0.5)


class EnhanceWide(Workload):
    name = "enhance-wide"
    sizes = (EnhanceSize(), ENHANCE_SMOKE)
    clips_per_round = 1

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        self.ckpt = workdir / "bundle.ckpt"

    def setup(self):
        s = self.size
        rng = np.random.default_rng(self.seed)
        bundle = pipeline.ModelBundle(
            cvae=VaeModel(F_BINS, s.hidden_dim, s.latent_dim, "speech", rng=rng,
                          dtype=np.float32),
            nvae=VaeModel(F_BINS, s.hidden_dim, s.latent_dim, "noise", rng=rng,
                          dtype=np.float32),
            nsvae=NsvaeModel(F_BINS, s.hidden_dim, s.latent_dim, rng=rng,
                             dtype=np.float32))
        pipeline.save_bundle(self.ckpt, bundle)
        self.bundle = pipeline.load_bundle(self.ckpt)
        speech = datagen.synth_dataset("speech", s.n_clips, s.clip_s, rng)
        noise = datagen.synth_dataset("noise", s.n_clips, s.clip_s, rng)
        self.mixtures = [datagen.mix_at_snr(sp, no, float(rng.uniform(-5.0, 10.0)), rng).mixture
                         for sp, no in zip(speech, noise)]
        self.results = {}
        self.repeat_fails = []

    def round_ops(self, index):
        return [lambda: self._enhance(index % len(self.mixtures))]

    def _enhance(self, k):
        result = pipeline.enhance_details(self.bundle, self.mixtures[k])
        first = self.results.setdefault(k, result)
        if first is not result and first.enhanced.samples.tobytes() != result.enhanced.samples.tobytes():
            self.repeat_fails.append(f"clip {k}: repeat call changed the samples")
        return result.mask.shape[1], None

    def check(self):
        if not self.results:
            return ["no clip enhanced"]
        fails = list(self.repeat_fails)
        _, tensors = reference.read_checkpoint(self.ckpt)
        for k, result in sorted(self.results.items()):
            fails += checks.enhanced_output(f"clip {k}", result,
                                            self.mixtures[k].samples, tensors)
        # causality: a prefix's latents are the full clip's first rows, bit for bit
        k = min(self.results)
        full = self.results[k]
        prefix = dsp.Waveform(self.mixtures[k].samples[:int(self.size.prefix_s * dsp.SAMPLE_RATE)])
        a = pipeline.enhance_details(self.bundle, prefix)
        b = pipeline.enhance_details(self.bundle, prefix)
        n = a.z_speech.shape[0]
        if (a.z_speech.tobytes() != full.z_speech[:n].tobytes()
                or a.z_noise.tobytes() != full.z_noise[:n].tobytes()):
            fails.append(f"clip {k}: prefix latents differ from the full clip's first {n} rows")
        if a.enhanced.samples.tobytes() != b.enhanced.samples.tobytes():
            fails.append(f"clip {k}: repeat call on the prefix changed the samples")
        return fails

    def extras(self, round_times):
        return {"enhance_rtf": float(np.median(round_times)) / self.size.clip_s}


WORKLOADS = {w.name: w for w in (AblationDesk, TrainWide, EnhanceWide)}
