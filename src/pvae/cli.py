"""Command-line surface: data synthesis, the three training stages,
enhancement, evaluation, latent visualization, and the four-setting
ablation grid.

Exit codes: 0 success, 1 usage error, 2 runtime failure. Every command
writes its artifacts under --out and records a manifest (config snapshot,
seed, versions) before any long-running work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

# One BLAS thread unless the caller chose: `parallel` runs two threads of its
# own. OpenBLAS reads this once, when numpy loads.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402  (after the BLAS thread count)

from . import CHECKPOINT_FORMAT_VERSION, __version__, new_file
from .analysis import (LatentCloud, log_spectral_distance, pca_fit,
                       separation_stats, si_snr, write_latent_csv,
                       write_latent_svg, write_metrics_csv)
from .checkpoint import WrongModelError, load_vae, save_vae
from .config import RunConfig, load_config
from .datagen import mix_at_snr, synth_dataset
from .diploss import SETTINGS, LossWeights
from .dsp import FRAME_LEN, Waveform, WavFormatError, load_wav, save_wav
from .parallel import fork_join
from .pipeline import (EnhanceResult, ModelBundle, enhance, enhance_details,
                       load_bundle, pretrain_vae, save_bundle, train_nsvae,
                       write_training_log)
from .vae import VaeModel

# fixed offsets deriving each stage's generator from the master seed
SEED_SPEECH, SEED_NOISE = 101, 202
SEED_MIX, SEED_EVAL_SPEECH, SEED_EVAL_NOISE, SEED_EVAL_MIX = 303, 404, 505, 606
SEED_PER_SETTING = 1000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):          # argparse would sys.exit(2)
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="pvae", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, desc, out=True):
        p = sub.add_parser(name, description=desc)
        p.add_argument("--config", help="key = value configuration file")
        p.add_argument("--seed", type=int, help="override the config seed")
        if out:
            p.add_argument("--out", required=True, help="output directory")
        return p

    add("synth-data", "write synthetic speech/noise WAV sets")
    p = add("pretrain", "train one VAE on clean clips of one role")
    p.add_argument("--role", required=True, choices=("speech", "noise"))
    p = add("train-nsvae", "train the noisy-speech VAE against frozen targets")
    p.add_argument("--cvae", required=True, help="pretrained speech checkpoint")
    p.add_argument("--nvae", required=True, help="pretrained noise checkpoint")
    p = add("enhance", "enhance one WAV file with a trained bundle", out=False)
    p.add_argument("--bundle", required=True, help="bundle checkpoint")
    p.add_argument("--in", dest="in_path", required=True, help="noisy WAV")
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--sample-latent", dest="sample", action="store_true",
                   help="draw latents instead of using posterior means")
    p = add("evaluate", "SI-SNR/LSD metrics for a bundle on a fresh eval set")
    p.add_argument("--bundle", required=True)
    p = add("latent-viz", "export the 2-D PCA latent scatter for a bundle")
    p.add_argument("--bundle", required=True)
    p = add("ablation", "train + evaluate the four loss-weight settings")
    p.add_argument("--settings", default="1,2,3,4",
                   help="comma-separated subset of 1,2,3,4")
    return parser


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _write_json(path: Path, obj) -> None:
    with new_file(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(out_dir: Path, command: str, cfg: RunConfig,
                   extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": {f: getattr(cfg, f) for f in cfg.__dataclass_fields__},
        "seed": cfg.seed,
        "versions": {
            "package": __version__,
            "checkpoint_format": CHECKPOINT_FORMAT_VERSION,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    manifest.update(extra or {})
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "manifest.json", manifest)


def _load_wav_dir(root: Path) -> list[Waveform]:
    """Every WAV under `root`, each at least one STFT frame long; an error
    names the file."""
    paths = sorted(root.glob("*.wav"))
    if not paths:
        raise FileNotFoundError(f"no WAV files under {root}")
    clips = []
    for path in paths:
        try:
            clip = load_wav(path)
        except WavFormatError as exc:
            raise WavFormatError(f"{path}: {exc}") from None
        if len(clip) < FRAME_LEN:
            raise WavFormatError(f"{path}: {len(clip)} samples, fewer than one "
                                 f"{FRAME_LEN}-sample frame")
        clips.append(clip)
    return clips


def make_clips(cfg: RunConfig, role: str) -> list[Waveform]:
    """Training clips of one role: synthesized, or read from `data_dir/<role>`."""
    if cfg.data_dir:
        return _load_wav_dir(Path(cfg.data_dir) / role)
    n, offset = (cfg.n_speech, SEED_SPEECH) if role == "speech" else (cfg.n_noise, SEED_NOISE)
    return synth_dataset(role, n, cfg.duration_s, np.random.default_rng(cfg.seed + offset))


def make_datasets(cfg: RunConfig) -> tuple[list[Waveform], list[Waveform]]:
    """Training clips for both roles: synthesized, or read from data_dir."""
    return make_clips(cfg, "speech"), make_clips(cfg, "noise")


def make_training_triples(cfg: RunConfig, speech, noise):
    rng = np.random.default_rng(cfg.seed + SEED_MIX)
    triples = []
    for i, s in enumerate(speech):
        snr = float(rng.uniform(cfg.snr_lo, cfg.snr_hi))
        triples.append(mix_at_snr(s, noise[i % len(noise)], snr, rng))
    return triples


def make_eval_triples(cfg: RunConfig):
    """Held-out mixtures at the fixed evaluation SNR, disjoint seeds."""
    speech = synth_dataset("speech", cfg.n_eval, cfg.duration_s,
                           np.random.default_rng(cfg.seed + SEED_EVAL_SPEECH))
    noise = synth_dataset("noise", cfg.n_eval, cfg.duration_s,
                          np.random.default_rng(cfg.seed + SEED_EVAL_NOISE))
    rng = np.random.default_rng(cfg.seed + SEED_EVAL_MIX)
    return [mix_at_snr(s, v, cfg.snr_eval, rng)
            for s, v in zip(speech, noise)]


# Metrics exclude the first/last FRAME_LEN-HOP samples: those lie under a
# single synthesis window whose taper approaches zero, so any spectral
# modification is amplified without bound there. The comparison stays fair
# because noisy and enhanced are trimmed identically. The trimmed core must
# still hold one STFT frame for the log-spectral distance.
EDGE_TRIM = 256
MIN_EVAL_SAMPLES = FRAME_LEN + 2 * EDGE_TRIM


def evaluate_bundle(triples, results: list[EnhanceResult]) -> list[dict]:
    """Metric rows for eval `triples` from their enhancement `results`."""
    rows = []
    for i, (t, res) in enumerate(zip(triples, results)):
        clip_id = f"clip_{i:03d}"
        out = res.enhanced
        n = len(out)
        if n < MIN_EVAL_SAMPLES:
            raise ValueError(f"{clip_id}: enhanced clip has {n} samples, fewer than "
                             f"the {MIN_EVAL_SAMPLES} that evaluation needs")
        core = slice(EDGE_TRIM, n - EDGE_TRIM)
        ref = t.speech.samples[:n][core]
        noisy = t.mixture.samples[:n][core]
        est = out.samples[core]
        rows.append({
            "clip_id": clip_id,
            "si_snr_noisy": si_snr(noisy, ref),
            "si_snr_enhanced": si_snr(est, ref),
            "lsd_noisy": log_spectral_distance(noisy, ref),
            "lsd_enhanced": log_spectral_distance(est, ref),
        })
    return rows


def summarize_metrics(rows: list[dict]) -> dict:
    """Mean and standard error of each metric column, labeled as such."""
    out = {"n_clips": len(rows), "statistic": "mean +- standard error"}
    for key in ("si_snr_noisy", "si_snr_enhanced", "lsd_noisy", "lsd_enhanced"):
        vals = np.array([r[key] for r in rows])
        out[key] = {"mean": float(vals.mean()),
                    "stderr": float(vals.std(ddof=1) / np.sqrt(len(vals)))
                    if len(vals) > 1 else 0.0}
    return out


def latent_clouds(results: list[EnhanceResult]) -> list[LatentCloud]:
    """Per-frame NSVAE posterior means over mixtures, one cloud per branch."""
    return [LatentCloud(np.concatenate([r.z_speech for r in results]), "speech"),
            LatentCloud(np.concatenate([r.z_noise for r in results]), "noise")]


def export_latents(out_dir: Path, results: list[EnhanceResult]) -> dict:
    clouds = latent_clouds(results)
    pca = pca_fit(clouds)
    write_latent_csv(out_dir / "latents.csv", clouds, pca)
    write_latent_svg(out_dir / "latents.svg", clouds, pca)
    return separation_stats(*clouds)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _pretrained(cfg: RunConfig, role: str, weights: LossWeights, clips=None):
    """(clips, model, log): `role`'s training clips, `clips` if given, and the
    VAE pretrained on them with its training log."""
    if clips is None:
        clips = make_clips(cfg, role)
    return clips, *pretrain_vae(role, clips, cfg, weights)


def _train_bundle(out: Path, cfg: RunConfig, speech, noise, cvae: VaeModel, nvae: VaeModel,
                  cvae_weights: LossWeights, nvae_weights: LossWeights) -> ModelBundle:
    """Train the noisy VAE against `cvae` and `nvae`; writes `nsvae_log.csv`, `bundle.ckpt`."""
    nsvae, log = train_nsvae(cvae, nvae, make_training_triples(cfg, speech, noise), cfg)
    write_training_log(out / "nsvae_log.csv", log)
    bundle = ModelBundle(cvae=cvae, nvae=nvae, nsvae=nsvae,
                         cvae_weights=cvae_weights, nvae_weights=nvae_weights)
    save_bundle(out / "bundle.ckpt", bundle)
    return bundle


def _enhance_all(bundle: ModelBundle, triples) -> list[EnhanceResult]:
    """`enhance_details` of each mixture: the first half in a lane, the rest here."""
    def enhance_some(part):
        return lambda: [enhance_details(bundle, t.mixture) for t in part]

    half = len(triples) // 2
    first, rest = fork_join(enhance_some(triples[:half]), enhance_some(triples[half:]),
                            "eval lane")
    return first + rest


def _evaluate(out: Path, triples, bundle: ModelBundle) -> tuple[dict, list[EnhanceResult]]:
    """Enhance the eval `triples` once, write `metrics.csv`; (summary, results)."""
    results = _enhance_all(bundle, triples)
    rows = evaluate_bundle(triples, results)
    write_metrics_csv(out / "metrics.csv", rows)
    return summarize_metrics(rows), results


def cmd_synth_data(args, cfg: RunConfig) -> None:
    out = Path(args.out)
    write_manifest(out, "synth-data", cfg)
    speech, noise = make_datasets(cfg)
    for kind, clips in (("speech", speech), ("noise", noise)):
        sub = out / kind
        sub.mkdir(parents=True, exist_ok=True)
        for i, clip in enumerate(clips):
            save_wav(sub / f"{kind}_{i:03d}.wav", clip)


def cmd_pretrain(args, cfg: RunConfig) -> None:
    out = Path(args.out)
    write_manifest(out, "pretrain", cfg, {"role": args.role})
    weights = cfg.loss_weights()
    _, model, log = _pretrained(cfg, args.role, weights)
    write_training_log(out / f"{args.role}_vae_log.csv", log)
    save_vae(out / f"{args.role}_vae.ckpt", model, weights)


def _load_vae(path, flag: str, role: str):
    """`load_vae`; a checkpoint of another kind or role is named by `flag`."""
    try:
        return load_vae(path, role)
    except WrongModelError as exc:
        raise WrongModelError(f"{flag}: {exc}") from None


def cmd_train_nsvae(args, cfg: RunConfig) -> None:
    out = Path(args.out)
    write_manifest(out, "train-nsvae", cfg,
                   {"cvae": str(args.cvae), "nvae": str(args.nvae)})
    cvae, cvae_weights = _load_vae(args.cvae, "--cvae", "speech")
    nvae, nvae_weights = _load_vae(args.nvae, "--nvae", "noise")
    _train_bundle(out, cfg, *make_datasets(cfg), cvae, nvae, cvae_weights, nvae_weights)


def cmd_enhance(args, cfg: RunConfig) -> None:
    bundle = load_bundle(args.bundle)
    noisy = load_wav(args.in_path)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_manifest(out_path.parent, "enhance", cfg,
                   {"bundle": str(args.bundle), "in": str(args.in_path),
                    "out": out_path.name})
    rng = np.random.default_rng(cfg.seed) if args.sample else None
    save_wav(out_path, enhance(bundle, noisy, rng))


def cmd_evaluate(args, cfg: RunConfig) -> None:
    out = Path(args.out)
    write_manifest(out, "evaluate", cfg, {"bundle": str(args.bundle)})
    summary, _ = _evaluate(out, make_eval_triples(cfg), load_bundle(args.bundle))
    _write_json(out / "summary.json", summary)


def cmd_latent_viz(args, cfg: RunConfig) -> None:
    out = Path(args.out)
    write_manifest(out, "latent-viz", cfg, {"bundle": str(args.bundle)})
    bundle = load_bundle(args.bundle)
    stats = export_latents(out, _enhance_all(bundle, make_eval_triples(cfg)))
    _write_json(out / "separation.json", stats)


def run_setting(cfg: RunConfig, setting: int, out_dir: Path) -> dict:
    """The stages of `pretrain`, `train-nsvae`, `evaluate` and `latent-viz` for one
    setting, seeded `cfg.seed + SEED_PER_SETTING * setting`; returns its comparison row."""
    weights = SETTINGS[setting]
    scfg = cfg.with_seed(cfg.seed + SEED_PER_SETTING * setting)
    out_dir.mkdir(parents=True, exist_ok=True)

    # The speech VAE pretrains in a lane while this process pretrains the noise
    # VAE and makes the eval clips. WAVs under data_dir are read here, speech
    # first as in a serial run; synthetic speech clips are made in the lane.
    wavs = make_clips(scfg, "speech") if scfg.data_dir else None
    (speech, cvae, speech_log), ((noise, nvae, noise_log), eval_triples) = fork_join(
        lambda: _pretrained(scfg, "speech", weights, wavs),
        lambda: (_pretrained(scfg, "noise", weights), make_eval_triples(scfg)),
        "speech lane")
    write_training_log(out_dir / "speech_vae_log.csv", speech_log)
    write_training_log(out_dir / "noise_vae_log.csv", noise_log)
    bundle = _train_bundle(out_dir, scfg, speech, noise, cvae, nvae, weights, weights)
    summary, results = _evaluate(out_dir, eval_triples, bundle)
    summary["separation"] = stats = export_latents(out_dir, results)
    _write_json(out_dir / "summary.json", summary)

    return {
        "setting": setting,
        "beta": weights.beta,
        "lambda_od": weights.lambda_od,
        "lambda_d": weights.lambda_d,
        "si_snr_noisy": summary["si_snr_noisy"]["mean"],
        "si_snr_enhanced": summary["si_snr_enhanced"]["mean"],
        "si_snr_improvement": (summary["si_snr_enhanced"]["mean"]
                               - summary["si_snr_noisy"]["mean"]),
        "lsd_enhanced": summary["lsd_enhanced"]["mean"],
        "separation_ratio": stats["ratio"],
    }


def write_comparison_csv(path, rows: list[dict]) -> None:
    cols = ["setting", "beta", "lambda_od", "lambda_d", "si_snr_noisy",
            "si_snr_enhanced", "si_snr_improvement", "lsd_enhanced",
            "separation_ratio"]
    with new_file(path) as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(
                str(row[c]) if c == "setting" else f"{row[c]:.6f}"
                for c in cols) + "\n")


def cmd_ablation(args, cfg: RunConfig) -> None:
    try:
        settings = [int(s) for s in args.settings.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--settings must be integers, got {args.settings!r}")
    if not settings or any(s not in SETTINGS for s in settings):
        raise UsageError(f"--settings must be a subset of 1,2,3,4, got "
                         f"{args.settings!r}")
    repeated = next((s for i, s in enumerate(settings) if s in settings[:i]), None)
    if repeated is not None:
        raise UsageError(f"--settings repeats setting {repeated}, got {args.settings!r}")
    out = Path(args.out)
    write_manifest(out, "ablation", cfg, {"settings": settings})
    rows = [run_setting(cfg, s, out / f"setting_{s}") for s in settings]
    write_comparison_csv(out / "comparison.csv", rows)


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "pretrain": cmd_pretrain,
    "train-nsvae": cmd_train_nsvae,
    "enhance": cmd_enhance,
    "evaluate": cmd_evaluate,
    "latent-viz": cmd_latent_viz,
    "ablation": cmd_ablation,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args, _load_run_config(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
