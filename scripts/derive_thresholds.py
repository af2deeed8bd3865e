#!/usr/bin/env python3
"""Replicate the desk-scale ablation across seeds to pin acceptance numbers.

Runs the full four-setting grid under three master seeds and prints, per
setting and seed: mean SI-SNR improvement and latent separation ratio, and
per seed the three qualitative checks of acceptance criterion 6. The
fixed-seed (seed 1, `PIN_SEED`) values, minus a 10% margin, are what the
acceptance test asserts. Each chain pretrains its speech VAE in a forked
lane on two or more cores (`pvae.parallel`).

Usage: python3 scripts/derive_thresholds.py [OUT_ROOT]
"""

import json
import sys
import time
from pathlib import Path

from pvae.cli import run_setting
from pvae.config import load_config

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
PIN_SEED = 1  # the seed committed in configs/desk.cfg
SETTINGS = (1, 2, 3, 4)


def criterion_6_checks(rows: dict) -> dict:
    """Criterion 6's qualitative checks over one seed's rows, by setting."""
    best = max(rows.values(), key=lambda row: row["si_snr_enhanced"])
    return {
        "setting 3 gains at least 3 dB": rows[3]["si_snr_improvement"] >= 3.0,
        "setting 3 separates more than setting 1":
            rows[3]["separation_ratio"] > rows[1]["separation_ratio"],
        f"best enhancement (setting {best['setting']}) from a beta=0 setting":
            best["beta"] == 0.0,
    }


def run(out_root: str) -> int:
    cfg = load_config(ROOT / "configs" / "desk.cfg")
    results = {}
    for seed in SEEDS:
        for setting in SETTINGS:
            t0 = time.time()
            out_dir = Path(out_root) / f"seed_{seed}" / f"setting_{setting}"
            row = run_setting(cfg.with_seed(seed), setting, out_dir)
            results[(seed, setting)] = row
            print(f"seed {seed} setting {setting}: "
                  f"improvement {row['si_snr_improvement']:+7.3f} dB, "
                  f"separation {row['separation_ratio']:.3f}, "
                  f"enhanced {row['si_snr_enhanced']:7.3f} dB "
                  f"({time.time() - t0:.1f}s)", flush=True)
        rows = {k: results[(seed, k)] for k in SETTINGS}
        for check, ok in criterion_6_checks(rows).items():
            print(f"seed {seed} criterion 6: {check}: {'holds' if ok else 'FAILS'}", flush=True)

    print("\nper-setting ranges over seeds:")
    for setting in SETTINGS:
        imps = [results[(s, setting)]["si_snr_improvement"] for s in SEEDS]
        seps = [results[(s, setting)]["separation_ratio"] for s in SEEDS]
        print(f"  setting {setting}: improvement "
              f"[{min(imps):+.3f}, {max(imps):+.3f}], "
              f"separation [{min(seps):.3f}, {max(seps):.3f}]")

    pinned = {f"setting_{k}": results[(PIN_SEED, k)] for k in SETTINGS}
    out_path = Path(out_root) / "thresholds.json"
    with open(out_path, "w") as fh:
        json.dump(pinned, fh, indent=2, sort_keys=True)
    print(f"\nseed-{PIN_SEED} rows written to {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "threshold_runs"))
