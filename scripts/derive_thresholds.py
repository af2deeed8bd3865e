#!/usr/bin/env python3
"""Replicate the desk-scale ablation across seeds to pin acceptance numbers.

Runs the full four-setting grid under three master seeds and prints, per
setting and seed: mean SI-SNR improvement and latent separation ratio. The
fixed-seed (seed 1, `PIN_SEED`) values, minus a 10% margin, are what the
acceptance test asserts.

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
                  f"({time.time() - t0:.0f}s)", flush=True)

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
