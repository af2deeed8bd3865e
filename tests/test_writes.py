"""Every artifact writer writes a new file; none rewrites one in place.

A save to a path that holds a regular file unlinks it and creates another,
so a hard link to the first output keeps the first bytes. Device nodes are
not tested: a writer that wrongly unlinked them would delete them when the
tests run as root.
"""

import os

import numpy as np
import pytest

from pvae import cli
from pvae.analysis import (LatentCloud, pca_fit, write_latent_csv, write_latent_svg,
                           write_metrics_csv)
from pvae.checkpoint import load_checkpoint, save_checkpoint
from pvae.dsp import Waveform, save_wav
from pvae.pipeline import write_training_log

METRIC_COLS = ["si_snr_noisy", "si_snr_enhanced", "lsd_noisy", "lsd_enhanced"]
COMPARISON_COLS = ["beta", "lambda_od", "lambda_d", "si_snr_noisy", "si_snr_enhanced",
                   "si_snr_improvement", "lsd_enhanced", "separation_ratio"]


def clouds(k):
    r = np.random.default_rng(k)
    pair = [LatentCloud(r.standard_normal((5, 3)) + 3.0, "speech"),
            LatentCloud(r.standard_normal((5, 3)), "noise")]
    return pair, pca_fit(pair)


# each writer, called with version k = 0 or 1 of its content
WRITERS = {
    "save_checkpoint": lambda path, k: save_checkpoint(
        path, {"k": k}, {"w": np.full(3, k, np.float32)}),
    "save_wav": lambda path, k: save_wav(path, Waveform(np.full(8, 0.25 * k))),
    "write_training_log": lambda path, k: write_training_log(path, [(1, float(k), 0.5)]),
    "write_metrics_csv": lambda path, k: write_metrics_csv(
        path, [{"clip_id": f"clip_{k}", **dict.fromkeys(METRIC_COLS, float(k))}]),
    "write_latent_csv": lambda path, k: write_latent_csv(path, *clouds(k)),
    "write_latent_svg": lambda path, k: write_latent_svg(path, *clouds(k)),
    "cli._write_json": lambda path, k: cli._write_json(path, {"k": k}),
    "cli.write_comparison_csv": lambda path, k: cli.write_comparison_csv(
        path, [{"setting": k, **dict.fromkeys(COMPARISON_COLS, float(k))}]),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_second_save_writes_a_new_file(tmp_path, write):
    path, link, second = tmp_path / "artifact", tmp_path / "first", tmp_path / "second"
    write(path, 0)
    first = path.read_bytes()
    os.link(path, link)
    write(path, 1)
    write(second, 1)
    assert first != second.read_bytes()
    assert link.read_bytes() == first
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_save_through_symlink_writes_its_target(tmp_path):
    target, path = tmp_path / "target.ckpt", tmp_path / "link.ckpt"
    save_checkpoint(target, {"k": 0}, {})
    path.symlink_to(target)
    save_checkpoint(path, {"k": 1}, {})
    assert path.is_symlink()
    assert load_checkpoint(target)[0] == {"k": 1}
