"""The same argv gives the same bytes under one and two BLAS threads.

OpenBLAS splits long level-1 reductions such as `ddot` across its threads,
which changes their rounding, so every reduction behind an artifact must
run in a fixed order. The criterion-7 micro chain, `pvae enhance` and the
training steps of `test_parallel.wide_training_bytes` run in a subprocess
per thread count, since OpenBLAS reads its thread count once, at load. Two threads at most: never ask for more. The `pvae` command itself
asks for one BLAS thread unless the caller has set a count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvae
from pvae.dsp import save_wav
from pvae.pipeline import CHUNK_FRAMES, save_bundle
from test_acceptance import MICRO_CFG
from test_pipeline import clip_of, tiny_bundle

SRC = str(Path(pvae.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)
MAIN = "import sys; from pvae.cli import main; sys.exit(main(sys.argv[1:]))"


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_micro_chain_bytes_independent_of_blas_threads(tmp_path):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO_CFG)
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"abl_{threads}"
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", MAIN, "ablation", "--config", str(cfg),
                        "--settings", "3", "--out", str(out)], env=env, check=True,
                       capture_output=True)
        trees.append(_tree_bytes(out))
    one, two = trees
    assert sorted(one) == sorted(two)
    assert [name for name in one if one[name] != two[name]] == []


@pytest.mark.parametrize("sample", [[], ["--sample-latent"]], ids=["mean", "sampled"])
def test_enhance_bytes_independent_of_blas_threads(tmp_path, sample):
    """A micro bundle enhances a clip of several chunks to the same WAV bytes."""
    save_bundle(tmp_path / "bundle.ckpt", tiny_bundle(9))
    save_wav(tmp_path / "noisy.wav", clip_of(3 * CHUNK_FRAMES + 10, 9))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out_{threads}" / "enhanced.wav"
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", MAIN, "enhance", "--bundle",
                        str(tmp_path / "bundle.ckpt"), "--in", str(tmp_path / "noisy.wav"),
                        "--out", str(out), *sample], env=env, check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_wide_training_bytes_independent_of_blas_threads():
    """DIP and permutation steps at a width where the worker sums the GRU
    weights and runs half of Adam."""
    probe = ("import hashlib; from test_parallel import wide_training_bytes; "
             "print(hashlib.sha256(wide_training_bytes()).hexdigest())")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, TESTS)),
                   OPENBLAS_NUM_THREADS=threads)
        digests.append(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                      capture_output=True, text=True).stdout)
    assert digests[0] == digests[1] != ""


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset,expect", [
    ({}, "1"),
    ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
    ({"GOTO_NUM_THREADS": "2"}, None),
    ({"OMP_NUM_THREADS": "2"}, None),
], ids=["unset", "openblas", "goto", "omp"])
def test_cli_pins_one_blas_thread_unless_the_caller_chose(preset, expect):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(preset, PYTHONPATH=SRC)
    probe = "import os, pvae.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == str(expect)
