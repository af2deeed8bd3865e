"""The same argv gives the same bytes under one and two BLAS threads.

OpenBLAS splits long level-1 reductions such as `ddot` across its threads,
which changes their rounding, so every reduction behind an artifact must
run in a fixed order. The criterion-7 micro chain runs in a subprocess per
thread count, since OpenBLAS reads its thread count once, at load. Two
threads at most: never ask for more. The `pvae` command itself asks for one
BLAS thread unless the caller has set a count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvae
from test_acceptance import MICRO_CFG

SRC = str(Path(pvae.__file__).resolve().parent.parent)
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
