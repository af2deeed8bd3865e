"""The package surface that the benchmark's traced run reaches.

`perfbench/run.py --trace 1` wraps each entry of `perfbench/spans.py`'s
`FUNCTIONS`, `METHODS` and `StepTimer.LOSSES` through `spans.Patches`, and
exits 1 when one of them is missing. These tests look each entry up through
`Patches` itself (with wrappers that return the original, undone at once),
so a rename or move in `pvae` fails here in well under a second.
"""

import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


def _identity(fn):
    return fn


@pytest.fixture()
def patches():
    p = spans.Patches()
    yield p
    p.undo()


@pytest.mark.parametrize("module, attr, span", spans.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a, _ in spans.FUNCTIONS])
def test_function_resolves(patches, module, attr, span):
    assert patches.function(module, attr, _identity), f"{module}.{attr} ({span})"


@pytest.mark.parametrize("module, cls, attr, span", spans.METHODS,
                         ids=[f"{m}.{c}.{a}" for m, c, a, _ in spans.METHODS])
def test_method_is_defined_on_its_class(patches, module, cls, attr, span):
    assert patches.method(module, cls, attr, _identity), f"{module}.{cls}.{attr} ({span})"


@pytest.mark.parametrize("module, attr, batch_arg", spans.StepTimer.LOSSES,
                         ids=[f"{m}.{a}" for m, a, _ in spans.StepTimer.LOSSES])
def test_step_loss_takes_its_batch_positionally(patches, module, attr, batch_arg):
    assert patches.function(module, attr, _identity), f"{module}.{attr}"
    fn = getattr(importlib.import_module(module), attr)
    params = list(inspect.signature(fn).parameters.values())
    assert batch_arg < len(params), f"{attr} has no argument {batch_arg}"
    assert params[batch_arg].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_round_parts_times_every_part_of_a_train_wide_round():
    """`scripts/round_parts.py` builds `workloads.TrainWide` and reads its
    models, optimisers and batches; one round prints every part."""
    script = SPANS_PATH.parents[1] / "scripts" / "round_parts.py"
    out = subprocess.run([sys.executable, str(script), "--rounds", "1", "--warmup", "0"],
                         check=True, capture_output=True, text=True).stdout
    names = [line.rsplit(None, 1)[0].strip() for line in out.splitlines()[1:]]
    assert names == ["dip forward", "dip backward", "dip clip", "dip adam",
                     "perm nsvae forward", "perm target encodes", "perm backward",
                     "perm clip", "perm adam", "round"]


def test_round_parts_digest_follows_the_parts():
    """`--digest` adds one SHA-256 line after the parts, over the trained
    parameters, gradients and Adam moments."""
    script = SPANS_PATH.parents[1] / "scripts" / "round_parts.py"
    out = subprocess.run([sys.executable, str(script), "--rounds", "1", "--warmup", "0",
                          "--digest"], check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    assert len(lines) == 12 and lines[-2].split()[0] == "round"
    word, digest = lines[-1].split()
    assert word == "digest" and len(digest) == 64 and int(digest, 16) >= 0


def test_check_rounds_checks_each_round_of_a_train_wide_run():
    """`scripts/check_rounds.py` builds `workloads.TrainWide`, runs its rounds
    and calls `check()` after each one in range; rounds 1 and 2 pass at seed
    1, so the list of failing counts is empty."""
    script = SPANS_PATH.parents[1] / "scripts" / "check_rounds.py"
    out = subprocess.run([sys.executable, str(script), "--seed", "1", "--from", "1",
                          "--to", "2"], check=True, capture_output=True, text=True).stdout
    assert out.splitlines() == ["train-wide, seed 1, rounds 1-2: check fails after []"]
