"""Layer spans for the traced benchmark run, recorded from outside the package.

`Patches` swaps a wrapper in for a function or method at module-attribute
level: every `pvae` module attribute bound to the original object is
rebound, so callers that imported the name (`from .dsp import stft`) and
callers that look it up through the module (`ad.matmul`) both reach the
wrapper. `undo()` restores every binding.

`Tracer` uses it to record, per span name, the call count, the inclusive
time and the self time (inclusive time minus the time of spans nested
inside). A span that is re-entered while already open (`enhance` calling
`enhance_details`) is counted once, at the outer call.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

# public functions of pvae.autodiff that are not graph ops
NOT_OPS = {"backward", "grad_check"}

# the ops reported one by one; autodiff.op.* covers every op function
NAMED_OPS = ("matmul", "add", "mul", "sigmoid", "tanh", "relu", "exp",
             "broadcast_rows", "slice_rows", "concat")

# (module, function, span)
FUNCTIONS = [
    ("pvae.autodiff", "backward", "autodiff.backward"),
    ("pvae.nn", "clip_grad_norm", "nn.clip_grad_norm"),
    ("pvae.vae", "forward_terms", "vae.forward_terms"),
    ("pvae.nsvae", "permutation_loss", "nsvae.permutation_loss"),
    ("pvae.diploss", "dip_total_loss", "diploss.dip_total_loss"),
    ("pvae.diploss", "mean_covariance", "diploss.mean_covariance"),
    ("pvae.dsp", "stft", "dsp.stft"),
    ("pvae.dsp", "istft", "dsp.istft"),
    ("pvae.pipeline", "pretrain_vae", "pipeline.pretrain_vae"),
    ("pvae.pipeline", "train_nsvae", "pipeline.train_nsvae"),
    ("pvae.pipeline", "enhance", "pipeline.enhance"),
    ("pvae.pipeline", "enhance_details", "pipeline.enhance"),
    ("pvae.pipeline", "save_bundle", "pipeline.save_bundle"),
    ("pvae.pipeline", "load_bundle", "pipeline.load_bundle"),
    ("pvae.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("pvae.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
    ("pvae.datagen", "synth_dataset", "datagen.synth_dataset"),
    ("pvae.analysis", "pca_fit", "analysis.pca_fit"),
    ("pvae.cli", "evaluate_bundle", "cli.evaluate_bundle"),
    ("pvae.cli", "latent_clouds", "cli.latent_clouds"),
]

# (module, class, method, span)
METHODS = [
    ("pvae.nn", "LinearLayer", "__call__", "nn.LinearLayer"),
    ("pvae.nn", "GruLayer", "step", "nn.GruLayer.step"),
    ("pvae.nn", "Adam", "step", "nn.Adam.step"),
    ("pvae.vae", "VaeModel", "encode_batch", "vae.VaeModel.encode_batch"),
    ("pvae.vae", "VaeModel", "decode_batch", "vae.VaeModel.decode_batch"),
    ("pvae.nsvae", "NsvaeModel", "encode_batch", "nsvae.NsvaeModel.encode_batch"),
]

CHECKPOINT_IO = ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint")


def _pvae_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pvae" or name.startswith("pvae."))]


class Patches:
    """Rebind functions and methods of the package; `undo` restores them."""

    def __init__(self):
        self._undo = []

    def function(self, module: str, attr: str, make_wrapper) -> bool:
        orig = getattr(importlib.import_module(module), attr, None)
        if orig is None:
            return False
        wrapper = make_wrapper(orig)
        for mod in _pvae_modules():
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
        return True

    def method(self, module: str, cls: str, attr: str, make_wrapper) -> bool:
        klass = getattr(importlib.import_module(module), cls, None)
        if klass is None or attr not in vars(klass):
            return False
        orig = vars(klass)[attr]
        self._undo.append((klass, attr, orig))
        setattr(klass, attr, make_wrapper(orig))
        return True

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Tracer:
    """Span statistics for the package's layer boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.ops: list[str] = []
        self.missing: list[str] = []
        self._open = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches = Patches()

    def _span(self, name: str, fn, after=None):
        open_, stack = self._open, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            open_[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                open_[name] -= 1
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args)
            return result

        return wrapper

    def _count_bytes(self, args):
        self.counts["checkpoint.bytes"] += os.path.getsize(args[0])

    def install(self) -> None:
        import pvae.autodiff as ad

        patches = self._patches
        self.ops = sorted(
            name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_") and name not in NOT_OPS)
        for op in self.ops:
            patches.function(ad.__name__, op,
                             lambda fn, op=op: self._span(f"autodiff.{op}", fn))
        for module, attr, span in FUNCTIONS:
            after = self._count_bytes if span in CHECKPOINT_IO else None
            if not patches.function(module, attr,
                                    lambda fn, s=span, a=after: self._span(s, fn, a)):
                self.missing.append(f"{module}.{attr}")
        for module, cls, attr, span in METHODS:
            if not patches.method(module, cls, attr,
                                  lambda fn, s=span: self._span(s, fn)):
                self.missing.append(f"{module}.{cls}.{attr}")

        def count_tensor(init):
            def wrapper(obj, *args, **kwargs):
                self.counts["autodiff.tensor.count"] += 1
                init(obj, *args, **kwargs)
            return wrapper

        if not patches.method(ad.__name__, "Tensor", "__init__", count_tensor):
            self.missing.append(f"{ad.__name__}.Tensor.__init__")

    def uninstall(self) -> None:
        self._patches.undo()

    def snapshot(self) -> dict:
        """Per-layer figures accumulated so far, keyed by metric name."""
        out = {}
        op_spans = [f"autodiff.{op}" for op in self.ops]
        out["autodiff.op.calls"] = sum(self.calls[s] for s in op_spans)
        out["autodiff.op.self_ms"] = 1e3 * sum(self.self_time[s] for s in op_spans)
        for op in NAMED_OPS:
            out[f"autodiff.{op}.calls"] = self.calls[f"autodiff.{op}"]
            out[f"autodiff.{op}.self_ms"] = 1e3 * self.self_time[f"autodiff.{op}"]
        out["autodiff.tensor.count"] = self.counts["autodiff.tensor.count"]
        for span in ("nn.LinearLayer", "nn.GruLayer.step", "nn.Adam.step", "dsp.stft"):
            out[f"{span}.calls"] = self.calls[span]
        for _, _, span in FUNCTIONS:
            out[f"{span}.ms"] = 1e3 * self.total[span]
        for _, _, _, span in METHODS:
            out[f"{span}.ms"] = 1e3 * self.total[span]
        out["pipeline.enhance.calls"] = self.calls["pipeline.enhance"]
        out["checkpoint.bytes"] = self.counts["checkpoint.bytes"]
        return out


class StepTimer:
    """Training-step time and frames inside the package's own epoch loop.

    A step runs from a loss call that records a graph (validation losses,
    built under `no_grad`, do not) to the end of the next `Adam.step`; its
    frames are the loss batch's sequences times their length. Install it
    after a `Tracer`, so that it wraps the traced functions.
    """

    LOSSES = (("pvae.diploss", "dip_total_loss", 1),
              ("pvae.nsvae", "permutation_loss", 3))

    def __init__(self):
        self.frames = 0
        self.seconds = 0.0
        self._start = None
        self._batch_frames = 0
        self._patches = Patches()

    def install(self) -> None:
        clock = time.perf_counter

        def loss_hook(fn, batch_arg):
            def wrapper(*args, **kwargs):
                t0 = clock()
                loss = fn(*args, **kwargs)
                if loss.requires_grad:
                    shape = args[batch_arg].shape
                    self._start, self._batch_frames = t0, shape[0] * shape[1]
                return loss
            return wrapper

        def step_hook(step):
            def wrapper(opt):
                step(opt)
                if self._start is not None:
                    self.seconds += clock() - self._start
                    self.frames += self._batch_frames
                    self._start = None
            return wrapper

        for module, attr, batch_arg in self.LOSSES:
            self._patches.function(module, attr,
                                   lambda fn, i=batch_arg: loss_hook(fn, i))
        self._patches.method("pvae.nn", "Adam", "step", step_hook)

    def uninstall(self) -> None:
        self._patches.undo()
