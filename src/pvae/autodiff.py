"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based engine: every operation on a `Tensor` whose inputs require
gradients records a backward closure, `backward()` walks the recorded graph
once in reverse topological order and accumulates gradients into the leaves.
Scalar losses only; the graph is freed during the backward pass, so there are
no higher-order derivatives.

Shape discipline is strict on purpose: elementwise ops require identical
shapes, the single exception being a scalar (0-d) operand combined with a
tensor.  Anything else goes through an explicit op, which keeps every
gradient rule auditable: `broadcast_rows` (covariance centering), or the
sequence ops `linear_seq` and `gru_seq`, which add bias rows inside a layer
over a whole time-major stack and carry hand-written backward passes.

Gradients are summed without mutating any array that a `grad` ever pointed
to: an op adds its terms into buffers it owns and binds `grad` once, so an
array passed down the graph may be shared between nodes and leaves.

The sequence ops hand each large forward product to `parallel.by_frames`,
which may run half its frames on a second core. In the backward the caller
walks the chain (a GRU's BPTT loop, the input-gradient products) while, from
the same `parallel` gate, the worker sums the weight gradients
(`_WeightSums`), each block of frames a `parallel.Tasks` task started as
soon as its terms exist; the op's `Tasks` block waits for every block before
it binds a gradient or raises. A frame is the same BLAS call whichever
thread makes it, and each sum keeps its order, so every byte is the same as
on one thread.
"""

from __future__ import annotations

import threading
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import parallel


class NumericError(RuntimeError):
    """An operation produced NaN or Inf, or a gradient went non-finite.

    `row` is the first row (index along axis 0) of the offending result that
    holds one, when the result has rows; on a time-major (T*B, .) stack it
    locates the frame.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


_ALLOWED = (np.dtype(np.float32), np.dtype(np.float64))

_state = threading.local()


def _grad_enabled() -> bool:
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that suppresses graph recording (inference mode)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def _validate(data: np.ndarray, where: str) -> None:
    finite = np.isfinite(data)
    if not finite.all():
        row = None if data.ndim == 0 else int(np.argmin(finite.reshape(len(data), -1).all(axis=1)))
        raise NumericError(f"{where}: non-finite values in result", row)


class Tensor:
    """A numpy array plus an optional gradient and a backward closure.

    `data` is float32 or float64; `grad`, once materialized, always matches
    `data` in shape and dtype.  An array bound to `grad` is never mutated in
    place: each accumulation rebinds `grad` (the sequence ops compute their
    per-frame weight terms as stacked products, a block of at most
    `_BLOCK_BYTES` at a time, add them in frame order into a buffer of
    their own and bind it once), so aliasing a propagated array is safe.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in _ALLOWED:
            arr = arr.astype(np.float64)
        _validate(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item: tensor has {self.data.size} elements")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    if a.data.shape == b.data.shape:
        return
    # scalar-with-tensor is the only implicit broadcast
    if a.data.ndim == 0 or b.data.ndim == 0:
        return
    raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")


def _reduce_to(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # collapse a broadcast gradient back onto a scalar operand
    if grad.shape == shape:
        return grad
    return np.sum(grad).reshape(shape).astype(grad.dtype)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    g = _reduce_to(g, t.data.shape)
    t.grad = g if t.grad is None else t.grad + g


def _result(data: np.ndarray, parents: tuple[Tensor, ...],
            backward_fn: Callable[[np.ndarray], None], op: str,
            scanned: bool = False) -> Tensor:
    # `scanned`: the op has already checked every value that could make
    # `data` non-finite, so the scan is not repeated
    if scanned:
        out = Tensor.__new__(Tensor)
        out.data, out.grad, out.requires_grad = data, None, False
        out._parents, out._backward = (), None
    else:
        try:
            out = Tensor(data)             # the one finiteness scan
        except NumericError as exc:
            raise NumericError(f"{op}: non-finite values in result", exc.row) from None
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# elementwise binary ops
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a = _as_tensor(a, b.dtype if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a.dtype)
    _check_elementwise(a, b, "add")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return _result(a.data + b.data, (a, b), back, "add")


def sub(a, b) -> Tensor:
    a = _as_tensor(a, b.dtype if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a.dtype)
    _check_elementwise(a, b, "sub")

    def back(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return _result(a.data - b.data, (a, b), back, "sub")


def mul(a, b) -> Tensor:
    a = _as_tensor(a, b.dtype if isinstance(b, Tensor) else None)
    b = _as_tensor(b, a.dtype)
    _check_elementwise(a, b, "mul")
    ad, bd = a.data, b.data

    def back(g):
        _accumulate(a, g * bd)
        _accumulate(b, g * ad)

    return _result(ad * bd, (a, b), back, "mul")


# ---------------------------------------------------------------------------
# matrix ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(f"matmul: expects 2-d operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims differ, {a.data.shape} @ {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"matmul: dtype mismatch {a.data.dtype} vs {b.data.dtype}")
    ad, bd = a.data, b.data

    def back(g):
        _accumulate(a, g @ bd.T)
        _accumulate(b, ad.T @ g)

    return _result(ad @ bd, (a, b), back, "matmul")


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ValueError(f"transpose: expects a 2-d tensor, got shape {a.data.shape}")

    def back(g):
        _accumulate(a, g.T)

    return _result(a.data.T.copy(), (a,), back, "transpose")


def broadcast_rows(v: Tensor, n: int) -> Tensor:
    """Tile a 1-d tensor into n identical rows; gradient sums back over rows."""
    if v.data.ndim != 1:
        raise ValueError(f"broadcast_rows: expects a 1-d tensor, got shape {v.data.shape}")
    if n < 1:
        raise ValueError("broadcast_rows: n must be >= 1")

    def back(g):
        _accumulate(v, g.sum(axis=0))

    return _result(np.broadcast_to(v.data, (n, v.data.shape[0])).copy(), (v,), back, "broadcast_rows")


# ---------------------------------------------------------------------------
# sequence ops over time-major stacks
# ---------------------------------------------------------------------------
# Row t*B + b of a (T*B, F) stack is frame t of sequence b. Products run as
# one stacked np.matmul over the (T, B, F) view, which makes the same (B, F)
# BLAS call for every frame that a frame-by-frame loop makes: frame t's
# result does not depend on T, which is what keeps the encoders causal to
# the last bit.  A flat (T*B, F) product would not (BLAS picks its kernel by
# shape).
#
# The backward passes add up gradients in the order of the equivalent
# per-frame graph of primitive ops (a frame's weight gradient is its own
# (F, B) @ (B, H) product, added frame by frame), so training takes the
# same steps to the last bit: one (F, T*B) @ (T*B, H) product would round
# differently, and training amplifies that into different models.
# `_add_terms` computes a block of frames' terms lhs[t].T @ d[t] as one
# stacked product (the BLAS call a frame-by-frame loop makes, frame by
# frame) and adds them one by one, in frame order, into a buffer the op
# owns. `_WeightSums` runs it block after block, on the worker while the
# caller has other work (a GRU's BPTT loop, a linear layer's input
# gradient), else here. `_BLOCK_BYTES` bounds a block: all 32 frames of a
# 64-wide layer fit in one, a 512 x 512 float32 weight takes four, and no
# (T, in, out) stack of every frame is built. The input-gradient products
# run here as plain stacked products. `_sum_bias_terms` adds the per-frame
# batch sums with `np.add.accumulate`, which is sequential; `np.add.reduce`
# over the frames would sum pairwise when a row has one element. Each binds
# the parameter's `grad` once per op.

def _frames(x: Tensor, n_batch: int, op: str) -> np.ndarray:
    """The C-contiguous (T, B, F) view of a time-major stack."""
    if x.data.ndim != 2 or n_batch < 1 or x.data.shape[0] % n_batch:
        raise ValueError(f"{op}: {x.data.shape} is not a time-major stack of batch {n_batch}")
    rows, width = x.data.shape
    return np.ascontiguousarray(x.data).reshape(rows // n_batch, n_batch, width)


def _check_params(op: str, x: Tensor, params: Sequence[Tensor],
                  shapes: Sequence[tuple[int, ...]]) -> None:
    for p, shape in zip(params, shapes):
        if p.data.shape != shape:
            raise ValueError(f"{op}: expected a parameter of shape {shape}, got {p.data.shape}")
        if p.data.dtype != x.data.dtype:
            raise ValueError(f"{op}: dtype mismatch {x.data.dtype} vs {p.data.dtype}")


_BLOCK_BYTES = 4 << 20      # bytes of stacked weight terms computed at once


def _add_terms(acc: np.ndarray, fresh: bool, terms: np.ndarray, lhs: np.ndarray,
               d: np.ndarray) -> None:
    """Add the per-frame terms lhs[t].T @ d[t] of a block of frames of the
    (k, B, .) stacks to `acc`, in the order of the frames: one stacked
    product into the (k, in, out) `terms`, then one add per frame. With
    `fresh` the first term is copied into `acc`, which starts the sum."""
    np.matmul(lhs.transpose(0, 2, 1), d, out=terms)
    for i, term in enumerate(terms):
        if fresh and not i:
            np.copyto(acc, term)
        else:
            np.add(acc, term, out=acc)


def _accumulator(p: Tensor) -> tuple[np.ndarray, bool]:
    """A buffer for `p`'s gradient sum, and whether the sum starts there
    (no G): a copy of G = `p.grad` when set, so the array `grad` points to
    is never written."""
    if p.grad is None:
        return np.empty_like(p.data), True
    return p.grad.copy(), False


class _WeightSums:
    """The weight-gradient sums of a sequence op's backward. For each
    (p, lhs, d), the per-frame terms lhs[t].T @ d[t] of the (T, B, .) stacks
    are added in the order of their frames, ((G + g_0) + g_1) + ..., G being
    `p.grad` if set; reversed views give last-frame-first sums.

    The sums run in blocks of frames, a block being the frames whose terms of
    the largest weight fit in `_BLOCK_BYTES`. `made(n)` runs each block that
    the first n frames complete: as a task of `tasks`, else here. Blocks run
    in the order they are started, so each sum keeps its order whichever
    thread runs it. The caller allocates the accumulators and the one term
    buffer that the blocks share: the worker runs one block at a time, and a
    task that allocates on the worker would grow a malloc arena of that
    thread. `bind()` follows the end of the `tasks` block.
    """

    def __init__(self, weights: Sequence[tuple[Tensor, np.ndarray, np.ndarray]],
                 tasks: parallel.Tasks | None):
        self.weights = [w for w in weights if w[0].requires_grad and len(w[2])]
        self.accs = [_accumulator(p) for p, _, _ in self.weights]
        self.tasks = tasks
        self.blocks: list[tuple[int, int]] = []
        if self.weights:
            largest = max((p.data for p, _, _ in self.weights), key=np.size)
            n_frames, per_block = len(weights[0][2]), max(1, _BLOCK_BYTES // largest.nbytes)
            self.blocks = [(lo, min(lo + per_block, n_frames))
                           for lo in range(0, n_frames, per_block)]
            self.terms = np.empty(min(per_block, n_frames) * largest.size, largest.dtype)

    def made(self, n: int) -> None:
        """The d rows of the first n frames exist: start each block they
        complete."""
        while self.blocks and self.blocks[0][1] <= n:
            block = partial(self._block, *self.blocks.pop(0))
            if self.tasks is None:
                block()
            else:
                self.tasks.start(block)

    def _block(self, lo: int, hi: int) -> None:
        for (p, lhs, d), (acc, fresh) in zip(self.weights, self.accs):
            terms = self.terms[:(hi - lo) * p.data.size].reshape((hi - lo,) + p.data.shape)
            _add_terms(acc, fresh and not lo, terms, lhs[lo:hi], d[lo:hi])

    def bind(self) -> None:
        """Bind each sum as its parameter's `grad`."""
        for (p, _, _), (acc, _) in zip(self.weights, self.accs):
            p.grad = acc


def _sum_bias_terms(p: Tensor, d: np.ndarray) -> None:
    """Add the per-frame batch sums of the (T, B, H) stack `d` to bias `p`
    in frame order, after `p.grad` if set, as one sequential accumulate."""
    if not p.requires_grad:
        return
    rows = np.sum(d, axis=1)
    if p.grad is not None:
        rows = np.concatenate((p.grad[None], rows))
    if len(rows):
        p.grad = np.add.accumulate(rows)[-1]


def linear_seq(x: Tensor, weight: Tensor, bias: Tensor, n_batch: int,
               relu: bool = False, last_frame_first: bool = False) -> Tensor:
    """(x @ W) + b per frame of a time-major (T*B, in) stack, then ReLU if
    `relu`; W is (in, out).

    Weight and bias gradients are added frame by frame, from frame 0 up, or
    from frame T-1 down with `last_frame_first`: the order in which a layer
    that feeds a recurrence receives them through time. From `parallel`'s
    gate the worker sums the weight gradient while the input gradient runs
    here; a layer with no input gradient sums it here.
    """
    x3 = _frames(x, n_batch, "linear_seq")
    n_in, n_out = x3.shape[2], weight.data.shape[-1]
    if weight.data.shape[0] != n_in:
        raise ValueError(f"linear_seq: expected (rows, {weight.data.shape[0]}), got {x.data.shape}")
    _check_params("linear_seq", x, (weight, bias), ((n_in, n_out), (n_out,)))
    wd = weight.data
    macs = x3.size * n_out
    pre3 = np.empty(x3.shape[:2] + (n_out,), x3.dtype)
    parallel.by_frames(len(x3), macs, lambda lo, hi: np.add(
        np.matmul(x3[lo:hi], wd, out=pre3[lo:hi]), bias.data, out=pre3[lo:hi]))
    pre = pre3.reshape(-1, n_out)
    if relu:
        _validate(pre, "linear_seq")       # relu would turn a -inf into 0
        mask = pre > 0
    out = np.maximum(pre, 0) if relu else pre

    def back(g):
        if relu:
            g = g * mask
        g3 = g.reshape(x3.shape[:2] + (n_out,))
        xs, gs = (x3[::-1], g3[::-1]) if last_frame_first else (x3, g3)
        with parallel.Tasks() as tasks:
            # with no input gradient to run meanwhile, the worker would only
            # add a hand-off
            sums = _WeightSums([(weight, xs, gs)],
                               tasks if x.requires_grad and parallel.splits(macs) else None)
            sums.made(len(x3))
            if x.requires_grad:
                _accumulate(x, np.matmul(g3, wd.T).reshape(-1, n_in))
            _sum_bias_terms(bias, gs)
        sums.bind()

    return _result(out, (x, weight, bias), back, "linear_seq", scanned=relu)


def gru_project(x: Tensor, params: Sequence[Tensor],
                n_batch: int) -> tuple[np.ndarray, np.ndarray]:
    """The input projections x W_r, x W_z and x W_h of a GRU (`params` as in
    `gru_seq`) for every frame of a time-major (T*B, in) stack, as stacked
    products: (a_rz, a_h), a_rz[t] holding frame t's r and z halves, of
    shapes (T, 2, B, H) and (T, B, H). No graph is recorded."""
    W_r, W_z, W_h = params[:3]
    H = W_r.data.shape[-1]
    x3 = _frames(x, n_batch, "gru_seq")
    n_frames, _, n_in = x3.shape
    _check_params("gru_seq", x, params, [(n_in, H)] * 3 + [(H, H)] * 3 + [(H,)] * 3)
    a_rz = np.empty((n_frames, 2, n_batch, H), x3.dtype)
    a_h = np.empty((n_frames, n_batch, H), x3.dtype)

    def project(lo, hi):
        for out, w in ((a_rz[lo:hi, 0], W_r), (a_rz[lo:hi, 1], W_z), (a_h[lo:hi], W_h)):
            np.matmul(x3[lo:hi], w.data, out=out)

    parallel.by_frames(n_frames, 3 * x3.size * H, project)
    return a_rz, a_h


def gru_recur(a_rz: np.ndarray, a_h: np.ndarray, h0: np.ndarray,
              params: Sequence[Tensor]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run a GRU from the (B, H) state h0 over the input projections of
    `gru_project`, which become the gate pre-activations in place. Returns
    (hs, gates, cands): the states hs (T+1, B, H) with hs[0] = h0, and the
    gates (r, z) and candidates h~ of each frame. A non-finite pre-activation
    raises `NumericError` at the first frame that holds one."""
    U_r, U_z, U_h, b_r, b_z, b_h = params[3:]
    n_frames, _, n_batch, H = a_rz.shape
    hs = np.empty((n_frames + 1, n_batch, H), dtype=a_h.dtype)  # hs[t] = h_{t-1}
    gates, cands = np.empty_like(a_rz), np.empty_like(a_h)      # (r, z), h~
    rs, zs = gates[:, 0], gates[:, 1]
    hs[0] = h0
    for t in range(n_frames):
        h, a = hs[t], a_rz[t]
        for half, U, b in ((0, U_r, b_r), (1, U_z, b_z)):
            a[half] += h @ U.data
            a[half] += b.data
        gates[t] = _sigmoid(a)
        a_h[t] += (rs[t] * h) @ U_h.data
        a_h[t] += b_h.data
        cands[t] = np.tanh(a_h[t])
        hs[t + 1] = (1.0 - zs[t]) * h + zs[t] * cands[t]
    # sigmoid and tanh would hide an overflowed product; h stays finite otherwise
    finite = np.isfinite(a_rz).all(axis=(1, 3)) & np.isfinite(a_h).all(axis=2)
    if not finite.all():
        raise NumericError("gru_seq: non-finite values in result",
                           int(np.argmin(finite.reshape(-1))))
    return hs, gates, cands


def gru_seq(x: Tensor, h0: Tensor, params: Sequence[Tensor]) -> Tensor:
    """Hidden states h_1..h_T, as a (T*B, H) stack, of the GRU documented in
    `nn.GruLayer` over a time-major (T*B, in) stack from the (B, H) state h0.

    `params` is (W_r, W_z, W_h, U_r, U_z, U_h, b_r, b_z, b_h). The input
    projections x W of all frames are stacked products (`gru_project`); only
    the h U products run frame by frame (`gru_recur`). Each gate is computed
    as (x W + h U) + b, in the order of the gate equations, so the states are
    bit-identical to those of single-frame calls, and to those of calls over
    consecutive runs of frames that carry the state. The gates are not fused
    into one [W_r|W_z|W_h] product: at some small widths BLAS rounds that
    differently from the three separate products. The backward pass is
    backpropagation through time into x, h0 and all nine weights. The six
    weight gradients are summed block by block as the loop makes each block
    (`_WeightSums`): from `parallel`'s gate on the worker, while the loop goes
    on here; below it, or on one core, here between the loop's frames. The
    input gradient runs here after the loop. The bytes are the same.
    """
    W_r, W_z, W_h, U_r, U_z, U_h, b_r, b_z, b_h = params
    H = W_r.data.shape[-1]
    if h0.data.ndim != 2 or h0.data.shape[1] != H or h0.data.dtype != x.data.dtype:
        raise ValueError(f"gru_seq: state shape {h0.data.shape} ({h0.data.dtype}) does not "
                         f"match (batch, {H}) ({x.data.dtype})")
    n_batch = h0.data.shape[0]
    a_rz, a_h = gru_project(x, params, n_batch)
    hs, gates, cands = gru_recur(a_rz, a_h, h0.data, params)
    x3 = _frames(x, n_batch, "gru_seq")
    n_frames, _, n_in = x3.shape
    rs, zs = gates[:, 0], gates[:, 1]

    def back(g):
        g3 = g.reshape(n_frames, n_batch, H)
        d_r, d_z, d_h = (np.empty_like(a_h) for _ in range(3))  # d pre-activations
        h_prev = hs[:-1]
        to_prev = ()                   # frame t+1's terms of dL/dh_t
        with parallel.Tasks() as tasks:
            # each parameter's sum runs from the last frame down
            sums = _WeightSums([(p, lhs[::-1], d[::-1]) for p, lhs, d in (
                (W_r, x3, d_r), (W_z, x3, d_z), (W_h, x3, d_h),
                (U_r, h_prev, d_r), (U_z, h_prev, d_z), (U_h, rs * h_prev, d_h))],
                tasks if parallel.splits(n_frames * n_batch * max(n_in, H) * H) else None)
            # each line repeats the per-frame graph's ops in its order (dh*c
            # + -(dh*h), not dh*(c-h)), so the gradients keep their bytes
            for t in range(n_frames - 1, -1, -1):
                dh = g3[t]
                for term in to_prev:
                    dh = dh + term
                h, r, z, c = hs[t], rs[t], zs[t], cands[t]
                d_z[t] = ((dh * c + -(dh * h)) * z) * (1.0 - z)
                d_h[t] = (dh * z) * (1.0 - c * c)
                d_rh = d_h[t] @ U_h.data.T
                d_r[t] = ((d_rh * h) * r) * (1.0 - r)
                to_prev = (dh * (1.0 - z), d_z[t] @ U_z.data.T, d_rh * r, d_r[t] @ U_r.data.T)
                sums.made(n_frames - t)
            # in the per-frame graph, b_h's terms arrive from frame 0 up
            for p, d in ((b_r, d_r[::-1]), (b_z, d_z[::-1]), (b_h, d_h)):
                _sum_bias_terms(p, d)
            for term in to_prev:
                _accumulate(h0, term)
            if x.requires_grad:        # (d_z W_zᵀ + d_h W_hᵀ) + d_r W_rᵀ, per frame
                gx = np.matmul(d_z, W_z.data.T)
                gx += np.matmul(d_h, W_h.data.T)
                gx += np.matmul(d_r, W_r.data.T)
                _accumulate(x, gx.reshape(-1, n_in))
        sums.bind()

    return _result(hs[1:].reshape(-1, H), (x, h0, *params), back, "gru_seq", scanned=True)


# ---------------------------------------------------------------------------
# elementwise unary ops
# ---------------------------------------------------------------------------

def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def back(g):
        _accumulate(a, g * out_data)

    return _result(out_data, (a,), back, "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log: non-positive input")
    ad = a.data

    def back(g):
        _accumulate(a, g / ad)

    return _result(np.log(ad), (a,), back, "log")


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0):
        raise ValueError("sqrt: negative input")
    out_data = np.sqrt(a.data)

    def back(g):
        _accumulate(a, g * (0.5 / out_data))

    return _result(out_data, (a,), back, "sqrt")


def reciprocal(a: Tensor) -> Tensor:
    if np.any(a.data == 0):
        raise ValueError("reciprocal: zero input")
    out_data = 1.0 / a.data

    def back(g):
        _accumulate(a, -g * out_data * out_data)

    return _result(out_data, (a,), back, "reciprocal")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # piecewise form avoids exp overflow for large |x|: 1/(1+e^-x) for
    # x >= 0 and e^x/(1+e^x) below, both through e = exp(-|x|)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def square(a: Tensor) -> Tensor:
    ad = a.data

    def back(g):
        _accumulate(a, g * (2.0 * ad))

    return _result(ad * ad, (a,), back, "square")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(a, floor) elementwise; gradient passes only where a > floor."""
    mask = a.data > floor

    def back(g):
        _accumulate(a, g * mask)

    return _result(np.maximum(a.data, floor), (a,), back, "clamp_min")


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape

    def back(g):
        g = g if axis is None else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, shape).copy())

    return _result(np.sum(a.data, axis=axis), (a,), back, "sum")


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    shape = a.data.shape
    count = a.data.size if axis is None else shape[axis]

    def back(g):
        g = g / count if axis is None else np.expand_dims(g / count, axis)
        _accumulate(a, np.broadcast_to(g, shape).copy())

    return _result(np.mean(a.data, axis=axis), (a,), back, "mean")


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf.

    The loss must be scalar.  Each node is visited exactly once, in reverse
    topological order; graph edges are dropped as they are consumed, so a
    second backward through the same graph is not possible.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise ValueError("backward: loss does not require grad (no graph recorded)")

    order = _topo_order(loss)
    loss.grad = np.ones((), dtype=loss.data.dtype)
    for node in reversed(order):
        fn = node._backward
        if fn is None:
            continue
        g = node.grad
        if g is None:
            # a recorded node whose output never reached the loss
            continue
        if not np.all(np.isfinite(g)):
            raise NumericError("backward: non-finite gradient")
        fn(g)
        node._parents = ()
        node._backward = None
