"""Neural building blocks: fully-connected layers, a uni-directional GRU,
the encoder trunk the three models share, Glorot-uniform initialization,
global-norm gradient clipping, and Adam.

Layers run on whole time-major (T*B, features) stacks, row t*B + b being
frame t of sequence b, through the sequence ops `autodiff.linear_seq` and
`autodiff.gru_seq`. Those ops make the same per-frame BLAS calls a
frame-by-frame loop would, so the output for frame t never changes when
later frames are appended: the encoders are causal bit for bit. Large
forward products (x @ W) may run half their frames on the second core
(`parallel.by_frames`), with the same bytes; the h @ U recurrence stays on
the caller. In a wide layer's backward the second core sums the weight
gradients while the caller runs the BPTT loop and the input gradients, and
a wide `Adam.step` updates half its parameters there; each joins its tasks
through `parallel.Tasks`. A GRU's forward
also runs in its two parts, `project` and `recur`, the recurrence from a
given state, so that a sequence can run in chunks of frames with the bytes
of one call.

The training step never writes an array a caller may hold: the ops sum
gradients in buffers they own and bind `grad` once, `clip_grad_norm` binds
a new `grad`, and `Adam` writes only its own moment buffers and binds a new
`p.data`. `clip_grad_norm` raises on a non-finite gradient and `Adam`
checks every gradient before it writes anything.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import NumericError, Tensor


def init_parameters(fan_in: int, fan_out: int, rng: np.random.Generator | None,
                    dtype=np.float64) -> np.ndarray:
    """Glorot-uniform draw of shape (fan_in, fan_out): U(+/- sqrt(6/(in+out))).

    With `rng` None nothing is drawn and the result is zeros.
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"init_parameters: dims must be positive, got {fan_in}, {fan_out}")
    if rng is None:
        return np.zeros((fan_in, fan_out), dtype=dtype)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


class Module:
    """Anything that owns parameters, named by one walk: a composite lists
    its sub-layers as ordered (prefix, layer) pairs in `layers()`, and a leaf
    layer overrides `named_parameters` with its own tensors. That order fixes
    checkpoint names, Adam state order and the summation order of
    `clip_grad_norm`.

    Layers draw their weights from the `rng` they are built with; built with
    `rng=None` they draw nothing and hold zeros, a skeleton for
    `checkpoint.load_parameters` to fill.
    """

    def layers(self) -> list[tuple[str, Module]]:
        raise NotImplementedError

    def named_parameters(self) -> dict[str, Tensor]:
        return {f"{prefix}.{name}": p for prefix, layer in self.layers()
                for name, p in layer.named_parameters().items()}

    def parameters(self) -> list[Tensor]:
        return list(self.named_parameters().values())

    def freeze(self) -> None:
        """Make all parameters gradient-free (pretrained target models)."""
        for p in self.parameters():
            p.requires_grad = False


class LinearLayer(Module):
    """y = activation(x @ W + b) per frame of a time-major (T*B, in_dim)
    stack; a plain (batch, in_dim) matrix is one frame.

    `weight` is stored (in_dim, out_dim); activation is "relu" or "none".
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "none",
                 rng: np.random.Generator | None = None, dtype=np.float64):
        if activation not in ("relu", "none"):
            raise ValueError(f"activation must be 'relu' or 'none', got {activation!r}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = Tensor(init_parameters(in_dim, out_dim, rng, dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor, n_batch: int | None = None,
                 last_frame_first: bool = False) -> Tensor:
        return ad.linear_seq(x, self.weight, self.bias, n_batch or x.data.shape[0],
                             relu=self.activation == "relu",
                             last_frame_first=last_frame_first)

    def named_parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class GruLayer(Module):
    """Single uni-directional GRU over a time-major (T*B, in_dim) stack.

    Gate equations (one of several conventions in circulation; this one is
    fixed here and serialized with checkpoints):

        r   = sigmoid(x W_r + h U_r + b_r)
        z   = sigmoid(x W_z + h U_z + b_z)
        h~  = tanh(x W_h + (r * h) U_h + b_h)
        h_t = (1 - z) * h + z * h~

    With all-zero weights z = 0.5 and h~ = 0, so h_t = 0.5 h_prev.
    A call starts from the zero state, so callers feed whole utterances
    (segments), never continuations. `ad.gru_seq` is the one implementation;
    `step` is its single-frame call from a given state, and `project` and
    `recur` are its forward in two parts, without the graph.
    """

    def __init__(self, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim

        def w(n_in, n_out):
            return Tensor(init_parameters(n_in, n_out, rng, dtype), requires_grad=True)

        def b():
            return Tensor(np.zeros(hidden_dim, dtype=dtype), requires_grad=True)

        self.W_r, self.W_z, self.W_h = w(in_dim, hidden_dim), w(in_dim, hidden_dim), w(in_dim, hidden_dim)
        self.U_r, self.U_z, self.U_h = (w(hidden_dim, hidden_dim) for _ in range(3))
        self.b_r, self.b_z, self.b_h = b(), b(), b()

    def initial_state(self, batch: int) -> Tensor:
        return Tensor(np.zeros((batch, self.hidden_dim), dtype=self.W_r.data.dtype))

    def __call__(self, x: Tensor, n_batch: int) -> Tensor:
        """Hidden states, (T*B, hidden), from the zero state."""
        return ad.gru_seq(x, self.initial_state(n_batch), self.parameters())

    def step(self, x_t: Tensor, h_prev: Tensor) -> Tensor:
        return ad.gru_seq(x_t, h_prev, self.parameters())

    def project(self, x: Tensor, n_batch: int) -> tuple[np.ndarray, np.ndarray]:
        """The input projections of every frame (`ad.gru_project`)."""
        return ad.gru_project(x, self.parameters(), n_batch)

    def recur(self, projections: tuple[np.ndarray, np.ndarray], h0: np.ndarray) -> np.ndarray:
        """States h_0..h_T, (T+1, B, hidden), from the (B, hidden) state h0 over
        `project`'s result, which it consumes (`ad.gru_recur`)."""
        return ad.gru_recur(*projections, h0, self.parameters())[0]

    def named_parameters(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in
                ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")}


class EncoderTrunk(Module):
    """3 FC-ReLU layers into a GRU: the front of every encoder."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator | None,
                 dtype=np.float64):
        self.fc = [LinearLayer(n_in, hidden_dim, activation="relu", rng=rng, dtype=dtype)
                   for n_in in (in_dim, hidden_dim, hidden_dim)]
        self.gru = GruLayer(hidden_dim, hidden_dim, rng=rng, dtype=dtype)

    def layers(self) -> list[tuple[str, Module]]:
        return [(f"fc{i}", layer) for i, layer in enumerate(self.fc)] + [("gru", self.gru)]

    def front(self, x: Tensor, n_batch: int) -> Tensor:
        """The FC layers: the GRU's input stack."""
        h = x
        for layer in self.fc:
            # these frames' gradients come out of the GRU's backward last frame first
            h = layer(h, n_batch, last_frame_first=True)
        return h

    def __call__(self, x: Tensor, n_batch: int) -> Tensor:
        return self.gru(self.front(x, n_batch), n_batch)


@contextmanager
def stage(name: str, n_batch: int, first_frame: int = 0):
    """Re-raise a `NumericError` from an op on a time-major stack of batch
    `n_batch` as "<name> frame <t>: <op>: ...", the stack's frame 0 being
    frame `first_frame` of the sequence."""
    try:
        yield
    except NumericError as exc:
        where = name if exc.row is None else f"{name} frame {first_frame + exc.row // n_batch}"
        raise NumericError(f"{where}: {exc}") from exc


def clip_grad_norm(params: list[Tensor], max_norm: float = 5.0) -> float:
    """Scale all gradients so their global L2 norm is <= max_norm.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    A scaled gradient is a new array bound to `grad`; the old one is not
    written. A non-finite norm raises `NumericError` before any gradient is
    scaled, naming the first parameter with a non-finite gradient.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            sq = p.grad.astype(np.float64)         # a copy, so squared in place
            total += float(np.sum(np.square(sq, out=sq)))
    norm = float(np.sqrt(total))
    if not np.isfinite(norm):
        bad = [i for i, p in enumerate(params)
               if p.grad is not None and not np.isfinite(p.grad).all()]
        where = f"parameter {bad[0]}: non-finite gradient" if bad else "the norm overflows"
        raise NumericError(f"clip_grad_norm: {where}")
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = (p.grad * scale).astype(p.grad.dtype, copy=False)
    return norm


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a fixed parameter list.

    Step t uses m_hat = m/(1-b1^t), v_hat = v/(1-b2^t) and
    theta -= lr * m_hat / (sqrt(v_hat) + eps), with b1, b2 and eps the
    ADAM_* constants. Zero gradients leave parameters exactly unchanged
    because m and v stay zero. `m` and `v` are updated in place; `p.data`
    is rebound to a new array. A gradient must match its parameter in
    shape and dtype. Each update is elementwise, so the worker may run some
    of them (`step`) with the same bytes.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update of every parameter with a gradient. Every gradient is
        checked before anything is written, so a rejected step leaves `t`,
        `m`, `v` and every `p.data` as they were. From `parallel`'s gate (an
        update's 14 elementwise passes counted as multiply-adds), the worker
        updates the second of two runs of parameters of about equal size
        while this thread updates the first."""
        todo = [i for i, p in enumerate(self.params) if p.grad is not None]
        for i in todo:
            p, g = self.params[i], self.params[i].grad
            if g.shape != p.data.shape:
                raise ValueError(f"adam: parameter {i}: gradient shape {g.shape} does not "
                                 f"match parameter shape {p.data.shape}")
            if g.dtype != p.data.dtype:
                raise ValueError(f"adam: parameter {i}: gradient dtype {g.dtype} does not "
                                 f"match parameter dtype {p.data.dtype}")
        self.t += 1
        sizes = [self.params[i].data.size for i in todo]
        if not todo or not parallel.splits(14 * sum(sizes)):
            self._update(todo)
            return
        ends = np.cumsum(sizes)
        cut = int(np.argmin(np.abs(2 * ends - ends[-1]))) + 1
        # the caller allocates what the worker fills, so the worker thread
        # grows no malloc arena of its own
        buffers = [[np.empty_like(self.params[i].data) for _ in range(3)] for i in todo[cut:]]
        with parallel.Tasks() as tasks:
            tasks.start(lambda: self._update(todo[cut:], buffers))
            self._update(todo[:cut])

    def _update(self, indices: list[int], buffers: list | None = None) -> None:
        """Update the parameters `indices`, each with its (tmp, den, new data)
        arrays from `buffers`, or new ones."""
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for k, i in enumerate(indices):
            p, m, v = self.params[i], self.m[i], self.v[i]
            g = p.grad
            tmp, den, new = (None, None, None) if buffers is None else buffers[k]
            # the ops of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and
            # p - lr*m_hat / (sqrt(v_hat) + eps), in their order, in place
            tmp = np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            m *= ADAM_BETA1
            m += tmp
            np.multiply(g, g, out=tmp)
            tmp *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += tmp
            den = np.divide(v, b2t, out=den)
            np.sqrt(den, out=den)
            den += ADAM_EPS
            step = np.divide(m, b1t, out=tmp)
            step *= self.lr
            step /= den
            p.data = np.subtract(p.data, step, out=new)  # rebound: callers may hold the old array

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
