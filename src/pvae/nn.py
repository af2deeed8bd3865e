"""Neural building blocks: fully-connected layers, a uni-directional GRU,
the encoder trunk the three models share, the per-frame loop that runs
them over a sequence, Glorot-uniform initialization, global-norm gradient
clipping, and Adam.

Everything operates on `autodiff.Tensor` matrices laid out as
(batch, features); biases broadcast over the batch through the explicit
`broadcast_rows` op so every gradient path stays visible.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, Tensor


def init_parameters(fan_in: int, fan_out: int, rng: np.random.Generator,
                    dtype=np.float64) -> np.ndarray:
    """Glorot-uniform draw of shape (fan_in, fan_out): U(+/- sqrt(6/(in+out)))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"init_parameters: dims must be positive, got {fan_in}, {fan_out}")
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype)


class Module:
    """Anything that owns parameters, named by one walk: a composite lists
    its sub-layers as ordered (prefix, layer) pairs in `layers()`, and a leaf
    layer overrides `named_parameters` with its own tensors. That order fixes
    checkpoint names, Adam state order and the summation order of
    `clip_grad_norm`.
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
    """y = activation(x @ W + b) with x laid out (batch, in_dim).

    `weight` is stored (in_dim, out_dim); activation is "relu" or "none".
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "none",
                 rng: np.random.Generator | None = None, dtype=np.float64):
        if activation not in ("relu", "none"):
            raise ValueError(f"activation must be 'relu' or 'none', got {activation!r}")
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weight = Tensor(init_parameters(in_dim, out_dim, rng, dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        if x.data.ndim != 2 or x.data.shape[1] != self.in_dim:
            raise ValueError(
                f"linear: expected (batch, {self.in_dim}), got {x.data.shape}")
        out = ad.add(ad.matmul(x, self.weight),
                     ad.broadcast_rows(self.bias, x.data.shape[0]))
        return ad.relu(out) if self.activation == "relu" else out

    def named_parameters(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias}


class GruLayer(Module):
    """Single uni-directional GRU evaluated frame by frame over a batch.

    Gate equations (one of several conventions in circulation; this one is
    fixed here and serialized with checkpoints):

        r   = sigmoid(x W_r + h U_r + b_r)
        z   = sigmoid(x W_z + h U_z + b_z)
        h~  = tanh(x W_h + (r * h) U_h + b_h)
        h_t = (1 - z) * h + z * h~

    With all-zero weights z = 0.5 and h~ = 0, so h_t = 0.5 h_prev.
    The hidden state is owned by the caller and must be reset to zeros at
    utterance (segment) boundaries.
    """

    def __init__(self, in_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None, dtype=np.float64):
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim

        def w(n_in, n_out):
            return Tensor(init_parameters(n_in, n_out, rng, dtype), requires_grad=True)

        def b():
            return Tensor(np.zeros(hidden_dim, dtype=dtype), requires_grad=True)

        self.W_r, self.W_z, self.W_h = w(in_dim, hidden_dim), w(in_dim, hidden_dim), w(in_dim, hidden_dim)
        self.U_r, self.U_z, self.U_h = (w(hidden_dim, hidden_dim) for _ in range(3))
        self.b_r, self.b_z, self.b_h = b(), b(), b()

    def initial_state(self, batch: int, dtype=None) -> Tensor:
        dtype = dtype or self.W_r.data.dtype
        return Tensor(np.zeros((batch, self.hidden_dim), dtype=dtype))

    def step(self, x_t: Tensor, h_prev: Tensor) -> Tensor:
        if x_t.data.ndim != 2 or x_t.data.shape[1] != self.in_dim:
            raise ValueError(f"gru: expected (batch, {self.in_dim}), got {x_t.data.shape}")
        if h_prev.data.shape != (x_t.data.shape[0], self.hidden_dim):
            raise ValueError(
                f"gru: state shape {h_prev.data.shape} does not match "
                f"({x_t.data.shape[0]}, {self.hidden_dim})")
        n = x_t.data.shape[0]

        def gate(W, U, b, h_in):
            return ad.add(ad.add(ad.matmul(x_t, W), ad.matmul(h_in, U)),
                          ad.broadcast_rows(b, n))

        r = ad.sigmoid(gate(self.W_r, self.U_r, self.b_r, h_prev))
        z = ad.sigmoid(gate(self.W_z, self.U_z, self.b_z, h_prev))
        h_tilde = ad.tanh(gate(self.W_h, self.U_h, self.b_h, ad.mul(r, h_prev)))
        one_minus_z = ad.sub(1.0, z)
        return ad.add(ad.mul(one_minus_z, h_prev), ad.mul(z, h_tilde))

    def named_parameters(self) -> dict[str, Tensor]:
        return {name: getattr(self, name) for name in
                ("W_r", "W_z", "W_h", "U_r", "U_z", "U_h", "b_r", "b_z", "b_h")}


class EncoderTrunk(Module):
    """3 FC-ReLU layers into a GRU: the front of every encoder."""

    def __init__(self, in_dim: int, hidden_dim: int, rng: np.random.Generator,
                 dtype=np.float64):
        self.fc = [LinearLayer(n_in, hidden_dim, activation="relu", rng=rng, dtype=dtype)
                   for n_in in (in_dim, hidden_dim, hidden_dim)]
        self.gru = GruLayer(hidden_dim, hidden_dim, rng=rng, dtype=dtype)

    def layers(self) -> list[tuple[str, Module]]:
        return [(f"fc{i}", layer) for i, layer in enumerate(self.fc)] + [("gru", self.gru)]

    def step(self, x_t: Tensor, h_prev: Tensor) -> Tensor:
        h = x_t
        for layer in self.fc:
            h = layer(h)
        return self.gru.step(h, h_prev)


def run_frames(stage: str, stack: Tensor, n_batch: int, gru: GruLayer,
               step) -> list[Tensor]:
    """Run `step(x_t, state) -> (state, outputs)` over the frames of a
    time-major (T*B, F) stack, starting from `gru`'s zero state, and stack
    each output back to (T*B, .).

    Every frame is processed with ops whose shapes depend only on the batch
    size, never on the sequence length: BLAS kernels may change summation
    order with matrix shape, so per-step processing is what makes encoder
    causality hold bit-exactly (outputs for frame n never move when later
    frames are appended). A `NumericError` is re-raised naming the stage
    and the frame.
    """
    state = gru.initial_state(n_batch, dtype=stack.data.dtype)
    total = stack.data.shape[0]
    if total % n_batch != 0:
        raise ValueError(f"stack of {total} rows does not divide into batches of {n_batch}")
    frames = [ad.slice_rows(stack, t * n_batch, (t + 1) * n_batch)
              for t in range(total // n_batch)]
    outputs = []
    for t, x_t in enumerate(frames):
        try:
            state, out = step(x_t, state)
        except NumericError as exc:
            raise NumericError(f"{stage} frame {t}: {exc}") from exc
        outputs.append(out)
    return [parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)
            for parts in zip(*outputs)]


def clip_grad_norm(params: list[Tensor], max_norm: float = 5.0) -> float:
    """Scale all gradients in place so their global L2 norm is <= max_norm.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = (p.grad * scale).astype(p.grad.dtype)
    return norm


class Adam:
    """Adam with bias correction over a fixed parameter list.

    Step t uses m_hat = m/(1-b1^t), v_hat = v/(1-b2^t) and
    theta -= lr * m_hat / (sqrt(v_hat) + eps). Zero gradients leave
    parameters exactly unchanged because m and v stay zero.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError(f"adam: gradient shape {g.shape} does not match "
                                 f"parameter shape {p.data.shape}")
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / b1t
            v_hat = self.v[i] / b2t
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
