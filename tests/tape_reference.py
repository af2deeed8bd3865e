"""Per-frame tape reference for the sequence ops.

The composition of primitive autodiff ops, one frame at a time, that
`autodiff.linear_seq` and `autodiff.gru_seq` stand for. Tests compare the
models against it bit for bit, forward values and gradients.

The models never build the per-frame graph, so the four ops only it needs,
`sigmoid`, `tanh`, `slice_rows` and `concat`, live here, on the tape's own
`_result` and `_accumulate`.
"""

from typing import Sequence

import numpy as np

from pvae import autodiff as ad
from pvae.autodiff import Tensor, _accumulate, _result, _sigmoid
from pvae.vae import VAR_FLOOR, GaussianParams


def sigmoid(a: Tensor) -> Tensor:
    out_data = _sigmoid(a.data)

    def back(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _result(out_data, (a,), back, "sigmoid")


def tanh(a: Tensor) -> Tensor:
    out_data = np.tanh(a.data)

    def back(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _result(out_data, (a,), back, "tanh")


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat: empty input")
    dt = tensors[0].data.dtype
    if any(t.data.dtype != dt for t in tensors):
        raise ValueError("concat: dtype mismatch")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(idx)])

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tuple(tensors), back, "concat")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows [start:stop) of a matrix (or elements of a vector)."""
    if not (0 <= start <= stop <= a.data.shape[0]):
        raise ValueError(f"slice_rows: [{start}:{stop}) out of range for {a.data.shape}")
    shape = a.data.shape

    def back(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[start:stop] = g
        _accumulate(a, full)

    return _result(a.data[start:stop].copy(), (a,), back, "slice_rows")


def linear(layer, x_t):
    out = ad.add(ad.matmul(x_t, layer.weight), ad.broadcast_rows(layer.bias, x_t.data.shape[0]))
    return ad.clamp_min(out, 0.0) if layer.activation == "relu" else out


def gru_step(gru, x_t, h):
    n = x_t.data.shape[0]

    def gate(W, U, b, h_in):
        return ad.add(ad.add(ad.matmul(x_t, W), ad.matmul(h_in, U)), ad.broadcast_rows(b, n))

    r = sigmoid(gate(gru.W_r, gru.U_r, gru.b_r, h))
    z = sigmoid(gate(gru.W_z, gru.U_z, gru.b_z, h))
    h_tilde = tanh(gate(gru.W_h, gru.U_h, gru.b_h, ad.mul(r, h)))
    return ad.add(ad.mul(ad.sub(1.0, z), h), ad.mul(z, h_tilde))


def head(h, mu_layer, logvar_layer):
    return linear(mu_layer, h), ad.clamp_min(ad.exp(linear(logvar_layer, h)), VAR_FLOOR)


def run_frames(stack, n_batch, gru, step):
    """`step(x_t, state) -> (state, outputs)` over the frames of a stack,
    outputs stacked back to (T*B, .)."""
    state = gru.initial_state(n_batch)
    outputs = []
    for t in range(stack.data.shape[0] // n_batch):
        state, out = step(slice_rows(stack, t * n_batch, (t + 1) * n_batch), state)
        outputs.append(out)
    return [concat(parts, axis=0) for parts in zip(*outputs)]


def trunk_step(trunk, x_t, state):
    for layer in trunk.fc:
        x_t = linear(layer, x_t)
    return gru_step(trunk.gru, x_t, state)


def vae_encode(m, x_stack, n_batch):
    def step(x_t, state):
        state = trunk_step(m.trunk, x_t, state)
        return state, head(state, m.enc_mu, m.enc_logvar)
    return GaussianParams(*run_frames(x_stack, n_batch, m.trunk.gru, step))


def vae_decode(m, z_stack, n_batch):
    def step(z_t, state):
        state = h = gru_step(m.dec_gru, z_t, state)
        for layer in m.dec_fc:
            h = linear(layer, h)
        return state, head(h, m.dec_mu, m.dec_logvar)
    return GaussianParams(*run_frames(z_stack, n_batch, m.dec_gru, step))


def nsvae_encode(ns, y_stack, n_batch):
    def step(y_t, state):
        state = trunk_step(ns.trunk, y_t, state)
        wide = linear(ns.fc_wide, state)
        return state, (*head(wide, ns.head_mu_x, ns.head_logvar_x),
                       *head(wide, ns.head_mu_v, ns.head_logvar_v))
    mu_x, var_x, mu_v, var_v = run_frames(y_stack, n_batch, ns.trunk.gru, step)
    return GaussianParams(mu_x, var_x), GaussianParams(mu_v, var_v)


def use_tape(model):
    """Route `model`'s batch forward passes through the per-frame tape."""
    if hasattr(model, "decode_batch"):
        model.encode_batch = lambda x, n: vae_encode(model, x, n)
        model.decode_batch = lambda z, n: vae_decode(model, z, n)
    else:
        model.encode_batch = lambda y, n: nsvae_encode(model, y, n)
    return model


def gradients(model, loss) -> dict:
    for p in model.parameters():
        p.grad = None
    ad.backward(loss)
    return {name: np.ascontiguousarray(p.grad).tobytes()
            for name, p in model.named_parameters().items()}
