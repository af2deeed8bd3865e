"""Output checks shared by the workloads: properties of the method, not
stored copies of earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

import reference

# Agreement with the float32 reference: relative L2 error. Float32 carries
# 24 bits (eps 1.2e-7); the two implementations sum in different orders
# over 512-wide products and 600-frame recurrences, which leaves them
# about 1e-6 apart. 1e-4 allows two orders of magnitude on top of that and
# still catches any change of gate, layer or mask formula.
REL_TOL = 1e-4
SI_SNR_TOL_DB = 1e-3       # metrics.csv keeps six decimals
DD_STEPS = (1e-5, 1e-6, 1e-7)   # central-difference steps along a unit direction
DD_REL_TOL = 1e-5
# at a kink: one-sided slopes that differ by more than KINK_GAP, and the
# first-order error of a one-sided difference
KINK_GAP = 1e-2
ONE_SIDED_TOL = 1e-3


def rel_err(actual, expected) -> float:
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return float(np.linalg.norm(actual - expected) / max(np.linalg.norm(expected), 1e-300))


def close(label: str, actual, expected) -> list[str]:
    if np.shape(actual) != np.shape(expected):
        return [f"{label}: shape {np.shape(actual)} != reference {np.shape(expected)}"]
    err = rel_err(actual, expected)
    return [] if err <= REL_TOL else [f"{label}: relative error {err:.2e} > {REL_TOL:.0e}"]


def finite(label: str, values) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    return [] if np.all(np.isfinite(values)) else [f"{label}: non-finite value"]


def enhanced_output(label: str, result, noisy: np.ndarray, tensors: dict) -> list[str]:
    """One `EnhanceResult` against the reference enhancement of `noisy`."""
    out = result.enhanced.samples
    n_frames = (len(noisy) - reference.FRAME_LEN) // reference.HOP + 1
    expected_len = (n_frames - 1) * reference.HOP + reference.FRAME_LEN
    if len(out) != expected_len:
        return [f"{label}: {len(out)} samples, expected (N-1)*256+512 = {expected_len}"]
    mask = result.mask
    fails = []
    if not (np.all(mask > 0.0) and np.all(mask < 1.0)):
        fails.append(f"{label}: mask leaves (0, 1): [{mask.min()}, {mask.max()}]")
    ref_out, ref_mask, zx, zv = reference.enhance(tensors, noisy)
    fails += close(f"{label} waveform", out, ref_out)
    fails += close(f"{label} mask", mask, ref_mask.T)
    fails += close(f"{label} z_speech", result.z_speech, zx)
    fails += close(f"{label} z_noise", result.z_noise, zv)
    return fails


def float64_copy(model, frozen: bool = False):
    """A float64 twin of a VAE or NSVAE with the same parameter values."""
    twin = type(model)(dtype=np.float64, **model.config())
    src = model.named_parameters()
    for name, p in twin.named_parameters().items():
        p.data = src[name].data.astype(np.float64)
    if frozen:
        twin.freeze()
    return twin


def directional_derivative(label: str, model, loss_of, seed: int) -> list[str]:
    """Central difference of the loss along a random unit direction d against
    <grad L, d> from backward.

    `loss_of(model)` must rebuild the loss from the same batch and the same
    frozen noise draws on every call. ReLU and clamp kinks make the loss
    piecewise smooth:

    - a kink between the parameters and a step bends the central
      difference, so the check retries with smaller steps; a kink at
      distance delta drops out once the step is below delta, while a wrong
      gradient fails at every step;
    - a kink exactly at the parameters (a frame on which every unit of a
      layer is off, feeding a unit whose bias never moved from 0) makes the
      two one-sided slopes differ; backward's subgradient must then match
      one of them.
    """
    import pvae.autodiff as ad

    params = [p for p in model.named_parameters().values() if p.requires_grad]
    rng = np.random.default_rng(seed)
    direction = [rng.standard_normal(p.data.shape) for p in params]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in direction))
    direction = [d / norm for d in direction]
    base = [p.data.copy() for p in params]

    for p in params:
        p.grad = None
    loss = loss_of(model)
    ad.backward(loss)
    analytic = sum(float(np.sum(p.grad * d)) for p, d in zip(params, direction))

    def at(step):
        for p, b, d in zip(params, base, direction):
            p.data = b + step * d
        with ad.no_grad():
            return loss_of(model).item()

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-12)

    seen = []
    try:
        centre = None
        for step in DD_STEPS:
            plus, minus = at(step), at(-step)
            numeric = (plus - minus) / (2.0 * step)
            if rel(numeric, analytic) <= DD_REL_TOL:
                return []
            if centre is None:
                centre = at(0.0)
            right, left = (plus - centre) / step, (centre - minus) / step
            if (rel(right, left) > KINK_GAP
                    and min(rel(right, analytic), rel(left, analytic)) <= ONE_SIDED_TOL):
                return []
            seen.append(f"{numeric:.9e} at step {step:.0e}")
    finally:
        for p, b in zip(params, base):
            p.data = b
            p.grad = None
    return [f"{label}: directional derivative {analytic:.9e} vs central "
            f"difference {', '.join(seen)}"]
