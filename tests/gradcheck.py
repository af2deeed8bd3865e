"""Finite-difference gradient checking for the tape."""

from dataclasses import dataclass

import numpy as np

from pvae.autodiff import Tensor, backward, no_grad


@dataclass
class GradCheckReport:
    max_rel_error: float
    tol: float
    checked: int
    passed: bool

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"grad_check: {status} (max rel err {self.max_rel_error:.3e} "
                f"over {self.checked} elements, tol {self.tol:.1e})")


def grad_check(f, xs, step: float = 1e-5, tol: float = 1e-6) -> GradCheckReport:
    """Compare backward gradients of scalar f against central differences.

    `xs` is a Tensor or a sequence of Tensors; `f` is called as `f(*xs)` and
    must be deterministic (freeze any noise draws before checking).  Relative
    error uses |a - b| / max(|a|, |b|, 1e-8).  Failures are reported, not
    raised.
    """
    if isinstance(xs, Tensor):
        xs = (xs,)
    xs = tuple(xs)
    for x in xs:
        # perturbation below writes through a flat view; needs contiguity
        if not x.data.flags.c_contiguous:
            x.data = x.data.copy()
        x.zero_grad()

    out = f(*xs)
    if not isinstance(out, Tensor) or out.data.ndim != 0:
        raise ValueError("grad_check: f must return a scalar Tensor")
    backward(out)
    analytic = [np.zeros_like(x.data) if x.grad is None else x.grad.copy() for x in xs]

    max_rel = 0.0
    checked = 0
    for x, a_grad in zip(xs, analytic):
        flat = x.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + step
                f_plus = f(*xs).item()
                flat[i] = orig - step
                f_minus = f(*xs).item()
            flat[i] = orig
            num = (f_plus - f_minus) / (2.0 * step)
            ana = float(a_grad.reshape(-1)[i])
            rel = abs(ana - num) / max(abs(ana), abs(num), 1e-8)
            max_rel = max(max_rel, rel)
            checked += 1

    for x in xs:
        x.zero_grad()
    return GradCheckReport(max_rel_error=max_rel, tol=tol, checked=checked,
                           passed=max_rel < tol)
