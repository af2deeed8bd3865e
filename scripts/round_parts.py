#!/usr/bin/env python3
"""Median milliseconds of each part of a `train-wide` round.

    python3 scripts/round_parts.py [--rounds 20] [--warmup 3] [--seed 1] [--digest]

Builds the models and batches of `perfbench/workloads.TrainWide` (imported,
not copied) and runs its two steps with the same calls, timing each part:
the DIP step's forward (`dip_total_loss`), backward, clip and Adam, and the
permutation step's NSVAE forward, frozen target encodes, backward, clip and
Adam. The target encodes are the two `encode_batch` calls of the frozen
VAEs inside `permutation_loss`; the NSVAE forward is the rest of that call.
BLAS runs on one thread, as in perfbench. The package comes from `src/` of
this checkout. Prints one line per part, then the round total.

With `--digest` it then prints one SHA-256 over the bytes of every
parameter, gradient and Adam moment (`m`, `v`) of the two trained models,
the speech VAE and the NSVAE, in parameter order. Two checkouts that train
to the same bytes print the same digest, whatever the core count.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=20, help="timed rounds")
    p.add_argument("--warmup", type=int, default=3, help="untimed rounds first")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--digest", action="store_true",
                   help="then print a SHA-256 of the trained parameters, gradients and moments")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from pvae import autodiff as ad
    from pvae import diploss, nn, pipeline

    w = workloads.TrainWide(args.seed, False, ROOT)
    w.setup()
    clock = time.perf_counter
    parts: dict[str, list[float]] = defaultdict(list)
    encodes = [0.0]

    def timed_encode(model):
        encode = model.encode_batch

        def run(*a, **kw):
            t0 = clock()
            try:
                return encode(*a, **kw)
            finally:
                encodes[0] += clock() - t0
        return run

    w.cvae.encode_batch = timed_encode(w.cvae)
    w.nvae.encode_batch = timed_encode(w.nvae)

    def train(prefix, forward, opt, keep):
        t0 = clock()
        loss = forward()
        t1 = clock()
        opt.zero_grad()
        ad.backward(loss)
        t2 = clock()
        nn.clip_grad_norm(opt.params, workloads.CLIP_NORM)
        t3 = clock()
        opt.step()
        t4 = clock()
        if keep:
            for name, dt in (("forward", t1 - t0), ("backward", t2 - t1),
                             ("clip", t3 - t2), ("adam", t4 - t3)):
                parts[f"{prefix} {name}"].append(dt)
        return t4 - t0

    for index in range(args.warmup + args.rounds):
        keep = index >= args.warmup
        y, x, v = w.batches[index % 2]
        dip = train("dip", lambda: diploss.dip_total_loss(
            w.vae, x, diploss.SETTINGS[workloads.SETTING], w.eps_rng), w.vae_opt, keep)
        encodes[0] = 0.0
        perm = train("perm", lambda: pipeline.permutation_loss(
            w.nsvae, w.cvae, w.nvae, y, x, v), w.ns_opt, keep)
        if keep:
            forward = parts["perm forward"].pop()
            parts["perm nsvae forward"].append(forward - encodes[0])
            parts["perm target encodes"].append(encodes[0])
            parts["round"].append(dip + perm)

    order = ["dip forward", "dip backward", "dip clip", "dip adam", "perm nsvae forward",
             "perm target encodes", "perm backward", "perm clip", "perm adam", "round"]
    print(f"train-wide, seed {args.seed}: median ms over {args.rounds} rounds "
          f"(after {args.warmup} untimed)")
    for name in order:
        print(f"  {name:<20} {1e3 * statistics.median(parts[name]):8.2f}")
    if args.digest:
        sha = hashlib.sha256()
        for opt in (w.vae_opt, w.ns_opt):
            for p, m, v in zip(opt.params, opt.m, opt.v):
                for arr in (p.data, p.grad, m, v):
                    sha.update(arr.tobytes())
        print(f"digest {sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
