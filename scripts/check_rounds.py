#!/usr/bin/env python3
"""Round counts after which the `train-wide` benchmark check fails.

    python3 scripts/check_rounds.py --seed 0 --from 25 --to 56

Builds `perfbench/workloads.TrainWide` (imported, not copied), as
`perfbench/run.py` does after its set-up, and runs its rounds in order. After
each round from `--from` to `--to` it calls the workload's `check()`, which
`run.py` calls once, after the last round of a timed run. A count that fails
here is a count at which a run of `run.py` with this seed would exit 1. BLAS
runs on one thread, as in perfbench. The package comes from `src/` of this
checkout.

Prints one line per failing count, with its messages, then the list of
failing counts (empty when every check passed).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--from", dest="first", type=int, default=1,
                   help="first round count to check")
    p.add_argument("--to", dest="last", type=int, required=True,
                   help="last round count to check, and the rounds run")
    args = p.parse_args(argv)
    if not 1 <= args.first <= args.last:
        p.error("want 1 <= --from <= --to")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    w = workloads.TrainWide(args.seed, False, ROOT)
    w.setup()
    failing = []
    for index in range(args.last):
        for op in w.round_ops(index):
            op()
        count = index + 1
        if count >= args.first:
            fails = w.check()
            if fails:
                failing.append(count)
                print(f"round {count}: {'; '.join(fails)}", flush=True)
    print(f"train-wide, seed {args.seed}, rounds {args.first}-{args.last}: "
          f"check fails after {failing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
