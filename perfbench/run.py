#!/usr/bin/env python3
"""pvae benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload ablation-desk --seed 1 --seconds 30 --trace 0

The package is imported from `src/` of the checkout this file sits in. Each
run sets its inputs up from `--seed` (several times; `setup_s` is the
median), then runs whole rounds of operations until `--seconds` have passed,
then checks the outputs. The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json under `--trace 0`, and every
per-layer metric under `--trace 1`. A traced run spends the first half of
its time untraced and the second half traced, after one traced set-up; its
layer figures are those of one set-up plus one round, and it reports its own
overhead as traced over untraced median round time.

`--smoke` runs the workload at a tiny size; `--json-out PATH` also writes the
metrics with machine and version details to PATH. Exit code 0 when the
checks pass, 1 when they fail or a traced function is not found, 2 when
the package cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ablation-desk", "train-wide", "enhance-wide")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    p.add_argument("--json-out", help="also write metrics and machine details here")
    return p.parse_args(argv)


def set_blas_threads() -> int:
    """One BLAS thread for every workload; set before numpy loads.

    With two threads on a two-core machine, the many small GEMMs of
    `enhance` wait on both cores, and their times varied far more from run
    to run: see the README.
    """
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


class Phase:
    """Rounds run back to back for a fixed time."""

    def __init__(self):
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.round_times: list[float] = []
        self.round_rates: list[float] = []     # frames per second of model time


def measure(workload, seconds: float, first_round: int = 0) -> Phase:
    phase = Phase()
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        t_round = clock()
        frames, model_seconds = 0, 0.0
        for op in workload.round_ops(first_round + phase.rounds):
            t0 = clock()
            phase.attempted += 1
            try:
                op_frames, op_seconds = op()
            except Exception:
                traceback.print_exc()
                phase.failed += 1
                continue
            frames += op_frames
            model_seconds += clock() - t0 if op_seconds is None else op_seconds
        phase.round_times.append(clock() - t_round)
        if model_seconds > 0:
            phase.round_rates.append(frames / model_seconds)
        phase.rounds += 1
        if clock() >= deadline:
            return phase


def timed_setups(workload, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_untraced(workload, seconds):
    setup_times = timed_setups(workload, workload.setup_repeats)
    print(f"set-up times: {', '.join(f'{t:.4f}' for t in setup_times)} s", file=sys.stderr)
    phase = measure(workload, seconds)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(phase.round_times),
        "frames_per_s": statistics.median(phase.round_rates) if phase.round_rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, [phase]


def run_traced(workload, seconds):
    import spans

    workload.setup()
    untraced = measure(workload, seconds / 2)
    tracer = spans.Tracer()
    tracer.install()
    if tracer.missing:
        # a layer that reads 0 because its function moved would look like a
        # 100 % gain; spans.py and BENCHMARK.json must follow the move
        tracer.uninstall()
        raise SystemExit(f"error: traced functions not found: {', '.join(tracer.missing)}")
    try:
        workload.setup()
        at_setup = tracer.snapshot()
        traced = measure(workload, seconds / 2, first_round=untraced.rounds)
        total = tracer.snapshot()
    finally:
        tracer.uninstall()
    metrics = {name: at_setup[name] + (total[name] - at_setup[name]) / traced.rounds
               for name in total}
    enhance_calls = metrics.pop("pipeline.enhance.calls")
    per_clip = workload.clips_per_round
    metrics["pipeline.enhance.calls_per_clip"] = enhance_calls / per_clip if per_clip else 0.0
    untraced_s = statistics.median(untraced.round_times)
    traced_s = statistics.median(traced.round_times)
    metrics["trace.untraced_round_s"] = untraced_s
    metrics["trace.traced_round_s"] = traced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics, [untraced, traced]


def machine_info(blas_threads: int) -> dict:
    import numpy as np

    info = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "pvae").glob("*.py"))),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = set_blas_threads()
    if not (SRC / "pvae" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pvae'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pvae

    if Path(pvae.__file__).resolve().parent != SRC / "pvae":
        print(f"error: pvae imported from {pvae.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    section = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"{args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"BLAS threads {blas_threads}", file=sys.stderr)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        run = run_traced if args.trace else run_untraced
        values, phases = run(workload, args.seconds)
        fails = workload.check()
        extras = workload.extras(phases[0].round_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    if set(values) != {m["name"] for m in section}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    for msg in fails:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not fails,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in section},
    }
    if args.json_out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, smoke=args.smoke,
                      round_times=[p.round_times for p in phases], extras=extras,
                      failures=fails, machine=machine_info(blas_threads))
        with open(args.json_out, "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
