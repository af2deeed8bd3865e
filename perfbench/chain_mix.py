#!/usr/bin/env python3
"""Where the time of one desk `pvae ablation --settings 2` chain goes.

    python3 perfbench/chain_mix.py                 # configs/desk.cfg as it is
    python3 perfbench/chain_mix.py --max-epochs 3  # the ablation-desk chain

Runs one chain in-process under the layer spans of `spans.Tracer` and
prints the chain's wall time and the share of it spent in training steps,
in the rest of the training stages (validation, LPS features), in
evaluation and in latent export, plus the STFT/ISTFT and data-generation
time inside those. `--max-epochs N` writes the config the benchmark's
`ablation-desk` workload uses: `max_epochs = N`, `patience = N - 1`.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-epochs", type=int, help="the benchmark's epoch cut")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    run.set_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import spans
    import workloads
    from pvae import cli

    workdir = run.ROOT / ".bench_work" / "chain-mix"
    workdir.mkdir(parents=True)
    try:
        config = workdir / "desk.cfg"
        if args.max_epochs:
            config.write_text(workloads.desk_config_text(args.seed, args.max_epochs))
        else:
            config.write_text(workloads.DESK_CFG.read_text())
        tracer = spans.Tracer()
        tracer.install()
        timer = spans.StepTimer()
        timer.install()
        try:
            t0 = time.perf_counter()
            rc = cli.main(["ablation", "--config", str(config), "--settings",
                           str(workloads.SETTING), "--out", str(workdir / "out")])
            wall = time.perf_counter() - t0
        finally:
            timer.uninstall()
            tracer.uninstall()
        if rc != 0:
            return rc
        logs = [len(workloads._read_csv(workdir / "out" / f"setting_{workloads.SETTING}"
                                        / log)[1]) for log in workloads.TRAINING_LOGS]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    ms = tracer.snapshot()
    stages = (ms["pipeline.pretrain_vae.ms"] + ms["pipeline.train_nsvae.ms"]) / 1e3
    parts = {
        "training steps": timer.seconds,
        "training stages besides steps": stages - timer.seconds,
        "evaluation (cli.evaluate_bundle)": ms["cli.evaluate_bundle.ms"] / 1e3,
        "latent export (cli.latent_clouds)": ms["cli.latent_clouds.ms"] / 1e3,
    }
    parts["rest"] = wall - sum(parts.values())
    parts["within these: dsp.stft + dsp.istft"] = (ms["dsp.stft.ms"] + ms["dsp.istft.ms"]) / 1e3
    parts["within these: datagen.synth_dataset"] = ms["datagen.synth_dataset.ms"] / 1e3
    print(f"chain: {wall:.1f} s traced; epochs per stage {logs}; "
          f"{ms['nn.Adam.step.calls']} training steps")
    for name, seconds in parts.items():
        print(f"  {name:38s} {seconds:8.2f} s  {100 * seconds / wall:5.1f} %")
    return 0


if __name__ == "__main__":
    sys.exit(main())
