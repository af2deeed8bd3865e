"""`parallel.fork_join`: one part in a forked child, one here, the same
results and bytes as both run here. `parallel.Tasks`: a stage on the worker
thread, in order, in the caller's context, and the one join that waits for
every task and picks the error. Training at a width above the gate: the
same bytes with the worker as without it."""

import os
import signal
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pvae.cli
from pvae import autodiff as ad
from pvae import diploss, nn, parallel
from pvae.autodiff import NumericError, Tensor
from pvae.config import load_config
from pvae.dsp import F_BINS
from pvae.nn import LinearLayer
from pvae.nsvae import NsvaeModel, permutation_loss
from pvae.vae import VaeModel
from test_acceptance import MICRO_CFG


@pytest.fixture(autouse=True)
def time_bound():
    """A hung lane fails its test: the alarm raises in the caller, which then
    kills and reaps the child."""
    def expire(signum, frame):
        raise TimeoutError("the test ran for more than 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def set_cores(monkeypatch, n):
    """`n` usable cores, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def two_cores(monkeypatch):
    set_cores(monkeypatch, 2)


@pytest.fixture
def one_core(monkeypatch):
    set_cores(monkeypatch, 1)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children `fork_join` forks during the test."""
    pids = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def fork_join_pids():
    return parallel.fork_join(os.getpid, os.getpid, "test lane")


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestForkJoin:
    def test_lane_runs_in_a_child(self, two_cores, forks):
        there, here = fork_join_pids()
        assert here == os.getpid() and there != here
        assert forks == [there]

    def test_results_come_back_whole(self, two_cores):
        big = np.arange(300_000, dtype=np.float32)       # more than a pipe holds
        result, mine = parallel.fork_join(lambda: {"x": big * 2, "s": "lane"},
                                          lambda: "here", "test lane")
        assert result["s"] == "lane" and mine == "here"
        assert result["x"].tobytes() == (big * 2).tobytes()

    def test_inline_on_one_core(self, one_core, forks):
        calls = []
        assert parallel.fork_join(lambda: calls.append("lane") or 1,
                                  lambda: calls.append("here") or 2, "test lane") == (1, 2)
        assert calls == ["lane", "here"] and forks == []

    def test_inline_inside_a_lane(self, two_cores, forks):
        (inner, outer_lane), here = parallel.fork_join(
            lambda: (fork_join_pids(), os.getpid()), os.getpid, "outer lane")
        assert inner == (outer_lane, outer_lane)
        assert outer_lane != here and forks == [outer_lane]

    def test_child_errors_keep_type_and_message(self, two_cores):
        with pytest.raises(KeyError) as err:
            parallel.fork_join(lambda: {}["missing"], lambda: None, "test lane")
        assert str(err.value) == "'missing'"

        def overflow():
            raise NumericError("matmul: non-finite result at frame 3", row=3)

        with pytest.raises(NumericError, match="^matmul: non-finite result at frame 3$") as err:
            parallel.fork_join(overflow, lambda: None, "test lane")
        assert err.value.row == 3

    def test_unpicklable_error_keeps_its_message(self, two_cores):
        class Local(Exception):
            pass

        def fails():
            raise Local("made in the lane")

        with pytest.raises(RuntimeError, match="^Local: made in the lane$"):
            parallel.fork_join(fails, lambda: None, "test lane")

    def test_child_that_sends_nothing_names_lane_and_status(self, two_cores):
        with pytest.raises(RuntimeError, match=r"^speech lane: .*exit status 3\)$"):
            parallel.fork_join(lambda: os._exit(3), lambda: None, "speech lane")

    def test_caller_error_kills_and_reaps_the_child(self, two_cores, forks, tmp_path):
        started = tmp_path / "started"

        def lane():
            started.touch()
            time.sleep(30)

        def here():
            deadline = time.monotonic() + 10
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise ValueError("caller part")

        t0 = time.monotonic()
        with pytest.raises(ValueError, match="caller part"):
            parallel.fork_join(lane, here, "test lane")
        assert started.exists() and time.monotonic() - t0 < 20
        (pid,) = forks
        with pytest.raises(ProcessLookupError):          # gone, not a zombie
            os.kill(pid, 0)

    def test_fork_after_the_split_worker_exists(self, two_cores, monkeypatch):
        monkeypatch.setattr(parallel, "_SPLIT_MACS", 0)
        layer = LinearLayer(3, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(8, 3)))
        expected = layer(x, 2).data.tobytes()            # the worker thread now exists
        assert parallel._pool is not None

        def lane():
            seen = []
            parallel.by_frames(4, 0, lambda lo, hi: seen.append((lo, hi)))
            return seen, layer(x, 2).data.tobytes(), parallel._pool is None

        (seen, out, no_pool), _ = parallel.fork_join(lane, lambda: None, "test lane")
        assert seen == [(0, 4)] and no_pool
        assert out == expected
        assert parallel._pool is not None                # the caller keeps its worker


    def test_caller_counts_one_core_while_the_lane_runs(self, two_cores):
        def here():
            threads = []
            parallel.by_frames(4, parallel._SPLIT_MACS,
                               lambda lo, hi: threads.append(threading.current_thread().name))
            with parallel.Tasks() as tasks:
                stage = tasks.start(lambda: threading.current_thread().name)
            return parallel.cores(), threads, stage.result()

        lane, (mine, threads, stage) = parallel.fork_join(parallel.cores, here, "test lane")
        assert (lane, mine) == (1, 1)
        assert threads == ["MainThread"] and stage == "MainThread"
        assert parallel.cores() == 2


class TestOnWorker:
    def test_stages_run_on_the_worker_in_order(self, two_cores):
        seen = []

        def stage(i):
            seen.append(i)
            return threading.current_thread().name, parallel.cores()

        with parallel.Tasks() as tasks:
            futures = [tasks.start(lambda i=i: stage(i)) for i in range(5)]
        results = [future.result(timeout=10) for future in futures]
        assert seen == list(range(5))
        assert {name.split("_")[0] for name, _ in results} == {"pvae-frames"}
        assert {cores for _, cores in results} == {1}

    def test_split_on_the_worker_runs_inline(self, two_cores):
        def stage():
            parts = []
            parallel.by_frames(4, parallel._SPLIT_MACS, lambda lo, hi: parts.append((lo, hi)))
            return parts

        with parallel.Tasks() as tasks:
            future = tasks.start(stage)
        assert future.result(timeout=10) == [(0, 4)]

    def test_runs_in_the_callers_context(self, two_cores):
        with np.errstate(over="raise"), parallel.Tasks() as tasks:
            future = tasks.start(lambda: np.geterr()["over"])
        assert future.result(timeout=10) == "raise"

    def test_inline_on_one_core_and_error_kept(self, one_core):
        with pytest.raises(KeyError, match="missing"), parallel.Tasks() as tasks:
            future = tasks.start(lambda: threading.current_thread().name)
            assert future.done() and future.result() == "MainThread"
            failed = tasks.start(lambda: {}["missing"])
            assert failed.done()
            with pytest.raises(KeyError, match="missing"):
                failed.result()


class TestTasks:
    """The join: leaving a `Tasks` block, by return or by raise, waits for
    every task it started; then the block's error propagates, or else the
    first failed task's error, in start order."""

    def test_the_first_failed_tasks_error_is_raised_at_the_exit(self, two_cores):
        done = []

        def fails(key):
            time.sleep(0.05)
            done.append(key)
            return {}[key]

        with pytest.raises(KeyError, match="first"):
            with parallel.Tasks() as tasks:
                tasks.start(lambda: done.append("ok"))
                tasks.start(lambda: fails("first"))
                tasks.start(lambda: fails("second"))
                done.append("block")
        assert sorted(done) == ["block", "first", "ok", "second"]

    def test_the_blocks_error_wins_over_a_tasks_error(self, two_cores):
        with pytest.raises(ValueError, match="block"):
            with parallel.Tasks() as tasks:
                failed = tasks.start(lambda: {}["task"])
                raise ValueError("block")
        assert isinstance(failed.exception(timeout=0), KeyError)

    @pytest.mark.parametrize("leave", ["return", "raise"])
    def test_the_exit_waits_for_a_slow_task(self, two_cores, leave):
        done = []

        def slow():
            time.sleep(0.1)
            done.append("task")

        def block():
            with parallel.Tasks() as tasks:
                tasks.start(slow)
                if leave == "return":
                    return "returned"
                raise ValueError("block")

        if leave == "return":
            assert block() == "returned"
        else:
            with pytest.raises(ValueError, match="block"):
                block()
        assert done == ["task"]

    def test_tasks_of_two_blocks_keep_their_start_order(self, two_cores):
        seen = []

        def stage(i):
            time.sleep(0.01 * (i % 2))
            seen.append(i)

        with parallel.Tasks() as outer:
            for i in range(0, 6, 2):
                outer.start(lambda i=i: stage(i))
                with parallel.Tasks() as inner:
                    inner.start(lambda i=i: stage(i + 1))
        assert seen == list(range(6))

    def test_the_block_drops_a_task_done_without_error(self, two_cores):
        """The block keeps a task only while it runs or once it failed: the
        chunked enhancement chain reads each result, and the block must not
        hold every chunk's results until it ends."""
        class Result:
            pass

        with pytest.raises(KeyError, match="kept"), parallel.Tasks() as tasks:
            held = weakref.ref(tasks.start(Result).result(timeout=10))
            tasks.start(lambda: None).result(timeout=10)   # the worker is past the first
            failed = tasks.start(lambda: {}["kept"])
            failed.exception(timeout=10)
            tasks.start(lambda: None)
            assert held() is None and failed in tasks._futures

    def test_tasks_opened_on_the_worker_run_inline(self, two_cores):
        def stage():
            with parallel.Tasks() as inner:
                nested = inner.start(lambda: threading.current_thread().name)
            return threading.current_thread().name, nested.done(), nested.result()

        with parallel.Tasks() as tasks:
            future = tasks.start(stage)
        name, done, nested = future.result(timeout=0)
        assert name.startswith("pvae-frames") and done and nested == name


class TestWithoutAffinity:
    """Where `os` has no `sched_getaffinity` (macOS), the process counts as
    one core: products and lanes run inline, with the same bytes."""

    def test_runs_inline_with_the_same_bytes(self, monkeypatch, forks):
        layer = LinearLayer(3, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(8, 3)))
        monkeypatch.setattr(parallel, "_SPLIT_MACS", 0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            monkeypatch.setattr(parallel, "_pool", pool)
            split = layer(x, 2).data.tobytes()
        monkeypatch.setattr(parallel, "_pool", None)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parallel.cores() == 1
        assert layer(x, 2).data.tobytes() == split
        assert parallel._pool is None
        assert fork_join_pids() == (os.getpid(), os.getpid()) and forks == []


class TestCommandsInLanes:
    """The ablation chain and the eval enhancement fork on two cores and give
    the bytes of a serial run."""

    @pytest.fixture
    def cfg_path(self, tmp_path):
        path = tmp_path / "micro.cfg"
        path.write_text(MICRO_CFG)
        return path

    def test_run_setting_same_rows_and_trees(self, cfg_path, tmp_path, monkeypatch, forks):
        cfg = load_config(cfg_path)
        rows = {}
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            rows[cores] = pvae.cli.run_setting(cfg, 3, tmp_path / f"cores_{cores}")
            assert len(forks) == (cores - 1) * 2         # the speech lane, the eval lane
        assert rows[1] == rows[2]
        assert _tree_bytes(tmp_path / "cores_1") == _tree_bytes(tmp_path / "cores_2")

    def test_evaluate_and_latent_viz_same_trees(self, cfg_path, tmp_path, monkeypatch, forks):
        assert pvae.cli.main(["ablation", "--config", str(cfg_path), "--settings", "2",
                              "--out", str(tmp_path / "abl")]) == 0
        bundle = str(tmp_path / "abl" / "setting_2" / "bundle.ckpt")
        trees = {}
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            for command in ("evaluate", "latent-viz"):
                out = tmp_path / f"{command}_{cores}"
                assert pvae.cli.main([command, "--config", str(cfg_path), "--bundle", bundle,
                                      "--out", str(out)]) == 0
                trees[command, cores] = _tree_bytes(out)
        assert trees["evaluate", 1] == trees["evaluate", 2]
        assert trees["latent-viz", 1] == trees["latent-viz", 2]

    def test_numeric_error_in_speech_lane_reads_as_serial(self, cfg_path, tmp_path,
                                                          monkeypatch, capsys, forks):
        pretrain = pvae.cli.pretrain_vae

        def diverging(role, *args):
            if role == "speech":
                raise NumericError("exp: non-finite result in speech pretraining", row=2)
            return pretrain(role, *args)

        monkeypatch.setattr(pvae.cli, "pretrain_vae", diverging)
        errs = {}
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            assert pvae.cli.main(["ablation", "--config", str(cfg_path), "--settings", "3",
                                  "--out", str(tmp_path / f"abl_{cores}")]) == 2
            errs[cores] = capsys.readouterr().err
        assert len(forks) == 1
        assert errs[1] == errs[2] == "error: exp: non-finite result in speech pretraining\n"


def wide_training_bytes() -> bytes:
    """Parameter bytes after two DIP steps of a speech VAE and two permutation
    steps of an NSVAE against two frozen VAEs, at H=256, T=8, B=16: each
    256 x 256 weight sum is 8.4M multiply-adds, above `_SPLIT_MACS`. So on two
    cores the worker sums the GRU weights while the caller runs the BPTT loop,
    sums the weights of each such linear layer while the caller runs its input
    gradient, and runs Adam's second run."""
    r = np.random.default_rng(5)
    vae, cvae, nvae = (VaeModel(F_BINS, 256, 32, role, rng=r, dtype=np.float32)
                       for role in ("speech", "speech", "noise"))
    ns = NsvaeModel(F_BINS, 256, 32, rng=r, dtype=np.float32)
    cvae.freeze()
    nvae.freeze()
    y, x, v = (r.normal(size=(16, 8, F_BINS)).astype(np.float32) for _ in range(3))
    eps = np.random.default_rng(6)
    for model, loss in ((vae, lambda: diploss.dip_total_loss(vae, x, diploss.SETTINGS[2], eps)),
                        (ns, lambda: permutation_loss(ns, cvae, nvae, y, x, v))):
        opt = nn.Adam(model.parameters(), lr=1e-3)
        for _ in range(2):
            opt.zero_grad()
            ad.backward(loss())
            nn.clip_grad_norm(opt.params, 5.0)
            opt.step()
    return b"".join(p.data.tobytes() for model in (vae, ns) for p in model.parameters())


class TestWideTraining:
    def test_same_bytes_with_and_without_the_worker(self, monkeypatch, stage_threads):
        runs = {}
        for cores in (2, 1):
            set_cores(monkeypatch, cores)
            stage_threads.clear()
            runs[cores] = wide_training_bytes()
            # a step on two cores, over 8 frames of 16 rows: the second half
            # of each forward product of 2^22 multiply-adds or more (9 in a
            # DIP step: the trunk's fc0, fc1, fc2 and GRU input projections,
            # the three decoder FCs and the two decoder heads, the latent
            # heads and the decoder GRU's projections being 1-3M; 13 in a
            # permutation step: those 4 of the NSVAE's trunk and its fc_wide,
            # and those 4 of each frozen target's trunk); one block of weight
            # sums per GRU (2 in a DIP step, 1 in a permutation step); one per
            # linear layer of 2^22 multiply-adds or more with an input
            # gradient (7 in a DIP step: the trunk's fc1 and fc2, the three
            # decoder FCs and the two decoder heads; 3 in a permutation step:
            # fc1, fc2 and fc_wide; each trunk's fc0 has no input gradient,
            # and the latent heads are 1-2M); and Adam's second run
            tasks = 2 * (9 + 2 + 7 + 1) + 2 * (13 + 1 + 3 + 1) if cores == 2 else 0
            assert [name.split("_")[0] for name, _ in stage_threads] == ["pvae-frames"] * tasks
        assert runs[1] == runs[2]
