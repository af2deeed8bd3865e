"""`parallel.fork_join`: one part in a forked child, one here, the same
results and bytes as both run here."""

import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest

import pvae.cli
from pvae import autodiff as ad, parallel
from pvae.autodiff import NumericError, Tensor
from pvae.config import load_config
from pvae.nn import LinearLayer
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
        monkeypatch.setattr(ad, "_SPLIT_MACS", 0)
        layer = LinearLayer(3, 4, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(8, 3)))
        expected = layer(x, 2).data.tobytes()            # the worker thread now exists
        assert ad._pool is not None

        def lane():
            seen = []
            ad._by_frames(4, 0, lambda lo, hi: seen.append((lo, hi)))
            return seen, layer(x, 2).data.tobytes(), ad._pool is None

        (seen, out, no_pool), _ = parallel.fork_join(lane, lambda: None, "test lane")
        assert seen == [(0, 4)] and no_pool
        assert out == expected
        assert ad._pool is not None                      # the caller keeps its worker


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
