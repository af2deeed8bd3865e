import os
import threading

import numpy as np
import pytest

from pvae import parallel


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(autouse=True)
def no_stray_children():
    """A test that leaves a child process, running or unreaped, fails."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("the test left a child process running" if pid == 0 else
                f"the test left child {pid} unreaped")


@pytest.fixture
def stage_threads(monkeypatch):
    """[name of the thread that ran it, future] of each task started by
    `parallel.Tasks.start`."""
    started = []
    start = parallel.Tasks.start

    def recording(tasks, stage):
        entry = [None, None]
        started.append(entry)

        def run():
            entry[0] = threading.current_thread().name
            return stage()

        entry[1] = start(tasks, run)
        return entry[1]

    monkeypatch.setattr(parallel.Tasks, "start", recording)
    return started
