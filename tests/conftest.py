import os

import numpy as np
import pytest


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
