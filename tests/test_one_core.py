"""Tier-1 holds on one core: the test modules whose cases depend on the core
count pass in a child pytest pinned to one core.

Where a case needs two cores, its fixture patches `os.sched_getaffinity`, so
its outcome must not depend on the machine. This guard checks that on the
machine's first usable core alone. The child pins itself before it imports
pytest or numpy, as `taskset -c` would, and runs only the modules named
here, never this one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pvae

SRC = str(Path(pvae.__file__).resolve().parent.parent)
TESTS = Path(__file__).resolve().parent
MODULES = ("test_autodiff.py", "test_parallel.py", "test_nn.py")
PINNED = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
          "import pytest; sys.exit(pytest.main(sys.argv[1:]))")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="os.sched_setaffinity is missing on this platform (macOS), "
                           "so no child can be pinned to one core")
def test_core_sensitive_modules_pass_on_one_core():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, str(TESTS))))
    run = subprocess.run([sys.executable, "-c", PINNED, "-q", "-p", "no:cacheprovider",
                          *(str(TESTS / name) for name in MODULES)],
                         cwd=TESTS.parent, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
