"""Two processes for two independent parts of one run, the same bytes as one.

`fork_join(lane, here, name)` runs `lane()` in a forked child, the lane,
while this process runs `here()`, and returns both results. The child
pickles its result or its exception into a pipe and leaves by `os._exit`;
the caller unpickles it straight from the pipe, reaps the child, and returns
the result or raises the error. If `here()` raises, the child is killed and
reaped before the error propagates.

Each part computes from what it was given and what it makes itself, with
generators of its own, so its bytes do not depend on the process that runs
it. On one usable core, or inside a lane, both parts run here, `lane()`
first. A lane also runs every frame split of `autodiff` inline: `cores()`
reads 1 there, so a lane never starts threads or lanes of its own.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

_in_lane = False


def cores() -> int:
    """Cores this process may fill: 1 inside a lane, else its CPU affinity."""
    return 1 if _in_lane else len(os.sched_getaffinity(0))


def fork_join(lane: Callable[[], A], here: Callable[[], B], name: str) -> tuple[A, B]:
    """(lane(), here()), the first computed in a forked child on two or more
    cores; a failure of the child is named by `name`."""
    if cores() < 2:
        return lane(), here()
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()              # or the child's buffers would repeat them
    sys.stderr.flush()
    # The package's one other thread, autodiff's split worker, waits idle
    # between splits; the child starts without it (`autodiff._drop_pool`).
    pid = os.fork()
    if pid == 0:
        _serve(lane, read_fd, write_fd)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    lost = None
    try:
        mine = here()
        try:
            ok, value = pickle.load(pipe)
        except Exception as exc:    # the child ended before its result was whole
            lost = exc
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        pipe.close()
        _, status = os.waitpid(pid, 0)
    if lost is not None:
        raise RuntimeError(f"{name}: the child process sent no result "
                           f"(exit status {os.waitstatus_to_exitcode(status)})") from lost
    if not ok:
        raise value
    return value, mine


def _serve(lane: Callable[[], object], read_fd: int, write_fd: int) -> None:
    """The child: run `lane`, send (True, result) or (False, error), and exit."""
    global _in_lane
    code = 1
    try:
        _in_lane = True
        os.close(read_fd)
        try:
            sent = (True, lane())
        except BaseException as exc:
            sent = (False, _portable(exc))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(sent, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        sys.stdout.flush()
        sys.stderr.flush()
        code = 0
    finally:
        os._exit(code)


def _portable(exc: BaseException) -> BaseException:
    """`exc`, or a RuntimeError with its type and message if it does not
    survive a pickle round trip."""
    try:
        pickle.loads(pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")
