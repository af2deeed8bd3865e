"""The second core: a worker thread for stacked products, and a forked
child for an independent part of a run. Either gives the bytes of one core.

`Tasks` is the one way to run work on the worker thread. In a block
`with Tasks() as tasks:`, `tasks.start(stage)` runs `stage()` on the worker
in the caller's context (`np.errstate`), after every stage started before
it, and returns its future; where `cores()` reads 1, it runs the stage here
and returns a done future. The join rule: leaving the block, by return or
by raise, waits for every task it started, so no task outlives its caller;
then the block's own error propagates, or else the first failed task's
error, in start order.

`by_frames(n_frames, macs, part)` runs `part(lo, hi)` over the frames of a
(T, B, .) stack. From `_SPLIT_MACS` multiply-adds on, with two or more
cores, it runs the second half of the frames as a task and the first half
here. A frame is the same BLAS call whichever thread makes it. The sequence
ops of `autodiff` route their forward products through it.

The chunked enhancement chain of `pipeline` runs its stacked products as
tasks while the caller runs the GRU recurrences. In training, the backward
of a sequence op sends each block of its weight sums to the worker while
the caller runs a GRU's BPTT loop or a layer's input gradient, and
`nn.Adam.step` the second half of its parameters. Both ask `splits(macs)`
first, the gate of `by_frames`, and allocate every array a task fills on
the caller, so the worker thread grows no malloc arena of its own. The
worker counts one core, so a split or a task started on it runs inline.

`fork_join(lane, here, name)` runs `lane()` in a forked child, the lane,
while this process runs `here()`, and returns both results. The child
pickles its result or its exception into a pipe and leaves by `os._exit`;
the caller unpickles it straight from the pipe, reaps the child, and returns
the result or raises the error. If `here()` raises, the child is killed and
reaped before the error propagates.

Each part computes from what it was given and what it makes itself, with
generators of its own, so its bytes do not depend on the process that runs
it. On one usable core, or inside a lane, both parts run here, `lane()`
first, and every frame split runs inline: `cores()` reads 1 there, so a
lane never starts threads or lanes of its own. `cores()` also reads 1 in
the caller while `here()` runs, so the two processes never keep more than
two threads busy.
"""

from __future__ import annotations

import contextvars
import os
import pickle
import signal
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Callable, TypeVar

A = TypeVar("A")
B = TypeVar("B")

_one_core = False           # in a lane, and in its caller while `here()` runs
_SPLIT_MACS = 1 << 22       # multiply-adds from which a product is split
_pool: ThreadPoolExecutor | None = None
_local = threading.local()      # `is_worker` is set on the worker thread


def cores() -> int:
    """Cores this thread may fill: 1 on the worker thread, inside a lane, in
    the caller while a lane runs, or where the platform reports no CPU
    affinity (macOS); else the process's affinity."""
    if (_one_core or getattr(_local, "is_worker", False)
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _mark_worker() -> None:
    _local.is_worker = True


def _worker() -> ThreadPoolExecutor | None:
    """The worker thread, started on first use; None where `cores()` reads 1."""
    global _pool
    if cores() < 2:
        return None
    if _pool is None:
        _pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pvae-frames",
                                   initializer=_mark_worker)
    return _pool


def _drop_pool() -> None:       # a forked child has no worker thread; it makes its own
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_pool)


class Tasks:
    """The tasks a `with` block starts on the worker, and their join (see
    the module docstring)."""

    def __init__(self):
        self._futures: list[Future] = []

    def __enter__(self) -> Tasks:
        return self

    def start(self, stage: Callable[[], A]) -> Future[A]:
        """Start `stage()` on the worker, in the caller's context, and return
        its future; where `cores()` reads 1, run it here and return it done.
        Either way its error is raised by `result()`, and by the exit."""
        pool = _worker()
        if pool is not None:
            future = pool.submit(contextvars.copy_context().run, stage)
        else:
            future = Future()
            try:
                future.set_result(stage())
            except Exception as exc:
                future.set_exception(exc)
        # drop the tasks done without error, so that the block does not hold
        # each result until it ends
        self._futures = [f for f in self._futures if not f.done() or f.exception()]
        self._futures.append(future)
        return future

    def __exit__(self, kind, error, traceback) -> None:
        failed = [e for e in [f.exception() for f in self._futures] if e is not None]
        if failed and error is None:
            raise failed[0]


def splits(macs: int) -> bool:
    """Whether work of `macs` multiply-adds goes (in part) to the worker: from
    `_SPLIT_MACS` on, where `cores()` reads 2 or more."""
    return macs >= _SPLIT_MACS and cores() > 1


def by_frames(n_frames: int, macs: int, part: Callable[[int, int], object]) -> None:
    """Run `part(lo, hi)` over frames [0, n_frames) of a (T, B, .) stack, inline
    below `_SPLIT_MACS` multiply-adds or where `cores()` reads 1; else the
    second half as a task and the first half here, joined by `Tasks`."""
    if n_frames < 2 or not splits(macs):
        part(0, n_frames)
        return
    with Tasks() as tasks:
        tasks.start(partial(part, n_frames // 2, n_frames))
        part(0, n_frames // 2)


def fork_join(lane: Callable[[], A], here: Callable[[], B], name: str) -> tuple[A, B]:
    """(lane(), here()), the first computed in a forked child on two or more
    cores; a failure of the child is named by `name`."""
    global _one_core
    if cores() < 2:
        return lane(), here()
    read_fd, write_fd = os.pipe()
    sys.stdout.flush()              # or the child's buffers would repeat them
    sys.stderr.flush()
    # The split worker waits idle between splits; the child starts without
    # it (`_drop_pool`).
    pid = os.fork()
    if pid == 0:
        _serve(lane, read_fd, write_fd)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    lost = None
    try:
        _one_core = True        # set after the fork: the child sets its own
        try:
            mine = here()
        finally:
            _one_core = False
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
    global _one_core
    code = 1
    try:
        _one_core = True
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
