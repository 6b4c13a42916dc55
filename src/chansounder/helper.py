"""One helper thread and the work queue that splits a step with the caller.

The emulator and the sounder spend nearly all their time in numpy calls that
release the interpreter lock, so a second thread can run part of a large
block's work. Only this module decides which thread runs what: a step is a
``WorkQueue`` of ordered pieces; the helper claims pieces from the front as
soon as the queue is made, and the caller runs the rest from the back in
``finish``. A step of fewer than ``HANDOFF_SAMPLES`` samples stays on the
calling thread; ``split`` cuts whole units, such as frames, into pieces of
about that size. The callers' pieces write disjoint outputs, so which thread
runs a piece never changes the result. There is one helper per process,
started on first use; a forked child starts its own.

A piece works in ``scratch``: per-thread arrays, one per name, that only
grow and are reused by every later request on that thread. So a step that
has warmed up allocates no array of its own size, and two threads never
share a scratch array. A piece returns nothing that points into scratch.

Every file the package writes goes through ``output``, so an output appears
whole under its name or not at all.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from queue import SimpleQueue
from typing import Callable, Iterable

import numpy as np

__all__ = ["HANDOFF_SAMPLES", "WorkQueue", "output", "scratch", "split"]

HANDOFF_SAMPLES = 1 << 15  # smallest step (samples) worth handing off


def split(start: int, stop: int, unit: int) -> list[tuple[int, int]]:
    """The whole units of [start, stop) in runs of about HANDOFF_SAMPLES samples.

    A step of HANDOFF_SAMPLES or more gets an even number of runs, at least
    two, so that neither thread is left a run of its own at the end: two
    runs per 2 * HANDOFF_SAMPLES, rounded, as far as the whole units allow.
    """
    size = stop - start
    n = size // unit
    runs = 1
    if size >= HANDOFF_SAMPLES:
        runs = min(2 * max(1, round(size / (2 * HANDOFF_SAMPLES))), n - n % 2)
    runs = max(runs, min(n, 1))
    edges = [start + n * k // runs * unit for k in range(runs + 1)] if n else []
    return list(zip(edges, edges[1:]))


_scratch = threading.local()  # name -> this thread's byte buffer


def scratch(name: str, shape, dtype) -> np.ndarray:
    """An uninitialized ``shape`` array of ``dtype`` in this thread's buffer ``name``.

    The buffer grows to the largest request so far, and a request that fits
    gets the same memory again. So the array is valid only until this
    thread's next request for ``name``; use distinct names for arrays that
    are live together.
    """
    dtype = np.dtype(dtype)
    size = (shape if isinstance(shape, int) else math.prod(shape)) * dtype.itemsize
    buf = _scratch.__dict__.get(name)
    if buf is None or buf.size < size:
        buf = _scratch.__dict__[name] = np.empty(size, dtype=np.uint8)
    return buf[:size].view(dtype).reshape(shape)


class WorkQueue:
    """Pieces ``(start, stop)`` of one step, each run once by ``fn(start, stop)``.

    A deque pop from either end is atomic, so the deque is the claim lock:
    the helper's pieces form a prefix of the list and the caller's a suffix.
    Finish or cancel every queue before its outputs are read or reused.
    """

    def __init__(self, pieces: Iterable[tuple[int, int]], fn: Callable[[int, int], object]):
        self._pieces = deque(pieces)
        self._fn = fn
        self._error: BaseException | None = None
        self._done = threading.Event()
        if sum(b - a for a, b in self._pieces) < HANDOFF_SAMPLES:
            self._done.set()  # finish() runs every piece
        else:
            _get_helper().put(self)

    def _drain(self, take: Callable[[], tuple[int, int]]) -> None:
        while True:
            try:
                start, stop = take()
            except IndexError:
                return
            self._fn(start, stop)

    def _run_on_helper(self) -> None:
        try:
            self._drain(self._pieces.popleft)
        except BaseException as exc:  # re-raised in the caller by finish()
            self._error = exc
        finally:
            self._done.set()

    def finish(self) -> None:
        """Run the unclaimed pieces, wait for the helper, raise its error."""
        try:
            self._drain(self._pieces.pop)
        except BaseException:
            self.cancel()
            raise
        self._done.wait()
        if self._error is not None:
            raise self._error

    def cancel(self) -> None:
        """Drop the unclaimed pieces; wait only for the piece in flight."""
        self._pieces.clear()
        self._done.wait()


def _serve(queues: SimpleQueue) -> None:
    while True:
        queues.get()._run_on_helper()


_helper: SimpleQueue | None = None  # the work queues the helper thread serves
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    # a forked child inherits the helper's queue but not its thread
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _get_helper() -> SimpleQueue:
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = SimpleQueue()
            threading.Thread(
                target=_serve, args=(_helper,), name="chansounder-helper", daemon=True
            ).start()
        return _helper


@contextmanager
def output(path, mode: str = "w", **open_kwargs):
    """``open(<path>.partial, mode, **open_kwargs)``, renamed to ``path`` when
    the block ends; any old file at ``path`` is removed first, and the
    partial file is deleted if the block raises. An error that names the
    partial file names ``path`` instead."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    path.unlink(missing_ok=True)
    try:
        with open(partial, mode, **open_kwargs) as fh:
            yield fh
    except BaseException as exc:
        partial.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(partial):
            exc.filename = str(path)
        raise
    partial.replace(path)
