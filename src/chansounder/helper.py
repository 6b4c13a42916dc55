"""One helper thread that runs a call beside the calling thread.

The emulator and the sounder spend nearly all their time in numpy calls that
release the interpreter lock (seeded noise draws, FFTs, elementwise
arithmetic), so a second thread can take one part of a large block's work
(the noise chunks it claims first, or half of its frames) while the caller
does the rest.
There is one helper per process, started on first use and kept for the
life of the process; a forked child starts its own. Blocks shorter than
``HANDOFF_SAMPLES`` are not worth the hand-off and stay on the calling
thread. Which thread runs a step never changes its result: the callers
hand off only steps that write disjoint outputs.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Callable

__all__ = ["HANDOFF_SAMPLES", "Job", "submit"]

HANDOFF_SAMPLES = 1 << 15  # smallest block (samples) worth handing off


class Job:
    """One call handed to the helper thread."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.done = threading.Event()
        self.value = self.error = None

    def run(self) -> None:
        try:
            self.value = self.fn()
        except BaseException as exc:  # re-raised in the caller by result()
            self.error = exc
        finally:
            self.done.set()

    def wait(self) -> None:
        """Block until the call has finished, whatever its outcome."""
        self.done.wait()

    def result(self):
        """Wait, then return the call's value or raise its exception."""
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


class _Helper:
    """A daemon thread serving jobs in the order they were submitted."""

    def __init__(self):
        self._jobs: deque[Job] = deque()
        self._ready = threading.Semaphore(0)
        threading.Thread(
            target=self._serve, name="chansounder-helper", daemon=True
        ).start()

    def _serve(self) -> None:
        while True:
            self._ready.acquire()
            self._jobs.popleft().run()

    def submit(self, fn: Callable) -> Job:
        job = Job(fn)
        self._jobs.append(job)
        self._ready.release()
        return job


_helper: _Helper | None = None
_helper_lock = threading.Lock()


def _forget_helper() -> None:
    # a forked child inherits the helper object but not its thread
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _get_helper() -> _Helper:
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = _Helper()
        return _helper


def submit(fn: Callable[[], object]) -> Job:
    """Start ``fn()`` on the helper thread; its job yields the result."""
    return _get_helper().submit(fn)
