"""Seeded context-switch fuzzing: deterministic thread interleavings.

Real races hide behind the scheduler: a lost update in an unlocked
counter increment needs two threads inside the same
read-modify-write window, which free-running tests hit once in a
thousand runs.  :class:`InterleavingHarness` removes the luck.  It runs
the registered thread bodies under a *single-token* discipline — at any
moment exactly one thread executes, every other thread parks on its own
semaphore — and at every traced line the running thread asks a
``random.Random(seed)`` which thread runs next.  Because only the token
holder ever consults the RNG, the whole interleaving is a pure function
of the seed: a seed that loses an update today loses the same update in
CI forever, and the recorded :attr:`HarnessResult.schedule` is
byte-identical across runs.

Line granularity comes from ``sys.settrace`` (installed per worker via
``threading.settrace``), filtered to the files registered with
:meth:`InterleavingHarness.trace`; untraced code runs at full speed.

OS locks would deadlock under this discipline (the token holder blocks
on a lock whose owner cannot run), so shared state under test swaps its
``_lock`` for a :class:`CooperativeLock` from
:meth:`InterleavingHarness.lock` — busy-waiting by *handing the token
away*.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import dataclass, field
from types import FrameType
from typing import Any, Callable, Iterable

__all__ = [
    "CooperativeLock",
    "HarnessDeadlock",
    "HarnessResult",
    "InterleavingHarness",
    "find_racy_seed",
]


class HarnessDeadlock(RuntimeError):
    """Every other thread is finished yet the running one cannot proceed."""


class _Aborted(BaseException):
    """Internal: unwind a worker after the harness gave up (timeout)."""


@dataclass
class HarnessResult:
    """Outcome of one :meth:`InterleavingHarness.run`.

    ``schedule`` is the sequence of thread indices that received the
    token — the deterministic fingerprint of the interleaving.
    """

    schedule: tuple[int, ...] = ()
    switches: int = 0
    errors: list[tuple[str, BaseException]] = field(default_factory=list)
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors and not self.timed_out


class CooperativeLock:
    """A lock that yields the scheduling token instead of blocking.

    Only ever manipulated by the harness's single running thread, so
    plain attribute updates are atomic by construction; the point is
    the *protocol* (hand the token away until the owner releases), not
    memory safety.
    """

    def __init__(self, harness: "InterleavingHarness", name: str) -> None:
        self._harness = harness
        self.name = name
        self._owner: int | None = None

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        harness = self._harness
        while self._owner is not None:
            if not blocking:
                return False
            harness._yield_to_other()
        self._owner = harness._current
        return True

    def release(self) -> None:
        if self._owner is None:
            raise RuntimeError(f"release of unacquired CooperativeLock {self.name!r}")
        self._owner = None

    def locked(self) -> bool:
        return self._owner is not None

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class InterleavingHarness:
    """Run thread bodies under forced, seeded, line-level scheduling."""

    def __init__(self, seed: int = 0, max_switches: int = 100_000) -> None:
        self.seed = seed
        self.max_switches = max_switches
        self._rng = random.Random(seed)
        self._bodies: list[tuple[str, Callable[[], Any]]] = []
        self._trace_files: set[str] = set()
        self._tokens: list[threading.Semaphore] = []
        self._runnable: set[int] = set()
        self._current: int = -1
        self._schedule: list[int] = []
        self._switches = 0
        self._abort = False
        self._done = threading.Semaphore(0)
        self._errors: list[tuple[str, BaseException]] = []

    # -- registration -------------------------------------------------

    def add(self, body: Callable[[], Any], name: str | None = None) -> int:
        """Register a thread body; returns its index (the schedule id)."""
        index = len(self._bodies)
        self._bodies.append((name or f"thread-{index}", body))
        return index

    def trace(self, *modules_or_files: Any) -> None:
        """Switch-point granularity: trace lines of these modules/files."""
        for item in modules_or_files:
            filename = getattr(item, "__file__", None) or str(item)
            self._trace_files.add(filename)

    def lock(self, name: str = "lock") -> CooperativeLock:
        """A harness-aware lock to swap into the object under test."""
        return CooperativeLock(self, name)

    # -- scheduling core ----------------------------------------------

    def _switch_to(self, target: int) -> None:
        me = self._current
        self._current = target
        self._schedule.append(target)
        self._tokens[target].release()
        self._tokens[me].acquire()
        if self._abort:
            raise _Aborted

    def _maybe_switch(self) -> None:
        if self._abort:
            raise _Aborted
        if not self._runnable:
            return
        self._switches += 1
        if self._switches > self.max_switches:
            raise HarnessDeadlock(
                f"interleaving exceeded {self.max_switches} switch points "
                f"(seed {self.seed}); livelock in the code under test?"
            )
        target = self._rng.choice(sorted(self._runnable))
        if target != self._current:
            self._switch_to(target)

    def _yield_to_other(self) -> None:
        """Hand the token to some *other* runnable thread (lock busy-wait)."""
        others = sorted(self._runnable - {self._current})
        if not others:
            raise HarnessDeadlock(
                "cooperative lock is held but no other thread is runnable "
                f"(seed {self.seed}) -- a thread exited while holding it?"
            )
        self._switches += 1
        if self._switches > self.max_switches:
            raise HarnessDeadlock(
                f"interleaving exceeded {self.max_switches} switch points "
                f"while waiting for a lock (seed {self.seed})"
            )
        self._switch_to(self._rng.choice(others))

    # -- tracing ------------------------------------------------------

    def _global_trace(self, frame: FrameType, event: str, arg: Any):
        if event != "call" or frame.f_code.co_filename not in self._trace_files:
            return None
        return self._local_trace

    def _local_trace(self, frame: FrameType, event: str, arg: Any):
        if event == "line":
            self._maybe_switch()
        return self._local_trace

    # -- worker lifecycle ---------------------------------------------

    def _worker(self, index: int, name: str, body: Callable[[], Any]) -> None:
        self._tokens[index].acquire()  # wait for the first token grant
        if self._abort:
            return
        try:
            body()
        except _Aborted:
            return
        except BaseException as error:  # noqa: B036 - report, don't die
            self._errors.append((name, error))
        finally:
            sys.settrace(None)
            self._runnable.discard(index)
            if self._abort:
                pass
            elif self._runnable:
                target = self._rng.choice(sorted(self._runnable))
                self._current = target
                self._schedule.append(target)
                self._tokens[target].release()
            else:
                self._done.release()

    # -- entry --------------------------------------------------------

    def run(self, timeout: float = 60.0) -> HarnessResult:
        """Execute all registered bodies to completion; returns the result.

        A fresh harness per run: ``run`` is not reentrant.
        """
        if not self._bodies:
            return HarnessResult()
        self._tokens = [threading.Semaphore(0) for _ in self._bodies]
        self._runnable = set(range(len(self._bodies)))
        threads = [
            threading.Thread(
                target=self._worker, args=(index, name, body),
                name=f"tsan-{name}", daemon=True,
            )
            for index, (name, body) in enumerate(self._bodies)
        ]
        gettrace = getattr(threading, "gettrace", None)  # 3.12+
        previous_trace = (
            gettrace() if gettrace is not None
            else threading._trace_hook  # type: ignore[attr-defined]
        )
        threading.settrace(self._global_trace)
        try:
            for thread in threads:
                thread.start()
            first = self._rng.choice(sorted(self._runnable))
            self._current = first
            self._schedule.append(first)
            self._tokens[first].release()
            finished = self._done.acquire(timeout=timeout)
            if not finished:
                self._abort = True
                for token in self._tokens:
                    token.release()
            for thread in threads:
                thread.join(timeout=5.0)
        finally:
            threading.settrace(previous_trace)  # type: ignore[arg-type]
        return HarnessResult(
            schedule=tuple(self._schedule),
            switches=self._switches,
            errors=list(self._errors),
            timed_out=not finished,
        )


def find_racy_seed(
    build: Callable[["InterleavingHarness"], Callable[[], bool]],
    seeds: Iterable[int],
) -> int | None:
    """First seed whose interleaving makes ``build``'s checker report a race.

    ``build`` wires bodies into a *fresh* harness and returns a
    zero-argument checker evaluated after the run (``True`` = race
    observed).  Used to pin a witnessing seed for the planted
    lost-update race.
    """
    for seed in seeds:
        harness = InterleavingHarness(seed=seed)
        check = build(harness)
        result = harness.run()
        if result.ok and check():
            return seed
    return None
