"""Fault-tolerant multi-process task pool for experiment fan-out.

:class:`ExperimentPool` runs a set of *task ids* through a ``task_fn``
across N worker processes.  It is built for the evaluation protocol's
workload — independent, self-seeded runs whose results must be
bitwise-identical to serial execution — so its contract is deliberately
narrow:

- **fork start method.**  Workers are forked, never spawned, so
  ``task_fn`` may be an arbitrary closure (the protocol's ``one_run``
  captures a model factory and a dataset) and the dataset arrays are
  shared copy-on-write instead of being re-pickled per run.  Only task
  ids (small picklables) travel parent→worker and result payloads travel
  worker→parent.
- **Per-worker pipes, not one shared queue.**  Each worker owns a task
  pipe and an event pipe.  When a worker dies mid-write, only its own
  pipe is poisoned; the pool discards the whole worker and its channel,
  so one SIGKILL can never corrupt another worker's result stream.
- **Crashes are retried, exceptions are not.**  A worker that dies
  (SIGKILL, OOM, ``os._exit``) or hangs past ``task_timeout`` takes no
  result with it: its task is re-queued and retried up to
  ``max_attempts`` times (the runs are deterministic, so a retry
  produces the identical result).  A Python *exception* in ``task_fn``
  is a deterministic bug, not an infrastructure fault — it propagates
  immediately as :class:`TaskFailedError` with the worker traceback.
- **Deterministic aggregation.**  Results are keyed by task id; callers
  assemble them in task order, so the scheduling order (which is
  timing-dependent) never leaks into the output.

See ``docs/parallelism.md`` for the full design and determinism
contract.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
import traceback
import warnings
from collections import deque
from multiprocessing.connection import wait as _wait_connections
from typing import Any, Callable, Dict, List, Optional, Sequence

from .telemetry import PoolTelemetry

TaskFn = Callable[[Any], Any]
ResultHook = Callable[[Any, Any], None]

#: how long the event loop sleeps in ``wait`` before re-checking worker
#: liveness; small enough that a SIGKILL is noticed promptly, large
#: enough to stay invisible in profiles
_POLL_SECONDS = 0.05


class ParallelUnavailableError(RuntimeError):
    """The platform cannot fork (e.g. Windows); run serially instead."""


class TaskFailedError(RuntimeError):
    """``task_fn`` raised inside a worker (deterministic failure).

    Carries the worker-side traceback text; retrying would reproduce the
    same exception, so the pool fails fast instead.
    """

    def __init__(self, task: Any, worker: int, worker_traceback: str):
        self.task = task
        self.worker = worker
        self.worker_traceback = worker_traceback
        super().__init__(
            f"task {task!r} raised in worker {worker}:\n{worker_traceback}")


class WorkerCrashError(RuntimeError):
    """A task's workers kept dying; the retry budget is exhausted."""

    def __init__(self, task: Any, attempts: int, detail: str):
        self.task = task
        self.attempts = attempts
        super().__init__(
            f"task {task!r} crashed its worker on all {attempts} "
            f"attempt(s) ({detail}); giving up — the task itself is "
            "killing the process (OOM? os._exit in user code?)")


def fork_available() -> bool:
    """Whether the required ``fork`` start method exists on this host."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_workers(workers: Optional[int], n_tasks: int) -> int:
    """Normalize a worker-count request against the task count.

    ``None``/``0`` means "one per CPU"; the result is always clamped to
    ``[1, n_tasks]`` so idle workers are never forked.
    """
    if workers is None or workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(int(workers), max(n_tasks, 1)))


def die_with_parent() -> None:
    """Best effort: have the kernel kill this worker when its parent dies.

    Without it, SIGKILLing a pool's parent (which bypasses every Python
    cleanup path) orphans the workers mid-task; they would finish their
    run, fail the pipe write, and only then exit — holding inherited
    file descriptors open the whole time.  ``PR_SET_PDEATHSIG`` is
    Linux-only, hence the broad except: elsewhere orphans still exit at
    their next pipe operation, just not instantly.

    Shared worker-lifecycle machinery: called by the experiment pool's
    forked workers *and* by the serving cluster's inference workers
    (:mod:`repro.serve.cluster`).
    """
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        PR_SET_PDEATHSIG = 1
        libc.prctl(PR_SET_PDEATHSIG, int(signal.SIGKILL))
        if os.getppid() == 1:          # parent died before prctl took
            os._exit(1)
    except Exception:                   # pragma: no cover - non-Linux
        pass


def _worker_main(slot: int, task_conn, event_conn, task_fn: TaskFn) -> None:
    """Worker loop: recv task id, run it, send one event per task.

    Runs in the forked child.  Exits on the ``None`` sentinel.  Events:
    ``("done", slot, task, payload, seconds)`` or
    ``("fail", slot, task, traceback_text, seconds)``.
    """
    die_with_parent()
    while True:
        try:
            task = task_conn.recv()
        except (EOFError, OSError):        # parent went away
            return
        if task is None:
            return
        started = time.perf_counter()
        try:
            payload = task_fn(task)
        except BaseException:
            event_conn.send(("fail", slot, task, traceback.format_exc(),
                             time.perf_counter() - started))
        else:
            event_conn.send(("done", slot, task, payload,
                             time.perf_counter() - started))


class WorkerHandle:
    """Parent-side view of one forked worker slot: process + two pipes.

    Generic worker-lifecycle helper (PR 8 extracted it from the
    experiment pool so the serving cluster can reuse the exact
    PDEATHSIG/respawn-tested plumbing).  ``target`` runs in the forked
    child as ``target(slot, task_conn, event_conn, *args)``; the parent
    keeps the task-write and event-read ends.  Each worker owns its own
    pipe pair, so a worker dying mid-write can only poison its own
    channel, never a sibling's result stream.
    """

    def __init__(self, ctx, slot: int, target: Callable[..., None],
                 args: Sequence[Any] = (),
                 name_prefix: str = "repro-worker"):
        self.slot = slot
        self.target = target
        self.args = tuple(args)
        self.name_prefix = name_prefix
        # duplex=False: (read end, write end).  Parent keeps task_w and
        # event_r; the child uses its fork-inherited task_r / event_w.
        task_r, self.task_w = ctx.Pipe(duplex=False)
        self.event_r, event_w = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=target, args=(slot, task_r, event_w, *self.args),
            daemon=True, name=f"{name_prefix}-{slot}")
        self.process.start()
        # The child inherited its ends over fork; drop the parent's
        # copies so a dead child turns into EOF instead of a hang.
        task_r.close()
        event_w.close()
        self.current: Any = None           # task id in flight, or None
        self.dispatched_at: float = 0.0
        self.broken = False                # event pipe poisoned mid-write

    def respawn(self, ctx) -> "WorkerHandle":
        """A fresh handle for the same slot (kill/join/close this one)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.close()
        return type(self)(ctx, self.slot, self.target, self.args,
                          self.name_prefix)

    def close(self) -> None:
        for conn in (self.task_w, self.event_r):
            try:
                conn.close()
            except OSError:                 # pragma: no cover
                pass


class _WorkerHandle(WorkerHandle):
    """The experiment pool's worker slot: runs ``_worker_main(task_fn)``."""

    def __init__(self, ctx, slot: int, task_fn: TaskFn):
        self.task_fn = task_fn
        super().__init__(ctx, slot, _worker_main, args=(task_fn,),
                         name_prefix="repro-parallel")

    def respawn(self, ctx) -> "_WorkerHandle":
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.close()
        return _WorkerHandle(ctx, self.slot, self.task_fn)


class ExperimentPool:
    """Fan tasks out across forked workers with bounded crash retries.

    Parameters
    ----------
    workers:
        Worker process count (see :func:`resolve_workers` semantics).
    task_fn:
        ``task_fn(task_id) -> picklable payload``, executed in a forked
        worker.  Closures are fine — fork inherits them.
    max_attempts:
        How many times one task may crash/hang its worker before
        :class:`WorkerCrashError` aborts the pool (default 3).
    task_timeout:
        Seconds before an in-flight task is declared hung, its worker
        killed, and the task retried.  ``None`` (default) disables hang
        detection.
    """

    def __init__(self, workers: Optional[int], task_fn: TaskFn, *,
                 max_attempts: int = 3,
                 task_timeout: Optional[float] = None):
        if not fork_available():
            raise ParallelUnavailableError(
                "repro.parallel requires the 'fork' start method; this "
                "platform offers only "
                f"{multiprocessing.get_all_start_methods()} — run with "
                "workers=1 instead")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got "
                             f"{max_attempts}")
        self.requested_workers = workers
        self.task_fn = task_fn
        self.max_attempts = max_attempts
        self.task_timeout = task_timeout
        self._ctx = multiprocessing.get_context("fork")
        self._handles: List[_WorkerHandle] = []
        self.telemetry = PoolTelemetry(workers=0)

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Any],
            on_result: Optional[ResultHook] = None) -> Dict[Any, Any]:
        """Execute every task; returns ``{task_id: payload}``.

        ``on_result(task_id, payload)`` fires in the parent as each
        result arrives (completion order), which is what lets the
        experiment journal record finished runs while others are still
        training.  Raises :class:`TaskFailedError` on a worker-side
        exception and :class:`WorkerCrashError` when one task exhausts
        its crash budget; either way all workers are torn down.
        """
        tasks = list(tasks)
        if len(set(tasks)) != len(tasks):
            raise ValueError("duplicate task ids")
        if not tasks:
            self.telemetry = PoolTelemetry(workers=0)
            return {}
        n_workers = resolve_workers(self.requested_workers, len(tasks))
        self.telemetry = PoolTelemetry(workers=n_workers)
        self._results: Dict[Any, Any] = {}
        self._pending: deque = deque(tasks)
        self._attempts: Dict[Any, int] = {task: 0 for task in tasks}
        self._on_result = on_result
        started = time.perf_counter()
        self._handles = [_WorkerHandle(self._ctx, slot, self.task_fn)
                         for slot in range(n_workers)]
        failed = False
        try:
            while len(self._results) < len(tasks):
                self._dispatch()
                self._pump_events()
                self._reap()
        except BaseException:
            failed = True
            raise
        finally:
            self.telemetry.wall_seconds = time.perf_counter() - started
            self._shutdown(force=failed)
        return self._results

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Hand pending tasks to idle workers (one in flight each)."""
        self.telemetry.observe_queue_depth(len(self._pending))
        for handle in self._handles:
            if handle.current is not None or not self._pending:
                continue
            task = self._pending.popleft()
            try:
                handle.task_w.send(task)
            except OSError:
                # The worker died between tasks; the retry does not count
                # against the task (it never started running there).
                self._pending.appendleft(task)
                self._replace(handle)
                continue
            self._attempts[task] += 1
            handle.current = task
            handle.dispatched_at = time.perf_counter()

    def _pump_events(self) -> None:
        """Wait briefly for worker events and fold them into results."""
        conns = {handle.event_r: handle for handle in self._handles
                 if handle.current is not None and not handle.broken}
        if not conns:
            if any(h.current is not None for h in self._handles):
                time.sleep(_POLL_SECONDS)   # only broken workers remain
            return
        for conn in _wait_connections(list(conns), timeout=_POLL_SECONDS):
            handle = conns[conn]
            try:
                event = conn.recv()
            except (EOFError, OSError):
                # The worker died mid-write (or before writing): its
                # channel is unusable.  _reap retries the task.
                handle.broken = True
                continue
            self._apply_event(handle, event)

    def _apply_event(self, handle: _WorkerHandle, event: tuple) -> None:
        kind, slot, task, payload, seconds = event
        handle.current = None
        if kind == "done":
            self._results[task] = payload
            self.telemetry.record_task(task, slot, seconds,
                                       self._attempts[task])
            if self._on_result is not None:
                self._on_result(task, payload)
        else:
            raise TaskFailedError(task, slot, payload)

    def _reap(self) -> None:
        """Detect dead or hung workers and retry their tasks."""
        now = time.perf_counter()
        for handle in self._handles:
            if handle.current is None:
                continue
            if handle.broken or not handle.process.is_alive():
                # A completed result may still sit in the pipe: the
                # worker wrote it, then died before getting a new task.
                if not handle.broken and handle.event_r.poll():
                    try:
                        event = handle.event_r.recv()
                    except (EOFError, OSError):
                        event = None
                    if event is not None:
                        self._apply_event(handle, event)
                        self._replace(handle)
                        continue
                self.telemetry.crashes += 1
                self._retry_or_raise(
                    handle, f"exit code {handle.process.exitcode}")
            elif (self.task_timeout is not None
                  and now - handle.dispatched_at > self.task_timeout):
                handle.process.kill()
                handle.process.join()
                self.telemetry.timeouts += 1
                self._retry_or_raise(
                    handle,
                    f"hung past task_timeout={self.task_timeout:g}s")

    def _retry_or_raise(self, handle: _WorkerHandle, detail: str) -> None:
        task = handle.current
        if self._attempts[task] >= self.max_attempts:
            raise WorkerCrashError(task, self._attempts[task], detail)
        warnings.warn(
            f"repro.parallel: worker {handle.slot} lost task {task!r} "
            f"({detail}); retrying (attempt {self._attempts[task]}/"
            f"{self.max_attempts})", RuntimeWarning, stacklevel=4)
        self.telemetry.retries += 1
        self._pending.appendleft(task)
        self._replace(handle)

    def _replace(self, handle: _WorkerHandle) -> None:
        """Respawn a dead worker in the same slot, fresh pipes and all."""
        self._handles[handle.slot] = handle.respawn(self._ctx)

    def _shutdown(self, force: bool = False) -> None:
        """Stop every worker: sentinel when idle, terminate otherwise."""
        for handle in self._handles:
            graceful = (not force and handle.current is None
                        and handle.process.is_alive())
            if graceful:
                try:
                    handle.task_w.send(None)
                except OSError:
                    graceful = False
            if not graceful and handle.process.is_alive():
                handle.process.terminate()
        deadline = time.monotonic() + 5.0
        for handle in self._handles:
            handle.process.join(timeout=max(deadline - time.monotonic(),
                                            0.1))
            if handle.process.is_alive():   # pragma: no cover - stuck
                handle.process.kill()
                handle.process.join(timeout=1.0)
            handle.close()
        self._handles = []
