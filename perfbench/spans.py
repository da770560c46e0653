"""In-memory spans around the program's public callables.

The benchmark never edits the program: it times a layer by replacing a
public callable (a module's ``forward``, ``Tensor.backward``,
``Adam.step``, ...) with a wrapper that records a span and calls the
original.  Spans are kept in memory and written out as one JSON file per
process when the process ends, including forked serve workers, whose
file is written by a ``multiprocessing`` finaliser.

A span is ``[name, parent, root, start, end]``: ``parent`` is the index
of the enclosing span in the same thread (``-1`` for none) and ``root``
is the id of the step or request the span belongs to.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_MISSING = object()


class SpanRecorder:
    """Records nested spans per thread and per-process counters."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        self._next_root = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        if os.getpid() != self._pid:
            self._adopt_fork()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _adopt_fork(self) -> None:
        """First span in a forked child: start empty, dump at child exit."""
        from multiprocessing import util

        self._pid = os.getpid()
        self.spans = []
        self.counters = defaultdict(float)
        self._local = threading.local()
        if self.out_dir is not None:
            util.Finalize(None, self.dump, exitpriority=100)

    def begin(self, name: str) -> int:
        """Open a span; a span with no open parent starts a new root."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
            root = self.spans[parent][2]
        else:
            parent = -1
            root = self._next_root
            self._next_root += 1
        index = len(self.spans)
        self.spans.append([name, parent, root, time.perf_counter(), 0.0])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    # ------------------------------------------------------------------
    # wrapping public callables
    # ------------------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str,
             counter: Optional[Tuple[str, Callable]] = None) -> None:
        """Time ``owner.attr`` as span ``name``.

        ``counter=(key, fn)`` also adds ``fn(result)`` to counter ``key``
        after each call.
        """
        original = owner.__dict__.get(attr, _MISSING) \
            if isinstance(owner, type) else getattr(owner, attr)
        target = getattr(owner, attr)
        recorder = self

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            index = recorder.begin(name)
            try:
                result = target(*args, **kwargs)
            finally:
                recorder.end(index)
            if counter is not None:
                recorder.count(counter[0], counter[1](result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    def dump(self) -> Optional[Path]:
        """Write this process's spans to ``out_dir/spans-<pid>.json``."""
        if self.out_dir is None:
            return None
        path = Path(self.out_dir) / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps({"pid": os.getpid(),
                                    "spans": self.spans,
                                    "counters": dict(self.counters)}))
        return path


def load_dumps(out_dir: str) -> List[dict]:
    """Every span file a run wrote, one dict per process."""
    return [json.loads(path.read_text())
            for path in sorted(Path(out_dir).glob("spans-*.json"))]


def _in_window(span: list, window: Optional[Tuple[float, float]]) -> bool:
    return window is None or window[0] <= span[3] <= window[1]


def self_times(spans: Iterable[list],
               window: Optional[Tuple[float, float]] = None
               ) -> Dict[str, Tuple[float, int]]:
    """``{name: (self seconds, calls)}``: duration minus child spans.

    ``spans`` is one process's list (parents are indices into it);
    ``window`` keeps only spans that start inside ``(start, end)``.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, parent, _root, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for index, span in enumerate(spans):
        if _in_window(span, window):
            row = out[span[0]]
            row[0] += (span[4] - span[3]) - child_time[index]
            row[1] += 1
    return {name: (row[0], int(row[1])) for name, row in out.items()}


def totals(spans: Iterable[list],
           window: Optional[Tuple[float, float]] = None
           ) -> Dict[str, Tuple[float, int]]:
    """``{name: (total seconds, calls)}`` including child spans."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        if _in_window(span, window):
            out[span[0]][0] += span[4] - span[3]
            out[span[0]][1] += 1
    return {name: (row[0], int(row[1])) for name, row in out.items()}


def merge(*tables: Dict[str, Tuple[float, int]]
          ) -> Dict[str, Tuple[float, int]]:
    """Sum per-process tables from :func:`self_times` / :func:`totals`."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for table in tables:
        for name, (seconds, calls) in table.items():
            out[name][0] += seconds
            out[name][1] += calls
    return {name: (row[0], int(row[1])) for name, row in out.items()}
