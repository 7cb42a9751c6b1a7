"""Outside-in span tracer for the zsmg modules.

The tracer records spans from the benchmark's side only: it replaces public
functions of the package by recording wrappers and restores them afterwards,
so nothing under ``src/`` carries tracing code.  Modules import names
directly (``from .games import q_from_v``), so a wrapper is bound wherever the
original function object is bound, in every loaded ``zsmg`` module, which is
where its callers look it up.

A span has an id (its index), a name, start and end times, the id of the
enclosing recorded span (-1 at top level) and the operation id the benchmark
set around the call, shared by every span of that operation (-1 outside any
operation).  Spans stay in memory, in flat arrays, until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def install(self, functions: dict[str, Callable],
                observers: dict[str, Callable] | None = None) -> None:
        """Wrap each ``name -> function`` at every binding in the loaded zsmg modules.

        An observer, when given for a name, is called with ``(args, kwargs)``
        before the span opens; it should only stash what it needs.
        """
        observers = observers or {}
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "zsmg" or key.startswith("zsmg."))]
        for name, fn in functions.items():
            wrapper = self._wrap(name, fn, observers.get(name))
            bound = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, fn))
                        bound += 1
            if bound == 0:
                raise LookupError(f"{name} is bound in no loaded zsmg module")

    def uninstall(self) -> None:
        """Restore every original binding."""
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            span = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return wrapper

    def per_op(self) -> dict[int, dict[str, list[float]]]:
        """Per operation id and span name: ``[calls, self seconds, total seconds]``.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_time = defaultdict(float)
        for parent, start, end in zip(self.parent, self.start, self.end):
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[int, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        for span, (name, start, end, op) in enumerate(
                zip(self.name, self.start, self.end, self.op)):
            entry = out[op][self.names[name]]
            entry[0] += 1
            entry[1] += end - start - child_time[span]
            entry[2] += end - start
        return out

    def count_children(self, parent_name: str, child_name: str) -> dict[int, int]:
        """Per operation id: calls of ``child_name`` made directly inside ``parent_name``."""
        if parent_name not in self.names or child_name not in self.names:
            return {}
        parent_id, child_id = self.names.index(parent_name), self.names.index(child_name)
        counts: dict[int, int] = defaultdict(int)
        for name, parent, op in zip(self.name, self.parent, self.op):
            if name == child_id and parent >= 0 and self.name[parent] == parent_id:
                counts[op] += 1
        return counts

    def write(self, path: Path) -> None:
        """Write every span as one CSV line of gzip text: id,name,start,end,parent,op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for span, (name, start, end, parent, op) in enumerate(
                    zip(self.name, self.start, self.end, self.parent, self.op)):
                fh.write(f"{span},{self.names[name]},{start!r},{end!r},{parent},{op}\n")
