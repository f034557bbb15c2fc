"""Span tracing of tensorstable calls, installed from outside the package.

The package binds its functions across modules with ``from .x import y``, so
one function object can sit under several names (``oracles.choi`` is
``maps.choi``).  :meth:`Tracer.patch` replaces every binding of the same
object in the ``tensorstable`` modules and :meth:`Tracer.restore` puts the
originals back.  Each call of a wrapped function records a :class:`Span`.
Spans are kept in memory; :func:`layer_stats` turns them into per-layer
numbers and :func:`write_spans` writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    """One call of a wrapped function; ``note`` holds a per-layer detail."""

    __slots__ = ("name", "start", "end", "parent", "thread", "note", "error")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.note = None
        self.error = None


class Tracer:
    """Records spans with a per-thread stack of open spans.

    A span opened on a thread with no open span of its own gets, as parent,
    the innermost open span of the thread that created the tracer.  In
    tensorstable the only other threads are the ``region_scan`` pool, whose
    work belongs to the scan the creating thread is blocked in.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, note=None):
        """Return ``fn`` wrapped to record a span; ``note(args, result)`` fills ``Span.note``."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._root_stack and self._root_stack:
                parent = self._root_stack[-1]
            else:
                parent = None
            span = Span(name, time.perf_counter(), parent, threading.get_ident())
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                span.note = note(args, result)
            return result

        return traced

    def patch(self, name, owner, attr, note=None) -> None:
        """Wrap ``owner.attr`` and every other binding of it in ``tensorstable``."""
        original = vars(owner)[attr]
        wrapper = self.wrap(name, original, note)
        bindings = [(owner, attr)]
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("tensorstable"):
                continue
            for key, value in list(vars(module).items()):
                if value is original and (module, key) != (owner, attr):
                    bindings.append((module, key))
        for obj, key in bindings:
            self._patches.append((obj, key, original))
            setattr(obj, key, wrapper)

    def restore(self) -> None:
        """Put back every original binding, newest first."""
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        del self.spans[:]
        return spans


def self_times(spans) -> dict[int, float]:
    """Self time of each span, keyed by ``id(span)``.

    A span's self time is its duration minus the part of its interval that
    the union of its children covers; children on different threads may
    overlap each other.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        lo = hi = None
        for start, end in sorted(children.get(id(s), ())):
            start, end = max(start, s.start), min(end, s.end)
            if end <= start:
                continue
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        out[id(s)] = (s.end - s.start) - covered
    return out


def layer_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and the sum of ``note``."""
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "note": 0})
    for s in spans:
        st = stats[s.name]
        st["calls"] += 1
        st["self_s"] += own[id(s)]
        if s.note is not None:
            st["note"] += s.note
    return dict(stats)


def write_spans(spans, path) -> None:
    """Write spans as JSON lines: id, name, start, end, parent id, thread, error."""
    ids = {id(s): i for i, s in enumerate(spans)}
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            parent = ids.get(id(s.parent)) if s.parent is not None else None
            fh.write(json.dumps([i, s.name, s.start, s.end, parent, s.thread, s.error]) + "\n")
