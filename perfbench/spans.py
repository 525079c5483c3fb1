"""In-memory span recorder that times the program's layers from outside.

The benchmark never edits the program: :class:`SpanRecorder` replaces
chosen public functions and methods with thin wrappers for the duration
of one traced fit, then puts the originals back. Each call becomes a
span with a name, a start, an end, a parent span and a thread. Host
times come from the per-thread CPU clock (``time.thread_time``): the
simulated machine's rank threads take turns on the interpreter lock, so
a wall-clock span would also count the other ranks' work.

Spans stay in compact per-thread arrays while the fit runs and are
reduced or written out once at the end. A span's *self* time is its
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

import numpy as np

__all__ = ["SpanRecorder"]


class _ThreadSpans:
    """Spans of one thread: parallel arrays indexed by span id."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def open(self, name_id: int) -> int:
        sid = len(self.names)
        self.names.append(name_id)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.thread_time())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.thread_time()
        self.stack.pop()


class SpanRecorder:
    """Wraps functions in spans; :meth:`restore` undoes every wrap."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # a list, not keyed by thread ident: idents are reused once a
        # thread ends, and every rank thread of every run keeps its spans
        self._threads: list[_ThreadSpans] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def _buf(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            t = threading.current_thread()
            buf = _ThreadSpans(t.name)
            with self._lock:
                self._threads.append(buf)
            self._local.buf = buf
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def count(self, key: str, n: int) -> None:
        """Add ``n`` to a counter kept where the work happens."""
        self._buf().counters[key] += int(n)

    def _wrapper(
        self,
        name: str,
        fn: Callable,
        *,
        outer_only: bool = False,
        after: Callable | None = None,
    ) -> Callable:
        nid = self._name_id(name)
        if inspect.isgeneratorfunction(fn):
            # a generator's work happens on each resume, between the
            # consumer's own steps: one span per resume
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                buf = self._buf()
                try:
                    while True:
                        sid = buf.open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            buf.close(sid)
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = self._buf()
            if outer_only and buf.stack and buf.names[buf.stack[-1]] == nid:
                return fn(*args, **kwargs)  # recursion: the outer span covers it
            sid = buf.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.close(sid)
            if after is not None:
                after(self, args, kwargs, out)
            return out

        return wrapper

    # -- installing wrappers ----------------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str, **opts) -> None:
        orig = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, orig, **opts))
        self._undo.append((cls, attr, orig))

    def wrap_function(self, fn: Callable, name: str, **opts) -> None:
        """Rebind ``fn`` in every ``repro`` module that holds it, so calls
        through ``from x import fn`` bindings are wrapped too."""
        wrapped = self._wrapper(name, fn, **opts)
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, fn))
                    found = True
        if not found:
            raise LookupError(f"{fn.__module__}.{fn.__qualname__} is not bound in repro")

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reduction ------------------------------------------------------------
    def _thread_arrays(self):
        for buf in self._threads:
            if not len(buf.names):
                continue
            names = np.frombuffer(buf.names, dtype=np.int32).copy()
            starts = np.frombuffer(buf.starts, dtype=np.float64).copy()
            ends = np.frombuffer(buf.ends, dtype=np.float64).copy()
            parents = np.frombuffer(buf.parents, dtype=np.int32).copy()
            yield buf.name, names, starts, ends, parents

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``,
        summed over threads. Inclusive time of a name nested in itself is
        counted once per span, so only ``self_s`` adds up across names."""
        n = len(self._names)
        calls = np.zeros(n)
        total = np.zeros(n)
        self_s = np.zeros(n)
        for _, names, starts, ends, parents in self._thread_arrays():
            dur = ends - starts
            has_parent = parents >= 0
            child = np.bincount(
                parents[has_parent], weights=dur[has_parent], minlength=len(dur)
            )
            calls += np.bincount(names, minlength=n)
            total += np.bincount(names, weights=dur, minlength=n)
            self_s += np.bincount(names, weights=dur - child, minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self._names)
        }

    def counters(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for buf in self._threads:
            for k, v in buf.counters.items():
                out[k] += v
        return dict(out)

    def n_spans(self) -> int:
        return sum(len(b.names) for b in self._threads)

    def save(self, path: str) -> None:
        """Write every span once, as one compressed ``.npz``: per span its
        name id, thread index, start, end (thread-CPU seconds) and parent
        span index within the same thread (-1 for a root)."""
        threads = list(self._thread_arrays())
        np.savez_compressed(
            path,
            names=np.array(self._names),
            thread_names=np.array([t[0] for t in threads]),
            thread=np.concatenate(
                [np.full(len(t[1]), k, dtype=np.int32) for k, t in enumerate(threads)]
                or [np.empty(0, dtype=np.int32)]
            ),
            **{
                field: np.concatenate([t[i] for t in threads] or [np.empty(0)])
                for i, field in enumerate(("name", "start", "end", "parent"), start=1)
            },
        )
