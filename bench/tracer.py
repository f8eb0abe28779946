"""In-memory span tracer that wraps the simulator's public entry points by name.

A span is (name, start, end, parent, repetition). Spans live in compact
arrays until the run ends and are then written out in one file. A span's
self time is its duration minus the time its child spans cover.

Entry points are resolved from ``"module:qualname"`` strings when the
tracer is installed. One that no longer exists is recorded as absent and
simply reports 0 calls, so the benchmark survives refactors that delete or
rename layers. Forked worker processes inherit the wrappers but not the
tracer's memory, so tracing switches itself off in them: spans recorded
there would be lost anyway, and the workers run at untraced speed.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import time
import weakref
from array import array
from pathlib import Path

import numpy as np

_TRACERS: "weakref.WeakSet[Tracer]" = weakref.WeakSet()


def _disable_in_child() -> None:
    for tracer in _TRACERS:
        tracer.active = False


os.register_at_fork(after_in_child=_disable_in_child)


def resolve(where: str):
    """(owner, attribute, function) for ``"module:qualname"``, or None if gone."""
    module_name, _, qualname = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = inspect.getattr_static(owner, attr, None)
    if not inspect.isfunction(original):
        return None
    return owner, attr, original


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.active = False
        self.absent: list[str] = []
        self.rep_starts: list[tuple[int, int]] = []  # (repetition id, first span index)
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []
        _TRACERS.add(self)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, result)`` runs
        once the span has closed. It still runs inside the enclosing span, so
        a costly ``after`` should be a span of its own to keep it out of that
        span's self time."""
        nid = self.name_id(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self, targets, package: str) -> None:
        """Wrap every ``(span name, "module:qualname", adapt, after)`` target.

        ``adapt(wrapper)`` may add a layer outside the span. Module-level
        functions are also replaced wherever a module of ``package`` imported
        them by name.
        """
        self.absent = []
        for name, where, adapt, after in targets:
            found = resolve(where)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self.span(name, original, after)
            if adapt is not None:
                wrapper = adapt(wrapper)
            # keep the name so pickle still finds module-level functions by reference
            for key in ("__module__", "__name__", "__qualname__", "__doc__"):
                setattr(wrapper, key, getattr(original, key, None))
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not (mod_name == package or mod_name.startswith(package + ".")):
                        continue
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, alias, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old, own = self._patches.pop()
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def begin_rep(self, rep: int) -> None:
        self.rep_starts.append((rep, len(self._start)))
        self._stack[:] = [-1]

    def drop_rep(self) -> None:
        """Forget the spans of the latest repetition (after its totals were taken)."""
        _, first = self.rep_starts.pop()
        for column in (self._name, self._parent, self._start, self._end):
            del column[first:]

    @property
    def span_count(self) -> int:
        return len(self._start)

    def totals(self, first: int = 0) -> dict[str, tuple[int, float]]:
        """Calls and self seconds per span name for spans from index ``first`` on."""
        names = np.array(self._name[first:], dtype=np.int64)
        parents = np.array(self._parent[first:], dtype=np.int64) - first
        dur = np.array(self._end[first:], dtype=np.int64) - np.array(self._start[first:], dtype=np.int64)
        return self_times(names, parents, dur, self.names)

    def write(self, path: Path) -> None:
        rep = np.zeros(len(self._start), dtype=np.int32)
        for rep_id, first in self.rep_starts:
            rep[first:] = rep_id
        np.savez_compressed(
            path,
            span_names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start_ns=np.frombuffer(self._start, dtype=np.int64),
            end_ns=np.frombuffer(self._end, dtype=np.int64),
            rep=rep,
        )


def self_times(names, parents, dur, table: list[str]) -> dict[str, tuple[int, float]]:
    """Per-name (calls, self seconds); ``parents`` index into the same arrays, -1 for roots."""
    dur = np.asarray(dur, dtype=np.float64)
    nested = parents >= 0
    child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
    own = dur - child
    calls = np.bincount(names, minlength=len(table))
    secs = np.bincount(names, weights=own, minlength=len(table)) / 1e9
    return {name: (int(calls[i]), float(secs[i])) for i, name in enumerate(table)}
