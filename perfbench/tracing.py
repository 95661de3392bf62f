"""Span tracing of charvar from outside the package.

`install` puts one wrapper around every public function of the layer
modules and binds it at every module attribute that refers to that
function, so `rep.qmul`, `cover.sample_point` and `charvar.fingerprint`
record spans too.  Spans live in per-thread compact arrays (name, parent,
job, start, end; the thread is the buffer) and are analysed or written
out only after the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("quat", "rep", "variety", "cover", "morse", "selftest", "cli")


class _Buffer:
    __slots__ = ("index", "names", "parents", "jobs", "starts", "ends", "stack", "tags")

    def __init__(self, index: int) -> None:
        self.index = index
        self.names = array("i")
        self.parents = array("q")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.tags: Counter[str] = Counter()


class Tracer:
    """Span recorder shared by every wrapper.  `job` is the id stamped on
    spans as they open; the benchmark sets it before each job.  Wrappers
    record only while `active` is true, so output checks leave no spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.job = -1
        self.active = False
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        self._local = threading.local()
        self.buffers: list[_Buffer] = []

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self.buffers))
                self.buffers.append(buf)
            self._local.buf = buf
            return buf

    def wrap(self, name: str, fn, tag=None):
        """A span-recording stand-in for `fn`; `tag(result)` names a
        counter bumped once per call."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            stack = buf.stack
            idx = len(buf.starts)
            buf.names.append(nid)
            buf.parents.append(stack[-1] if stack else -1)
            buf.jobs.append(tracer.job)
            buf.ends.append(0.0)
            stack.append(idx)
            buf.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.ends[idx] = clock()
                stack.pop()
            if tag is not None:
                buf.tags[tag(result)] += 1
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; `parent` indexes the flat arrays and
        `thread` numbers the recording threads in order of first span."""
        bufs = [b for b in self.buffers if len(b.starts)]
        offset, parents = 0, []
        for buf in bufs:
            p = np.frombuffer(buf.parents, dtype=np.int64).copy()
            p[p >= 0] += offset
            parents.append(p)
            offset += len(buf.starts)
        return {
            "name": np.concatenate([np.frombuffer(b.names, dtype=np.int32) for b in bufs]),
            "parent": np.concatenate(parents),
            "job": np.concatenate([np.frombuffer(b.jobs, dtype=np.int32) for b in bufs]),
            "start": np.concatenate([np.frombuffer(b.starts) for b in bufs]),
            "end": np.concatenate([np.frombuffer(b.ends) for b in bufs]),
            "thread": np.concatenate([np.full(len(b.starts), b.index, np.int32) for b in bufs]),
        }

    def tags(self) -> Counter[str]:
        total: Counter[str] = Counter()
        for buf in self.buffers:
            total.update(buf.tags)
        return total


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the durations of its children.  Children
    are recorded on their parent's thread and run one after another, so
    they never overlap."""
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    children = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.shape[0]
    )
    return dur - children


def _ladder_tag(solution) -> str:
    return f"cover.ladder.rung{solution.branch}"


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules wherever a module
    of the package binds it."""
    package = importlib.import_module("charvar")
    modules = {layer: importlib.import_module(f"charvar.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            tag = _ladder_tag if (layer, attr) == ("cover", "lemma52_detailed") else None
            wrappers[obj] = tracer.wrap(f"{layer}.{attr}", obj, tag)
    for module in (package, *modules.values()):
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
