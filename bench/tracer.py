"""In-memory span recorder for the pappuslab layers.

Every public function of a layer module is replaced, at its module
attribute and at every alias another layer module imported with
``from ... import``, by a wrapper that records one span per call.  Every
public class that defines ``__init__`` gets the same wrapper around its
constructor, so ``projective.Point`` counts constructions.  A span is
(name, start, end, parent, raised); spans are appended in call order, so
a parent's index is always smaller than its children's.

Calls a layer makes to its own public functions are recorded too,
because a module's globals are its attributes.  A generator function's
span would cover only the creation of the generator; no layer has one.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np


class Spans:
    """Columnar span store of one traced pass."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]

    def __len__(self):
        return len(self.name)


class Tracer:
    """Wraps the public callables of ``layers`` (name -> module)."""

    def __init__(self, layers: dict):
        self.layers = layers
        self.names: list[str] = []
        self.spans = Spans()
        self._undo: list[tuple] = []

    def reset(self) -> Spans:
        """Start a new pass; returns the spans of the previous one."""
        done, self.spans = self.spans, Spans()
        return done

    def _wrap(self, name: str, func):
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            s = tracer.spans
            idx = len(s.name)
            s.name.append(nid)
            s.parent.append(s.stack[-1])
            s.raised.append(0)
            s.end.append(0.0)
            s.stack.append(idx)
            s.start.append(clock())
            try:
                return func(*args, **kwargs)
            except BaseException:
                s.raised[idx] = 1
                raise
            finally:
                s.end[idx] = clock()
                s.stack.pop()

        return traced

    def install(self) -> None:
        modules = list(self.layers.values())
        for layer, module in self.layers.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                name = "%s.%s" % (layer, attr)
                if inspect.isclass(value):
                    if "__init__" in vars(value):
                        self._set(value, "__init__", self._wrap(name, value.__init__))
                elif inspect.isfunction(value):
                    wrapped = self._wrap(name, value)
                    for holder in modules:
                        for alias, target in list(vars(holder).items()):
                            if target is value:
                                self._set(holder, alias, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class SpanTable:
    """Numpy view of one pass's spans with per-name aggregates."""

    def __init__(self, spans: Spans, names: list[str]):
        self.names = names
        self.index = {n: i for i, n in enumerate(names)}
        self.name = np.frombuffer(spans.name, dtype=np.int32)
        self.parent = np.frombuffer(spans.parent, dtype=np.int32)
        self.start = np.frombuffer(spans.start, dtype=np.float64)
        self.end = np.frombuffer(spans.end, dtype=np.float64)
        self.raised = np.frombuffer(spans.raised, dtype=np.int8)
        dur = self.end - self.start
        has_parent = self.parent >= 0
        covered = np.bincount(
            self.parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self.self_time = dur - covered
        k = len(names)
        self.calls = np.bincount(self.name, minlength=k)
        self.self_by_name = np.bincount(self.name, weights=self.self_time, minlength=k)
        self.raised_by_name = np.bincount(self.name, weights=self.raised, minlength=k)

    def call_counts(self) -> dict:
        return {n: int(c) for n, c in zip(self.names, self.calls)}

    def calls_of(self, name: str) -> int:
        i = self.index.get(name)
        return 0 if i is None else int(self.calls[i])

    def self_of(self, name: str) -> float:
        i = self.index.get(name)
        return 0.0 if i is None else float(self.self_by_name[i])

    def raised_of(self, name: str) -> int:
        i = self.index.get(name)
        return 0 if i is None else int(self.raised_by_name[i])

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return float(
            sum(t for n, t in zip(self.names, self.self_by_name) if n.startswith(prefix))
        )

    def calls_within(self, name: str, ancestor: str) -> int:
        """Calls of ``name`` made while a call of ``ancestor`` was open.

        ``ancestor`` must not call itself, so its spans do not overlap.
        """
        if name not in self.index or ancestor not in self.index:
            return 0
        outer = self.name == self.index[ancestor]
        if not outer.any():
            return 0
        starts, ends = self.start[outer], self.end[outer]
        inner = self.start[self.name == self.index[name]]
        k = np.searchsorted(starts, inner, side="right") - 1
        inside = (k >= 0) & (inner < ends[np.maximum(k, 0)])
        return int(inside.sum())

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            start=self.start,
            end=self.end,
            raised=self.raised,
        )
