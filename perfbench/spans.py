"""In-memory span tracer and the timing shims the traced run installs.

A span has a name, a start, an end, a parent and a root (the outermost
span open when it started). Spans live in flat arrays while the run
goes and are written to one `.npz` file at the end. A span's self time
is its duration minus the durations of its direct children, so the
self times of every span under a root add up to the root's duration.
"""

from __future__ import annotations

import os
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.table: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.table)
            self.table.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a counter kept under the root span that is open now."""
        root = self.table[self.name[self._stack[0]]] if self._stack else ""
        self.counters[(root, name)] += amount

    # -- summaries --

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": start,
            "end": end,
            "parent": parent,
            "root": np.frombuffer(self.root, dtype=np.int64),
            "duration": dur,
            "self": dur - child_time,
        }

    def summary(self) -> dict[tuple[str, str], dict[str, float]]:
        """(root name, span name) -> calls, total (inclusive) and self seconds."""
        sp = self.arrays()
        width = len(self.table)
        key = sp["name"][sp["root"]].astype(np.int64) * width + sp["name"]
        size = width * width
        calls = np.bincount(key, minlength=size)
        total = np.bincount(key, weights=sp["duration"], minlength=size)
        own = np.bincount(key, weights=sp["self"], minlength=size)
        return {
            (self.table[k // width], self.table[k % width]):
                {"calls": int(calls[k]), "total": float(total[k]), "self": float(own[k])}
            for k in np.flatnonzero(calls).tolist()
        }

    def durations(self, root: str, name: str) -> np.ndarray:
        """Durations of every `name` span under a `root` root span."""
        if root not in self._ids or name not in self._ids:
            return np.zeros(0)
        sp = self.arrays()
        mask = (sp["name"] == self._ids[name]) & (sp["name"][sp["root"]] == self._ids[root])
        return sp["duration"][mask]

    def write(self, path: str) -> None:
        sp = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            name_table=np.asarray(self.table),
            **{k: sp[k] for k in ("name", "start", "end", "parent", "root")},
        )


class _Span:
    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


def _timed(tracer: Tracer, name: str, fn):
    name_id = tracer.name_id(name)
    open_, close = tracer.open, tracer.close

    def shim(*args, **kwargs):
        idx = open_(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)
    return shim


def _timed_evaluate_pair(tracer: Tracer, fn):
    """evaluate_pair shim that also counts the opinions each call gathers:
    every rater of the ratee other than the rater and the ratee."""
    name_id = tracer.name_id("evaluate_pair")
    open_, close, count = tracer.open, tracer.close, tracer.count

    def shim(ledger, rater, ratee, *args, **kwargs):
        raters = ledger.raters_of(ratee)
        count("opinions", len(raters) - (rater in raters) - (ratee in raters))
        idx = open_(name_id)
        try:
            return fn(ledger, rater, ratee, *args, **kwargs)
        finally:
            close(idx)
    return shim


class Shims:
    """Context manager that replaces attributes of modules or classes with
    timed wrappers and restores the originals on exit."""

    def __init__(self, tracer: Tracer, targets):
        self.tracer = tracer
        self.targets = targets      # [(module or class, attribute name)]
        self._saved = []

    def __enter__(self):
        for owner, name in self.targets:
            fn = vars(owner)[name]
            if name == "evaluate_pair":
                wrapped = _timed_evaluate_pair(self.tracer, fn)
            else:
                wrapped = _timed(self.tracer, name, fn)
            self._saved.append((owner, name, fn))
            setattr(owner, name, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)
        return False
