"""In-memory span recorder for the traced benchmark run.

A span is (name, parent, start, end), with times from
``time.perf_counter_ns``. Spans are recorded around calls into the package
by wrapping its public functions from the outside: ``install`` rebinds a
function in every ``fcsr`` module that imported it (or a method on its
class) and ``uninstall`` restores the originals. Nothing inside ``src/``
changes. Spans stay in memory in flat int64 arrays and are written once, at
the end of the run, with ``write``.

A span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        nid = self._nid(name)
        stack, name_ids, parents = self._stack, self.name_id, self.parent
        starts, ends, clock = self.start, self.end, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def section(self, name: str):
        """A span around a block of the benchmark; yields the span index."""
        idx = len(self.name_id)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def install(self, targets) -> None:
        """Wrap each ``(span name, owner, attribute)`` target.

        For a class owner the attribute is rebound on the class; for a module
        owner it is rebound in every loaded ``fcsr`` module that holds the
        same object, so callers that imported it by name see the wrapper.
        """
        for name, owner, attr in targets:
            orig = owner.__dict__[attr]
            traced = self.wrap(name, orig)
            if isinstance(owner, type):
                sites = [owner]
            else:
                sites = [
                    mod for key, mod in list(sys.modules.items())
                    if (key == "fcsr" or key.startswith("fcsr."))
                    and getattr(mod, attr, None) is orig
                ]
            for site in sites:
                self._patches.append((site, attr, orig))
                setattr(site, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            site, attr, orig = self._patches.pop()
            setattr(site, attr, orig)

    @contextlib.contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield
        finally:
            self.uninstall()

    def durations_ns(self, name: str, parent: int | None = None) -> list[int]:
        """Durations of the spans named ``name``, optionally only the direct
        children of span ``parent``."""
        names, parents, dur = self._arrays()
        mask = names == self._name_ids.get(name, -1)
        if parent is not None:
            mask &= parents == parent
        return dur[mask].tolist()

    def _arrays(self):
        """Copies (an array that exports its buffer cannot grow) of name ids,
        parents and durations."""
        names = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        return names, parents, dur

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total and self time in milliseconds."""
        names, parents, dur = self._arrays()
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_ns = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": int(mask.sum()),
                "total_ms": float(dur[mask].sum()) / 1e6,
                "self_ms": float(self_ns[mask].sum()) / 1e6,
            }
        return out

    def write(self, path: str | Path) -> None:
        """All spans as a compressed ``.npz``: names, name_id, parent, start, end."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
        )
