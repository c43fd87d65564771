"""Span tracer that times the program's public functions from outside.

``Tracer.install`` replaces each named function with a wrapper that records
one span per call: name, start, end, parent span and the id of the item
(training example or query) being worked on. The replacement is made in
every ``derivgen`` module namespace that holds the function, so calls
through aliases (``from .corpus import levenshtein``) are traced too.
``Tracer.remove`` puts the originals back.

Spans live in flat arrays while the run goes on and are written out once at
the end. Self time is a span's duration minus the durations of its direct
children; calls nest strictly on one thread, so the children never overlap.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item = array("i")
        self._stack = [-1]
        self._item = -1
        self._patches = []

    def __len__(self):
        return len(self.name)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, new_item=False, on_return=None):
        """A traced stand-in for ``fn``.

        ``new_item`` starts a new item id on entry; ``on_return(args,
        result)`` is called after the span is closed, so its own cost is
        charged to the caller rather than to ``fn``.
        """
        nid = self._name_id(name)
        names, parents, items, starts, ends = self.name, self.parent, self.item, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            if new_item:
                self._item += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self._item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self, package, targets):
        """Trace ``targets``: (owner, attribute, span name, new_item, on_return).

        ``owner`` is a module or a class of ``package``. A module-level
        function is replaced under every name it has in any submodule.
        """
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for owner, attr, name, new_item, on_return in targets:
            original = getattr(owner, attr, None)
            if original is None:
                continue  # the layer no longer has this function
            traced = self.wrap(original, name, new_item, on_return)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, traced)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def stats(self, lo=0, hi=None):
        """Per span name over spans ``lo..hi``: calls, total and self seconds."""
        hi = len(self) if hi is None else hi
        name, parent = np.array(self.name), np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(self))
        self_time = dur - child
        sel = slice(lo, hi)
        n = len(self.names)
        calls = np.bincount(name[sel], minlength=n)
        total = np.bincount(name[sel], weights=dur[sel], minlength=n)
        own = np.bincount(name[sel], weights=self_time[sel], minlength=n)
        return {
            nm: (int(calls[i]), float(total[i]), float(own[i]))
            for i, nm in enumerate(self.names) if calls[i]
        }

    def write(self, path):
        """One JSON line per span: [name, start_s, end_s, parent, item]."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            header = {"names": self.names, "fields": ["name", "start_s", "end_s", "parent", "item"]}
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self)):
                fh.write(f"[{self.name[i]},{self.start[i] - t0:.7f},{self.end[i] - t0:.7f},"
                         f"{self.parent[i]},{self.item[i]}]\n")
