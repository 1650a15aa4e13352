"""Call tracing from outside the program: wrap functions, time and count.

A ``Tracer`` replaces functions and methods of imported modules with
wrappers that count calls and measure inclusive and self time.  Spans
are aggregated in memory per span name and per (parent span, span)
pair, never stored one per call, which keeps the overhead of wrapping
per-packet functions bounded.  Wrappers read no program state except in
the optional ``pre`` hook, and they never draw from an RNG, so a traced
run writes the same bytes as an untraced one.  ``restore`` puts every
original back.
"""

from __future__ import annotations

import collections
import functools
import sys
import time


PACKAGE = "relsim"


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # span -> [calls, inclusive s, self s]
        self.edges: dict[tuple, list] = {}  # (parent, span) -> [calls, inclusive s]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[list] = []  # open frames: [span, time spent in children]
        self._undo: list[tuple] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][0] if self._stack else None

    def span(self, fn, name: str, pre=None):
        """``fn`` wrapped as span ``name``; ``pre(*args)`` runs untimed first."""
        stack = self._stack
        edges = self.edges
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args)
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                key = (parent[0] if parent is not None else None, name)
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed

        return traced

    def patch(self, owner, attr: str, name: str, pre=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method).

        A module function is also replaced under every alias that a
        ``from module import name`` left in the package's other modules.
        """
        original = vars(owner)[attr]
        wrapped = self.span(original, name, pre)
        if isinstance(owner, type):
            self.replace(owner, attr, wrapped)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, wrapped)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """Aggregates as plain JSON-ready data."""
        return {
            "spans": {name: list(v) for name, v in sorted(self.stats.items())},
            "edges": [
                [parent, name, calls, total]
                for (parent, name), (calls, total) in sorted(
                    self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
                )
            ],
            "counts": dict(sorted(self.counts.items())),
        }
