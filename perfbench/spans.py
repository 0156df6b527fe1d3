"""Span recording for the traced benchmark run, applied from outside the library.

`Tracer.wrap` replaces public functions of smoothkit's modules with thin
wrappers. Each call records one span: name, start, end, parent span and the
id of the benchmark op it belongs to, plus an optional count taken
from the call (points x terms, multiply-adds, failed certificates) and
whether it raised. Spans stay in memory; `dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

# span fields, kept as lists for low overhead
NAME, START, END, PARENT, OP, COUNT, ERROR = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id: int | None = None
        self.enabled = True
        self._stack: list[int] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id, 0, False])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int, count=0, error: bool = False) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[COUNT] = count
        span[ERROR] = error
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op_id: int):
        """Root span of one op; calls it makes get its op id."""
        self.op_id = op_id
        idx = self._begin(name)
        try:
            yield
        except BaseException:
            self._end(idx, error=True)
            raise
        else:
            self._end(idx)
        finally:
            self.op_id = None

    def _wrapper(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._end(idx, error=True)
                raise
            self._end(idx, count(args, kwargs, out) if count is not None else 0)
            return out

        return traced

    def wrap(self, modules, targets) -> None:
        """Wrap each (module, attribute, count_fn) target wherever it is bound.

        count_fn(args, kwargs, result) gives the span's count, or is None.

        Modules import each other's functions by name, so every attribute of
        every given module that is the original function gets the wrapper.
        """
        for module, attr, count in targets:
            orig = getattr(module, attr)
            wrapper = self._wrapper(orig, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", count)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def dump(self, path, op_labels) -> None:
        """JSON lines: first {"ops": labels by op id}, then one object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"ops": op_labels}) + "\n")
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                       "parent": s[PARENT], "op": s[OP]}
                if s[COUNT]:
                    rec["count"] = s[COUNT]
                if s[ERROR]:
                    rec["error"] = True
                fh.write(json.dumps(rec) + "\n")

    # -- aggregation -------------------------------------------------------

    def total(self, name: str) -> float:
        """Inclusive seconds spent in spans of this name."""
        return sum(s[END] - s[START] for s in self.spans if s[NAME] == name)

    def count(self, name: str) -> int:
        return sum(s[COUNT] for s in self.spans if s[NAME] == name)

    def errors(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name and s[ERROR])

    def child_total(self, parent_name: str, prefixes: tuple[str, ...]) -> float:
        """Seconds in direct children (names starting with a prefix) of spans named parent_name."""
        parents = {i for i, s in enumerate(self.spans) if s[NAME] == parent_name}
        return sum(
            s[END] - s[START]
            for s in self.spans
            if s[PARENT] in parents and s[NAME].startswith(prefixes)
        )

    def self_time(self, name: str) -> float:
        """Inclusive time of spans of this name minus the time of their direct children."""
        own = {i for i, s in enumerate(self.spans) if s[NAME] == name}
        children = sum(s[END] - s[START] for s in self.spans if s[PARENT] in own)
        return self.total(name) - children
