"""In-memory spans and work counts around the benchmark's own calls into ringsieve.

A span is (name, start, end, parent, request).  Spans are kept in a list
and written out once, when the run ends; counts are added where the spans
are taken.  With tracing off, ``call`` is a plain function call and
nothing is recorded.
"""

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, float, float, int | None, str]] = []
        self.counts: Counter = Counter()
        self.request = "setup"
        self._open: list[int] = []

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counts[name] += n

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append((name, 0.0, 0.0, parent, self.request))
        self._open.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[idx] = (name, start, end, parent, self.request)

    def busy(self) -> tuple[dict[str, int], dict[str, float]]:
        """(calls, self time) per span name; self time excludes child spans."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent is not None:
                busy[self.spans[parent][0]] -= end - start
        return calls, busy

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
