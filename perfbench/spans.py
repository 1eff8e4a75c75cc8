"""In-memory spans around calls into latdisc, recorded from the benchmark.

A traced run replaces chosen public functions of latdisc with wrappers that
open a span, call the original and close the span.  The wrappers are bound
in every latdisc module namespace that holds the original, so calls made
inside the library (enclosure_S -> dioph_sum2, say) are recorded as children
of the calling span.  Nothing in latdisc itself is changed on disk, and
`Tracer.restore` puts every original back.

A span is (name, start, end, parent, item, counters).  `item` is the id of
the benchmark item execution that caused it; spans outside an item are not
recorded at all, so checks and setup stay untraced.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "counters",
                 "child_time")

    def __init__(self, name, start, parent, item, counters):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.item = item
        self.counters = counters
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the time covered by child spans."""
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.item: Optional[str] = None
        self._patched: List[tuple] = []

    def begin(self, name: str, **counters) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, self.item,
                               counters))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration

    def wrap(self, owner, attr: str, name: str,
             counters: Optional[Callable] = None) -> None:
        """Replace `owner.attr` everywhere latdisc binds it with a spanning
        wrapper.  `counters(args, kwargs, result)` returns a dict merged
        into the span's counters after the call."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return orig(*args, **kwargs)
            idx = self.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.end(idx)
            if counters is not None:
                self.spans[idx].counters.update(counters(args, kwargs, out))
            return out

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [m for n, m in list(sys.modules.items())
                       if n == "latdisc" or n.startswith("latdisc.")]
        for target in targets:
            if target.__dict__.get(attr) is orig:
                setattr(target, attr, wrapper)
                self._patched.append((target, attr, orig))

    def restore(self) -> None:
        for target, attr, orig in reversed(self._patched):
            setattr(target, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write every span once, as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "item": s.item,
                    "self": s.self_time, "counters": s.counters}) + "\n")

    def by_item(self) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for s in self.spans:
            out.setdefault(s.item, []).append(s)
        return out
