"""In-memory span tracer wrapped around the public functions of each layer.

The tracer patches functions and methods of the ``repro`` package from
the outside: nothing in the package itself is instrumented.  Each
wrapped call records a span (name, start, end, parent) and folds its
duration into per-name statistics:

* ``calls`` — number of calls;
* ``self_s`` — the span's duration minus the time its child spans
  cover;
* ``total_s`` — the span's inclusive duration.

Spans are kept in memory, up to ``span_cap`` of them, and written out
once at the end as Chrome trace-event JSON (``chrome://tracing`` or
Perfetto load it).  Statistics keep counting past the cap.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

#: A wrapped call's name: either fixed, or chosen per call from its
#: arguments (used to split the hart layer into Ibex and CVA6).
Namer = Callable[[tuple], str]


class Tracer:
    """Span recorder and the patches that feed it."""

    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        #: name -> [calls, self seconds, inclusive seconds]
        self.stats: Dict[str, List[float]] = {}
        #: Free-form counters fed by observers (window sizes, hits, ...).
        self.counters: Dict[str, float] = {}
        #: (name, start, end, parent name) of the first ``span_cap`` spans.
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        self.dropped = 0
        self.epoch = time.perf_counter()
        # Open spans, innermost last: [name, child seconds].
        self._stack: List[list] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _close(self, name: str, start: float, end: float,
               child: float) -> None:
        duration = end - start
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += duration
        stack = self._stack
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][0]
        if len(self.spans) < self.span_cap:
            self.spans.append((name, start, end, parent))
        else:
            self.dropped += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn: Callable, name: Union[str, Namer],
             observe: Optional[Callable] = None):
        """A wrapper of ``fn`` that records a span per call.

        ``name`` is a string or a :data:`Namer`; ``observe(name, args,
        result)`` runs after the span closes, outside the timed region.
        """
        stack = self._stack
        clock = time.perf_counter
        close = self._close
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed if fixed is not None else name(args)
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(label, start, end, frame[1])
            if observe is not None:
                observe(label, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- patching ---------------------------------------------------------

    def patch_method(self, cls: type, attr: str, name,
                     observe: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` (a plain method defined on ``cls``)."""
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, observe))

    def patch_function(self, module, attr: str, name,
                       observe: Optional[Callable] = None) -> None:
        """Wrap a module-level function and every ``repro`` module's
        imported reference to it (``from x import f`` binds a copy of
        the name, which patching ``x.f`` alone would miss)."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A copy of the statistics and counters so far."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
        }

    def write_chrome_trace(self, path: Path, meta: Dict[str, object]) -> None:
        """Write the kept spans as Chrome trace-event JSON."""
        events = []
        for name, start, end, parent in self.spans:
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent},
            })
        meta = dict(meta, spans_kept=len(self.spans),
                    spans_dropped=self.dropped)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": meta,
        }))
