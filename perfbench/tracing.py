"""In-memory span recorder for the traced benchmark pass.

A span records its name, the phase it ran in (setup, run or probe),
start and end on the `perf_counter` clock, the span that encloses it,
and any attributes its caller adds. Library functions are traced by
replacing them, in the module where their callers look them up, with a
wrapper that opens a span around each call (`Tracer.hook`). Nothing is
written until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """Span recorder; with enabled=False every span is a no-op and hooked
    functions run unrecorded, so the untraced pass runs the same code."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.phase = "setup"
        self.spans: list[dict] = []
        # (function name, args, return value) of hooks installed with keep=True
        self.returns: list[tuple[str, tuple, object]] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return nullcontext({})
        return self._span(name, attrs)

    @contextmanager
    def _span(self, name: str, attrs: dict):
        record = {
            "id": len(self.spans),
            "name": name,
            "phase": self.phase,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def hook(self, module: str, attr: str, name: str, attrs=None, keep: bool = False) -> None:
        """Replace `module.attr` (a dotted attr reaches a class's method)
        with a wrapper that runs each call inside a span called `name`.
        attrs(args, kwargs, result) returns attributes for the span."""
        *path, leaf = attr.split(".")
        owner = functools.reduce(getattr, path, importlib.import_module(module))
        fn = getattr(owner, leaf)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self._span(name, {}) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.update(attrs(args, kwargs, result))
            if keep:
                self.returns.append((leaf, args, result))
            return result

        setattr(owner, leaf, traced)

    def named(self, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["name"] == name and all(s.get(k) == v for k, v in attrs.items())
        ]

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return child

    def self_times(self, phase: str | None = None) -> dict[str, float]:
        """Seconds per span name, each span's duration minus the time its
        direct children cover (children nest and never overlap)."""
        child = self._child_time()
        out: dict[str, float] = {}
        for s in self.spans:
            if phase is None or s["phase"] == phase:
                own = s["end"] - s["start"] - child[s["id"]]
                out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def self_time(self, name: str, **attrs) -> float:
        """Summed self time of the spans with this name (and attributes)."""
        child = self._child_time()
        return sum(s["end"] - s["start"] - child[s["id"]] for s in self.named(name, **attrs))

    def total(self, name: str, **attrs) -> float:
        """Summed duration of the spans with this name (and attributes)."""
        return sum(s["end"] - s["start"] for s in self.named(name, **attrs))

    def top_level(self, phase: str) -> float:
        """Time covered by the outermost spans of one phase."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["phase"] == phase and s["parent"] is None
        )
