"""Span recording for the traced benchmark run.

A :class:`Tracer` keeps every span in memory — name, start, end, parent
span, request id and an optional value (bytes written) — and
:meth:`Tracer.write` dumps them once the run ends. Spans are opened by
wrappers that :class:`Patches` installs over the library's own bindings
and removes again, so nothing under ``src/`` knows it is being traced
and an untraced run executes the original objects.

Self time is a span's duration minus the time its child spans cover.
The benchmark runs one client thread, so the children of a span never
overlap and their durations can simply be summed.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

__all__ = ["Tracer", "Patches", "SpanStats", "summarize"]

NAME, START, END, PARENT, REQUEST, VALUE = range(6)


class Tracer:
    """In-memory span recorder for one client thread.

    A span whose name starts with one of ``request_prefixes`` starts a new
    request (one schedule event, one epoch, one method run); every span
    records the id of the request it ran in.
    """

    def __init__(self, request_prefixes: tuple[str, ...] = ()) -> None:
        self.spans: list[list] = []
        self.request = 0
        self.request_prefixes = tuple(request_prefixes)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, sizes_file: bool = False):
        """Return ``fn`` wrapped in a span called ``name``.

        With ``sizes_file``, ``fn`` returns the path of a file it wrote and
        the span records the file's size as its value.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        opens_request = name.startswith(self.request_prefixes)

        def traced(*args, **kwargs):
            if opens_request:
                self.request += 1
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if sizes_file:
                record[VALUE] = os.path.getsize(result)
            return result

        return functools.update_wrapper(traced, fn)

    def mark(self) -> int:
        """Position to pass to :func:`summarize` for spans recorded from now on."""
        return len(self.spans)

    def write(self, path: Path) -> None:
        """Dump every span as tab-separated text, one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as stream:
            stream.write("name\tstart\tend\tparent\trequest\tvalue\n")
            for name, start, end, parent, request, value in self.spans:
                stream.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{request}\t{value}\n")


class Patches:
    """Attribute and table-entry swaps that can all be put back."""

    def __init__(self) -> None:
        self._swaps: list[tuple[object, object, object, bool]] = []

    def set_attr(self, owner, name: str, value) -> None:
        self._swaps.append((owner, name, vars(owner)[name], False))
        setattr(owner, name, value)

    def set_item(self, table: dict, key, value) -> None:
        self._swaps.append((table, key, table[key], True))
        table[key] = value

    def __len__(self) -> int:
        return len(self._swaps)

    def restore(self) -> None:
        """Put every original back (latest swap first) and verify it stuck."""
        for owner, key, original, is_item in reversed(self._swaps):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        leaked = self.leaks()
        self._swaps.clear()
        if leaked:
            raise RuntimeError(f"tracing wrappers left installed: {leaked}")

    def leaks(self) -> list[str]:
        """Patched locations that no longer hold their original object."""
        leaked = []
        for owner, key, original, is_item in self._swaps:
            current = owner[key] if is_item else vars(owner).get(key)
            if current is not original:
                leaked.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{key}")
        return leaked


class SpanStats:
    """Per-name totals over the spans :func:`summarize` kept."""

    def __init__(self) -> None:
        self.kept: list[int] = []
        self.total_s: dict[str, float] = defaultdict(float)   # outermost spans only
        self.self_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.children: dict[int, list[int]] = defaultdict(list)


def summarize(
    spans: list[list], begin: int = 0, end: int | None = None, roots: tuple[str, ...] = ("",)
) -> SpanStats:
    """Totals, self times and call counts of ``spans[begin:end]``.

    Only spans whose root span's name starts with one of ``roots`` are
    kept. A span nested inside another span of the same name adds to the
    self time but not again to the name's total.
    """
    end = len(spans) if end is None else end
    root_of: dict[int, int] = {}

    def root(index: int) -> int:
        if index not in root_of:
            parent = spans[index][PARENT]
            root_of[index] = index if parent < 0 else root(parent)
        return root_of[index]

    stats = SpanStats()
    stats.kept = [i for i in range(begin, end) if spans[root(i)][NAME].startswith(roots)]
    child_s: dict[int, float] = defaultdict(float)
    for index in stats.kept:
        parent = spans[index][PARENT]
        if parent >= 0:
            stats.children[parent].append(index)
            child_s[parent] += spans[index][END] - spans[index][START]
    for index in stats.kept:
        name, start, stop, parent, _, value = spans[index]
        duration = stop - start
        stats.calls[name] += 1
        stats.self_s[name] += duration - child_s[index]
        stats.values[name] += value
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][NAME] != name:
            ancestor = spans[ancestor][PARENT]
        if ancestor < 0:
            stats.total_s[name] += duration
    return stats
