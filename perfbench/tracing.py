"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: a traced run replaces the public entry
points of each layer with timing wrappers, on the class for methods and on
the module that imports a function by name (the name the caller actually
resolves).  Spans are kept in memory and written out when the run ends.

A span is ``[name, start, end, parent, request]``:

* ``start``/``end`` come from ``time.monotonic`` (CLOCK_MONOTONIC), so spans
  recorded in the server child line up with request times taken by the
  client process on the same host.
* ``parent`` is the span open in the caller's context (a ``ContextVar``, so
  it follows asyncio tasks and ``asyncio.to_thread``), or else the open
  request root.
* ``request`` is the index of the request-root span open when the span
  started.  The service hands reads to worker tasks whose context is not the
  request's, so the link is made through the tracer instead; that is exact
  because the serve load keeps one request in flight at a time.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

clock = time.monotonic

#: (module, attribute path, span name): the public entry point of each
#: layer, wrapped where its callers look it up.
LAYER_BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.coding.s_transform", "STransformCodec.forward_transform", "coding.transform"),
    ("repro.coding.codec", "LosslessWaveletCodec.forward_transform", "coding.transform"),
    ("repro.coding.s_transform", "STransformCodec.encode_pyramid", "coding.entropy_encode"),
    ("repro.coding.codec", "LosslessWaveletCodec.encode_pyramid", "coding.entropy_encode"),
    ("repro.coding.s_transform", "STransformCodec.decode_pyramid", "coding.entropy_decode"),
    ("repro.coding.codec", "LosslessWaveletCodec.decode_pyramid", "coding.entropy_decode"),
    ("repro.coding.s_transform", "STransformCodec.inverse_transform", "coding.inverse"),
    ("repro.coding.codec", "LosslessWaveletCodec.inverse_transform", "coding.inverse"),
    ("repro.coding.s_transform", "STransformCodec.decode_preview", "coding.decode_preview"),
    ("repro.coding.codec", "LosslessWaveletCodec.decode_preview", "coding.decode_preview"),
    ("repro.fxdwt.transform", "FixedPointDWT.forward", "fxdwt.forward"),
    ("repro.fxdwt.transform", "FixedPointDWT.inverse", "fxdwt.inverse"),
    ("repro.archive.writer", "serialize_stream", "archive.serialize"),
    ("repro.archive.writer", "ArchiveWriter.add_stream", "archive.writer.add_stream"),
    ("repro.archive.reader", "deserialize_stream", "archive.serialize.deserialize"),
    ("repro.archive.reader", "sections_to_stream", "archive.serialize.deserialize"),
    ("repro.archive.reader", "ArchiveReader.read_payload_view", "archive.reader.read_payload_view"),
    ("repro.archive.reader", "ArchiveReader.read_payload_slice", "archive.reader.read_payload_slice"),
    ("repro.archive.reader", "ArchiveReader.decode", "archive.reader.decode"),
    ("repro.archive.reader", "ArchiveReader.read_preview", "archive.reader.read_preview"),
    ("repro.archive.sharding", "ShardedArchiveReader.decode", "sharding.decode"),
    ("repro.archive.sharding", "ShardedArchiveReader.read_preview", "sharding.read_preview"),
    ("repro.archive.sharding", "ShardedArchiveReader.read_payload_slice", "sharding.read_payload_slice"),
)

#: Service operations that each answer one HTTP request: request roots.
REQUEST_ROOTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.archive.server", "ArchiveService.get_frame", "server.get_frame"),
    ("repro.archive.server", "ArchiveService.get_preview", "server.get_preview"),
    ("repro.archive.server", "ArchiveService.get_frame_slice", "server.get_frame_slice"),
)


class Tracer:
    """Collects spans in memory; :meth:`install` wraps the layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.request: Optional[int] = None
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def _open(self, name: str, root: bool) -> Tuple[int, contextvars.Token]:
        parent = self._current.get()
        if parent is None and not root:
            parent = self.request
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                [name, clock(), None, parent, index if root else self.request]
            )
        if root:
            self.request = index
        return index, self._current.set(index)

    def _close(self, index: int, token: contextvars.Token, root: bool) -> None:
        self.spans[index][2] = clock()
        self._current.reset(token)
        if root:
            self.request = None

    def _wrapper(self, fn, name: str, root: bool):
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = self._open(name, root)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(index, token, root)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, token = self._open(name, root)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index, token, root)

        return traced

    def install(self) -> None:
        """Wrap every layer boundary and request root of the program."""
        for entries, root in ((LAYER_BOUNDARIES, False), (REQUEST_ROOTS, True)):
            for module_name, path, name in entries:
                owner = importlib.import_module(module_name)
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                setattr(owner, attr, self._wrapper(getattr(owner, attr), name, root))

    def dump(self, path: str, **extra) -> None:
        """Write the spans (and ``extra`` counters) as one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------

def window(spans: Sequence[list], start: float, end: float) -> List[int]:
    """Indices of the closed spans that lie inside ``[start, end]``."""
    return [
        i
        for i, span in enumerate(spans)
        if span[2] is not None and span[1] >= start and span[2] <= end
    ]


def durations(spans: Sequence[list], indices: Iterable[int], name: str) -> List[float]:
    """Durations in seconds of the spans called ``name`` among ``indices``."""
    return [spans[i][2] - spans[i][1] for i in indices if spans[i][0] == name]


def self_time_by_name(spans: Sequence[list], roots: Iterable[int]) -> Dict[str, float]:
    """Self time per span name, summed over the trees under ``roots``.

    A span's self time is its duration minus the part of that interval its
    children cover (children in other threads may overlap each other, so
    the covered part is the union of their intervals).
    """
    children: Dict[int, List[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None and span[2] is not None:
            children[span[3]].append(i)
    totals: Dict[str, float] = defaultdict(float)
    stack = list(roots)
    while stack:
        i = stack.pop()
        name, start, end = spans[i][0], spans[i][1], spans[i][2]
        covered, reach = 0.0, start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        totals[name] += end - start - covered
        stack.extend(children[i])
    return dict(totals)
