"""Streaming ingest: frames flow from a feed into archive writers, bounded.

:meth:`ArchiveWriter.append_batch` takes a fully materialised list of
frames — fine for re-packing, wrong for a modality feed (a scanner, a
network socket, a decompressing tape robot) that produces frames over time
and must not buffer an unbounded number of raw images.  This module wraps
the batched pipeline's per-frame unit
(:func:`repro.coding.pipeline.encode_frame`) in three streaming fronts:

:func:`iter_compress`
    A plain generator — pull-based, so at most **one** raw frame is alive
    at a time.  Compose it with any iterator machinery.
:class:`StreamingIngestor` / :func:`ingest_frames`
    A producer thread reads the feed into a bounded queue while the caller's
    thread compresses and routes streams into the writer
    (:meth:`~repro.archive.writer.ArchiveWriter.add_stream`, or the sharded
    writer's routed equivalent).  The queue gives the feed ``queue_depth``
    frames of read-ahead — enough to hide bursty I/O — and **backpressure**:
    a semaphore is acquired *before* each frame is pulled from the feed and
    released only after its compressed stream is archived, so no more than
    ``queue_depth`` undecoded frames exist at any instant, no matter how
    fast the feed or how slow the codec.  The high-water mark is reported
    (``max_in_flight``) so tests assert the bound instead of trusting it.
:func:`ingest_async`
    The same bounded-queue contract on an asyncio event loop: the feed may
    be an async iterator (frames arriving over the network), compression is
    pushed off the loop with ``asyncio.to_thread``, and ``await`` points
    propagate the same backpressure.

Every front end accepts feed items as bare frames (auto-named by the
writer) or ``(name, frame)`` pairs (named — and, for a sharded writer,
routed by that name).  The compressed streams are byte-identical to a
batch pack of the same frames in the same order: streaming changes *when*
memory is used, never what lands on disk.  This holds for a
:class:`~repro.archive.replication.ReplicatedShardSet` too: its routed
``add_stream`` fans each stream out to the shard's primary and replicas in
order, so streamed ingest keeps every copy byte-identical — with the same
bounded-memory guarantee, since the fan-out happens after compression.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from dataclasses import dataclass, field
from typing import AsyncIterable, Iterable, Iterator, Optional, Tuple, Union

import numpy as np

from ..coding.pipeline import CodecResources, PipelineStats, encode_frame
from ..coding.spec import CodecSpec
from .serialize import CompressedStream

__all__ = [
    "FeedItem",
    "IngestReport",
    "iter_compress",
    "StreamingIngestor",
    "ingest_frames",
    "ingest_async",
]

#: One feed element: a bare frame (auto-named by the writer) or a
#: ``(name, frame)`` pair.
FeedItem = Union[np.ndarray, Tuple[str, np.ndarray]]


def _split_item(item: FeedItem) -> Tuple[Optional[str], np.ndarray]:
    if isinstance(item, tuple):
        name, frame = item
        return str(name), np.asarray(frame)
    return None, np.asarray(item)


@dataclass
class IngestReport:
    """Summary of one streaming ingest run."""

    #: Frames archived.
    frames: int = 0
    #: Configured bound on simultaneously-held undecoded frames.
    queue_depth: int = 0
    #: Measured high-water mark of undecoded frames held at once (pulled
    #: from the feed but not yet archived); never exceeds ``queue_depth``.
    max_in_flight: int = 0
    #: Per-stage pipeline stats of the whole run (same model as batches).
    stats: PipelineStats = field(default_factory=PipelineStats)


def iter_compress(
    feed: Iterable[FeedItem],
    spec: CodecSpec,
    stats: Optional[PipelineStats] = None,
) -> Iterator[Tuple[Optional[str], CompressedStream]]:
    """Generator front end: lazily compress a feed, one frame at a time.

    Yields ``(name, stream)`` pairs (``name`` is ``None`` for bare frames).
    Pull-based, so the previous raw frame is released before the next is
    requested from the feed — constant memory with zero machinery.
    """
    resources = CodecResources(spec)
    if stats is None:
        stats = PipelineStats()
    for item in feed:
        name, frame = _split_item(item)
        yield name, encode_frame(frame, spec, resources, stats)


class _InFlightGauge:
    """Tracks how many frames are currently pulled-but-not-archived."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.current = 0
        self.peak = 0

    def enter(self) -> None:
        with self._lock:
            self.current += 1
            self.peak = max(self.peak, self.current)

    def leave(self) -> None:
        with self._lock:
            self.current -= 1


class StreamingIngestor:
    """Bounded-queue streaming ingest into an archive (or sharded) writer.

    Parameters
    ----------
    writer:
        Anything with ``add_stream(stream, name)`` and a ``spec`` —
        :class:`~repro.archive.writer.ArchiveWriter` or
        :class:`~repro.archive.sharding.ShardedArchiveWriter` (where the
        name routes the stream to its shard).
    queue_depth:
        Hard bound on undecoded frames held at once (read-ahead depth).
    """

    def __init__(self, writer, queue_depth: int = 4) -> None:
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.writer = writer
        self.queue_depth = int(queue_depth)

    def run(self, feed: Iterable[FeedItem]) -> IngestReport:
        """Drain ``feed`` into the writer; returns the run's report.

        The producer thread owns the feed iterator; this thread compresses
        and archives.  A feed or codec error stops both sides and re-raises
        here — frames fully archived before the error stay archived (the
        writer finalises them on its own ``close``).
        """
        spec: CodecSpec = self.writer.spec
        resources = CodecResources(spec)
        stats = PipelineStats()
        gauge = _InFlightGauge()
        permits = threading.Semaphore(self.queue_depth)
        handoff: "queue.Queue" = queue.Queue()
        sentinel = object()
        stop = threading.Event()
        feed_error: list = []

        def produce() -> None:
            iterator = iter(feed)
            while not stop.is_set():
                # Acquire a permit BEFORE pulling the next frame: the feed
                # is never asked for a frame there is no room to hold.
                permits.acquire()
                if stop.is_set():
                    break
                try:
                    item = next(iterator)
                except StopIteration:
                    break
                except BaseException as exc:  # feed failure → surface in run()
                    feed_error.append(exc)
                    break
                gauge.enter()
                handoff.put(item)
            handoff.put(sentinel)

        producer = threading.Thread(target=produce, name="ingest-feed", daemon=True)
        producer.start()
        frames = 0
        try:
            while True:
                item = handoff.get()
                if item is sentinel:
                    break
                name, frame = _split_item(item)
                stream = encode_frame(frame, spec, resources, stats)
                self.writer.add_stream(stream, name)
                frames += 1
                gauge.leave()
                permits.release()
        finally:
            stop.set()
            permits.release()  # unblock a producer waiting on a permit
            producer.join()
        if feed_error:
            raise feed_error[0]
        return IngestReport(
            frames=frames,
            queue_depth=self.queue_depth,
            max_in_flight=gauge.peak,
            stats=stats,
        )


def ingest_frames(writer, feed: Iterable[FeedItem], queue_depth: int = 4) -> IngestReport:
    """Convenience wrapper: ``StreamingIngestor(writer, queue_depth).run(feed)``."""
    return StreamingIngestor(writer, queue_depth=queue_depth).run(feed)


async def ingest_async(
    writer,
    feed: Union[Iterable[FeedItem], AsyncIterable[FeedItem]],
    queue_depth: int = 4,
) -> IngestReport:
    """Asyncio front end with the same bounded-queue backpressure contract.

    ``feed`` may be a synchronous iterable or an async iterator (e.g. frames
    arriving over the network); compression runs in worker threads via
    ``asyncio.to_thread`` so the event loop stays responsive.  At most
    ``queue_depth`` undecoded frames are held at once, exactly as in
    :class:`StreamingIngestor`.
    """
    if queue_depth < 1:
        raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
    spec: CodecSpec = writer.spec
    resources = CodecResources(spec)
    stats = PipelineStats()
    gauge = _InFlightGauge()
    permits = asyncio.Semaphore(queue_depth)
    handoff: "asyncio.Queue" = asyncio.Queue()
    sentinel = object()

    _exhausted = object()

    async def _aiter():
        if hasattr(feed, "__aiter__"):
            async for item in feed:
                yield item
        else:
            # A synchronous feed may block per pull (disk, socket); keep
            # that off the event loop too, not just the compression.
            iterator = iter(feed)
            while True:
                item = await asyncio.to_thread(next, iterator, _exhausted)
                if item is _exhausted:
                    return
                yield item

    async def produce() -> None:
        try:
            async for item in _aiter():
                await permits.acquire()
                gauge.enter()
                await handoff.put(item)
        finally:
            await handoff.put(sentinel)

    producer = asyncio.ensure_future(produce())
    frames = 0
    try:
        while True:
            item = await handoff.get()
            if item is sentinel:
                break
            name, frame = _split_item(item)
            stream = await asyncio.to_thread(encode_frame, frame, spec, resources, stats)
            writer.add_stream(stream, name)
            frames += 1
            gauge.leave()
            permits.release()
    finally:
        if not producer.done():
            producer.cancel()
        try:
            await producer
        except asyncio.CancelledError:
            pass
    return IngestReport(
        frames=frames,
        queue_depth=queue_depth,
        max_in_flight=gauge.peak,
        stats=stats,
    )
