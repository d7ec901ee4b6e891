"""Distributed socket-pool execution: the job registry served over TCP.

:mod:`repro.coding.executor` defines the one execution seam of this
codebase — a job registry (:data:`~repro.coding.executor.JOBS`: ``kind`` →
function of a payload dict) and ``Executor.run(kind, payloads, prefer)`` —
with inline and fork-pool implementations.  This module is the third
implementation, so work can fan out past one host's cores:

``SocketWorker`` / ``python -m repro.netexec worker --listen host:port``
    A stdlib-only worker process: accepts connections, performs the
    HELLO version/capability handshake, and executes SUBMIT jobs by
    looking their kind up in its ``handlers`` — by default the executor's
    ``JOBS``, so a worker runs exactly the code the inline and fork paths
    run, which is what makes the merged output **byte-identical** to
    serial execution.
``WorkerClient`` / ``WorkerPool``
    One framed TCP connection per worker, and a pool over many: jobs are
    routed to a preferred node (the archive layer's placement maps) or
    round-robin, and a worker that dies mid-SUBMIT is retried under the
    :class:`~repro.archive.backend.RetryPolicy` ladder from PR 6 and then
    **reassigned** to another live worker (``worker_failures`` /
    ``reassignments`` counters account every switch exactly).
``SocketPoolExecutor``
    The socket ``Executor``: ``run`` fans one :meth:`WorkerPool.call` per
    job over a thread per live worker and returns each job's result with
    the node id that ran it.  :func:`~repro.coding.executor.make_executor`
    builds it for any ``workers="host:port,host:port"`` value, so
    ``compress_frames`` / ``decompress_frames`` and the archive's
    ``append_batch`` / ``verify`` / ``decode_all`` scale out with zero
    call-site changes.

Wire protocol (version 1) — every message is one length-prefixed,
CRC-framed unit, all integers little-endian::

    +-------------------+----------------+----------+------------------+
    | payload_len (u32) | payload_crc u32| type (u8)| payload bytes    |
    +-------------------+----------------+----------+------------------+

``payload_crc`` is CRC-32 of the payload seeded with the type byte, so a
frame whose type *or* body is corrupted is rejected before anything is
unpickled.  Message types: HELLO(1)/HELLO_OK(2) carry the protocol
version, node id and capability list; SUBMIT(3) carries
``{job, kind, payload}`` with the pickled spec + shard; RESULT(4) carries
``{job, payload}`` with streams + stats; ERROR(5) carries a typed error
code; HEARTBEAT(6)/HEARTBEAT_OK(7) liveness + counters; SHUTDOWN(8)/
SHUTDOWN_OK(9) drains a worker.  Payloads are pickles — the pool is a
trusted execution cluster (the same trust the fork pool already assumes),
not a public endpoint.

A malformed frame (truncated prefix, bad CRC, oversized length, garbage)
produces a **typed error on the client** (:class:`ProtocolError` /
:class:`FrameCrcError` / :class:`FrameTooLargeError`) and costs the worker
only that one connection — the accept loop keeps serving, proven by the
fuzz corpus in ``tests/coding/test_netexec_protocol.py``.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .executor import JOBS, Executor

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "NetExecError",
    "ProtocolError",
    "FrameCrcError",
    "FrameTooLargeError",
    "VersionMismatchError",
    "RemoteWorkerError",
    "WorkerUnavailableError",
    "send_message",
    "recv_message",
    "parse_worker_addresses",
    "SocketWorker",
    "WorkerClient",
    "WorkerPool",
    "SocketPoolExecutor",
    "start_local_worker",
    "local_worker_pool",
    "main",
]

#: Version of the wire protocol; HELLO carries it both ways and a mismatch
#: is a clean typed error, never a misparse.
PROTOCOL_VERSION = 1

#: Default cap on one frame's payload (256 MiB).  A declared length above
#: the receiver's cap is rejected *before* any allocation — the defence
#: against a corrupted or hostile length prefix.
MAX_FRAME_BYTES = 256 << 20

#: ``<`` little-endian: payload length, payload CRC-32 (seeded with the
#: type byte), message type — 4+4+1 = 9 bytes before the payload.
_FRAME_HEAD = struct.Struct("<IIB")

MSG_HELLO = 1
MSG_HELLO_OK = 2
MSG_SUBMIT = 3
MSG_RESULT = 4
MSG_ERROR = 5
MSG_HEARTBEAT = 6
MSG_HEARTBEAT_OK = 7
MSG_SHUTDOWN = 8
MSG_SHUTDOWN_OK = 9

_MESSAGE_NAMES = {
    MSG_HELLO: "HELLO",
    MSG_HELLO_OK: "HELLO_OK",
    MSG_SUBMIT: "SUBMIT",
    MSG_RESULT: "RESULT",
    MSG_ERROR: "ERROR",
    MSG_HEARTBEAT: "HEARTBEAT",
    MSG_HEARTBEAT_OK: "HEARTBEAT_OK",
    MSG_SHUTDOWN: "SHUTDOWN",
    MSG_SHUTDOWN_OK: "SHUTDOWN_OK",
}


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

class NetExecError(Exception):
    """Base class of every socket-pool execution error."""


class ProtocolError(NetExecError):
    """The byte stream is not a valid protocol frame (truncated length
    prefix, garbage header, unexpected message type)."""


class FrameCrcError(ProtocolError):
    """A frame's payload CRC does not match its bytes."""


class FrameTooLargeError(ProtocolError):
    """A frame's declared length exceeds the receiver's cap."""


class VersionMismatchError(NetExecError):
    """Client and worker speak different protocol versions."""


class RemoteWorkerError(NetExecError):
    """The worker executed the job and it failed (a *deterministic* error
    — reassigning it to another worker would fail the same way)."""


class WorkerUnavailableError(NetExecError):
    """A worker cannot be reached, died mid-call, or no worker is left."""


#: ERROR-frame code → the exception the client raises.  Codes, not pickled
#: exception objects, so a malicious/buggy worker cannot choose what the
#: client instantiates.
_ERROR_CODES = {
    "protocol": ProtocolError,
    "bad-crc": FrameCrcError,
    "frame-too-large": FrameTooLargeError,
    "version-mismatch": VersionMismatchError,
    "job-failed": RemoteWorkerError,
    "unknown-kind": RemoteWorkerError,
    "shutting-down": WorkerUnavailableError,
}


def _default_retry():
    """The connect/transient-fault policy when none is given: the PR 6
    :class:`~repro.archive.backend.RetryPolicy` with a short backoff —
    absorbing startup races and transient refusals before the pool
    escalates to reassignment."""
    from ..archive.backend import RetryPolicy

    return RetryPolicy(attempts=3, base_delay=0.05, max_delay=0.5)


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _dump(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _load(data: bytes):
    try:
        return pickle.loads(data)
    except Exception as exc:
        raise ProtocolError(f"frame payload does not unpickle: {exc}") from exc


def _frame_crc(msg_type: int, payload: bytes) -> int:
    return zlib.crc32(payload, zlib.crc32(bytes([msg_type]))) & 0xFFFFFFFF


def send_message(
    sock: socket.socket,
    msg_type: int,
    payload: bytes,
    max_frame_bytes: int = MAX_FRAME_BYTES,
) -> None:
    """Send one framed message (length prefix + CRC + type + payload)."""
    if len(payload) > max_frame_bytes:
        raise FrameTooLargeError(
            f"{_MESSAGE_NAMES.get(msg_type, msg_type)} payload of "
            f"{len(payload)} bytes exceeds the {max_frame_bytes}-byte frame cap"
        )
    head = _FRAME_HEAD.pack(len(payload), _frame_crc(msg_type, payload), msg_type)
    sock.sendall(head + payload)


def _recv_exact(sock: socket.socket, count: int, what: str, *, at_boundary: bool):
    """Read exactly ``count`` bytes; ``None`` on a clean EOF at a frame
    boundary (only when ``at_boundary``), :class:`ProtocolError` on EOF
    anywhere else (a truncated frame)."""
    buf = bytearray()
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            if at_boundary and not buf:
                return None
            raise ProtocolError(
                f"connection closed inside {what} ({len(buf)} of {count} bytes)"
            )
        buf += chunk
    return bytes(buf)


def recv_message(
    sock: socket.socket, max_frame_bytes: int = MAX_FRAME_BYTES
) -> Optional[Tuple[int, bytes]]:
    """Receive one framed message as ``(type, payload)``.

    Returns ``None`` on a clean connection close between frames.  Raises
    :class:`ProtocolError` on a truncated length prefix or payload,
    :class:`FrameTooLargeError` when the declared length exceeds the cap
    (checked *before* allocating), and :class:`FrameCrcError` when the
    payload fails its checksum.
    """
    head = _recv_exact(sock, _FRAME_HEAD.size, "a frame header", at_boundary=True)
    if head is None:
        return None
    length, crc, msg_type = _FRAME_HEAD.unpack(head)
    if length > max_frame_bytes:
        raise FrameTooLargeError(
            f"frame declares {length} payload bytes, above the "
            f"{max_frame_bytes}-byte cap"
        )
    payload = _recv_exact(sock, length, "a frame payload", at_boundary=False)
    if _frame_crc(msg_type, payload) != crc:
        raise FrameCrcError(
            f"{_MESSAGE_NAMES.get(msg_type, msg_type)} frame failed its CRC check"
        )
    return msg_type, payload


def parse_worker_addresses(
    workers: Union[str, Sequence],
) -> List[Tuple[str, int]]:
    """Parse ``"host:port,host:port"`` (or a list of such / of pairs)."""
    if isinstance(workers, str):
        workers = [part for part in workers.split(",") if part.strip()]
    addresses: List[Tuple[str, int]] = []
    for item in workers:
        if isinstance(item, str):
            host, sep, port = item.strip().rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"worker address {item!r} is not of the form host:port"
                )
            try:
                addresses.append((host, int(port)))
            except ValueError:
                raise ValueError(
                    f"worker address {item!r} has a non-integer port"
                ) from None
        else:
            host, port = item
            addresses.append((str(host), int(port)))
    if not addresses:
        raise ValueError("no worker addresses given")
    return addresses


def _format_address(address: Tuple[str, int]) -> str:
    return f"{address[0]}:{address[1]}"


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

class SocketWorker:
    """One socket worker: accept loop, handshake, job execution.

    Every connection is served by its own thread; jobs run the ordinary
    serial pipeline, so the bytes a worker produces are the bytes serial
    execution produces.  A protocol violation costs only the offending
    connection (best-effort typed ERROR reply, then close) — the accept
    loop keeps serving, and ``protocol_errors`` counts what was dropped.

    ``node`` is the worker's stable identity for the archive layer's
    placement maps (``--node`` on the CLI); it defaults to ``pid-<pid>``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        node: Optional[str] = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        handlers: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.node = node if node else f"pid-{os.getpid()}"
        self.max_frame_bytes = int(max_frame_bytes)
        self.handlers = dict(JOBS if handlers is None else handlers)
        self._requested = (host, int(port))
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._sock: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        self._conns: set = set()
        self._closing = threading.Event()
        self._lock = threading.Lock()
        self._started = time.monotonic()
        #: Jobs executed successfully (total and per kind), connections
        #: accepted, and frames dropped for protocol violations.
        self.jobs_done = 0
        self.jobs_by_kind: Dict[str, int] = {}
        self.connections = 0
        self.protocol_errors = 0

    # -- lifecycle ----------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, listen and start the accept loop; returns ``(host, port)``."""
        self._sock = socket.create_server(self._requested)
        self.host, self.port = self._sock.getsockname()[:2]
        self._started = time.monotonic()
        self._thread = threading.Thread(
            target=self._accept_loop, name=f"netexec-worker-{self.port}", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    @property
    def address(self) -> str:
        """``host:port`` once started."""
        return f"{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Block until the worker is shut down (SHUTDOWN frame or close)."""
        self._closing.wait()

    def close(self) -> None:
        """Stop accepting and close every open connection."""
        self._closing.set()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - racing close
                pass

    def __enter__(self) -> "SocketWorker":
        if self._sock is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving ------------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                break
            with self._lock:
                self.connections += 1
                self._conns.add(conn)
            threading.Thread(
                target=self._handle_conn, args=(conn,), daemon=True
            ).start()

    def _send_error(
        self, conn: socket.socket, code: str, message: str, job: Optional[int] = None
    ) -> None:
        """Best-effort typed ERROR reply (the peer may already be gone)."""
        try:
            send_message(
                conn,
                MSG_ERROR,
                _dump({"code": code, "message": message, "job": job}),
                self.max_frame_bytes,
            )
        except OSError:
            pass

    def _note_protocol_error(self) -> None:
        with self._lock:
            self.protocol_errors += 1

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            greeted = False
            while not self._closing.is_set():
                try:
                    message = recv_message(conn, self.max_frame_bytes)
                except FrameTooLargeError as exc:
                    self._note_protocol_error()
                    self._send_error(conn, "frame-too-large", str(exc))
                    break
                except FrameCrcError as exc:
                    self._note_protocol_error()
                    self._send_error(conn, "bad-crc", str(exc))
                    break
                except ProtocolError:
                    # A truncated frame means the stream cannot be resynced
                    # (and usually that the peer is gone): drop silently.
                    self._note_protocol_error()
                    break
                if message is None:
                    break
                msg_type, payload = message
                if msg_type == MSG_HELLO:
                    greeted = self._handle_hello(conn, payload)
                    if not greeted:
                        break
                elif not greeted:
                    self._note_protocol_error()
                    self._send_error(
                        conn,
                        "protocol",
                        f"{_MESSAGE_NAMES.get(msg_type, msg_type)} before the "
                        "HELLO handshake",
                    )
                    break
                elif msg_type == MSG_SUBMIT:
                    self._handle_submit(conn, payload)
                elif msg_type == MSG_HEARTBEAT:
                    send_message(
                        conn,
                        MSG_HEARTBEAT_OK,
                        _dump(self.status()),
                        self.max_frame_bytes,
                    )
                elif msg_type == MSG_SHUTDOWN:
                    try:
                        send_message(
                            conn, MSG_SHUTDOWN_OK, _dump(self.status()), self.max_frame_bytes
                        )
                    finally:
                        self.close()
                    break
                else:
                    self._note_protocol_error()
                    self._send_error(
                        conn,
                        "protocol",
                        f"unexpected message type "
                        f"{_MESSAGE_NAMES.get(msg_type, msg_type)}",
                    )
                    break
        except OSError:
            pass
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:  # pragma: no cover - racing close
                pass

    def _handle_hello(self, conn: socket.socket, payload: bytes) -> bool:
        try:
            hello = _load(payload)
            version = hello.get("version")
        except (ProtocolError, AttributeError):
            self._note_protocol_error()
            self._send_error(conn, "protocol", "HELLO payload is not a handshake")
            return False
        if version != PROTOCOL_VERSION:
            self._send_error(
                conn,
                "version-mismatch",
                f"client speaks protocol version {version!r}, worker speaks "
                f"{PROTOCOL_VERSION}",
            )
            return False
        send_message(
            conn,
            MSG_HELLO_OK,
            _dump(
                {
                    "version": PROTOCOL_VERSION,
                    "node": self.node,
                    "capabilities": sorted(self.handlers),
                    "pid": os.getpid(),
                }
            ),
            self.max_frame_bytes,
        )
        return True

    def _handle_submit(self, conn: socket.socket, payload: bytes) -> None:
        try:
            job = _load(payload)
            job_id = job.get("job")
            kind = job.get("kind")
        except (ProtocolError, AttributeError):
            self._note_protocol_error()
            self._send_error(conn, "protocol", "SUBMIT payload is not a job")
            return
        handler = self.handlers.get(kind)
        if handler is None:
            self._send_error(
                conn,
                "unknown-kind",
                f"worker has no handler for job kind {kind!r} "
                f"(capabilities: {sorted(self.handlers)})",
                job=job_id,
            )
            return
        try:
            result = handler(job.get("payload"))
        except Exception as exc:
            self._send_error(
                conn, "job-failed", f"{type(exc).__name__}: {exc}", job=job_id
            )
            return
        with self._lock:
            self.jobs_done += 1
            self.jobs_by_kind[kind] = self.jobs_by_kind.get(kind, 0) + 1
        send_message(
            conn,
            MSG_RESULT,
            _dump({"job": job_id, "payload": result}),
            self.max_frame_bytes,
        )

    def status(self) -> Dict[str, object]:
        """Liveness counters (the HEARTBEAT_OK payload)."""
        with self._lock:
            return {
                "node": self.node,
                "pid": os.getpid(),
                "jobs_done": self.jobs_done,
                "jobs_by_kind": dict(self.jobs_by_kind),
                "connections": self.connections,
                "protocol_errors": self.protocol_errors,
                "uptime_s": time.monotonic() - self._started,
            }


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------

class WorkerClient:
    """One framed TCP connection to one worker (thread-safe, one RPC at a
    time per connection)."""

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        timeout: float = 60.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        (self._address,) = parse_worker_addresses([address])
        self.timeout = timeout
        self.max_frame_bytes = int(max_frame_bytes)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._job = 0
        #: Filled by the HELLO handshake.
        self.node: Optional[str] = None
        self.capabilities: Tuple[str, ...] = ()
        self.worker_pid: Optional[int] = None

    @property
    def address(self) -> str:
        return _format_address(self._address)

    @property
    def connected(self) -> bool:
        return self._sock is not None

    # -- plumbing -----------------------------------------------------------------------
    def connect(self) -> "WorkerClient":
        """Open the connection and run the HELLO handshake."""
        if self._sock is not None:
            return self
        try:
            sock = socket.create_connection(self._address, timeout=self.timeout)
        except OSError as exc:
            raise exc  # transient: left as OSError for RetryPolicy ladders
        sock.settimeout(self.timeout)
        self._sock = sock
        try:
            send_message(sock, MSG_HELLO, _dump({"version": PROTOCOL_VERSION}),
                         self.max_frame_bytes)
            reply = self._expect(MSG_HELLO_OK)
        except BaseException:
            self.close()
            raise
        if reply.get("version") != PROTOCOL_VERSION:
            self.close()
            raise VersionMismatchError(
                f"worker {self.address} speaks protocol {reply.get('version')!r}, "
                f"client speaks {PROTOCOL_VERSION}"
            )
        self.node = reply.get("node")
        self.capabilities = tuple(reply.get("capabilities", ()))
        self.worker_pid = reply.get("pid")
        return self

    def _expect(self, wanted: int) -> Dict:
        """Read one reply frame, mapping ERROR frames and closes to typed
        exceptions."""
        try:
            message = recv_message(self._sock, self.max_frame_bytes)
        except socket.timeout as exc:
            raise WorkerUnavailableError(
                f"worker {self.address} did not reply within {self.timeout}s"
            ) from exc
        if message is None:
            raise WorkerUnavailableError(
                f"worker {self.address} closed the connection mid-call"
            )
        msg_type, payload = message
        if msg_type == MSG_ERROR:
            info = _load(payload)
            exc_class = _ERROR_CODES.get(info.get("code"), RemoteWorkerError)
            raise exc_class(f"worker {self.address}: {info.get('message')}")
        if msg_type != wanted:
            raise ProtocolError(
                f"worker {self.address} sent "
                f"{_MESSAGE_NAMES.get(msg_type, msg_type)}, expected "
                f"{_MESSAGE_NAMES[wanted]}"
            )
        return _load(payload)

    # -- RPCs ---------------------------------------------------------------------------
    def call(self, kind: str, payload) -> Dict:
        """SUBMIT one job and wait for its RESULT."""
        with self._lock:
            if self._sock is None:
                raise WorkerUnavailableError(
                    f"worker {self.address} is not connected"
                )
            self._job += 1
            job_id = self._job
            try:
                send_message(
                    self._sock,
                    MSG_SUBMIT,
                    _dump({"job": job_id, "kind": kind, "payload": payload}),
                    self.max_frame_bytes,
                )
                reply = self._expect(MSG_RESULT)
            except OSError as exc:
                raise WorkerUnavailableError(
                    f"worker {self.address} failed mid-call: {exc}"
                ) from exc
            if reply.get("job") != job_id:
                raise ProtocolError(
                    f"worker {self.address} answered job {reply.get('job')!r}, "
                    f"expected {job_id}"
                )
            return reply["payload"]

    def heartbeat(self) -> Dict:
        """HEARTBEAT round trip; returns the worker's liveness counters."""
        with self._lock:
            try:
                send_message(self._sock, MSG_HEARTBEAT, _dump({}), self.max_frame_bytes)
                return self._expect(MSG_HEARTBEAT_OK)
            except OSError as exc:
                raise WorkerUnavailableError(
                    f"worker {self.address} failed mid-heartbeat: {exc}"
                ) from exc

    def shutdown(self) -> Dict:
        """Ask the worker to drain and exit; returns its final counters."""
        with self._lock:
            try:
                send_message(self._sock, MSG_SHUTDOWN, _dump({}), self.max_frame_bytes)
                return self._expect(MSG_SHUTDOWN_OK)
            except OSError as exc:
                raise WorkerUnavailableError(
                    f"worker {self.address} failed mid-shutdown: {exc}"
                ) from exc

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - racing close
                pass
            self._sock = None

    def __enter__(self) -> "WorkerClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Pool
# ---------------------------------------------------------------------------

class WorkerPool:
    """A set of socket workers with routing, retry and reassignment.

    Connections open lazily and the HELLO handshake records each worker's
    node id, so jobs can be routed to a *preferred node* (the archive
    layer's placement maps) with any-worker fallback.  A worker that
    cannot be reached — or dies mid-SUBMIT — is marked dead
    (``worker_failures``) and its job is **reassigned** to the next live
    worker (``reassignments``); only when no live worker remains does
    :class:`WorkerUnavailableError` propagate.  Transient connect faults
    are absorbed first by ``retry`` (a PR 6
    :class:`~repro.archive.backend.RetryPolicy`), so the ladder reads
    retry → reassign → fail, exactly like the archive's read ladder.

    Deterministic job failures (:class:`RemoteWorkerError`) are *not*
    reassigned — they would fail identically everywhere.
    """

    def __init__(
        self,
        workers: Union[str, Sequence],
        retry=None,
        timeout: float = 60.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> None:
        self.addresses = parse_worker_addresses(workers)
        self.retry = retry if retry is not None else _default_retry()
        self.timeout = timeout
        self.max_frame_bytes = int(max_frame_bytes)
        self._clients: Dict[int, WorkerClient] = {}
        self._dead: Dict[int, str] = {}
        self._nodes: Dict[str, int] = {}
        self._rr = 0
        self._lock = threading.RLock()
        #: Workers marked dead (unreachable or died mid-call) and jobs
        #: that had to move to another worker because of it.
        self.worker_failures = 0
        self.reassignments = 0
        #: Jobs completed through this pool.
        self.submits = 0

    # -- bookkeeping --------------------------------------------------------------------
    @property
    def width(self) -> int:
        return len(self.addresses)

    def live_indices(self) -> List[int]:
        with self._lock:
            return [i for i in range(self.width) if i not in self._dead]

    @property
    def live_count(self) -> int:
        return len(self.live_indices())

    def nodes(self) -> Dict[str, str]:
        """Node id → address of every worker whose handshake completed."""
        with self._lock:
            return {
                node: _format_address(self.addresses[i])
                for node, i in self._nodes.items()
            }

    def _mark_dead(self, index: int, exc: BaseException) -> None:
        with self._lock:
            if index in self._dead:
                return
            self._dead[index] = f"{type(exc).__name__}: {exc}"
            self.worker_failures += 1
            client = self._clients.pop(index, None)
        if client is not None:
            client.close()

    def _client(self, index: int) -> WorkerClient:
        """The worker's connected client, connecting (with retry) if needed."""
        with self._lock:
            client = self._clients.get(index)
            if client is not None:
                return client
            client = WorkerClient(
                self.addresses[index],
                timeout=self.timeout,
                max_frame_bytes=self.max_frame_bytes,
            )
            self.retry.run(client.connect)
            self._clients[index] = client
            if client.node:
                self._nodes.setdefault(client.node, index)
            return client

    def ensure_connected(self) -> List[int]:
        """Connect every not-yet-dead worker; returns the live indices.

        Unreachable workers are marked dead (after ``retry``); raises
        :class:`WorkerUnavailableError` only when *none* is reachable.
        """
        for index in self.live_indices():
            try:
                self._client(index)
            except (OSError, NetExecError) as exc:
                self._mark_dead(index, exc)
        live = self.live_indices()
        if not live:
            raise WorkerUnavailableError(self._dead_summary())
        return live

    def _dead_summary(self) -> str:
        with self._lock:
            details = "; ".join(
                f"{_format_address(self.addresses[i])}: {reason}"
                for i, reason in sorted(self._dead.items())
            )
        return f"no live workers left ({details})"

    # -- routing ------------------------------------------------------------------------
    def _candidates(
        self, preferred_index: Optional[int], preferred_node: Optional[str]
    ) -> List[int]:
        with self._lock:
            live = [i for i in range(self.width) if i not in self._dead]
            if not live:
                return []
            start = None
            if preferred_node is not None and preferred_node in self._nodes:
                node_index = self._nodes[preferred_node]
                if node_index in live:
                    start = node_index
            if start is None and preferred_index is not None and preferred_index in live:
                start = preferred_index
            if start is None:
                start = live[self._rr % len(live)]
                self._rr += 1
            pivot = live.index(start)
            return live[pivot:] + live[:pivot]

    def call(
        self,
        kind: str,
        payload,
        preferred_index: Optional[int] = None,
        preferred_node: Optional[str] = None,
    ) -> Tuple[Dict, Optional[str]]:
        """Run one job, with failover: returns ``(result, node id served by)``.

        Tries the preferred node (if known and alive), else the preferred
        index, else round-robin; on a dead or misbehaving worker the job
        moves to the next live candidate (``reassignments``).
        """
        errors: List[str] = []
        while True:
            candidates = self._candidates(preferred_index, preferred_node)
            if not candidates:
                raise WorkerUnavailableError(
                    self._dead_summary()
                    + (f"; this job saw: {'; '.join(errors)}" if errors else "")
                )
            index = candidates[0]
            try:
                client = self._client(index)
            except (OSError, NetExecError) as exc:
                if isinstance(exc, (RemoteWorkerError, VersionMismatchError)):
                    raise
                self._mark_dead(index, exc)
                errors.append(f"{_format_address(self.addresses[index])}: {exc}")
                if len(candidates) > 1:
                    with self._lock:
                        self.reassignments += 1
                continue
            try:
                result = client.call(kind, payload)
            except RemoteWorkerError:
                raise
            except (WorkerUnavailableError, ProtocolError, OSError) as exc:
                self._mark_dead(index, exc)
                errors.append(f"{client.address}: {exc}")
                if len(candidates) > 1:
                    with self._lock:
                        self.reassignments += 1
                continue
            with self._lock:
                self.submits += 1
            return result, client.node

    # -- lifecycle ----------------------------------------------------------------------
    def disconnect(self) -> None:
        """Close every open connection (dead-markings and counters stay)."""
        with self._lock:
            clients = list(self._clients.values())
            self._clients.clear()
        for client in clients:
            client.close()

    def close(self) -> None:
        self.disconnect()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.disconnect()


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------

class SocketPoolExecutor(Executor):
    """Runs :data:`~repro.coding.executor.JOBS` on a pool of socket workers.

    The network implementation of :meth:`Executor.run
    <repro.coding.executor.Executor.run>`: one thread per concurrently
    running job fans the payloads out over :meth:`WorkerPool.call`, so the
    worker-death → reassignment ladder of :class:`WorkerPool` sits
    underneath every job.  Batch compression and decoding come from the
    :class:`~repro.coding.executor.Executor` base, so the output is
    **byte-identical** to serial execution, like the fork pool's.

    ``workers`` may be an ``"host:port,host:port"`` string, a list of
    addresses, or a ready :class:`WorkerPool`.  A pool built here from
    addresses is *owned*: its connections are closed after each run (and
    on :meth:`close`), so one-shot ``compress_frames(...,
    workers="...")`` calls never leak sockets.  A caller-provided pool is
    borrowed and its connections persist across runs.
    """

    def __init__(self, workers, retry=None) -> None:
        if isinstance(workers, SocketPoolExecutor):
            self.pool, self._owns_pool = workers.pool, False
        elif isinstance(workers, WorkerPool):
            self.pool, self._owns_pool = workers, False
        else:
            self.pool, self._owns_pool = WorkerPool(workers, retry=retry), True

    @property
    def workers(self) -> int:
        """Pool width (address count), for stats parity with the fork pool."""
        return self.pool.width

    def width(self) -> int:
        """Live workers after connecting (unreachable ones are marked dead)."""
        return len(self.pool.ensure_connected())

    def run(self, kind, payloads, prefer=None):
        """Job ``i`` goes to node ``prefer[i]`` when set and live, otherwise
        to ``live[i % len(live)]``; a dead worker's job moves on to the next
        live one.  Returns ``(result, node id that ran it)`` pairs."""
        from concurrent.futures import ThreadPoolExecutor

        if not payloads:
            return []
        if prefer is None:
            prefer = [None] * len(payloads)
        try:
            live = self.pool.ensure_connected()
            with ThreadPoolExecutor(max_workers=min(len(payloads), len(live))) as threads:
                futures = [
                    threads.submit(
                        self.pool.call, kind, payload, live[i % len(live)], prefer[i]
                    )
                    for i, payload in enumerate(payloads)
                ]
                return [future.result() for future in futures]
        finally:
            if self._owns_pool:
                self.pool.disconnect()

    def close(self) -> None:
        if self._owns_pool:
            self.pool.disconnect()

# ---------------------------------------------------------------------------
# Local worker processes (benchmarks, tests, CI)
# ---------------------------------------------------------------------------

def start_local_worker(
    node: Optional[str] = None,
    host: str = "127.0.0.1",
    timeout: float = 30.0,
) -> Tuple[subprocess.Popen, str]:
    """Start one ``python -m repro.netexec worker`` subprocess on an
    ephemeral port; returns ``(process, "host:port")`` once it is ready
    (the worker prints ``ready <host> <port>`` when listening)."""
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src_dir not in existing.split(os.pathsep):
        env["PYTHONPATH"] = src_dir + (os.pathsep + existing if existing else "")
    command = [sys.executable, "-m", "repro.netexec", "worker", "--listen", f"{host}:0"]
    if node is not None:
        command += ["--node", node]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if line or process.poll() is not None:
            break
    parts = line.split()
    if len(parts) != 3 or parts[0] != "ready":
        stderr = ""
        if process.poll() is not None:
            stderr = process.stderr.read()
        process.kill()
        raise WorkerUnavailableError(
            f"worker process did not come up (got {line!r}): {stderr.strip()}"
        )
    return process, f"{parts[1]}:{parts[2]}"


@contextmanager
def local_worker_pool(count: int, nodes: Optional[Sequence[str]] = None):
    """Spawn ``count`` local worker processes; yields their address list
    and terminates them on exit.  ``nodes`` names them for placement maps."""
    processes: List[subprocess.Popen] = []
    addresses: List[str] = []
    try:
        for i in range(count):
            node = nodes[i] if nodes is not None else None
            process, address = start_local_worker(node=node)
            processes.append(process)
            addresses.append(address)
        yield addresses
    finally:
        for process in processes:
            process.terminate()
        for process in processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                process.kill()


# ---------------------------------------------------------------------------
# CLI (python -m repro.netexec)
# ---------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.netexec {worker,ping,shutdown}``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.netexec",
        description="socket pool workers for distributed batch execution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="serve compress/decompress/verify jobs")
    worker.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address (default 127.0.0.1:0 = ephemeral port; the "
        "worker prints 'ready <host> <port>' once listening)",
    )
    worker.add_argument(
        "--node",
        default=None,
        help="stable node id for manifest placement maps (default pid-<pid>)",
    )
    worker.add_argument(
        "--max-frame-bytes",
        type=int,
        default=MAX_FRAME_BYTES,
        metavar="N",
        help=f"reject frames above N payload bytes (default {MAX_FRAME_BYTES})",
    )

    ping = sub.add_parser("ping", help="heartbeat one worker, print its counters")
    ping.add_argument("address", metavar="HOST:PORT")

    shutdown = sub.add_parser("shutdown", help="drain and stop one worker")
    shutdown.add_argument("address", metavar="HOST:PORT")

    args = parser.parse_args(argv)
    if args.command == "worker":
        (address,) = parse_worker_addresses([args.listen])
        if args.max_frame_bytes < 1:
            parser.error("--max-frame-bytes must be >= 1")
        served = SocketWorker(
            address[0],
            address[1],
            node=args.node,
            max_frame_bytes=args.max_frame_bytes,
        )
        host, port = served.start()
        print(f"ready {host} {port}", flush=True)
        try:
            served.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            served.close()
        return 0

    import json

    try:
        with WorkerClient(args.address) as client:
            status = client.shutdown() if args.command == "shutdown" else client.heartbeat()
    except (NetExecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(status, sort_keys=True))
    return 0
