"""The JSON-lines daemon front ends: ``repro serve`` over stdio or a
unix-domain socket.

Reads one request per line from a text stream (normally stdin), submits
each to the serving tier (a :class:`~repro.serve.frontdoor.FrontDoor`:
the broker, or a cluster router), and writes one response per line
(normally to stdout) **as results complete** — responses may be out of
order with respect to requests; clients correlate by ``id`` (and
by ``trace_id``, which every response carries).

A line that is not JSON is refused through the tier's front door
(:meth:`~repro.serve.frontdoor.FrontDoor.reject_line`: ``bad_json``,
counted and flight-recorded like any refusal).  Two ops are intercepted
at this layer instead of occupying a broker worker:

* ``watch`` streams telemetry: admitted by
  :meth:`~repro.serve.frontdoor.FrontDoor.admit_stream`, it emits one
  frame per interval (a ``telemetry_snapshot`` with a ``seq`` number),
  for ``count`` frames or until the stream closes.  A worker thread that
  slept between frames would be a denial of service against the
  admission queue — watching must never cost serving capacity.
* ``shutdown`` is still answered by the broker, but the daemon sees it
  go by and drains afterwards.

With ``--socket PATH``, :func:`serve_socket` listens on a unix-domain
socket instead; each connection gets the same line protocol on its own
thread (``repro top``, ``repro serve-trace`` and ``repro loadgen
--socket`` are such clients, via :class:`~repro.serve.client.
SocketClient`).  A ``shutdown`` from any connection stops the listener.

Lifecycle: the stdio loop ends on EOF or on a ``shutdown`` request.
Either way the broker drains — every admitted request is answered before
the process exits; requests arriving after shutdown are answered
``shutting_down``.  Diagnostics go to stderr; stdout carries protocol
lines only.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
from typing import IO

from .broker import Broker, BrokerConfig
from . import protocol
from .frontdoor import FrontDoor


def _emit(stream: IO[str], lock: threading.Lock, response: dict) -> None:
    line = json.dumps(response, sort_keys=True)
    with lock:
        stream.write(line + "\n")
        stream.flush()


#: Telemetry cadence when a ``watch`` request names none.
DEFAULT_WATCH_INTERVAL_MS = 1000.0


def _watch_stream(
    broker: FrontDoor,
    stdout: IO[str],
    lock: threading.Lock,
    request: dict,
    trace_id: str,
    stop: threading.Event,
) -> None:
    """Emit telemetry frames for one ``watch`` request until ``count``
    frames are sent, the stream dies, or ``stop`` is set."""
    request_id = request.get("id")
    interval_s = (
        request.get("interval_ms") or DEFAULT_WATCH_INTERVAL_MS
    ) / 1000.0
    count = request.get("count")
    seq = 0
    while not stop.is_set():
        frame = broker.telemetry_snapshot()
        frame["seq"] = seq
        try:
            _emit(
                stdout,
                lock,
                protocol.ok_response(request_id, frame, trace_id=trace_id),
            )
        except (ValueError, OSError):  # stream closed under us
            return
        seq += 1
        if count is not None and seq >= count:
            return
        stop.wait(interval_s)


def _start_watch(
    broker: FrontDoor,
    stdout: IO[str],
    lock: threading.Lock,
    request: dict,
    stop: threading.Event,
) -> None:
    """Admit and launch one ``watch`` stream on its own thread."""
    trace_id, refusal = broker.admit_stream(request)
    if refusal is not None:
        _emit(stdout, lock, refusal)
        return
    threading.Thread(
        target=_watch_stream,
        args=(broker, stdout, lock, request, trace_id, stop),
        name="repro-watch",
        daemon=True,
    ).start()


def handle_stream(
    broker: FrontDoor, stdin: IO[str], stdout: IO[str]
) -> bool:
    """Run the line protocol over one request/response stream pair.

    Returns ``True`` when the stream ended because of a ``shutdown``
    request (the caller decides whether that stops just this connection
    or the whole daemon).
    """
    write_lock = threading.Lock()
    stop_watch = threading.Event()
    saw_shutdown = False

    try:
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except json.JSONDecodeError as exc:
                _emit(stdout, write_lock, broker.reject_line(str(exc)))
                continue
            if isinstance(request, dict) and request.get("op") == "watch":
                _start_watch(broker, stdout, write_lock, request, stop_watch)
                continue
            is_shutdown = (
                isinstance(request, dict) and request.get("op") == "shutdown"
            )
            future = broker.submit(request)
            future.add_done_callback(
                lambda f: _emit(stdout, write_lock, f.result())
            )
            if is_shutdown:
                saw_shutdown = True
                break
    finally:
        stop_watch.set()
    return saw_shutdown


def serve_loop(
    broker: FrontDoor,
    stdin: IO[str] | None = None,
    stdout: IO[str] | None = None,
) -> int:
    """Run the request/response loop until EOF or shutdown; returns 0."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    handle_stream(broker, stdin, stdout)
    broker.drain()  # answers everything in flight before returning
    return 0


class SocketServer:
    """A unix-domain-socket front end over one broker or router.

    Each accepted connection runs :func:`handle_stream` on its own
    thread; a ``shutdown`` request from any connection stops the accept
    loop (after which the caller drains the broker).
    """

    def __init__(self, broker: FrontDoor, path: str):
        self.broker = broker
        self.path = path
        if os.path.exists(path):
            os.unlink(path)  # a previous daemon's stale socket
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(path)
        self._sock.listen(16)
        self._sock.settimeout(0.2)  # bounded poll so shutdown is prompt
        self._shutdown = threading.Event()
        self._threads: list[threading.Thread] = []

    def _connection(self, conn: socket.socket) -> None:
        try:
            with conn:
                rfile = conn.makefile("r", encoding="utf-8")
                wfile = conn.makefile("w", encoding="utf-8")
                if handle_stream(self.broker, rfile, wfile):
                    self._shutdown.set()
        except OSError:
            pass  # client went away mid-line; nothing to answer

    def serve_forever(self) -> None:
        """Accept connections until a ``shutdown`` request arrives."""
        try:
            while not self._shutdown.is_set():
                try:
                    conn, _ = self._sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._connection,
                    args=(conn,),
                    name="repro-serve-conn",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        finally:
            self.close()

    def shutdown(self) -> None:
        self._shutdown.set()

    def close(self) -> None:
        try:
            self._sock.close()
        finally:
            if os.path.exists(self.path):
                os.unlink(self.path)

    def __enter__(self) -> "SocketServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve_socket(broker: FrontDoor, path: str) -> int:
    """Listen on a unix socket until a client sends ``shutdown``."""
    server = SocketServer(broker, path)
    print(f"repro serve: listening on {path}", file=sys.stderr)
    server.serve_forever()
    broker.drain()
    return 0


def run_daemon(config: BrokerConfig, socket_path: str | None = None) -> int:
    """Construct a broker from ``config`` and serve stdin/stdout (or the
    unix socket at ``socket_path``)."""
    broker = Broker(config)
    print(
        f"repro serve: {config.workers} workers, queue limit "
        f"{config.queue_limit}, cache dir {config.cache_dir or '(memory only)'}",
        file=sys.stderr,
    )
    if socket_path is not None:
        return serve_socket(broker, socket_path)
    return serve_loop(broker)
