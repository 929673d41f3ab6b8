"""TCP shell around the server core.

One thread accepts connections and one reader thread per connection
parses frames. Every event (client request, peer envelope, peer
connect, timer tick) enters the core through ``Server._handle``, which
runs the handler under the state lock on the calling thread (no handoff;
one writer) and then carries out its effects, or fails the node stop if
the handler raises. Outbound peer links write from the calling thread
while healthy and fall back to a sender thread with automatic reconnect,
so a slow or dead peer never blocks a handler; anything lost while a
link was down is repaired by the sync exchange run on every (re)connect.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import queue
import socket
import sys
import threading
import time
import traceback

from . import wire
from .core import Respond, SendToPeer, ServerCore

_TICK_SECONDS = 0.05
_RECONNECT_MIN = 0.1
_RECONNECT_MAX = 2.0


def parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {text!r}")
    return host, int(port)


def parse_peers(text: str):
    peers = {}
    if not text:
        return peers
    for item in text.split(","):
        uid, _, addr = item.partition("=")
        if not uid or not addr:
            raise ValueError(f"expected uid=host:port, got {item!r}")
        peers[uid] = parse_hostport(addr)
    return peers


class PeerLink:
    """Owns the outbound connection to one peer.

    Writes normally happen in the caller's thread while the link is up,
    so the common case costs no thread handoff; the sender thread exists
    for reconnect/backoff and drains whatever the fast path could not
    take. The two paths share a write lock, so frames never interleave;
    they may reorder, which the protocol tolerates by construction
    (deltas commute, sync carries full state).
    """

    def __init__(self, uid: str, addr, on_connected):
        self.uid = uid
        self.addr = addr
        self.on_connected = on_connected
        self.outbox: queue.Queue = queue.Queue()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self._sock = None
        self._write_lock = threading.Lock()

    def start(self) -> None:
        self.thread.start()

    def send(self, envelope: dict, frame: bytes = None) -> None:
        if self._write_lock.acquire(blocking=False):
            try:
                sock = self._sock
                if sock is not None and self.outbox.empty():
                    try:
                        sock.sendall(frame if frame is not None else wire.encode_frame(envelope))
                        return
                    except OSError:
                        pass
            finally:
                self._write_lock.release()
        # Link down or busy; the sender thread takes over. A frame that
        # failed mid-write corrupts the stream, but the failure also
        # kills the connection and the reconnect sync repairs state.
        self.outbox.put(envelope)

    def _run(self) -> None:
        backoff = _RECONNECT_MIN
        while True:
            try:
                sock = socket.create_connection(self.addr, timeout=5)
            except OSError:
                time.sleep(backoff)
                backoff = min(backoff * 2, _RECONNECT_MAX)
                continue
            backoff = _RECONNECT_MIN
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(5.0)
            self._sock = sock
            self.on_connected(self.uid)
            try:
                while True:
                    envelope = self.outbox.get()
                    with self._write_lock:
                        sock.sendall(wire.encode_frame(envelope))
            except OSError:
                self._sock = None
                try:
                    sock.close()
                except OSError:
                    pass


class Server:
    def __init__(self, uid: str, listen, peers, election_timeout_ms: int = 500):
        self.core = ServerCore(uid, tuple(peers), election_timeout_ms / 1000.0)
        self.listen_addr = listen
        self.state_lock = threading.Lock()
        on_connected = functools.partial(self._handle, self.core.on_peer_connected)
        self.links = {pid: PeerLink(pid, addr, on_connected) for pid, addr in peers.items()}
        self._responders = {}
        self._request_seq = 0
        self._resp_lock = threading.Lock()

    def serve_forever(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self.listen_addr)
        listener.listen(64)
        threading.Thread(target=self._accept_loop, args=(listener,), daemon=True).start()
        for link in self.links.values():
            link.start()
        while True:
            time.sleep(_TICK_SECONDS)
            self._handle(self.core.on_tick, time.monotonic())

    def _handle(self, handler, *args) -> None:
        """Run a core handler under the state lock, then carry out its
        effects. If it raises, fail stop: exit nonzero, lock still held."""
        with self.state_lock:
            try:
                effects = handler(*args)
            except Exception:
                traceback.print_exc()
                os._exit(1)
        self._execute(effects)

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(target=self._read_loop, args=(conn,), daemon=True).start()

    def _read_loop(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            for frame in wire.iter_frames(rfile):
                if not isinstance(frame, dict):
                    continue
                if "kind" in frame:
                    self._handle(self.core.on_envelope, frame)
                elif "op" in frame:
                    with self._resp_lock:
                        self._request_seq += 1
                        request_id = self._request_seq
                        self._responders[request_id] = wfile
                    self._handle(self.core.on_client_request, request_id, frame)
        finally:
            with contextlib.suppress(OSError):
                rfile.close()
                wfile.close()
                conn.close()

    def _execute(self, effects) -> None:
        frames = {}
        for effect in effects:
            if isinstance(effect, SendToPeer):
                link = self.links.get(effect.peer)
                if link is not None:
                    # serialize an envelope sent to several peers once
                    key = id(effect.envelope)
                    if key not in frames:
                        frames[key] = wire.encode_frame(effect.envelope)
                    link.send(effect.envelope, frames[key])
            elif isinstance(effect, Respond):
                with self._resp_lock:
                    fileobj = self._responders.pop(effect.request_id, None)
                    if fileobj is None:
                        continue
                    # a client that hung up (closed file: ValueError) loses it
                    with contextlib.suppress(OSError, ValueError):
                        fileobj.write(wire.encode_frame(effect.response))
                        fileobj.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prdt-kvd", description="Replicated key-value store server.")
    parser.add_argument("--id", required=True, metavar="UID")
    parser.add_argument("--listen", required=True, metavar="HOST:PORT")
    parser.add_argument("--peers", default="", metavar="UID=HOST:PORT,...")
    parser.add_argument("--election-timeout-ms", type=int, default=500)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # reader/sender threads hand work to each other constantly; the
    # default 5 ms GIL slice adds visible latency on small machines
    sys.setswitchinterval(0.001)
    try:
        listen = parse_hostport(args.listen)
        peers = parse_peers(args.peers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.id in peers:
        print("error: --peers must not include the server's own id", file=sys.stderr)
        return 2
    server = Server(args.id, listen, peers, args.election_timeout_ms)
    print(f"prdt-kvd {args.id} listening on {args.listen} with peers {sorted(peers)}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
