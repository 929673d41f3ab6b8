"""TCP shell around the server core: one thread runs one ``selectors``
loop that owns the core and every socket, all non-blocking.

Every event (client request, peer envelope, peer connect, timer tick)
enters the core through ``Server._run``, which carries out its effects.
An exception from a handler is not caught, so a node whose state turns
Invalid fails stop. Frames for a peer whose link is down are dropped:
every (re)connect pushes the full state, and a node it shows a hole
asks for the log it lacks, again at each tick until answered. A
connection whose input or output grows past ``MAX_BUFFER`` is closed.
"""

from __future__ import annotations

import argparse
import errno
import selectors
import socket
import sys
import time

from . import wire
from .core import SendToPeer, ServerCore

_TICK_SECONDS = 0.05
_RECONNECT_MIN = 0.1
_RECONNECT_MAX = 2.0
_RECV_BYTES = 1 << 16
# Input or output a connection may hold before it is closed. A sync
# response ships the log suffix the requester lacks, which for a blank
# node is the whole log, so the cap must hold a full-log sync response
# until a snapshot bounds the log (ROADMAP item 2).
MAX_BUFFER = 64 << 20


def parse_hostport(text: str):
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"expected host:port with a port up to 65535, got {text!r}")
    return host, int(port)


def parse_peers(text: str):
    peers = {}
    if not text:
        return peers
    for item in text.split(","):
        uid, _, addr = item.partition("=")
        if not uid or not addr:
            raise ValueError(f"expected uid=host:port, got {item!r}")
        if uid in peers:
            raise ValueError(f"peer id {uid!r} is named twice")
        peers[uid] = parse_hostport(addr)
    return peers


class _Conn:
    """A non-blocking socket with its unparsed input and unsent output.
    ``peer`` names the outbound link it carries, if any; ``up`` is False
    while that link's connect is in flight."""

    def __init__(self, sock: socket.socket, peer: str = None):
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.peer = peer
        self.up = peer is None
        self.inbuf = bytearray()
        self.outbuf = bytearray()

    @property
    def closed(self) -> bool:
        return self.sock.fileno() < 0


class Server:
    def __init__(self, uid: str, listen, peers, election_timeout_ms: int = 500):
        self.core = ServerCore(uid, tuple(peers), election_timeout_ms / 1000.0)
        # bound here, so a taken port fails before the server says it listens
        self.listener = socket.create_server(listen, backlog=64)  # sets SO_REUSEADDR
        self.listener.setblocking(False)
        self.peer_addrs = dict(peers)
        self.selector = selectors.DefaultSelector()
        self.links = {}  # peer -> its link while connecting or up
        self.retry_at = {pid: 0.0 for pid in peers}  # peer -> when to connect a down link
        self.backoff = {pid: _RECONNECT_MIN for pid in peers}

    def serve_forever(self) -> None:
        self.selector.register(self.listener, selectors.EVENT_READ)
        next_tick = time.monotonic() + _TICK_SECONDS
        while True:
            now = time.monotonic()
            for peer in [p for p, at in self.retry_at.items() if at <= now]:
                self._connect(peer)
            if now >= next_tick:
                next_tick = now + _TICK_SECONDS
                self._run(self.core.on_tick, now)
            # wake for the next tick or the earliest reconnect, whichever is first
            timeout = min([next_tick, *self.retry_at.values()]) - time.monotonic()
            for key, mask in self.selector.select(max(timeout, 0.0)):
                conn = key.data
                if conn is None:
                    self._accept(key.fileobj)
                    continue
                if mask & selectors.EVENT_WRITE and not conn.closed:
                    self._on_writable(conn)
                if mask & selectors.EVENT_READ and not conn.closed:
                    self._on_readable(conn)

    def _run(self, handler, *args) -> None:
        """Run a core handler, then carry out its effects."""
        frames = {}
        for effect in handler(*args):
            if isinstance(effect, SendToPeer):
                conn = self.links.get(effect.peer)
                if conn is not None and conn.up:
                    # serialize an envelope sent to several peers once
                    key = id(effect.envelope)
                    if key not in frames:
                        frames[key] = wire.encode_frame(effect.envelope)
                    self._send(conn, frames[key])
            else:
                # a request's id is the connection it came on
                self._send(effect.request_id, wire.encode_frame(effect.response))

    def _accept(self, listener: socket.socket) -> None:
        try:
            conn = _Conn(listener.accept()[0])
        except OSError:  # the client already left, or no descriptor is free
            return
        self.selector.register(conn.sock, selectors.EVENT_READ, conn)

    def _connect(self, peer: str) -> None:
        try:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        except OSError:  # no descriptor is free: a failed connect
            self._back_off(peer)
            return
        del self.retry_at[peer]
        conn = self.links[peer] = _Conn(sock, peer)
        # the connect is done when the socket turns writable
        self.selector.register(conn.sock, selectors.EVENT_WRITE, conn)
        try:
            err = conn.sock.connect_ex(self.peer_addrs[peer])
        except OSError:  # e.g. a host name that does not resolve
            err = errno.EHOSTUNREACH
        if err not in (0, errno.EINPROGRESS):
            self._close(conn)

    def _close(self, conn: _Conn) -> None:
        self.selector.unregister(conn.sock)
        conn.sock.close()
        peer = conn.peer
        if peer is None:
            return
        del self.links[peer]
        if conn.up:  # a link that was up reconnects at once
            self.retry_at[peer] = 0.0
        else:
            self._back_off(peer)

    def _back_off(self, peer: str) -> None:
        self.retry_at[peer] = time.monotonic() + self.backoff[peer]
        self.backoff[peer] = min(2 * self.backoff[peer], _RECONNECT_MAX)

    def _on_writable(self, conn: _Conn) -> None:
        if not conn.up:  # the connect finished
            if conn.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
                self._close(conn)
                return
            conn.up = True
            self.backoff[conn.peer] = _RECONNECT_MIN
            self._run(self.core.on_peer_connected, conn.peer)
        self._send(conn)

    def _send(self, conn: _Conn, frame: bytes = b"") -> None:
        """Queue ``frame`` and send what the socket takes now; watch for
        it to turn writable while output is left."""
        if conn.closed:  # a client that hung up loses its answer
            return
        conn.outbuf += frame
        try:
            del conn.outbuf[:conn.sock.send(conn.outbuf)]
        except BlockingIOError:
            pass
        except OSError:
            self._close(conn)
            return
        if len(conn.outbuf) > MAX_BUFFER:
            self._close(conn)
            return
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.outbuf else 0)
        if self.selector.get_key(conn.sock).events != events:
            self.selector.modify(conn.sock, events, conn)

    def _on_readable(self, conn: _Conn) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self._close(conn)
            return
        conn.inbuf += data
        # only the new bytes can hold the last newline
        end = conn.inbuf.rfind(b"\n", len(conn.inbuf) - len(data)) + 1
        lines = conn.inbuf[:end].split(b"\n")
        del conn.inbuf[:end]
        if len(conn.inbuf) > MAX_BUFFER:
            self._close(conn)
            return
        for frame in wire.iter_frames(lines):
            if not isinstance(frame, dict):
                continue
            if "kind" in frame:
                sender = frame.get("sender")
                # a peer we hear from is listening: end its link's backoff
                if type(sender) is str and sender in self.retry_at:
                    self.retry_at[sender] = 0.0
                self._run(self.core.on_envelope, frame)
            elif "op" in frame:
                self._run(self.core.on_client_request, conn, frame)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prdt-kvd", description="Replicated key-value store server.")
    parser.add_argument("--id", required=True, metavar="UID")
    parser.add_argument("--listen", required=True, metavar="HOST:PORT")
    parser.add_argument("--peers", default="", metavar="UID=HOST:PORT,...")
    parser.add_argument("--election-timeout-ms", type=int, default=500)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        listen = parse_hostport(args.listen)
        peers = parse_peers(args.peers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.id in peers:
        print("error: --peers must not include the server's own id", file=sys.stderr)
        return 2
    if args.election_timeout_ms < 1:
        print("error: --election-timeout-ms must be at least 1", file=sys.stderr)
        return 2
    try:
        server = Server(args.id, listen, peers, args.election_timeout_ms)
    except OSError as exc:
        print(f"error: cannot listen on {args.listen}: {exc}", file=sys.stderr)
        return 1
    print(f"prdt-kvd {args.id} listening on {args.listen} with peers {sorted(peers)}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
