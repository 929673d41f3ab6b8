"""Client library and CLI for the replicated key-value store."""

from __future__ import annotations

import argparse
import socket
import sys

from . import wire


class KvClient:
    """Blocking client over one persistent connection."""

    def __init__(self, host: str, port: int, timeout: float = 10.0):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        try:
            self.rfile.close()
            self.sock.close()
        except OSError:
            pass

    def __enter__(self) -> "KvClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(self, frame: dict) -> dict:
        """Send ``frame`` and return the reply, which must be a JSON
        object; any other reply raises ``ValueError``."""
        self.sock.sendall(wire.encode_frame(frame))
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        response = next(wire.iter_frames((line,)), None)
        if not isinstance(response, dict):
            raise ValueError(f"malformed reply from the server: {line[:80]!r}")
        return response

    def put(self, key: str, value: str) -> dict:
        return self.request(wire.request_frame(wire.Write(key, value)))

    def get(self, key: str) -> dict:
        return self.request(wire.request_frame(wire.Read(key)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prdt-kvc", description="Key-value store client.")
    parser.add_argument("--server", required=True, metavar="HOST:PORT")
    sub = parser.add_subparsers(dest="command", required=True)
    put = sub.add_parser("put", help="assign a value to a key")
    put.add_argument("key")
    put.add_argument("value")
    get = sub.add_parser("get", help="read the latest value of a key")
    get.add_argument("key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .server import parse_hostport

    try:
        host, port = parse_hostport(args.server)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with KvClient(host, port) as client:
            if args.command == "put":
                response = client.put(args.key, args.value)
            else:
                response = client.get(args.key)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = response.get("status")
    if status == "ok":
        if "value" in response:
            print(response["value"])
        else:
            print("OK")
        return 0
    if status == "not_found":
        print("(not found)")
        return 0
    print(f"error: {response}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
