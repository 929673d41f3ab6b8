"""Local cluster launcher: ``prdt-kvd`` processes on loopback ports,
importing the package from the launcher's own source root, so a
checkout runs without being installed."""

from __future__ import annotations

import contextlib
import os
import random
import socket
import subprocess
import sys
import time
from pathlib import Path

import prdt

_SOURCE_ROOT = str(Path(prdt.__file__).resolve().parent.parent)


# Listen ports come from below the usual ephemeral range (32768 and up).
# A port the kernel hands out for bind(0) can be taken, before its server
# binds it, as the local port of a peer's outgoing connection.
PORTS = range(20000, 32000)
_port_rng = random.Random()


def free_ports(count: int) -> list:
    """``count`` distinct loopback ports from ``PORTS`` that bind right now."""
    if not 0 <= count <= len(PORTS):
        raise ValueError(f"cannot draw {count} distinct ports from {len(PORTS)}")
    ports: list = []
    while len(ports) < count:
        port = _port_rng.choice(PORTS)
        if port in ports:
            continue
        with socket.socket() as sock:
            # as the server binds its listener
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
    return ports


def wait_listening(uid: str, proc: subprocess.Popen, host: str, port: int,
                   deadline: float = 10.0) -> None:
    """Wait until server ``uid`` listens; fail fast if its process exits."""
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        code = proc.poll()
        if code is not None:
            raise RuntimeError(f"server {uid} exited with code {code} during start-up")
        try:
            with socket.create_connection((host, port), timeout=0.5):
                return
        except OSError:
            time.sleep(0.05)
    raise TimeoutError(f"server {uid}: nothing listening on {host}:{port}")


@contextlib.contextmanager
def kv_cluster(node_count: int = 3, links=None, election_timeout_ms: int = 500):
    """Spawn `node_count` server processes on localhost and yield
    {uid: (host, port)}.

    `links`, when given, is a set of frozenset uid pairs naming which
    connections exist; every other pair is severed by pointing the peer
    address at a dead port. Membership always spans all nodes, only
    connectivity changes, which is exactly a broken physical link.
    Servers write to the caller's stderr, so a crash shows its traceback.
    """
    uids = [f"n{i + 1}" for i in range(node_count)]
    *ports, dead_port = free_ports(node_count + 1)
    addrs = {uid: ("127.0.0.1", port) for uid, port in zip(uids, ports)}
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_SOURCE_ROOT + (os.pathsep + inherited if inherited else ""))
    procs = []
    try:
        for uid in uids:
            peer_spec = []
            for other in uids:
                if other == uid:
                    continue
                if links is not None and frozenset((uid, other)) not in links:
                    peer_spec.append(f"{other}=127.0.0.1:{dead_port}")
                else:
                    host, port = addrs[other]
                    peer_spec.append(f"{other}={host}:{port}")
            host, port = addrs[uid]
            procs.append(subprocess.Popen(
                [
                    sys.executable, "-m", "prdt.kv.server",
                    "--id", uid,
                    "--listen", f"{host}:{port}",
                    "--peers", ",".join(peer_spec),
                    "--election-timeout-ms", str(election_timeout_ms),
                ],
                stdout=subprocess.DEVNULL,
                env=env,
            ))
        for uid, proc in zip(uids, procs):
            wait_listening(uid, proc, *addrs[uid])
        yield addrs
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
