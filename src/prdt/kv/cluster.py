"""Local cluster launcher: ``prdt-kvd`` processes on loopback ports,
importing the package from the launcher's own source root, so a
checkout runs without being installed."""

from __future__ import annotations

import contextlib
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import prdt

_SOURCE_ROOT = str(Path(prdt.__file__).resolve().parent.parent)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


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
    addrs = {uid: ("127.0.0.1", free_port()) for uid in uids}
    dead_port = free_port()
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
