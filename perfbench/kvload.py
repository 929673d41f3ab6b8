"""kv-tcp: three ``prdt-kvd`` processes on loopback and one client on n1.

Each cluster is started fresh, serves a fixed number of closed-loop
ops from one connection, and is stopped; a run uses several clusters,
and each cluster's start-up (spawn, listen, first committed put) is one
set-up sample.

The client is pinned to one CPU and the servers to the others, so the
placement is the same in every cluster. Even so, every cluster slows
down together when the host is busy, for seconds at a time, and a
median over the clusters of a run still moves with how much of the run
was busy. The gated
figures are therefore taken from the run's fast quartile of clusters:
the upper quartile of their rates and the lower quartile of their
median round trips. The servers run from the checkout's ``src`` through
``PYTHONPATH``, so nothing has to be installed.
"""

from __future__ import annotations

import os
import random
import socket
import subprocess
import sys
import time

from prdt.bench import percentile_nearest_rank as percentile
from prdt.kv.client import KvClient

NODES = ("n1", "n2", "n3")
KEYS = 100
OPS_PER_CLUSTER = 1000
MIN_CLUSTERS = 8
FAST_QUARTILE = 0.25
LISTEN_DEADLINE = 20.0
SLOW_FACTOR = 10

_clock = time.perf_counter


# Listen ports come from below the usual ephemeral range (32768 and up).
# A port the kernel hands out for bind(0) could be taken, before its
# server binds it, as the local port of a peer's outgoing connection.
PORTS = range(20000, 32000)
_port_rng = random.Random()


def _free_ports(count: int) -> list:
    ports = []
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


def split_cpus():
    """CPU sets for the client and for the three servers: the client gets
    the first CPU this process may use and the servers share the rest, so
    the client's timing never waits behind a server and the placement is
    the same in every cluster. With one CPU there is nothing to split."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


class Cluster:
    """Spawns the servers on enter; stops and reaps them on exit."""

    def __init__(self, src_dir: str, log_dir: str, server_cpus=None):
        self.src_dir = src_dir
        self.log_dir = log_dir
        self.server_cpus = server_cpus
        self.ports = {}
        self.procs = []
        self.logs = []

    def __enter__(self) -> "Cluster":
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.ports = dict(zip(NODES, _free_ports(len(NODES))))
        os.makedirs(self.log_dir, exist_ok=True)
        try:
            for uid in NODES:
                peers = ",".join(f"{p}=127.0.0.1:{self.ports[p]}" for p in NODES if p != uid)
                log = open(os.path.join(self.log_dir, f"{uid}.log"), "w+b")
                self.logs.append(log)
                self.procs.append(subprocess.Popen(
                    [sys.executable, "-m", "prdt.kv.server", "--id", uid,
                     "--listen", f"127.0.0.1:{self.ports[uid]}", "--peers", peers],
                    env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                    preexec_fn=self._pin if self.server_cpus else None,
                ))
            for uid in NODES:
                self._wait_listening(self.ports[uid])
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _pin(self) -> None:
        # runs in the child before exec, so every server thread inherits it
        os.sched_setaffinity(0, self.server_cpus)

    def _wait_listening(self, port: int) -> None:
        end = time.monotonic() + LISTEN_DEADLINE
        while True:
            for proc, log in zip(self.procs, self.logs):
                if proc.poll() is not None:
                    log.seek(0)
                    err = log.read().decode(errors="replace").strip()
                    raise RuntimeError(f"prdt-kvd exited with {proc.returncode}: {err[-500:]}")
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.5):
                    return
            except OSError:
                if time.monotonic() > end:
                    raise RuntimeError(f"port {port} never came up")
                time.sleep(0.02)

    def stop(self) -> None:
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for log in self.logs:
            log.close()
        self.procs, self.logs = [], []


class Session:
    """Closed-loop 50/50 put/get over one connection, checked as it goes:
    with one client, a get must return the last acknowledged put."""

    def __init__(self, rng: random.Random, tag: str):
        self.rng = rng
        self.tag = tag
        self.acked = {}
        self.put_us, self.get_us = [], []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, client: KvClient, ops: int) -> float:
        rng = self.rng
        t_start = _clock()
        for i in range(ops):
            key = f"k{rng.randrange(KEYS)}"
            is_put = rng.random() < 0.5
            self.attempted += 1
            t0 = _clock()
            if is_put:
                value = f"{self.tag}.{i}"
                response = client.put(key, value)
            else:
                response = client.get(key)
            elapsed = _clock() - t0
            status = response.get("status")
            if status not in ("ok", "not_found"):
                self.failed += 1
                continue
            if is_put:
                self.put_us.append(1e6 * elapsed)
                self.acked[key] = value
            else:
                self.get_us.append(1e6 * elapsed)
                got = response.get("value") if status == "ok" else None
                if got != self.acked.get(key) and len(self.problems) < 5:
                    self.problems.append(f"get {key} returned {got!r}, last put was {self.acked.get(key)!r}")
        return _clock() - t_start


def run(seed: int, seconds: float, traced: bool, src_dir: str, log_dir: str) -> dict:
    rng = random.Random(seed)
    client_cpus, server_cpus = split_cpus()
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    setups, walls = [], []
    sessions = []
    t0 = _clock()
    while len(sessions) < MIN_CLUSTERS or _clock() - t0 < seconds:
        session = Session(rng, f"s{seed}.c{len(sessions)}")
        started = _clock()
        with Cluster(src_dir, log_dir, server_cpus) as cluster:
            with KvClient("127.0.0.1", cluster.ports["n1"], timeout=30.0) as client:
                # the first put elects n1; it is part of set-up
                first = client.put("setup", "done")
                setups.append(_clock() - started)
                if first.get("status") != "ok":
                    raise RuntimeError(f"first put failed: {first}")
                walls.append(session.run(client, OPS_PER_CLUSTER))
        sessions.append(session)
    latencies = sorted(x for s in sessions for x in s.put_us + s.get_us)
    ops = sum(s.attempted for s in sessions)
    rates = sorted(OPS_PER_CLUSTER / wall for wall in walls)
    medians = sorted(percentile(sorted(s.put_us + s.get_us), 0.50) for s in sessions)
    result = {
        "attempted": ops,
        "failed": sum(s.failed for s in sessions),
        "problems": [p for s in sessions for p in s.problems][:5],
        "setup_samples": setups,
        "e2e": {
            "ops_per_s": percentile(rates, 1 - FAST_QUARTILE),
            "p50_us": percentile(medians, FAST_QUARTILE),
        },
    }
    if traced:
        median = percentile(latencies, 0.50)
        result["layers"] = {
            "kv.put_p50_us": percentile(sorted(x for s in sessions for x in s.put_us), 0.50),
            "kv.get_p50_us": percentile(sorted(x for s in sessions for x in s.get_us), 0.50),
            "kv_p99_us": percentile(latencies, 0.99),
            "kv.slow_op_share": sum(1 for x in latencies if x > SLOW_FACTOR * median) / len(latencies),
            # per-op timing is on in both modes; tracing adds nothing here
            "trace.overhead_share": 0.0,
        }
    return result
