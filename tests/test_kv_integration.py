"""End-to-end checks against real server processes on localhost."""

from __future__ import annotations

import contextlib
import errno
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import prdt
from conftest import UNORDERED_ROUND_KEYS, delta_frame
from prdt.bench import main as bench_main
from prdt.kv import cluster, wire
from prdt.kv.client import KvClient, main as client_main
from prdt.kv.cluster import PORTS, free_ports, kv_cluster, wait_listening
from prdt.kv.server import MAX_BUFFER, Server, main as server_main, parse_hostport, parse_peers
from prdt.kv.wire import Entry, Write
from prdt.lattice import Epoch, MergeMap
from prdt.protocols.paxos import BallotNum, PaxosRound, PaxosState
from prdt.protocols.voting import VotingState

pytestmark = pytest.mark.integration


def test_put_on_one_node_reads_on_the_others():
    with kv_cluster(3) as addrs:
        with KvClient(*addrs["n1"]) as c1:
            assert c1.put("fruit", "apple") == {"status": "ok"}
            assert c1.get("fruit") == {"status": "ok", "value": "apple"}
        for uid in ("n2", "n3"):
            with KvClient(*addrs[uid]) as client:
                assert client.get("fruit") == {"status": "ok", "value": "apple"}
                assert client.get("missing") == {"status": "not_found"}


def test_partitioned_nodes_reach_agreement_through_the_middle():
    links = {frozenset({"n1", "n2"}), frozenset({"n2", "n3"})}
    with kv_cluster(3, links=links) as addrs:
        with KvClient(*addrs["n1"]) as c1:
            assert c1.put("route", "via-n2") == {"status": "ok"}
        with KvClient(*addrs["n3"]) as c3:
            assert c3.get("route") == {"status": "ok", "value": "via-n2"}


def test_client_cli_exit_codes_and_output(capsys):
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        server = f"{host}:{port}"
        assert client_main(["--server", server, "put", "k", "v"]) == 0
        assert capsys.readouterr().out.strip() == "OK"
        assert client_main(["--server", server, "get", "k"]) == 0
        assert capsys.readouterr().out.strip() == "v"
        assert client_main(["--server", server, "get", "absent"]) == 0
        assert capsys.readouterr().out.strip() == "(not found)"
    assert client_main(["--server", "not-an-address", "get", "k"]) == 2


@pytest.mark.parametrize("reply", [b"not json\n", b"[1,2]\n"])
def test_client_cli_reports_a_malformed_reply(reply, capsys):
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)
        port = listener.getsockname()[1]

        def answer_once():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(reply)

        server = threading.Thread(target=answer_once)
        server.start()
        try:
            assert client_main(["--server", f"127.0.0.1:{port}", "get", "k"]) == 1
        finally:
            server.join(timeout=5)
    assert not server.is_alive()
    assert capsys.readouterr().err.startswith("error: ")


def test_concurrent_clients_on_every_node_read_their_own_writes():
    """Four clients on n1 and one on each of n2 and n3, each on its own
    keys: n1 decides several queued ops per epoch while the others
    contend for the same epochs."""
    rounds, keys = 25, 3
    homes = ["n1"] * 4 + ["n2", "n3"]
    problems = []
    with kv_cluster(3) as addrs:

        def client_loop(index, uid):
            last = {}
            try:
                with KvClient(*addrs[uid]) as client:
                    for i in range(rounds):
                        key = f"c{index}.k{i % keys}"
                        value = f"{uid}.{i}"
                        if client.put(key, value) != {"status": "ok"}:
                            problems.append(f"client {index}: put {key} failed")
                        last[key] = value
                        got = client.get(key)
                        if got != {"status": "ok", "value": value}:
                            problems.append(f"client {index}: get {key} gave {got}, want {value!r}")
            except (OSError, ValueError) as exc:
                problems.append(f"client {index}: {exc!r}")
            finals.append(last)

        finals = []
        threads = [threading.Thread(target=client_loop, args=(i, uid)) for i, uid in enumerate(homes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert problems == []
        assert len(finals) == len(homes)
        # every node's log applies to the same map: each reads every key
        # as its client's last put
        for uid in addrs:
            with KvClient(*addrs[uid]) as client:
                for last in finals:
                    for key, value in last.items():
                        assert client.get(key) == {"status": "ok", "value": value}


def test_ports_above_65535_are_rejected():
    assert parse_hostport("127.0.0.1:65535") == ("127.0.0.1", 65535)
    with pytest.raises(ValueError):
        parse_hostport("127.0.0.1:70000")
    with pytest.raises(ValueError):
        parse_peers("n2=127.0.0.1:4464,n3=127.0.0.1:70000")
    # a repeated id would leave the node a smaller membership than its peers
    with pytest.raises(ValueError):
        parse_peers("n2=127.0.0.1:7002,n2=127.0.0.1:7003")


@pytest.mark.parametrize("argv", [
    ["--id", "n1", "--listen", "127.0.0.1:70000"],
    ["--id", "n1", "--listen", "127.0.0.1:1", "--peers", "n2=127.0.0.1:70000"],
])
def test_server_cli_rejects_a_port_above_65535(argv, capsys):
    assert server_main(argv) == 2
    assert "65535" in capsys.readouterr().err


def test_server_cli_reports_a_port_it_cannot_listen_on(capsys):
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        listen = f"127.0.0.1:{held.getsockname()[1]}"
        assert server_main(["--id", "n1", "--listen", listen]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot listen on {listen}: ")


@pytest.mark.parametrize("timeout_ms", ["-5", "0"])
def test_server_cli_rejects_an_election_timeout_below_1_ms(timeout_ms, capsys):
    # a node with no timeout restarts the ballot of any op pending at a tick
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        # the port is taken, so a check made after binding would exit 1
        listen = f"127.0.0.1:{held.getsockname()[1]}"
        argv = ["--id", "n1", "--listen", listen, "--election-timeout-ms", timeout_ms]
        assert server_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --election-timeout-ms must be at least 1\n"


def test_client_and_bench_clis_reject_a_port_above_65535(tmp_path, capsys):
    # getaddrinfo would wrap 70000 to 4464 and talk to whatever listens there
    assert client_main(["--server", "127.0.0.1:70000", "get", "k"]) == 2
    out = tmp_path / "out.csv"
    argv = ["--server", "127.0.0.1:70000", "--workload", "write", "--ops", "5", "--out", str(out)]
    assert bench_main(argv) == 2
    assert capsys.readouterr().err.count("65535") == 2
    assert not out.exists()


def test_garbage_frames_do_not_take_the_server_down():
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(b"this is not json\n")
            sock.sendall(b'{"neither": "op nor kind"}\n')
            sock.sendall(b'{"kind": "DELTA", "sender": "nX", "payload": 42}\n')
        with socket.create_connection((host, port), timeout=5) as sock:
            # JSON that is not an object must not end the connection
            sock.sendall(b'5\n"op"\n["op"]\n')
            sock.sendall(b'{"kind": "SYNC_REQUEST", "sender": ["x"]}\n')
            # neither UTF-8 nor shallow enough for the JSON parser
            sock.sendall(b"\xff\n" + b"[" * 100_000 + b"\n")
            sock.sendall(b'{"op": "put", "key": "same", "value": "socket"}\n')
            assert json.loads(sock.makefile("rb").readline()) == {"status": "ok"}
        with KvClient(host, port) as client:
            assert client.put("still", "alive") == {"status": "ok"}
            assert client.get("still") == {"status": "ok", "value": "alive"}


def test_clients_that_hang_up_before_their_answers_are_harmless(capfd):
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        for i in range(20):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(wire.encode_frame({"op": "put", "key": f"gone{i}", "value": "x"}))
        with KvClient(host, port) as client:
            assert client.put("after", "hangups") == {"status": "ok"}
            assert client.get("gone19") == {"status": "ok", "value": "x"}
    err = capfd.readouterr().err
    assert "Traceback" not in err, err


def test_a_node_whose_state_turns_invalid_fails_stop():
    port, dead = free_ports(2)
    source_root = str(Path(prdt.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "prdt.kv.server", "--id", "n1", "--listen", f"127.0.0.1:{port}",
         "--peers", f"n2=127.0.0.1:{dead},n3=127.0.0.1:{dead}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=source_root),
    )
    try:
        wait_listening("n1", proc, "127.0.0.1", port)
        # n2 votes for two different proposals in one round
        proposals = VotingState.of(("n2", (Entry("n2", 1, Write("k", "a")),)),
                                   ("n2", (Entry("n2", 1, Write("k", "b")),)))
        round_ = PaxosRound(leader_election=VotingState.of(("n2", "n2")), proposals=proposals)
        delta = Epoch(0, PaxosState(MergeMap({BallotNum("n2", 1): round_})))
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(wire.encode_frame(delta_frame("n2", delta)))
            assert proc.wait(timeout=5) != 0
        assert "replicated state became Invalid" in proc.stderr.read()
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()


def test_a_line_longer_than_the_buffer_cap_closes_its_connection():
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        with socket.create_connection((host, port), timeout=5) as sock:
            chunk = b"x" * (1 << 20)
            for _ in range(MAX_BUFFER // len(chunk)):
                sock.sendall(chunk)
            sock.sendall(b"x" * (MAX_BUFFER % len(chunk) + 1))
            # no newline yet, and the socket stays open: the server must hang up
            with contextlib.suppress(ConnectionResetError):
                assert sock.recv(1) == b""
        with KvClient(host, port) as client:
            assert client.put("after", "cap") == {"status": "ok"}
            assert client.get("after") == {"status": "ok", "value": "cap"}


def test_a_payload_that_does_not_decode_leaves_the_node_up():
    with kv_cluster(3) as addrs:
        host, port = addrs["n1"]
        with socket.create_connection((host, port), timeout=5) as sock:
            # map keys that do not compare: a ballot and a string
            sock.sendall(wire.encode_frame(delta_frame("n2", UNORDERED_ROUND_KEYS)))
            sock.sendall(wire.encode_frame({"op": "put", "key": "k", "value": "after"}))
            assert json.loads(sock.makefile("rb").readline()) == {"status": "ok"}
        with KvClient(host, port) as client:
            assert client.put("still", "up") == {"status": "ok"}


def test_a_peer_that_never_reads_cannot_stall_the_node():
    """n3 is a listener that accepts with a small receive buffer and never
    reads, so every frame for it piles up in n1. A flood of sync requests
    in n3's name draws a full-log response each; n1 must keep answering
    its client (within ``KvClient``'s 10 s timeout) all the same."""
    p1, p2, p3 = free_ports(3)
    source_root = str(Path(prdt.__file__).resolve().parent.parent)
    held = []
    with socket.socket() as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        listener.bind(("127.0.0.1", p3))
        listener.listen(8)
        listener.settimeout(5)
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "prdt.kv.server", "--id", uid, "--listen", f"127.0.0.1:{port}",
                 "--peers", ",".join(f"{peer}=127.0.0.1:{peer_port}" for peer, peer_port in peers)],
                stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=source_root),
            )
            for uid, port, peers in (("n1", p1, (("n2", p2), ("n3", p3))),
                                     ("n2", p2, (("n1", p1), ("n3", p3))))
        ]
        try:
            for uid, proc, port in zip(("n1", "n2"), procs, (p1, p2)):
                wait_listening(uid, proc, "127.0.0.1", port)
            held.extend(listener.accept()[0] for _ in procs)
            with KvClient("127.0.0.1", p1) as client:
                for i in range(200):
                    assert client.put(f"k{i}", "v") == {"status": "ok"}
                request = wire.encode_frame(wire.envelope("n3", wire.SYNC_REQUEST, 0))
                with socket.create_connection(("127.0.0.1", p1), timeout=5) as flood:
                    flood.sendall(request * 2000)
                    for i in range(50):
                        assert client.put(f"after{i}", "v") == {"status": "ok"}
        finally:
            for proc in procs:
                proc.kill()
                proc.wait()
            for sock in held:
                sock.close()


def test_a_restarted_node_answers_a_get_of_a_key_written_while_it_was_down():
    """n3, then n2, is killed after some puts and restarted blank on its
    own port. Its peers' links to it come back after its own, so the push
    of a peer that reconnects shows it the hole, and it asks then. Each
    node restarts once: a node's request counter restarts with the
    process (ROADMAP item 10), so a second restart's first get would be
    the first one's entry again."""
    uids, ports = ("n1", "n2", "n3"), free_ports(3)
    source_root = str(Path(prdt.__file__).resolve().parent.parent)
    procs = {}

    def start(uid, port):
        peers = ",".join(f"{peer}=127.0.0.1:{p}" for peer, p in zip(uids, ports) if peer != uid)
        procs[uid] = subprocess.Popen(
            [sys.executable, "-m", "prdt.kv.server", "--id", uid, "--listen", f"127.0.0.1:{port}",
             "--peers", peers],
            stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH=source_root),
        )
        wait_listening(uid, procs[uid], "127.0.0.1", port)

    try:
        for uid, port in zip(uids, ports):
            start(uid, port)
        with KvClient("127.0.0.1", ports[0]) as client:
            for i in range(5):
                assert client.put(f"k{i}", "before") == {"status": "ok"}
        for uid in ("n3", "n2"):
            procs[uid].kill()
            procs[uid].wait()
            with KvClient("127.0.0.1", ports[0]) as client:
                assert client.put("k0", f"while-{uid}-down") == {"status": "ok"}
            start(uid, ports[uids.index(uid)])
            with KvClient("127.0.0.1", ports[uids.index(uid)], timeout=3) as client:
                assert client.get("k0") == {"status": "ok", "value": f"while-{uid}-down"}
                assert client.get("k4") == {"status": "ok", "value": "before"}
    finally:
        for proc in procs.values():
            proc.kill()
            proc.wait()


def test_a_peer_dial_with_no_free_descriptor_is_retried_after_the_backoff(monkeypatch):
    listener = socket.create_server(("127.0.0.1", 0))
    server = Server("n1", ("127.0.0.1", 0), {"n2": listener.getsockname()})
    real_socket = socket.socket
    calls = []

    def no_descriptor_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise OSError(errno.EMFILE, "Too many open files")
        return real_socket(*args, **kwargs)

    monkeypatch.setattr(socket, "socket", no_descriptor_once)
    try:
        before = time.monotonic()
        server._connect("n2")
        # the dial failed like a connect: no link, and a retry is due later
        assert "n2" not in server.links
        assert server.retry_at["n2"] > before
        server._connect("n2")
        assert "n2" in server.links and "n2" not in server.retry_at
        # the second dial reaches the peer
        listener.settimeout(5)
        listener.accept()[0].close()
    finally:
        for conn in list(server.links.values()):
            server._close(conn)
        server.listener.close()
        server.selector.close()
        listener.close()


def test_free_ports_are_distinct_unbound_and_below_the_ephemeral_range(monkeypatch):
    ports = free_ports(50)
    assert len(set(ports)) == 50
    assert all(port in PORTS for port in ports)
    # a port that is already bound is skipped: take the first port a
    # seeded draw would return, then draw with that seed
    taken = random.Random(3).choice(PORTS)
    with socket.create_server(("127.0.0.1", taken)):
        monkeypatch.setattr(cluster, "_port_rng", random.Random(3))
        drawn = free_ports(3)
    assert taken not in drawn and len(set(drawn)) == 3
    with pytest.raises(ValueError):
        free_ports(len(PORTS) + 1)


def test_cluster_start_fails_fast_when_a_server_exits():
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"server n1 exited with code 2"):
        with kv_cluster(3, election_timeout_ms="x"):
            pass
    assert time.monotonic() - started < 5.0


LOCAL_BENCH = Path(__file__).resolve().parent.parent / "scripts" / "run_bench_local.py"


def test_local_bench_script_runs_from_a_checkout(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(LOCAL_BENCH), "--ops", "20", "--out", str(tmp_path / "run.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("flag", ["--ops", "--nodes"])
def test_local_bench_script_rejects_counts_below_one_before_spawning(flag, tmp_path):
    out = tmp_path / "run.csv"
    result = subprocess.run(
        [sys.executable, str(LOCAL_BENCH), flag, "0", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "Traceback" not in result.stderr
    assert result.stdout == "" and not out.exists()
