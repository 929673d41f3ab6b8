"""End-to-end checks against real server processes on localhost."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from prdt.kv.client import KvClient, main as client_main
from prdt.kv.cluster import kv_cluster

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
            sock.sendall(b'{"op": "put", "key": "same", "value": "socket"}\n')
            assert json.loads(sock.makefile("rb").readline()) == {"status": "ok"}
        with KvClient(host, port) as client:
            assert client.put("still", "alive") == {"status": "ok"}
            assert client.get("still") == {"status": "ok", "value": "alive"}


def test_cluster_start_fails_fast_when_a_server_exits():
    started = time.monotonic()
    with pytest.raises(RuntimeError, match=r"server n1 exited with code 2"):
        with kv_cluster(3, election_timeout_ms="x"):
            pass
    assert time.monotonic() - started < 5.0


def test_local_bench_script_runs_from_a_checkout(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_bench_local.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(script), "--ops", "20", "--out", str(tmp_path / "run.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
