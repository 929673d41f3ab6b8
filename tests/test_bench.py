"""Workload generation, percentile math, and the CSV/summary pipeline."""

from __future__ import annotations

import io
import json
import math
import random
import socket
import threading

import pytest

from prdt.bench import (
    BenchRecord,
    main,
    Workload,
    generate_ops,
    percentile_nearest_rank,
    read_csv,
    run_workload,
    summarize,
    write_csv,
)
from prdt.kv.cluster import free_ports


def test_workloads_are_deterministic():
    w = Workload("mixed", 50, key_space=10, seed=4)
    assert generate_ops(w) == generate_ops(w)
    other_seed = Workload("mixed", 50, key_space=10, seed=5)
    assert generate_ops(w) != generate_ops(other_seed)


def test_mixed_workload_alternates_exactly():
    ops = generate_ops(Workload("mixed", 20, seed=1))
    assert [k for k, _, _ in ops] == ["put", "get"] * 10
    assert all(v == f"v{i}" for i, (k, _, v) in enumerate(ops) if k == "put")


def test_pure_workloads_and_key_space():
    reads = generate_ops(Workload("read", 30, key_space=5, seed=2))
    assert all(k == "get" and v == "" for k, _, v in reads)
    writes = generate_ops(Workload("write", 30, key_space=5, seed=2))
    assert all(k == "put" for k, _, _ in writes)
    keys = {key for _, key, _ in writes}
    assert keys <= {f"k{i}" for i in range(5)}
    with pytest.raises(ValueError):
        generate_ops(Workload("BOGUS", 1))


def test_percentile_matches_brute_force():
    rng = random.Random(0)
    values = sorted(rng.randrange(1000) for _ in range(137))
    for fraction in (0.5, 0.9, 0.99, 1.0):
        rank = max(1, math.ceil(fraction * len(values)))
        assert percentile_nearest_rank(values, fraction) == values[rank - 1]
    assert percentile_nearest_rank([7], 0.01) == 7
    with pytest.raises(ValueError):
        percentile_nearest_rank([], 0.5)


def constant_records(n: int, latency_us: int = 1000) -> list:
    # one op per millisecond of wall time, all at the same latency
    return [
        BenchRecord(i, "put", latency_us, 1_000_000 + i * latency_us)
        for i in range(n)
    ]


def test_summary_of_a_constant_series():
    summary = summarize(constant_records(100), warmup_fraction=0.1)
    assert summary.warmup_dropped == 10
    assert summary.ops == 90
    assert summary.median_latency_us == 1000
    assert summary.p90_latency_us == 1000
    assert summary.p99_latency_us == 1000
    assert summary.median_throughput_ops == pytest.approx(1000.0)
    assert summary.wall_throughput_ops == pytest.approx(1000.0)


def test_summary_warmup_edges():
    records = constant_records(10)
    assert summarize(records, warmup_fraction=0.0).ops == 10
    with pytest.raises(ValueError):
        summarize(records, warmup_fraction=1.0)
    with pytest.raises(ValueError):
        summarize([], warmup_fraction=0.1)


def test_summary_json_is_plain():
    doc = json.loads(summarize(constant_records(20)).to_json())
    assert set(doc) == {
        "ops", "warmup_dropped", "mean_latency_us", "median_latency_us",
        "p90_latency_us", "p99_latency_us", "median_throughput_ops",
        "wall_throughput_ops",
    }


def test_csv_roundtrip_is_exact():
    rng = random.Random(9)
    records = [
        BenchRecord(i, rng.choice(("put", "get")), rng.randrange(100, 9000),
                    1_700_000_000_000_000 + i * 1234)
        for i in range(50)
    ]
    written = io.StringIO()
    write_csv(records, written)
    text = written.getvalue()
    assert read_csv(io.StringIO(text)) == records
    rewritten = io.StringIO()
    write_csv(read_csv(io.StringIO(text)), rewritten)
    assert rewritten.getvalue() == text


def test_csv_header_is_validated():
    with pytest.raises(ValueError):
        read_csv(io.StringIO("a,b,c,d\n1,put,2,3\n"))


class _ScriptedClient:
    def __init__(self, fail_at=None):
        self.fail_at = fail_at
        self.calls = 0

    def _answer(self):
        self.calls += 1
        if self.fail_at is not None and self.calls > self.fail_at:
            return {"status": "error", "value": "boom"}
        return {"status": "ok"}

    def put(self, key, value):
        return self._answer()

    def get(self, key):
        return self._answer()


def test_run_workload_counts_and_orders_records():
    records = run_workload(_ScriptedClient(), Workload("mixed", 40, seed=3))
    assert [r.op_index for r in records] == list(range(40))
    assert [r.kind for r in records] == ["put", "get"] * 20
    assert all(r.latency_us >= 0 for r in records)
    stamps = [r.timestamp for r in records]
    assert stamps == sorted(stamps)


def test_run_workload_abort_attaches_partial_records():
    client = _ScriptedClient(fail_at=7)
    with pytest.raises(RuntimeError) as info:
        run_workload(client, Workload("write", 40, seed=3))
    partial = info.value.partial_records
    assert [r.op_index for r in partial] == list(range(7))


@pytest.mark.parametrize("server,code", [
    ("not-an-address", 2),
    (None, 1),  # nothing listens: the connection is refused
])
def test_cli_fails_cleanly_without_a_server(tmp_path, capsys, server, code):
    out = tmp_path / "out.csv"
    server = server or f"127.0.0.1:{free_ports(1)[0]}"
    argv = ["--server", server, "--workload", "write", "--ops", "5", "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--ops", "0"),
    ("--warmup-fraction", "1"),
    ("--key-space", "0"),
])
def test_cli_rejects_out_of_range_numbers_before_connecting(tmp_path, capsys, flag, value):
    # nothing listens on the port, so exit 2 (not 1) shows no connect was tried
    out = tmp_path / "out.csv"
    argv = ["--server", f"127.0.0.1:{free_ports(1)[0]}", "--workload", "write",
            "--ops", "5", "--out", str(out), flag, value]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_keeps_the_partial_run_when_the_server_hangs_up(tmp_path, capsys):
    listener = socket.create_server(("127.0.0.1", 0))

    def answer_once_then_close():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as rfile:
            rfile.readline()
            conn.sendall(b'{"status": "ok"}\n')

    server = threading.Thread(target=answer_once_then_close, daemon=True)
    server.start()
    out = tmp_path / "out.csv"
    argv = ["--server", f"127.0.0.1:{listener.getsockname()[1]}",
            "--workload", "write", "--ops", "5", "--out", str(out)]
    try:
        assert main(argv) == 1
    finally:
        server.join(timeout=5)
        listener.close()
    assert not server.is_alive()
    assert capsys.readouterr().err.startswith("error: operation 1 failed")
    body, partial = out.read_text().split("# PARTIAL")
    assert [r.op_index for r in read_csv(io.StringIO(body))] == [0]
    assert partial == ": run aborted before completing the workload\n"
