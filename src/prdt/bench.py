"""Sequential workload driver and latency/throughput reporting.

A single client issues operations strictly one after another, so
throughput and latency are two views of the same series; the summary's
median throughput is the reciprocal of the median latency. Percentiles
use the nearest-rank rule on the post-warmup records.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import List, Sequence, Tuple

KINDS = ("read", "write", "mixed")

CSV_HEADER = ("opIndex", "kind", "latency_us", "timestamp")


@dataclass(frozen=True)
class Workload:
    kind: str  # one of KINDS
    op_count: int
    key_space: int = 100
    seed: int = 0


@dataclass(frozen=True)
class BenchRecord:
    op_index: int
    kind: str
    latency_us: int
    timestamp: int


@dataclass(frozen=True)
class Summary:
    ops: int
    warmup_dropped: int
    mean_latency_us: float
    median_latency_us: float
    p90_latency_us: int
    p99_latency_us: int
    median_throughput_ops: float
    wall_throughput_ops: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def generate_ops(workload: Workload) -> List[Tuple[str, str, str]]:
    """The deterministic (kind, key, value) sequence for a workload.

    "mixed" is an even split: exact alternation write/read, so any
    prefix is as balanced as possible. Keys are drawn uniformly from the
    key space; values encode the op index for uniqueness.
    """
    rng = random.Random(workload.seed)
    ops: List[Tuple[str, str, str]] = []
    for index in range(workload.op_count):
        key = f"k{rng.randrange(workload.key_space)}"
        if workload.kind == "read":
            ops.append(("get", key, ""))
        elif workload.kind == "write":
            ops.append(("put", key, f"v{index}"))
        elif workload.kind == "mixed":
            if index % 2 == 0:
                ops.append(("put", key, f"v{index}"))
            else:
                ops.append(("get", key, ""))
        else:
            raise ValueError(f"unknown workload kind {workload.kind!r}")
    return ops


def run_workload(client, workload: Workload) -> List[BenchRecord]:
    """Issue the workload sequentially over an open client connection.

    Any failed operation (an error response, a broken connection or an
    unparseable reply) aborts the run with a ``RuntimeError``; records
    collected so far are attached to it so a partial CSV can be flagged.
    """
    records: List[BenchRecord] = []
    for index, (kind, key, value) in enumerate(generate_ops(workload)):
        started = time.perf_counter_ns()
        try:
            response = client.put(key, value) if kind == "put" else client.get(key)
        except (OSError, ValueError) as exc:
            response = exc
        latency_us = (time.perf_counter_ns() - started) // 1000
        if not isinstance(response, dict) or response.get("status") not in ("ok", "not_found"):
            error = RuntimeError(f"operation {index} failed: {response!r}")
            error.partial_records = records
            raise error
        records.append(BenchRecord(index, kind, latency_us, time.time_ns() // 1000))
    return records


def write_csv(records: Sequence[BenchRecord], fileobj) -> None:
    writer = csv.writer(fileobj)
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow((r.op_index, r.kind, r.latency_us, r.timestamp))


def read_csv(fileobj) -> List[BenchRecord]:
    reader = csv.reader(fileobj)
    header = tuple(next(reader))
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header: {header!r}")
    return [BenchRecord(int(a), b, int(c), int(d)) for a, b, c, d in reader]


def percentile_nearest_rank(sorted_values: Sequence[int], fraction: float):
    """Nearest-rank percentile: the ceil(fraction * n)-th smallest value."""
    if not sorted_values:
        raise ValueError("no values")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(records: Sequence[BenchRecord], warmup_fraction: float = 0.1) -> Summary:
    """Statistics over the records left after dropping the leading warmup."""
    if not records:
        raise ValueError("cannot summarize zero records")
    dropped = int(len(records) * warmup_fraction)
    kept = records[dropped:]
    if not kept:
        raise ValueError("warmup fraction dropped every record")
    latencies = sorted(r.latency_us for r in kept)
    median = statistics.median(latencies)
    wall_us = kept[-1].timestamp - kept[0].timestamp + kept[0].latency_us
    return Summary(
        ops=len(kept),
        warmup_dropped=dropped,
        mean_latency_us=statistics.fmean(latencies),
        median_latency_us=median,
        p90_latency_us=percentile_nearest_rank(latencies, 0.90),
        p99_latency_us=percentile_nearest_rank(latencies, 0.99),
        median_throughput_ops=1_000_000.0 / median if median else float("inf"),
        wall_throughput_ops=len(kept) * 1_000_000.0 / wall_us if wall_us > 0 else float("inf"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prdt-bench", description="Sequential workload driver.")
    parser.add_argument("--server", required=True, metavar="HOST:PORT")
    parser.add_argument("--workload", required=True, choices=KINDS)
    parser.add_argument("--ops", type=int, required=True, metavar="N")
    parser.add_argument("--seed", type=int, default=0, metavar="X")
    parser.add_argument("--out", required=True, metavar="FILE.csv")
    parser.add_argument("--key-space", type=int, default=100)
    parser.add_argument("--warmup-fraction", type=float, default=0.1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from .kv.client import KvClient
    from .kv.server import parse_hostport

    try:
        host, port = parse_hostport(args.server)
        if args.ops < 1 or args.key_space < 1:
            raise ValueError("--ops and --key-space must be at least 1")
        if not 0 <= args.warmup_fraction < 1:
            raise ValueError("--warmup-fraction must be in [0, 1)")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        client = KvClient(host, port, timeout=30.0)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workload = Workload(args.workload, args.ops, args.key_space, args.seed)
    partial = False
    with client:
        try:
            records = run_workload(client, workload)
        except RuntimeError as exc:
            records = getattr(exc, "partial_records", [])
            partial = True
            print(f"error: {exc}", file=sys.stderr)
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        write_csv(records, fh)
        if partial:
            fh.write("# PARTIAL: run aborted before completing the workload\n")
    if partial:
        return 1
    summary = summarize(records, args.warmup_fraction)
    print(summary.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
