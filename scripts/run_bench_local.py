#!/usr/bin/env python3
"""Launch a local 3-node cluster and run a benchmark workload against it.

Spawns the servers as subprocesses on loopback ports, waits for them to
accept connections, drives the workload through one node, prints the
summary, and tears everything down. Useful for a quick end-to-end check
and for collecting desk-scale numbers.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prdt import bench
from prdt.kv.client import KvClient
from prdt.kv.cluster import kv_cluster


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=bench.KINDS, default="write")
    parser.add_argument("--ops", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="CSV output path (default: temp file)")
    parser.add_argument("--nodes", type=int, default=3)
    args = parser.parse_args()
    if args.ops < 1 or args.nodes < 1:
        print("error: --ops and --nodes must be at least 1", file=sys.stderr)
        return 2
    if args.out:
        out_path = args.out
    else:
        fd, out_path = tempfile.mkstemp(prefix="bench-", suffix=".csv")
        os.close(fd)
    with kv_cluster(args.nodes) as addrs:
        # one throwaway op so the cluster elects before timing starts
        with KvClient(*addrs["n1"], timeout=30.0) as client:
            client.put("warm", "up")
            workload = bench.Workload(args.workload, args.ops, seed=args.seed)
            records = bench.run_workload(client, workload)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        bench.write_csv(records, fh)
    summary = bench.summarize(records)
    print(f"cluster: {', '.join(f'{uid}@{host}:{port}' for uid, (host, port) in addrs.items())}")
    print(f"csv: {out_path}")
    print(summary.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
