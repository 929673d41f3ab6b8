#!/usr/bin/env python3
"""Run the random-testing harness across every registered protocol.

Prints one line per configuration, with the number of runs in which some
replica decided (printed only: a protocol that decides nothing does not
fail). Exits nonzero if any run fails, with the counterexample trace
written next to this script.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from prdt.protocols import PROTOCOLS, Membership, make_protocol
from prdt.sim import SimConfig, run_random_test, write_trace

DEFAULTS = {
    "voting": dict(replicas=3, runs=2000, steps=50),
    "paxos": dict(replicas=3, runs=1000, steps=100, stall=8),
    "multipaxos": dict(replicas=3, runs=500, steps=100, stall=8),
    "sequence": dict(replicas=3, runs=500, steps=100, stall=8),
    "gen": dict(replicas=3, runs=500, steps=100, stall=8),
    "reconfig": dict(replicas=3, runs=300, steps=100, stall=8),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--scale", type=float, default=1.0, help="multiply all run counts")
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default=None)
    args = parser.parse_args()

    names = [args.protocol] if args.protocol else sorted(DEFAULTS)
    failed = False
    for name in names:
        knobs = DEFAULTS[name]
        config = SimConfig(
            replica_count=knobs["replicas"],
            steps_per_run=knobs["steps"],
            runs=max(1, int(knobs["runs"] * args.scale)),
            value_pool=("val1", "val2", "val3"),
            rng_seed=args.seed,
            stall_threshold=knobs.get("stall"),
        )
        protocol = make_protocol(name, Membership(frozenset(config.replica_ids())))
        started = time.monotonic()
        report = run_random_test(protocol, config)
        elapsed = time.monotonic() - started
        status = "PASS" if report.ok else "FAIL"
        print(f"{status} {name:10s} runs={report.runs} steps={config.steps_per_run} "
              f"failures={report.failures} decided_runs={report.decided_runs} "
              f"time={elapsed:.1f}s")
        if not report.ok:
            failed = True
            trace_path = Path(__file__).parent / f"counterexample-{name}.json"
            write_trace(report.first_failure, str(trace_path))
            print(f"  trace written to {trace_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
