"""Command line front end for the random testing harness."""

from __future__ import annotations

import argparse
import sys
import time

from .protocols import PROTOCOLS, Membership, make_protocol
from .sim import SimConfig, run_random_test, write_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prdt-sim",
        description="Run randomized safety checks against a consensus protocol.",
    )
    parser.add_argument("--protocol", required=True, choices=sorted(PROTOCOLS))
    parser.add_argument("--replicas", type=int, default=3, metavar="N")
    parser.add_argument("--runs", type=int, default=100, metavar="R")
    parser.add_argument("--steps", type=int, default=50, metavar="S")
    parser.add_argument("--seed", type=int, default=0, metavar="X")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the counterexample trace (or, when all runs "
                             "pass, the final run's trace) as JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("replicas", "runs", "steps"):
        if getattr(args, flag) < 1:
            print(f"error: --{flag} must be at least 1", file=sys.stderr)
            return 2
    config = SimConfig(
        replica_count=args.replicas,
        steps_per_run=args.steps,
        runs=args.runs,
        rng_seed=args.seed,
        value_pool=("val1", "val2", "val3"),
        stall_threshold=8,
    )
    membership = Membership(frozenset(config.replica_ids()))
    protocol = make_protocol(args.protocol, membership)
    started = time.perf_counter()
    report = run_random_test(protocol, config)
    elapsed = time.perf_counter() - started
    print(
        f"protocol={args.protocol} replicas={args.replicas} runs={report.runs} "
        f"steps={args.steps} seed={args.seed} failures={report.failures} "
        f"decided_runs={report.decided_runs} elapsed={elapsed:.2f}s"
    )
    trace = report.first_failure or report.last_trace
    if args.trace_out and trace is not None:
        write_trace(trace, args.trace_out)
        print(f"trace written to {args.trace_out}")
    if report.failures:
        for line in (report.first_failure.violations if report.first_failure else []):
            print(f"violation: {line}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
