#!/usr/bin/env python3
"""prdt benchmark: the tester, the in-process store and the TCP cluster.

    python3 perfbench/run.py --workload sim-paxos --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from
its ``src`` directory; nothing has to be installed. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. ``BENCHMARK.json`` at the
checkout root declares both lists; ``perfbench/README.md`` describes the
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LOG_DIR = HERE / ".logs"

WORKLOADS = ("sim-paxos", "store-leader", "store-contend", "kv-tcp")

E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_us": "us"}

# name -> (unit, workloads that measure it)
_SIM, _STORE, _KV = ("sim-paxos",), ("store-leader", "store-contend"), ("kv-tcp",)
LAYER_UNITS = {
    "lattice.merge_us": ("us", _SIM + _STORE),
    "protocols.decision_us": ("us", _SIM + _STORE),
    "protocols.upkeep_us": ("us", _SIM + _STORE),
    "protocols.propose_us": ("us", _SIM + _STORE),
    "lattice.merge_calls_per_step": ("calls/step", _SIM + _STORE),
    "protocols.decision_calls_per_step": ("calls/step", _SIM + _STORE),
    "sim.self_us_per_step": ("us", _SIM),
    "sim.decided_run_share": ("share", _SIM),
    "sim.first_decision_step": ("step", _SIM),
    "core.client_us": ("us", _STORE),
    "core.delta_us": ("us", _STORE),
    "core.sync_request_us": ("us", _STORE),
    "core.sync_response_us": ("us", _STORE),
    "core.tick_us": ("us", _STORE),
    "core.busy_us_per_op": ("us", _STORE),
    "core.frames_per_op": ("frames/op", _STORE),
    "core.sync_responses_per_op": ("frames/op", _STORE),
    "core.ballot_restarts_per_op": ("1/op", _STORE),
    "core.log_entries_per_op": ("entries/op", _STORE),
    "core.dup_writes": ("count", _STORE),
    "wire.bytes_per_op": ("B/op", _STORE),
    "wire.delta_bytes_per_frame": ("B/frame", _STORE),
    "wire.sync_bytes_per_frame": ("B/frame", _STORE),
    "wire.encode_us_per_kb": ("us/KB", _STORE),
    "wire.parse_us_per_kb": ("us/KB", _STORE),
    "codec.encode_us_per_kb": ("us/KB", _STORE),
    "codec.decode_us_per_kb": ("us/KB", _STORE),
    "store.virtual_p50_ms": ("ms", _STORE),
    "store.virtual_p99_ms": ("ms", _STORE),
    "kv.put_p50_us": ("us", _KV),
    "kv.get_p50_us": ("us", _KV),
    "kv_p99_us": ("us", _KV),
    "kv.slow_op_share": ("share", _KV),
    "trace.overhead_share": ("share", _SIM + _STORE + _KV),
}

ABSENT_WHY = {
    "sim-paxos": "the tester has no store, wire or socket layer",
    "store-leader": "the in-process store has no tester runs and no sockets",
    "store-contend": "the in-process store has no tester runs and no sockets",
    "kv-tcp": "the servers are separate processes, so only client-side timings are observable",
}


def _child_env() -> dict:
    env = dict(os.environ)
    parts = [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class SetupProbe:
    """Set-up samples: wall seconds for a fresh interpreter to import the
    package and bring the workload's system to its first completed unit
    of work.

    A run takes ``SAMPLES`` samples, spread over its measuring time:
    the workload calls ``maybe`` between its timed units, and ``fill``
    at the end. Each sample is the fastest of ``REPEAT`` back-to-back
    probes, so a single slow process start does not make the sample.
    """

    SAMPLES = 8
    REPEAT = 3

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.every = seconds / self.SAMPLES
        self.next_at = None
        self.samples = []

    def maybe(self) -> None:
        now = time.perf_counter()
        if self.next_at is None:
            self.next_at = now
        if now >= self.next_at and len(self.samples) < self.SAMPLES:
            self.next_at += self.every
            self.sample()

    def fill(self) -> None:
        while len(self.samples) < self.SAMPLES:
            self.sample()

    def sample(self) -> None:
        seed = self.seed * 100 + len(self.samples)
        self.samples.append(min(self._probe(seed) for _ in range(self.REPEAT)))

    def _probe(self, seed: int) -> float:
        # the child stamps its own finish: waiting on it with a timeout
        # polls, and the poll interval would quantize the sample
        start = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.workload, str(seed)],
            cwd=str(ROOT), env=_child_env(), check=True, timeout=60,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        return float(done.stdout.split()[-1]) - start


class Twin:
    """The untraced twin process of a traced run (see ``twin.py``).

    ``unit(k)`` has the twin run unit ``k`` untraced and returns its wall
    seconds; the caller is idle meanwhile, so the two never share a CPU
    while either is timed. Leaving the ``with`` block ends the twin and
    waits for it.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.proc = None

    def __enter__(self) -> "Twin":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "twin.py"), self.workload, str(self.seed)],
            cwd=str(ROOT), env=_child_env(), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        return self

    def wait_ready(self) -> None:
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("the untraced twin failed to start")

    def unit(self, k: int) -> float:
        self.proc.stdin.write(f"{k}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the untraced twin died on unit {k}")
        return float(line)

    def __exit__(self, exc_type, *rest) -> None:
        self.proc.stdin.close()
        if exc_type is not None:
            self.proc.kill()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if workload == "kv-tcp":
        import kvload
        return kvload.run(seed, seconds, traced, str(SRC), str(LOG_DIR))
    if workload == "sim-paxos":
        import simload as load
    else:
        import storenet as load
    return load.run(workload, seed, seconds, traced, SetupProbe(workload, seed, seconds), Twin(workload, seed))


def _on_sigterm(signum, frame):
    # unwind through the finally blocks that stop the cluster
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prdt" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a prdt checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    signal.signal(signal.SIGTERM, _on_sigterm)

    traced = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, traced)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if traced:
        layers = result["layers"]
        absent = [name for name, (_, where) in LAYER_UNITS.items() if args.workload not in where]
        if absent:
            print(f"not measured on {args.workload}, reported as 0 ({ABSENT_WHY[args.workload]}): "
                  + ", ".join(absent))
        metrics = {name: {"value": float(layers.get(name, 0.0)), "unit": unit}
                   for name, (unit, _) in LAYER_UNITS.items()}
    else:
        values = dict(result["e2e"], setup_s=statistics.median(result["setup_samples"]))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
