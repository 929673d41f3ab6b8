"""The untraced twin of a traced run: ``twin.py <workload> <seed>``.

A traced run times its units with timers on, and needs the same units
timed without them to give the tracing overhead and the tester's own
time. Running both passes of a unit in one process would let the second
find the protocol's process-wide decision caches already filled by the
first. So the untraced passes run here, in a process of their own that
does the same warm-up and the same units in the same order: each
process's caches see exactly the other's history.

``run.py`` puts ``src`` and ``perfbench`` on ``PYTHONPATH``. The twin
prints ``ready`` after its warm-up, then reads one unit index per line
and answers each with the unit's wall seconds. It exits at end of input.
"""

import sys


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "sim-paxos":
        import simload as load
    else:
        import storenet as load
    load.warm_up(workload, seed)
    print("ready", flush=True)
    for line in sys.stdin:
        print(repr(load.untraced_unit(workload, seed, int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
