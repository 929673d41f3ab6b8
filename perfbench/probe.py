"""One set-up sample, in a fresh interpreter: ``probe.py <workload> <seed>``.

``run.py`` puts ``src`` and ``perfbench`` on ``PYTHONPATH`` for it and
reads the wall-clock time this process prints when it is done.
"""

import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "sim-paxos":
        import simload
        simload.probe(seed)
    else:
        import storenet
        storenet.probe(workload, seed)
    print(repr(time.time()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
