"""Set-up probe: import ``mrsqkd.cli``, build a workload's inputs and run
one warm-up unit (one trial, or one oracle configuration), then exit.

``run.py`` times this script in fresh interpreters, because that is what
every ``mrsqkd`` command pays before its first result. Usage, from the
root of a checkout:

    python3 perfbench/setup_probe.py <workload> <seed> <csv path>

Exits 0 when the warm-up unit's output is correct, 1 otherwise.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import mrsqkd.cli  # noqa: E402,F401  the import every command pays
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, out_path = argv
    w = WORKLOADS[name]
    return 1 if w.warmup(next(w.unit_seeds(int(seed))), out_path) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
