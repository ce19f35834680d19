"""Time-to-first-item probe for setup_s, started by run.py in a fresh interpreter.

Usage: python3 bench/setup_child.py WORKLOAD SEED

Imports sigmak_lab from the checkout, builds the workload's items and
prints "ready"; run.py times the interval from starting the interpreter to
that line.
"""

import sys
from pathlib import Path

import workloads


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    root = Path(__file__).resolve().parent.parent
    workloads.load_package(root)
    workloads.build_items(workload, seed, root)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
