"""Set-up probe: import entrocone, create a workload's inputs, say "ready".

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

run.py starts this in a fresh process and times it until the "ready" line.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.prepare(workload, seed, workdir)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
