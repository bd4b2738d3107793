"""Rewrite perfbench/goldens/ from the qnops-bench output of this checkout.

    python3 perfbench/capture_goldens.py

Run it from the root of the checkout whose output the benchmark should pin;
the committed goldens were captured at the commit that added the benchmark.
"""

import subprocess
import sys
from pathlib import Path

from run import GOLDENS, WORKLOADS, checkout_env, cli_argv


def main():
    GOLDENS.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        proc = subprocess.run(cli_argv(workload, 0), env=checkout_env(Path.cwd()),
                              capture_output=True, text=True, check=True)
        name = "verify_seed0.txt" if workload == "verify" else f"{workload}.csv"
        (GOLDENS / name).write_text(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
