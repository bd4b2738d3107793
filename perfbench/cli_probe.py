"""``qnops-bench`` with its pool timed from inside the command.

    PYTHONPATH=src python3 perfbench/cli_probe.py run --experiment table2 --workers 2

Runs the command line unchanged, then prints one last stderr line,
``perfbench-pool {json}``, with the pool's makespan (the ``_run_pool`` call),
the number of worker processes it used and every cell's own wall time as the
workers measured it.  ``verify`` runs no pool: its one cell is the
``verify_all`` call, on one worker.  The traced run of perfbench/run.py uses it
for the ``cli.pool`` metrics.
"""

import json
import sys
import time

from qnops import cli, lab


def main(argv):
    record = {}
    run_pool, verify_all = cli._run_pool, lab.verify_all

    def timed_pool(cells, worker, workers):
        start = time.perf_counter()
        rows = run_pool(cells, worker, workers)
        record.update(makespan_s=time.perf_counter() - start,
                      workers=workers if workers > 1 and len(cells) > 1 else 1,
                      cells=[r.wall_time for r in rows])
        return rows

    def timed_verify(*args, **kwargs):
        start = time.perf_counter()
        rows = verify_all(*args, **kwargs)
        wall = time.perf_counter() - start
        record.update(makespan_s=wall, workers=1, cells=[wall])
        return rows

    cli._run_pool, lab.verify_all = timed_pool, timed_verify
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code or 0
    print("perfbench-pool " + json.dumps(record), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
