"""Print the serial time of each ``verify_all`` task and the longest-first
order those times imply, the order that ``lab._LONGEST_FIRST`` holds.

    PYTHONPATH=src python tools/suite_times.py

The tasks are those of ``verify_all(0, 500)``, the run that ``verify`` makes
by default and that the pool order serves.  Each runs RUNS times in this
process, one task after another and round after round, so a swing in the
machine's speed falls on every task alike; a task's time is the median of
its runs.  The script prints one line per task (its index in
``verify_all``'s list, its runner and arguments, and the median in ms), the
serial total of the medians and the order tuple.
"""

import statistics
import time

from qnops import lab

SEED, TRIALS, RUNS = 0, 500, 21


def main():
    tasks = lab._verify_tasks(SEED, TRIALS)
    times = [[] for _ in tasks]
    for _ in range(RUNS):
        for i, task in enumerate(tasks):
            start = time.perf_counter()
            lab._run_suite(task)
            times[i].append(time.perf_counter() - start)
    medians = [statistics.median(t) for t in times]
    for i, ((runner, args), median) in enumerate(zip(tasks, medians)):
        print(f"{i:3d}  {runner.__name__ + repr(args):50s} {1e3 * median:8.1f} ms")
    print(f"serial total {1e3 * sum(medians):.1f} ms (medians of {RUNS} runs)")
    order = sorted(range(len(tasks)), key=lambda i: -medians[i])
    print(f"longest first: ({', '.join(map(str, order))})")


if __name__ == "__main__":
    main()
