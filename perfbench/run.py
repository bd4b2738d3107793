"""qnops benchmark: one command runs a workload, checks it against the goldens
and prints its metrics.

    python3 perfbench/run.py --workload table2 --seed 0 --seconds 30 --trace 0

Run from the root of a qnops checkout; the package is imported from the
checkout's ``src/`` and nothing is installed.  Load is a closed loop from one
process, one cell at a time.  Each run also runs the ``qnops-bench`` command
line once, with one worker per usable CPU as the CLI does by default, and
checks its output too.

With ``--trace 0`` the last stdout line is a JSON object holding every
end-to-end metric; with ``--trace 1`` it holds every per-layer metric, taken
from a separate traced run.  Each run also writes a results file under
``perfbench/results/`` with the per-cell record, the machine and noise record
and the spread of every metric across its samples.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import machine_reading, normalized

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens"
RESULTS = HERE / "results"
WORKLOADS = ("table2", "table3", "verify")
# every child is killed once a run has taken this long; a run must end within 180 s
DEADLINE_S = 170.0
SETUP_SAMPLES = 3  # per round
# rounds of set-up samples and one in-process pass; at least this many, so
# every timing has two samples taken apart in time
MIN_ROUNDS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")
VERIFY_LINE = re.compile(r"^(?P<name>[^:]+): trials=(?P<trials>\d+) violations=(?P<violations>\d+) ")
POOL_LINE = "perfbench-pool "


class BenchError(Exception):
    """The benchmark cannot produce a result (bad layout, timeout, crash)."""


def nproc():
    return len(os.sched_getaffinity(0))


def checkout_env(root, **extra):
    """Environment for a child that imports qnops from ``root/src``."""
    env = dict(os.environ)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra)
    return env


def cli_argv(workload, seed, pool_probe=False):
    """The ``qnops-bench`` invocation a user types for this workload; with
    ``pool_probe``, the same command run through cli_probe.py."""
    if pool_probe:
        entry = [str(HERE / "cli_probe.py")]
    else:
        entry = ["-c", "import sys; from qnops.cli import main; sys.exit(main())"]
    if workload == "verify":
        args = ["verify", "--seed", str(seed), "--trials", "500"]
    else:
        args = ["run", "--experiment", workload, "--workers", str(nproc())]
    return [sys.executable, *entry, *args]


class Clock:
    """Deadline for every child of one run; a child that overruns is killed."""

    def __init__(self, budget_s):
        self.end = time.monotonic() + budget_s

    def run(self, argv, env, cwd):
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise BenchError("run deadline reached")
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=remaining)
        except BaseException as exc:
            # the child leads its own process group: take its pool workers too
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{argv[1:3]} exceeded the run deadline") from None
            raise
        return proc.returncode, out, err


# ---------------------------------------------------------------------------
# golden checks: each returns (rows attempted, rows failed)


def compare_lines(got, want):
    """Row-by-row byte comparison; missing or extra rows count as failed."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    failed = sum(a != b for a, b in zip(got_lines, want_lines))
    failed += abs(len(got_lines) - len(want_lines))
    return max(len(want_lines), 1), failed


def check_verify(text, seed):
    """Seed 0 is byte-compared; any other seed must give the golden suite
    names and trial counts with zero violations."""
    want = (GOLDENS / "verify_seed0.txt").read_text()
    if seed == 0:
        return compare_lines(text, want)
    want_rows = [VERIFY_LINE.match(line) for line in want.splitlines()]
    got_rows = [VERIFY_LINE.match(line) for line in text.splitlines()]
    failed = abs(len(got_rows) - len(want_rows))
    for g, w in zip(got_rows, want_rows):
        ok = (g is not None and g["name"] == w["name"] and g["trials"] == w["trials"]
              and g["violations"] == "0")
        failed += not ok
    return len(want_rows), failed


def check_output(workload, seed, stdout):
    if workload == "verify":
        return check_verify(stdout, seed)
    return compare_lines(stdout, (GOLDENS / f"{workload}.csv").read_text())


# ---------------------------------------------------------------------------
# measurement phases


def time_setup(root, clock, samples):
    """(seconds, probe) per sample: seconds from starting a fresh interpreter
    until ``import qnops.cli`` returns, and the mean of the machine's probe
    readings just before and after it."""
    env = checkout_env(root)
    argv = [sys.executable, "-c", "import time, qnops.cli; print(time.monotonic())"]
    values = []
    last = machine_reading()
    for _ in range(samples):
        start = time.monotonic()
        code, out, err = clock.run(argv, env, root)
        if code != 0:
            raise BenchError(f"import qnops.cli failed: {err.strip()[-500:]}")
        after = machine_reading()
        values.append((float(out.split()[-1]) - start, (last + after) / 2))
        last = after
    return values


def run_worker(root, clock, args, index):
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--index", str(index),
            "--trace", str(args.trace), "--root", str(root)]
    code, out, err = clock.run(argv, checkout_env(root), root)
    if code != 0:
        raise BenchError(f"worker failed ({code}): {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def run_cli(root, clock, workload, seed, env_extra=None, pool_probe=False):
    env = checkout_env(root, **(env_extra or {}))
    before = machine_reading()
    start = time.monotonic()
    code, out, err = clock.run(cli_argv(workload, seed, pool_probe), env, root)
    wall = time.monotonic() - start
    probe_s = (before + machine_reading()) / 2
    if code not in (0, 1, 2):  # 1 and 2 flag wrong results, which the goldens count
        raise BenchError(f"qnops-bench exited {code}: {err.strip()[-500:]}")
    attempted, failed = check_output(workload, seed, out)
    run = {"wall_s": wall, "probe_s": probe_s, "attempted": attempted, "failed": failed,
           "thread_env": {k: env.get(k) for k in THREAD_VARS}}
    if pool_probe:
        lines = [line for line in err.splitlines() if line.startswith(POOL_LINE)]
        if not lines:
            raise BenchError("cli_probe.py printed no pool record")
        run["pool"] = json.loads(lines[-1][len(POOL_LINE):])
    return run


def percentile(values, q):
    """Nearest-rank percentile: at least (1 - q) of the values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def cell_times(passes, scale=True):
    """Each cell's median time over its executions in the passes, as
    (seconds, iterations); at the reference speed unless ``scale`` is false."""
    samples, iterations = {}, {}
    for p in passes:
        for c in p["cells"]:
            key = (c["label"], c["lambda"])
            iterations[key] = c["iterations"]
            samples.setdefault(key, []).extend(c["scaled_s"] if scale else c["wall_s"])
    return [(statistics.median(samples[k]), iterations[k]) for k in samples]


def grid_metrics(cells):
    """wall_s and the µs/iter percentiles of a list of (seconds, iterations)."""
    per_iter = [t / max(n, 1) * 1e6 for t, n in cells]
    return (sum(t for t, _ in cells), percentile(per_iter, 0.50), percentile(per_iter, 0.85))


def spread(values):
    med = statistics.median(values)
    return {"n": len(values), "median": med, "min": min(values), "max": max(values),
            "range_over_median": (max(values) - min(values)) / med}


# ---------------------------------------------------------------------------
# machine record


def machine_record():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "platform": platform.platform(),
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def loadavg():
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# the two kinds of run


def check_all(args, passes, cli_runs):
    """Rows attempted and failed over in-process passes and CLI runs."""
    attempted = failed = 0
    for p in passes:
        a, f = check_output(args.workload, args.seed, p["stdout"])
        # reruns of short grid cells must repeat the cell's first result
        attempted += a + p.get("reruns", 0)
        failed += f + p.get("rerun_mismatches", 0)
    for run in cli_runs:
        attempted, failed = attempted + run["attempted"], failed + run["failed"]
    return attempted, failed


def end_to_end(root, clock, args, record):
    """Rounds of set-up samples and one fresh in-process pass while another
    round fits in --seconds, then one CLI run.  Every time is taken next to the
    reference probe and reported at the reference speed (see reference.py),
    then as the median of its samples; the raw medians go to the results file.

    The CLI run is checked against the goldens, and its wall time is recorded
    but not reported as a metric: probe-scaled, one pool run still spread by
    about 0.19 (IQR over median) on the machine the benchmark was written on.
    """
    start = time.monotonic()
    time_setup(root, clock, 1)  # untimed, so bytecode compilation is not counted
    setup, workers = [], []
    while True:
        begin = time.monotonic()
        setup += time_setup(root, clock, SETUP_SAMPLES)
        workers.append(run_worker(root, clock, args, len(workers)))
        now = time.monotonic()
        if len(workers) >= MIN_ROUNDS and 2 * now - begin > start + args.seconds:
            break
    cli_run = run_cli(root, clock, args.workload, args.seed)
    cli_run["scaled_wall_s"] = normalized(cli_run["wall_s"], cli_run["probe_s"])
    passes = [w["pass"] for w in workers]
    record.update(workers=workers, cli_runs=[cli_run], setup_samples=setup)
    attempted, failed = check_all(args, passes, [cli_run])

    def timings(scale):
        wall, p50, p85 = grid_metrics(cell_times(passes, scale))
        setup_s = statistics.median(normalized(t, r) if scale else t for t, r in setup)
        return {"setup_s": setup_s, "wall_s": wall, "us_per_iter_p50": p50,
                "us_per_iter_p85": p85}

    metrics = {name: (value, "us" if name.startswith("us_") else "s")
               for name, value in timings(True).items()}
    metrics["peak_rss_mb"] = (statistics.median(w["peak_rss_kb"] for w in workers) * 1024 / 1e6,
                              "MB")
    record["raw"] = timings(False)
    record["probe_s"] = [r for _, r in setup] + [cli_run["probe_s"]]
    # the same metrics taken from each sample alone, to show how far they spread
    per_pass = [grid_metrics(cell_times([p])) for p in passes]
    samples = {
        "setup_s": [normalized(t, r) for t, r in setup],
        "wall_s": [m[0] for m in per_pass],
        "us_per_iter_p50": [m[1] for m in per_pass],
        "us_per_iter_p85": [m[2] for m in per_pass],
        "peak_rss_mb": [w["peak_rss_kb"] * 1024 / 1e6 for w in workers],
        "probe_s": record["probe_s"],
    }
    record["spread"] = {k: spread(v) for k, v in samples.items()}
    return metrics, attempted, failed


def traced(root, clock, args, record):
    worker = run_worker(root, clock, args, 0)
    cli_run = run_cli(root, clock, args.workload, args.seed, pool_probe=True)
    record.update(workers=[worker], cli_runs=[cli_run])
    if args.workload == "table2":
        # informational, never gated: BLAS pinned to one thread in the children
        # only, so oversubscription under --workers shows against cli_runs
        record["pool_openblas_1"] = run_cli(root, clock, "table2", args.seed,
                                            {"OPENBLAS_NUM_THREADS": "1"})

    attempted, failed = check_all(args, [worker["pass"], worker["traced"]], [cli_run])

    metrics = dict(worker["layers"])
    # the pool as the CLI ran it, from the times its own workers measured
    pool = cli_run["pool"]
    cells, makespan, workers = pool["cells"], pool["makespan_s"], pool["workers"]
    metrics["cli.pool.makespan_s"] = (makespan, "s")
    metrics["cli.pool.lpt_bound_s"] = (max(max(cells), sum(cells) / workers), "s")
    metrics["cli.pool.idle_s"] = (workers * makespan - sum(cells), "s")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "qnops" / "__init__.py").is_file():
        print("perfbench: no src/qnops here; run from the root of a qnops checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    clock = Clock(DEADLINE_S)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "loadavg_before": loadavg(),
              "seed_used": args.workload == "verify",
              "cli_argv": cli_argv(args.workload, args.seed)[3:],
              "exact_repeat_counts": "cell iterations and fallbacks, and every per-layer "
                                     "metric with unit count, repeat exactly for a fixed "
                                     "workload and seed"}
    try:
        phase = traced if args.trace else end_to_end
        metrics, attempted, failed = phase(root, clock, args, record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record["loadavg_after"] = loadavg()

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]][0], "unit": metrics[m["name"]][1]}
           for m in wanted}
    record.update(metrics=out, attempted=attempted, failed=failed,
                  failed_frac=failed / attempted)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for name, m in out.items():
        note = ""
        s = record.get("spread", {}).get(name)
        if s:
            raw = record["raw"].get(name)
            raw = f", raw {raw:.6g}" if raw is not None else ""
            note = f"  (median of {s['n']} samples{raw}, range/median={s['range_over_median']:.3f})"
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    if args.trace == 0:
        run = record["cli_runs"][0]
        print(f"{args.workload} qnops-bench wall (informational) = {run['scaled_wall_s']:.6g} s "
              f"probe-scaled, raw {run['wall_s']:.6g} s")
    if "pool_openblas_1" in record:
        print(f"{args.workload} pool wall with OPENBLAS_NUM_THREADS=1 in the children "
              f"(informational) = {record['pool_openblas_1']['wall_s']:.6g} s, "
              f"default = {record['cli_runs'][0]['wall_s']:.6g} s")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted} "
          f"rows against the goldens)")
    print(f"{args.workload} record: {path.relative_to(root)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
