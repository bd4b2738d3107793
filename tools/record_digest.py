"""Print SHA-256 digests of every iteration record of the reference runs
and of every lab oracle result.

A change to the solvers' or the lab's arithmetic should leave all three
digests unchanged; this is the bit check.  The script prints the digests,
compares them with ``tools/DIGESTS`` next to it and exits 1 when they
differ.  A change that means to alter the arithmetic rewrites that file.

    PYTHONPATH=src python tools/record_digest.py

* grid: every record of every ``table2_labels()`` then ``table3_labels()``
  cell (label outer, ``LAMBDAS`` inner), hashing the bytes of ``x``,
  ``float64(grad_norm)`` and, when the record has a pair, ``pair.s`` and
  ``pair.y``;
* systems: ``x`` and ``float64(grad_norm)`` of every record of the six
  ``systems`` cells (problem outer, label inner, lambda 1.0);
* lab: during ``verify_all(seed=0, trials=500, workers=1)``, the name and
  the result of every call of ``oracle_error_reduction`` and
  ``weighted_frobenius_error``, of every process instance (a trace as
  ``[matrices, steps, errors, check_kernel_growth(trace).dims, status]``),
  of every image-gain and projection-gain trial, and of every trial of a
  ``lab._LEMMAS`` generator (as ``lemma/<id>``), then every row as
  ``[name, trials, violations, max_residual, skipped, note]``.  The
  process suites (termination, kernel growth, span inclusion) and the
  image-gain and projection-gain suites run their trials as stacks,
  through ``lab._process_trials``, ``lab._image_gain_trials`` and
  ``lab._projection_gain_trials``, which return the results in trial
  order; each trial's result is hashed under the name of the public
  function that runs one, ``run_process``, ``oracle_image_operator_gain``
  or ``oracle_projection_gain``, whose kernel the suites run.  The trials
  of the two counterexample hunts (``lab._image_gain_trials`` with
  ``hunt=True``, the image-gain kernel without the ordering hypothesis)
  are hashed under ``image-gain-hunt``, since their results set the
  ``-unconstrained`` rows.  The rows alone would hide most trials: a row
  keeps only the worst residual and a count, and the least-change lemma's
  competitor term is never its worst.  Arrays hash as float64 C-order
  bytes, floats as ``float.hex``, anything else by ``repr``, so a count
  that leaks as a NumPy integer, or a verdict that leaks as ``np.True_``
  or a 0-d array, changes the digest.  The hooks see only calls made in
  this process, in the order made, so the suites run here at
  ``workers=1``, in row order, and never on a pool.

One serial pass runs every table2 and table3 cell, about 5.5 s on a 2-vCPU
Xeon in its fast state and 10-12 s in its slow one (its speed swings about
2x); the lab pass takes about 1.2 s there (1.45 s with one process per
trace, back to back), about 0.25 s of it hashing.
The whole script takes about 7 s in the fast state.

The lab digest cannot see every loss of digits.  Routing
``lab._sin_to_complement`` through ``linalg.angle_to_subspace`` leaves it
(and the printed ``verify`` rows) unchanged, yet the sine of that arccos
reads 0 for a 1e-8 angle and is 4e-5 off at 1e-6, which would blunt the
projection suite's monotonicity check; the residual form stays.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

from qnops import cli, lab


def _hash_record(h, record, with_pair):
    h.update(record.x.tobytes())
    h.update(np.float64(record.grad_norm).tobytes())
    if with_pair and record.pair is not None:
        h.update(record.pair.s.tobytes())
        h.update(record.pair.y.tobytes())


def _records_digest(cells, with_pair):
    # each cell is (label, lambda, problem factory), run through cli.run_label
    h = hashlib.sha256()
    for label, lam, problem in cells:
        for record in cli.run_label(label, lam, problem()).records:
            _hash_record(h, record, with_pair)
    return h.hexdigest()


def grid_digest():
    return _records_digest(((label, lam, cli.quadratic_weighted_50)
                            for label in cli.table2_labels() + cli.table3_labels()
                            for lam in cli.LAMBDAS), with_pair=True)


def systems_digest():
    return _records_digest(((label, 1.0, cli.SYSTEM_PROBLEMS[name])
                            for name in cli.SYSTEM_PROBLEMS
                            for label in cli.SYSTEM_LABELS), with_pair=False)


def _feed(h, value):
    if isinstance(value, np.ndarray):
        h.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    elif isinstance(value, lab.ProcessTrace):
        _feed(h, [value.matrices, value.steps, value.errors,
                  lab.check_kernel_growth(value).dims, value.status])
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(h, item)
    elif isinstance(value, float):
        h.update(float.hex(value).encode())
    else:
        h.update(repr(value).encode())


def lab_digest():
    h = hashlib.sha256()
    names = ("oracle_error_reduction", "weighted_frobenius_error")
    # the suites run process instances and image-gain and projection-gain
    # trials as stacks: each trial's result is hashed under the name of the
    # public function that runs one (the hunts under a name of their own),
    # in trial order
    per_trial = {"_process_trials": ("run_process", lambda r: r),
                 "_image_gain_trials": ("oracle_image_operator_gain", lambda r: r),
                 "_projection_gain_trials": ("oracle_projection_gain", lambda r: r[0])}
    originals = {name: getattr(lab, name) for name in names + tuple(per_trial)}
    lemmas = dict(lab._LEMMAS)

    def hashed(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            h.update(name.encode())
            _feed(h, result)
            return result
        return call

    def hashed_trials(name, oracle_result, fn):
        def call(*args, **kwargs):
            results = fn(*args, **kwargs)
            # the image-gain suite passes its hunts' flag by keyword
            trial_name = "image-gain-hunt" if kwargs.get("hunt") else name
            for result in results:
                h.update(trial_name.encode())
                _feed(h, oracle_result(result))
            return results
        return call

    for name in names:
        setattr(lab, name, hashed(name, originals[name]))
    for name, (oracle, oracle_result) in per_trial.items():
        setattr(lab, name, hashed_trials(oracle, oracle_result, originals[name]))
    lab._LEMMAS.update((which, hashed(f"lemma/{which}", gen)) for which, gen in lemmas.items())
    try:
        rows = lab.verify_all(seed=0, trials=500, workers=1)
    finally:
        for name, fn in originals.items():
            setattr(lab, name, fn)
        lab._LEMMAS.update(lemmas)
    for r in rows:
        _feed(h, [r.name, r.trials, r.violations, r.max_residual, r.skipped, r.note])
    return h.hexdigest()


if __name__ == "__main__":
    lines = [f"grid    {grid_digest()}", f"systems {systems_digest()}", f"lab     {lab_digest()}"]
    print("\n".join(lines))
    expected = (Path(__file__).parent / "DIGESTS").read_text().splitlines()
    if lines != expected:
        print("digests differ from tools/DIGESTS", file=sys.stderr)
        sys.exit(1)
