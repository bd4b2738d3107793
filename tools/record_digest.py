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
  the result of every call of ``oracle_error_reduction``,
  ``oracle_image_operator_gain``, ``oracle_projection_gain``, ``run_process`` (a trace as ``[matrices,
  steps, errors, check_kernel_growth(trace).dims, status]``) and
  ``weighted_frobenius_error``, and of every trial of a ``lab._LEMMAS``
  generator (as ``lemma/<id>``), then every row as ``[name, trials,
  violations, max_residual, skipped, note]``.  The lemma rows alone would hide most of their trials: a row
  keeps only the worst residual, and the least-change lemma's competitor
  term is never its worst.  Arrays hash as float64 C-order bytes, floats as
  ``float.hex``, anything else by ``repr``, so a count that leaks as a
  NumPy integer changes the digest.  The hooks see only calls made in
  this process, in the order made, so the suites run here at
  ``workers=1``, in row order, and never on a pool.

One serial pass runs every table2 and table3 cell, about 5.5 s on a 2-vCPU
Xeon in its fast state and 10-12 s in its slow one (its speed swings about
2x); the lab pass takes 1.3 s there in the fast state, about 0.3 s of it
hashing.  The whole script takes about 7 s in the fast state.

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
    names = ("oracle_error_reduction", "oracle_image_operator_gain",
             "oracle_projection_gain", "run_process", "weighted_frobenius_error")
    originals = {name: getattr(lab, name) for name in names}
    lemmas = dict(lab._LEMMAS)

    def hashed(name, fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            h.update(name.encode())
            _feed(h, result)
            return result
        return call

    for name, fn in originals.items():
        setattr(lab, name, hashed(name, fn))
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
