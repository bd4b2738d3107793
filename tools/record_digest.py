"""Print SHA-256 digests of every iteration record of the reference runs.

A change to the solvers' arithmetic should leave both digests unchanged; this
is the bit check to run at the parent and at the change.

    PYTHONPATH=src python tools/record_digest.py

* grid: every record of every ``table2_labels()`` then ``table3_labels()``
  cell (label outer, ``LAMBDAS`` inner), hashing the bytes of ``x``,
  ``float64(grad_norm)`` and, when the record has a pair, ``pair.s`` and
  ``pair.y``;
* systems: ``x`` and ``float64(grad_norm)`` of every record of the six
  ``systems`` cells (problem outer, label inner).

One serial pass runs every table2 and table3 cell, about 10 s on a laptop.
"""

import hashlib

import numpy as np

from qnops import cli


def _hash_record(h, record, with_pair):
    h.update(record.x.tobytes())
    h.update(np.float64(record.grad_norm).tobytes())
    if with_pair and record.pair is not None:
        h.update(record.pair.s.tobytes())
        h.update(record.pair.y.tobytes())


def grid_digest():
    h = hashlib.sha256()
    for label in cli.table2_labels() + cli.table3_labels():
        for lam in cli.LAMBDAS:
            kind, config = cli.config_for_label(label, lam)
            driver = cli.minimize_lbfgs if kind == "lbfgs" else cli.minimize
            for record in driver(cli.quadratic_weighted_50(), config).records:
                _hash_record(h, record, with_pair=True)
    return h.hexdigest()


def systems_digest():
    h = hashlib.sha256()
    for problem in cli.SYSTEM_PROBLEMS:
        for label in cli.SYSTEM_LABELS:
            system = (cli.circle_cosine_system() if problem == "circle-cosine"
                      else cli.modified_rosenbrock_10())
            parts = cli.parse_method_label(label)
            rule = None if parts["base"] == "Newton" else cli.BGM()
            kwargs = {"mode": cli.NormalEqWindow(parts["d"])} if parts["mode"] == "ip" else {}
            config = cli.SolverConfig(rule=rule, stop=cli.ResidualNorm(1e-7), b0=1.0,
                                      max_iters=200000, **kwargs)
            for record in cli.solve_system(system, config).records:
                _hash_record(h, record, with_pair=False)
    return h.hexdigest()


if __name__ == "__main__":
    print(f"grid    {grid_digest()}")
    print(f"systems {systems_digest()}")
