"""The one process pool: ``qnops-bench run`` maps its experiment cells and
``lab.verify_all`` its oracle suites through ``run_pool``.

``concurrent.futures`` is imported only when a pool starts, so importing
this module (and with it the CLI or the lab) loads no ``multiprocessing``.
Each worker must be a top-level function whose module attribute is the
function itself, since a pool pickles it by name.
"""

import os

__all__ = ["default_workers", "run_pool"]


def default_workers():
    """The CPUs this process may run on: its affinity mask where the
    platform has one (it may be narrower than the machine), else
    ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_pool(cells, worker, workers, order=None):
    """``[worker(c) for c in cells]`` on up to ``workers`` processes.

    At most one process per cell is started, and none for one worker or
    one cell: then the cells run here, in order.  A pool is handed the
    cells in ``order`` (indices into ``cells``, default their own order),
    so the longest can go first; the results are in cell order either way.
    Every pool process has ended when this returns or raises.
    """
    workers = min(workers, len(cells))
    if workers <= 1:
        return [worker(c) for c in cells]
    from concurrent.futures import ProcessPoolExecutor

    order = range(len(cells)) if order is None else order
    results = [None] * len(cells)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map submits the cells in the order given and yields in that order;
        # once one raises, the cells not yet started are cancelled
        for i, result in zip(order, pool.map(worker, [cells[i] for i in order])):
            results[i] = result
    return results
