"""Fork-and-gather: independent tasks run in the caller and forked workers.

bench.run() runs its replications, fit() trains its ensemble members,
predict_ite() scores its row blocks and load_csv() parses its byte ranges
through _map, the one place that decides how many processes run them, which
runs which, and which failure is raised.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback

_beside_workers = False  # whether _map's caller runs its share beside workers


def _processes(tasks):
    """How many processes `tasks` independent tasks (replications, members,
    row blocks, byte ranges) run in: at most one per task, and only as many
    as the CPUs this process may run on hold whole BLAS pools (see
    _blas_threads). With one-thread pools and fewer than two tasks per CPU,
    one per task: on 2 CPUs, shares of two tasks and one would leave a CPU
    idle while the caller runs its second, where 3 processes time-shared by
    the kernel keep both busy to the end; one-thread pools do not spin
    against each other, so the extra process costs only its fork. One where
    the fork start method is unavailable, in a multiprocessing child, and in
    a caller while it runs its own share beside workers: only the outermost
    of nested calls forks."""
    if _beside_workers or multiprocessing.parent_process():
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    threads = _blas_threads(cpus)
    if threads == 1 and tasks < 2 * cpus:
        return max(1, tasks)
    return max(1, min(tasks, cpus // threads))


def _blas_threads(cpus):
    """Threads in each process's BLAS pool: the first count >= 1 the
    environment sets for it, else one per CPU, the libraries' default (a
    count <= 0 means that default to OpenBLAS too). Pools that share CPUs
    spin against each other: with two threads per pool on 2 CPUs, a fit in
    two processes ran slower than in one."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            count = int(os.environ[var])
        except (KeyError, ValueError):  # unset, or not a count
            continue
        if count >= 1:
            return count
    return cpus


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the __cause__ of the exception it
    raised, as concurrent.futures chains it."""


def _run_share(fn, share):
    """{i: fn(i)} for the indices of `share` in order, up to the first that
    raises; its exception takes its place."""
    results = {}
    for i in share:
        try:
            results[i] = fn(i)
        except Exception as err:  # raised by _map
            results[i] = err
            break
    return results


def _share_worker(conn, fn, share):
    """A forked worker: runs its share and sends the results back at once,
    an exception with its formatted traceback."""
    results = _run_share(fn, share)
    failed = None
    for i, result in results.items():
        if isinstance(result, Exception):
            failed = i, "".join(traceback.format_exception(result))
            try:
                pickle.loads(pickle.dumps(result))
            except Exception:  # e.g. a class defined in a function
                results[i] = RuntimeError(
                    f"{type(result).__name__}: {result} (raised in a worker process, "
                    "and it cannot be sent back)"
                )
    conn.send((results, failed))


def _map(fn, n, label=None):
    """[fn(0), ..., fn(n - 1)] in P = _processes(n) processes: task i runs in
    share i mod P, the caller running share 0 and one forked worker each
    other share, which sends its results back over a pipe when done.

    Each share stops at its first task that raises, so every task below the
    lowest failing i has run, and that task's exception is raised: chained
    to a worker's traceback as its __cause__, and with its message prefixed
    "{label} {i}: " when a label is given. A worker that ends without
    sending fails its share's first task with a RuntimeError. No worker
    outlives the call.
    """
    global _beside_workers
    procs = _processes(n)
    beside = _beside_workers
    workers = []
    try:
        for w in range(1, procs):
            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_share_worker, args=(writer, fn, range(w, n, procs)))
            worker.start()
            workers.append((w, worker, reader))
            writer.close()  # so the reader sees EOF once the worker ends
        _beside_workers = beside or bool(workers)
        results = _run_share(fn, range(0, n, procs))
        for w, worker, reader in workers:
            try:
                sent, failed = reader.recv()
            except EOFError:
                worker.join()
                results[w] = RuntimeError(
                    f"worker process ended with exit code {worker.exitcode} "
                    "before sending its results back"
                )
                continue
            if failed is not None:
                i, text = failed
                sent[i].__cause__ = _RemoteTraceback(f'\n"""\n{text}"""')
            results.update(sent)
    finally:
        _beside_workers = beside
        for _, worker, reader in workers:
            reader.close()
            worker.terminate()  # one that has sent its share only has to exit
            worker.join()
    for i in range(n):
        if isinstance(results[i], Exception):
            if label is not None:
                # on the original exception, so its type and attributes
                # (a divergence's epoch and step) reach the caller
                results[i].args = (f"{label} {i}: {results[i]}",)
            raise results[i]
    return [results[i] for i in range(n)]
