"""Fork-and-gather: independent tasks run in the caller and forked workers.

bench.run() runs its replications, fit() trains its ensemble members,
predict_ite() scores its row blocks and load_csv() parses its byte ranges
through _in_processes, in as many processes as _processes allows.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback

_beside_workers = False  # whether _in_processes's caller runs its share beside workers


def _processes(tasks):
    """How many processes `tasks` independent tasks (replications, members,
    row blocks, byte ranges) run in: at most one per task, and only as many
    as the CPUs this process may run on hold whole BLAS pools (see
    _blas_threads). One where the fork start method is unavailable, in a
    multiprocessing child, and in a caller while it runs its own share
    beside workers: only the outermost of nested calls forks."""
    if _beside_workers or multiprocessing.parent_process():
        return 1
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        cpus = os.cpu_count() or 1
    return max(1, min(tasks, cpus // _blas_threads(cpus)))


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
        except Exception as err:  # handed to the caller of _in_processes
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


def _in_processes(fn, shares):
    """[fn(i) for i in range(n)], where `shares` partitions range(n): the
    caller runs shares[0] and one forked worker each other share, sending
    its results back over a pipe when done.

    Each share stops at its first index whose fn raises: the exception
    stands in for the result, chained to a worker's traceback as its
    __cause__, and the share's later indices read None. A worker that ends
    without sending gives its share's first index a RuntimeError. No worker
    outlives the call.
    """
    global _beside_workers
    beside = _beside_workers
    workers = []
    try:
        for share in shares[1:]:
            ctx = multiprocessing.get_context("fork")
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_share_worker, args=(writer, fn, share))
            worker.start()
            workers.append((share, worker, reader))
            writer.close()  # so the reader sees EOF once the worker ends
        _beside_workers = beside or bool(workers)
        results = _run_share(fn, shares[0])
        for share, worker, reader in workers:
            try:
                sent, failed = reader.recv()
            except EOFError:
                worker.join()
                results[share[0]] = RuntimeError(
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
    return [results.get(i) for i in range(sum(map(len, shares)))]
