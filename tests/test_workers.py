import multiprocessing
import os

import pytest

from cdnn import _workers
from cdnn._workers import _map
from cdnn.errors import ShapeError


@pytest.fixture(autouse=True)
def no_worker_outlives_the_case():
    yield
    assert multiprocessing.active_children() == []


def in_the_caller():
    return multiprocessing.parent_process() is None


@pytest.mark.parametrize(
    "env, expected",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 3),
        ({"OMP_NUM_THREADS": "1"}, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "MKL_NUM_THREADS": "3"}, 1),
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 3),
    ],
    ids=["one-blas-thread", "one-omp-thread", "two-blas-threads", "unreadable-count",
         "blas-default", "zero-is-the-blas-default", "zero-reads-as-unset"],
)
def test_processes_leave_each_blas_pool_its_cpus(monkeypatch, env, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _workers._processes(3) == expected


@pytest.mark.parametrize(
    "cpus, blas_threads, tasks, expected",
    [
        (2, "1", 0, 1),
        (2, "1", 1, 1),
        (2, "1", 2, 2),
        (2, "1", 3, 3),
        (2, "1", 4, 2),
        (2, "1", 49, 2),
        (4, "1", 5, 5),
        (4, "1", 7, 7),
        (4, "1", 8, 4),
        (4, "2", 3, 2),
        (4, None, 3, 1),  # the BLAS default, one thread per CPU
    ],
)
def test_one_thread_pools_take_one_process_per_task_below_two_per_cpu(
    monkeypatch, cpus, blas_threads, tasks, expected
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    if blas_threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    assert _workers._processes(tasks) == expected


def test_three_tasks_on_two_cpus_run_in_three_processes(processes):  # one BLAS thread
    ran = _map(lambda i: (in_the_caller(), os.getpid()), 3)
    assert processes.counts == [3]
    assert [caller for caller, _ in ran] == [True, False, False]
    assert len({pid for _, pid in ran}) == 3 and ran[0][1] == os.getpid()


def test_only_the_outermost_call_forks(processes):  # 2 CPUs, one BLAS thread
    assert _workers._processes(8) == 2

    def read(i):
        return _workers._processes(8)

    def raise_in_the_caller(i):
        if in_the_caller():
            raise ShapeError(f"the caller's share read {_workers._processes(8)}")
        return _workers._processes(8)

    def read_after_a_nested_call(i):
        _map(read, 1)
        return _workers._processes(8)

    assert _map(read, 2) == [1, 1]  # the caller's share, a worker's
    assert _map(read_after_a_nested_call, 2) == [1, 1]
    assert _map(read, 1) == [2]  # no worker beside it
    assert _workers._processes(8) == 2
    with pytest.raises(ShapeError, match="^the caller's share read 1$"):
        _map(raise_in_the_caller, 2)
    assert _workers._processes(8) == 2


def test_a_multiprocessing_child_fits_in_one_process():
    assert _workers._processes(1) == 1
    reader, writer = multiprocessing.get_context("fork").Pipe(duplex=False)
    child = multiprocessing.get_context("fork").Process(
        target=lambda: writer.send(_workers._processes(64))
    )
    child.start()
    assert reader.poll(30) and reader.recv() == 1
    child.join(30)
    assert child.exitcode == 0


class TestMap:
    """_map(fn, n) runs task i in share i mod P, the caller's share being 0,
    and raises the exception of the lowest failing task."""

    @pytest.mark.parametrize(
        "count, n, procs",
        [(1, 5, 1), (2, 5, 2), (3, 5, 5), (3, 3, 3), (3, 2, 2)],
        ids=["1-5", "2-5", "3-5", "3-3", "3-2"],
    )
    def test_task_i_runs_in_share_i_mod_p(self, processes, count, n, procs):
        processes(count)
        ran = _map(lambda i: (i, os.getpid()), n)
        assert processes.counts == [procs]
        assert [i for i, _ in ran] == list(range(n))
        pids = [pid for _, pid in ran]
        assert [pids[i] == pids[i % procs] for i in range(n)] == [True] * n
        assert len(set(pids)) == procs and pids[0] == os.getpid()

    def test_no_tasks_return_an_empty_list_without_a_fork(self, processes, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("_map forked"))
        assert _map(lambda i: pytest.fail("ran a task"), 0) == []
        assert processes.counts == [1]

    @pytest.mark.parametrize("n", [4, 5])
    def test_a_worker_failure_below_a_caller_failure_wins(self, processes, n):
        # at P = 2 task 1 fails in the worker and task 2 in the caller,
        # which never runs task 4; the worker never runs task 3
        def fail(i):
            if i in (1, 2):
                where = "caller" if in_the_caller() else "worker"
                raise ShapeError(f"task {i} failed in the {where}")
            if i > 2:
                pytest.fail(f"ran task {i} after its share failed")
            return i

        with pytest.raises(ShapeError, match="^task 1 failed in the worker$") as info:
            _map(fail, n)
        assert type(info.value.__cause__).__name__ == "_RemoteTraceback"
        assert processes.counts == [2]

    @pytest.mark.parametrize(
        "label, message", [(None, "no luck"), ("row block", "row block 1: no luck")]
    )
    @pytest.mark.parametrize("count", [1, 2])
    def test_the_label_prefixes_the_message_only_when_given(
        self, processes, count, label, message
    ):
        processes(count)

        def fail(i):
            if i == 1:
                raise ShapeError("no luck")
            return i

        with pytest.raises(ShapeError) as info:
            _map(fail, 3, label)
        assert str(info.value) == message
