"""The units of the duality, Lipschitz and backend consistency checks shared
over CPUs (``verify._shared_map``): the reports and errors of a serial run,
bit for bit, and no worker left behind.

A process may fork only while it runs one thread, and numpy's BLAS starts a
pool of threads unless it is pinned to one. So the forked path runs in a
subprocess with one BLAS and OpenMP thread, where the CPU affinity chooses
the path: on one CPU every unit runs in the caller, on all of them the
checks fork.
"""

import errno
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest
import scipy.fft

from choc import EnsembleSpec, build_problem, parse_config, verify
from choc.errors import BlowUpError
from choc.state import mix_seed, solve_state

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

# the checks whose units are shared, by their names in verify.suite
SHARED = ("duality", "lipschitz", "backend_consistency")
# the default configuration on three base seeds, and a 16-point grid
CONFIGS = ("[ensemble]\nbase_seed = 1\n", "[ensemble]\nbase_seed = 2\n",
           "[ensemble]\nbase_seed = 1234\n",
           "[grid]\nnpoints = 16\n[ensemble]\nbase_seed = 7\n")

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
needs_cpus = pytest.mark.skipif(not hasattr(os, "fork") or CPUS < 2,
                                reason="needs os.fork and more than one usable CPU")


def _in_subprocess(probe: str):
    """The JSON that ``probe()`` of this module returns, run in a fresh
    interpreter with one BLAS and OpenMP thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    code = f"import json, test_workers; print(json.dumps(test_workers.{probe}()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _no_children() -> bool:
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _count_forks() -> list:
    """Count the forks of this process from now on, in the list returned."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = counted
    return forks


def _modes():
    """Each mode, serial and forked, with its CPU affinity set: one CPU,
    then every CPU this process started with."""
    cpus = os.sched_getaffinity(0)
    for mode, affinity in (("serial", {min(cpus)}), ("forked", cpus)):
        os.sched_setaffinity(0, affinity)
        yield mode


def _probe_reports() -> dict:
    forks = _count_forks()
    out = {}
    for mode in _modes():
        before = len(forks)
        reports = []
        for text in CONFIGS:
            build = build_problem(parse_config(text))
            checks = verify.suite(build.problem, build.ensemble, build.u0)
            reports += [checks[name]().to_json() for name in SHARED]
        out[mode] = {"reports": reports, "forks": len(forks) - before,
                     "no_children": _no_children()}
    return out


@needs_cpus
def test_forked_reports_are_the_serial_ones_bit_for_bit():
    out = _in_subprocess("_probe_reports")
    serial, forked = out["serial"], out["forked"]
    assert serial["forks"] == 0
    # every check call on the default grid forks; on 16 points the duality
    # check's 20 pairs are one chunk, which the caller runs
    assert forked["forks"] >= 3 * len(SHARED) + 2
    assert forked["reports"] == serial["reports"]
    assert serial["no_children"] and forked["no_children"]


def _probe_blowup() -> dict:
    # the setup of test_duality_blowup_names_the_path_in_the_ensemble, with
    # one pair per chunk: pairs 1, 2 and 3 blow up, each in its own way, and
    # the error is pair 1's, the lowest failing unit. On two CPUs the caller
    # runs units 0 and 2, and a child units 1 and 3 in that order
    from test_verify import _budget, _problem

    problem = _problem(noise="additive", blowup_threshold=0.8)
    verify._SWEEP_BYTES = _budget(problem.params, 4, 1)
    sample_paths = EnsembleSpec.sample_paths

    def loud_path_2(self, params):
        paths = sample_paths(self, params)
        loud = paths.increments.copy()
        loud[:, 2] *= 20.0
        return replace(paths, increments=loud)

    draw = verify.random_smooth_control
    gains = {mix_seed(1, 2): 8.0, mix_seed(1, 4): 16.0, mix_seed(1, 6): 12.0}

    def loud_pairs(problem, seed, amplitude=1.0):
        u = draw(problem, seed, amplitude)
        return u.with_values(gains[seed] * u.values) if seed in gains else u

    EnsembleSpec.sample_paths = loud_path_2
    verify.random_smooth_control = loud_pairs
    es = EnsembleSpec(4, 9)
    paths = es.sample_paths(problem.params)

    def named(exc: BlowUpError) -> list:
        return [exc.step, exc.max_abs, exc.seed, exc.path]

    out = {"chunks": len(verify._pair_chunks(4, problem.params, 4))}
    for j in (1, 2, 3):
        try:
            solve_state(problem.y0, loud_pairs(problem, mix_seed(1, 2 * j), 0.5).values,
                        paths, problem.params)
        except BlowUpError as exc:
            out[f"pair {j}"] = named(exc)
    forks = _count_forks()
    for mode in _modes():
        before = len(forks)
        try:
            verify.check_duality(problem, es, npairs=4, seed=1)
        except BlowUpError as exc:
            out[mode] = {"error": named(exc), "forks": len(forks) - before,
                         "no_children": _no_children()}
    return out


@needs_cpus
def test_a_blowup_in_a_child_reads_as_in_a_serial_run():
    out = _in_subprocess("_probe_blowup")
    assert out["chunks"] == 4
    assert out["pair 1"] not in (out["pair 2"], out["pair 3"])
    serial, forked = out["serial"], out["forked"]
    assert serial["forks"] == 0 and forked["forks"] > 0
    assert serial["error"] == forked["error"] == out["pair 1"]
    assert serial["no_children"] and forked["no_children"]


class _Unsendable(Exception):
    """An exception that pickles but does not unpickle: its constructor
    takes two arguments, its ``args`` holds one."""

    def __init__(self, unit, why):
        super().__init__(f"unit {unit}: {why}")


def _probe_containment() -> dict:
    # two workers whatever the CPUs: the caller runs unit 0, a child unit 1
    verify._worker_count = lambda: 2
    caller = os.getpid()
    out = {"squares": verify._shared_map(lambda u: u * u, [1, 2, 3, 4], [1] * 4),
           "no_children_after_return": _no_children()}

    def unsendable_in_child(u):
        if os.getpid() != caller:
            raise _Unsendable(u, "raised in a child")
        return u

    try:
        verify._shared_map(unsendable_in_child, [0, 1], [1, 1])
    except RuntimeError as exc:
        out["unsendable"] = str(exc)
    out["no_children_after_raise"] = _no_children()

    # a child whose pipe has no reader
    read, write = os.pipe()
    os.close(read)
    pid = os.fork()
    if pid == 0:
        verify._child(lambda u: u, [0], [0], write, [])
    os.close(write)
    out["broken_pipe_exit"] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def interrupted_caller(u):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(120)

    t0 = time.monotonic()
    try:
        verify._shared_map(interrupted_caller, [0, 1], [1, 1])
    except KeyboardInterrupt:
        out["interrupt_s"] = time.monotonic() - t0
    out["no_children_after_interrupt"] = _no_children()
    return out


@needs_fork
def test_workers_are_contained():
    out = _in_subprocess("_probe_containment")
    assert out["squares"] == [1, 4, 9, 16]
    # the child's exception comes as a RuntimeError with its traceback
    assert "_Unsendable: unit 1: raised in a child" in out["unsendable"]
    assert out["broken_pipe_exit"] == 1
    # the sleeping child is killed, not waited for
    assert out["interrupt_s"] < 60
    assert all(out[key] for key in ("no_children_after_return", "no_children_after_raise",
                                    "no_children_after_interrupt"))


def _probe_fork_failure() -> dict:
    # three workers whatever the CPUs, and a second fork that fails: the
    # caller runs shares [0, 3] and [2, 5], a child share [1, 4]
    verify._worker_count = lambda: 3
    fork = os.fork
    attempts, forks = [], []

    def fails_after_one():
        attempts.append(1)
        if len(attempts) % 2 == 0:
            raise OSError(errno.EAGAIN, "fork refused")
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    os.fork = fails_after_one
    caller = os.getpid()
    units = [0, 1, 2, 3, 4, 5]
    out = {"ran": verify._shared_map(lambda u: [u * u, os.getpid() == caller],
                                     units, [1] * 6),
           "no_children_after_return": _no_children()}

    def fails_in_2_and_4(u):
        if u in (2, 4):
            raise ValueError(f"unit {u}")
        return u

    try:
        verify._shared_map(fails_in_2_and_4, units, [1] * 6)
    except ValueError as exc:
        out["error"] = str(exc)
    out["no_children_after_raise"] = _no_children()
    out["attempts"], out["forks"] = len(attempts), len(forks)
    return out


@needs_fork
def test_a_failed_fork_leaves_its_units_to_the_caller():
    out = _in_subprocess("_probe_fork_failure")
    assert out["ran"] == [[0, True], [1, False], [4, True], [9, True], [16, False],
                          [25, True]]
    # unit 2, run by the caller in place of a child, is the lowest failing
    assert out["error"] == "unit 2"
    assert out["attempts"] == 4 and out["forks"] == 2
    assert out["no_children_after_return"] and out["no_children_after_raise"]


def test_a_process_of_several_threads_never_forks(monkeypatch):
    build = build_problem(parse_config(
        "[grid]\nnpoints = 16\n[time]\nnsteps = 10\n[ensemble]\nnpaths = 2\n"))
    checks = verify.suite(build.problem, build.ensemble, build.u0)
    reference = [checks[name]().to_json() for name in SHARED]

    def no_fork():
        raise AssertionError("a process of several threads forked")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    holder = threading.Thread(target=release.wait)
    holder.start()
    try:
        assert verify._worker_count() == 1
        reports = [checks[name]().to_json() for name in SHARED]
    finally:
        release.set()
        holder.join(timeout=10)
    assert not holder.is_alive()
    assert reports == reference


def test_no_fork_where_the_thread_count_cannot_be_read(monkeypatch):
    def unreadable(path):
        raise OSError(f"cannot list {path}")

    monkeypatch.setattr(os, "listdir", unreadable)
    assert verify._worker_count() == 1


@needs_fork
def test_no_fork_while_the_transforms_are_interposed(monkeypatch):
    # a process of one thread on two CPUs, whose transforms a trace counts
    monkeypatch.setattr(os, "listdir", lambda path: ["1"])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert verify._worker_count() == 2
    dctn = scipy.fft.dctn
    monkeypatch.setattr(scipy.fft, "dctn", lambda *args, **kwargs: dctn(*args, **kwargs))
    assert verify._worker_count() == 1


@pytest.mark.parametrize("costs, nworkers, shares", [
    # longest first, each to the least loaded worker
    ([1, 2, 4, 8], 2, [[3], [0, 1, 2]]),
    # equal costs alternate, ties to the lowest worker
    ([5, 5, 5, 5], 2, [[0, 2], [1, 3]]),
    # the Lipschitz units of the default problem: the coarse chunk, then
    # the fine chunks of 2, 2 and 1 pairs on twice the points
    ([10, 8, 8, 4], 2, [[0, 3], [1, 2]]),
    # more workers than units: the idle ones are dropped
    ([3, 1, 2], 4, [[0], [2], [1]]),
    ([7], 1, [[0]]),
])
def test_shares_are_longest_first(costs, nworkers, shares):
    assert verify._shares(costs, nworkers) == shares
