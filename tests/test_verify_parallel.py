"""`run_suite` runs criteria in forked workers and reports them in CRITERIA order.

Most tests pretend to have two usable CPUs so that the workers are forked even
on a one-CPU machine, where `run_suite` would otherwise stay in-process.
"""

import os
import pickle
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from splicesig import verify
from splicesig.cli import main
from splicesig.verify import CriterionResult

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _boom():
    raise ValueError("boom")


@pytest.fixture
def forks(monkeypatch):
    """The pids that os.fork returned to this process."""
    pids, real = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: pids.append(real()) or pids[-1])
    return pids


def test_parallel_results_equal_the_criteria_in_turn(two_cpus, forks):
    assert verify.run_suite("all") == [fn() for _, fn in verify.CRITERIA]
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_criterion_raising_in_a_worker_fails_as_in_process(two_cpus, monkeypatch):
    monkeypatch.setattr(verify, "CRITERIA", [
        ("fine", lambda: CriterionResult("fine", True, "ok")), ("boom", _boom)])
    in_process = verify.run_suite("boom")
    assert in_process == [CriterionResult("boom", False, "raised ValueError: boom")]
    assert verify.run_suite("all") == [CriterionResult("fine", True, "ok")] + in_process


def test_dead_worker_fails_its_criteria_instead_of_hanging():
    script = textwrap.dedent("""
        import os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        from splicesig import verify
        from splicesig.cli import main
        verify.CRITERIA[:] = [("dies", lambda: os._exit(3)),
                              ("hirzebruch", verify.hirzebruch_sanity)]
        sys.exit(main(["verify"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("FAIL dies") and "raised ChildProcessError" in lines[0]
    assert lines[1].split()[1] == "hirzebruch"
    assert "criteria failed: dies" in proc.stderr


def test_dead_worker_keeps_the_tasks_it_reported(two_cpus, monkeypatch):
    # three tasks on two workers: the first worker reports "first", then dies
    parent = os.getpid()

    def dies():
        if os.getpid() != parent:  # never end the test process itself
            os._exit(3)
        raise AssertionError("ran in-process")

    monkeypatch.setattr(verify, "CRITERIA", [
        ("first", lambda: CriterionResult("first", True, "ok")),
        ("other", lambda: CriterionResult("other", True, "ok")), ("dies", dies)])
    assert verify.run_suite("all") == [
        CriterionResult("first", True, "ok"), CriterionResult("other", True, "ok"),
        CriterionResult("dies", False,
                        "raised ChildProcessError: worker exited with status 3")]


_RAN_TABLES = []  # pids that ran _tables, in the process that reads it


def _tables():
    time.sleep(0.2)  # a second worker, if there is one, takes the next task
    _RAN_TABLES.append(os.getpid())
    return CriterionResult("referee-tables", True, str(os.getpid()))


def _splice():
    return CriterionResult("referee-splice", True, " ".join(map(str, _RAN_TABLES)))


def test_referee_pair_is_one_task_in_order(two_cpus, monkeypatch):
    # the two referee criteria share the fixture caches, so they run in one
    # worker, one after the other; one raising leaves the other's result intact
    monkeypatch.setattr(verify, "CRITERIA", [
        ("referee-tables", _boom), ("other", _splice), ("referee-splice", _splice)])
    boom, other, splice = verify.run_suite("all")
    assert boom == CriterionResult("referee-tables", False, "raised ValueError: boom")
    assert other.passed and splice.passed
    monkeypatch.setattr(verify, "CRITERIA", [
        ("referee-tables", _tables), ("referee-splice", _splice), ("other", _splice)])
    tables, splice, other = verify.run_suite("all")
    assert (tables.name, splice.name) == ("referee-tables", "referee-splice")
    assert splice.detail == tables.detail != str(os.getpid())
    assert other.detail == "" and _RAN_TABLES == []


def test_cache_groups_share_a_worker(two_cpus, monkeypatch):
    # on two CPUs: the fixture group, defect-lemma and univariate-reduction
    # in one worker, the Hopf group and hirzebruch in the other
    monkeypatch.setattr(verify, "CRITERIA", [
        (name, lambda name=name: CriterionResult(name, True, str(os.getpid())))
        for name, _ in verify.CRITERIA])
    pids = {r.name: r.detail for r in verify.run_suite("all")}
    assert {frozenset(n for n in pids if pids[n] == pid) for pid in pids.values()} == {
        frozenset({"referee-tables", "referee-splice", "guard-discipline",
                   "defect-lemma", "univariate-reduction"}),
        frozenset({"hopf-oracle", "hopf-spectrum", "hopf-nullity", "hirzebruch"})}


def test_dead_worker_fails_both_referee_criteria():
    script = textwrap.dedent("""
        import os, sys
        os.sched_getaffinity = lambda pid: {0, 1}
        from splicesig import verify
        from splicesig.cli import main
        verify.CRITERIA[:] = [("referee-tables", lambda: os._exit(3)),
                              ("referee-splice", verify.referee_splice),
                              ("hirzebruch", verify.hirzebruch_sanity)]
        sys.exit(main(["verify"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    for line, name in zip(lines, ("referee-tables", "referee-splice")):
        assert line.startswith(f"FAIL {name}") and "raised ChildProcessError" in line
    assert lines[2].split()[1] == "hirzebruch"


def test_unpicklable_criteria_still_run(two_cpus, monkeypatch):
    # bench/tracing.py replaces every entry by a local closure, in place
    def span(fn):
        def timed():
            return fn()
        return timed

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(span(verify.hirzebruch_sanity))
    monkeypatch.setattr(verify, "CRITERIA", list(verify.CRITERIA))
    verify.CRITERIA[:] = [(name, span(fn)) for name, fn in verify.CRITERIA]
    results = verify.run_suite("all")
    assert [r.name for r in results] == [name for name, _ in verify.CRITERIA]
    assert all(r.passed for r in results), results


def test_single_suite_runs_without_a_pool(two_cpus, forks, capsys):
    for suite in ("hirzebruch", "referee-splice"):
        assert main(["verify", suite]) == 0
        assert capsys.readouterr().out.startswith(f"PASS {suite}")
    assert forks == []
