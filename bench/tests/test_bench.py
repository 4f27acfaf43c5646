"""Tests of the benchmark itself:  python3 -m pytest bench/tests -q

They run tiny seeded passes of the real CLI, so they take a few seconds.
"""

import json
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts src/ on sys.path)
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from splicesig.cables import hirzebruch  # noqa: E402
from splicesig.torus import Angle  # noqa: E402


def _workdir(name: str) -> Path:
    path = BENCH / "out" / "tests" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _flip(stdout: str) -> str:
    """The same output with one answer changed."""
    lines = stdout.splitlines()
    if lines[-1].startswith("all "):  # verify
        return stdout.replace("PASS ", "FAIL ", 1)
    if lines[0].startswith("#"):  # sweep: change the last cell
        at, value = lines[-1].split("\t")
        lines[-1] = f"{at}\t{'0' if value == 'guard' else int(value) + 1}"
    else:
        lines[0] = str(int(lines[0]) + 1)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_is_correct_and_oracles_reject_flipped_answers(workload):
    workdir = _workdir(workload)
    runner = run.Runner(workdir, workloads.TIMEOUT_S[workload])
    requests = workloads.build(workload, 7, 0, workdir, tiny=True)
    outcomes = runner.run_pass(requests)
    assert [o.error for o in outcomes] == [""] * len(requests)  # error_rate 0
    assert all(o.units >= 1 for o in outcomes)
    for req in requests:
        _, _, _, rc, stdout = run.spawn([sys.executable, "-c", run.LAUNCH, *req.args],
                                        workdir, runner.env, 60.0)
        assert req.check(rc, stdout) >= 1
        with pytest.raises(oracles.WrongAnswer):
            req.check(rc, _flip(stdout))
        with pytest.raises(oracles.WrongAnswer):
            req.check(1, stdout)


def test_seed_fixes_the_inputs():
    workdir = _workdir("seed")
    for workload in workloads.WORKLOADS:
        a = workloads.build(workload, 3, 1, workdir)
        assert [r.args for r in a] == [r.args for r in workloads.build(workload, 3, 1, workdir)]
    args = {(seed, index): [r.args for r in workloads.build("eval-highlevel", seed, index, workdir)]
            for seed in (3, 4) for index in (0, 1)}
    assert len({tuple(v) for v in args.values()}) == 4


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (7, 4), (11, 13), (12, 17)])
def test_lattice_oracle_matches_library_and_is_symmetric(p, q):
    for b in range(2, 13):
        for a in range(1, b):
            theta = Fraction(a, b)
            want = hirzebruch(p, q, Angle(theta))
            assert oracles.lattice_signature(p, q, theta) == want
            assert oracles.lattice_signature(q, p, theta) == want


def test_splice_cells_follow_the_guard_rule():
    assert oracles.splice_cell((4, 3, 5), 8) == "guard"
    assert oracles.splice_cell((4, 3, 4), 8) != "guard"
    assert oracles.splice_cell((3, 3, 5), 8) != "guard"


def test_tail_takes_the_eleventh_largest():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)


@pytest.mark.parametrize("workload", ["sweep", "eval-highlevel"])
def test_spans_nest_inside_their_request(workload):
    workdir = _workdir(f"trace-{workload}")
    runner = run.Runner(workdir, 60.0)
    trace_dir = workdir / "spans"
    trace_dir.mkdir()
    outcomes = runner.run_pass(workloads.build(workload, 5, 0, workdir, tiny=True), trace_dir)
    assert all(not o.error for o in outcomes)
    docs = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(trace_dir.glob("spans-*.json"))]
    assert len(docs) == len(outcomes)
    for doc in docs:
        spans = doc["spans"]
        root = spans[0]
        assert doc["names"][root[0]] == "request" and root[3] == -1
        assert sum(1 for s in spans if s[3] == -1) == 1
        for own in tracing.self_times(spans):
            assert own >= 0.0
        for _, start, end, parent in spans:
            assert root[1] <= start <= end <= root[2]
            if parent != -1:
                assert spans[parent][1] <= start and end <= spans[parent][2]
    metrics = tracing.layer_metrics(docs)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) | {"trace_overhead"} == {m["name"] for m in declared["per_layer"]}
    assert metrics["cyclotomic.inertia_calls"] > 0
    assert metrics["expr.parse_calls"] == len(docs)


def test_timed_run_makes_the_planned_passes_and_spreads_set_up():
    workdir = _workdir("timed")
    runner = run.Runner(workdir, 60.0)
    metrics, units, notes, checked, counted, plans = run.timed_run(
        runner, 20.0, 10.0, lambda i: workloads.build("torus-lattice", 9, i, workdir, tiny=True))
    assert notes["passes"] == notes["planned_passes"] == len(plans) == 2
    assert notes["setup_samples"] == 2 * -(-run.SETUP_SAMPLES // 2)
    assert len(counted) == sum(len(p) for p in plans)
    assert not any(o.error for o in checked)
    assert set(metrics) == set(units) and all(v > 0 for v in metrics.values())
