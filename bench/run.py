"""splicesig benchmark: the `splice-sig` CLI under a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every request is a fresh `splice-sig` process, started only after the
previous one has ended, and its output is checked against an oracle (see
oracles.py).  A pass is the seeded request list of a workload (see
workloads.py).

--trace 0 runs round(S / PASS_S) passes, each with its own seeded inputs,
with set-up samples spread among them, and reports the end-to-end metrics:
throughput and CPU per pass over the whole run, latencies over all its
requests.
--trace 1 runs one untraced pass and the same pass traced (see tracing.py)
and reports the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; the lines before it name every metric with its
unit.  The seed, the generated inputs and every request's outcome are
written to bench/out/<workload>/result.json.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import oracles
    import tracing
    import workloads
except ImportError as err:  # a checkout without the splicesig sources
    raise SystemExit(f"error: cannot import splicesig from {SRC}: {err}") from err

LAUNCH = "import sys; from splicesig.cli import main; sys.exit(main())"
SETUP_REQUEST = workloads.Request("setup: eval zero 1 --at 1/2",
                                  ("eval", "zero", "1", "--at", "1/2"),
                                  oracles.value_check(0), {})
SETUP_SAMPLES = 15  # spread over the run, a share before each pass
SLACK = 1.05  # a timed run stops starting passes past this share of --seconds
RUN_BUDGET_S = 150.0  # no request starts later than this into a run

END_TO_END_UNITS = {"setup_s": "s", "units_per_s": "1/s", "cpu_s": "s",
                    "req_p50_s": "s", "req_tail_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    label: str
    wall: float
    cpu: float
    rss_kb: int
    rc: Optional[int]
    units: int = 0
    error: str = ""


def spawn(cmd: List[str], cwd: Path, env: dict, timeout: float) -> tuple:
    """Run `cmd` to completion: (wall s, cpu s, maxrss KB, exit code or None, stdout).

    The child is reaped with wait4 for its rusage.  After `timeout` seconds it
    is killed through its pidfd, reaped, and reported with exit code None.
    """
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
            proc.returncode if ready else None,
            out_path.read_text(encoding="utf-8", errors="replace"))


class Runner:
    """Runs and checks requests, one at a time, in a work directory."""

    def __init__(self, workdir: Path, timeout: float):
        self.workdir = workdir
        self.timeout = timeout
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.pop("SPLICE_SIG_PRECISION", None)  # it changes speed
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.traced = 0

    def _command(self, args, trace_dir: Optional[Path]) -> List[str]:
        if trace_dir is None:
            return [sys.executable, "-c", LAUNCH, *args]
        self.traced += 1
        return [sys.executable, str(BENCH / "tracing.py"),
                str(trace_dir / f"spans-{self.traced:04d}.json"), f"r{self.traced}", *args]

    def request(self, req, trace_dir: Optional[Path] = None) -> Outcome:
        left = RUN_BUDGET_S - (time.perf_counter() - self.started)
        if left <= 0:
            return Outcome(req.label, 0.0, 0.0, 0, None, error="not started: run budget spent")
        wall, cpu, rss, rc, stdout = spawn(self._command(req.args, trace_dir),
                                           self.workdir, self.env, min(self.timeout, left))
        out = Outcome(req.label, wall, cpu, rss, rc)
        if rc is None:
            out.error = f"timed out after {wall:.1f} s"
            return out
        try:
            out.units = req.check(rc, stdout)
        except oracles.WrongAnswer as err:
            out.error = str(err)
        return out

    def run_pass(self, requests, trace_dir: Optional[Path] = None) -> List[Outcome]:
        return [self.request(r, trace_dir) for r in requests]


def tail(latencies: List[float]) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with ten
    samples above it, or the maximum when there are fewer than eleven."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(setup: List[Outcome], passes: List[List[Outcome]]) -> tuple:
    """The end-to-end metrics of a run and notes on how they were taken."""
    work = [o for p in passes for o in p]
    latencies = [o.wall for o in work]
    value, pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(o.wall for o in setup),
        "units_per_s": sum(o.units for o in work) / sum(latencies),
        "cpu_s": sum(o.cpu for o in work) / len(passes),
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": value,
        "peak_rss_mb": max(o.rss_kb for p in passes for o in p) / 1024,
    }
    notes = {"passes": len(passes), "requests": len(latencies),
             "setup_samples": len(setup), "req_tail_percentile": pct,
             "req_tail_samples_beyond": beyond,
             "pass_wall_s": [sum(o.wall for o in p) for p in passes]}
    return metrics, notes


def timed_run(runner: Runner, seconds: float, pass_s: float, plan):
    """round(seconds / pass_s) rounds of set-up samples and one pass each.

    `plan(i)` gives the requests of pass i; `pass_s` is about the wall time
    of one round.  Every run of a workload thus does the same work, and the
    latency percentiles stay comparable.  A share of the SETUP_SAMPLES set-up
    samples opens each round, so that set-up is timed across the whole run.
    On a host so slow that the next round would end past SLACK * seconds,
    the run stops early; there is always one round.
    """
    runner.request(SETUP_REQUEST)  # warm-up: byte-compiles and reads the sources once
    start = time.perf_counter()
    count = max(1, round(seconds / pass_s))
    per_pass = -(-SETUP_SAMPLES // count)
    setup, passes, plans, rounds = [], [], [], []
    for i in range(count):
        if rounds and time.perf_counter() - start + statistics.median(rounds) > SLACK * seconds:
            break
        began = time.perf_counter()
        setup += [runner.request(SETUP_REQUEST) for _ in range(per_pass)]
        plans.append(plan(i))
        passes.append(runner.run_pass(plans[-1]))
        rounds.append(time.perf_counter() - began)
    metrics, notes = end_to_end(setup, passes)
    notes["planned_passes"] = count
    work = [o for p in passes for o in p]
    return metrics, END_TO_END_UNITS, notes, setup + work, work, plans


def traced_run(runner: Runner, requests):
    plain = runner.run_pass(requests)
    trace_dir = runner.workdir / "spans"
    trace_dir.mkdir()
    traced = runner.run_pass(requests, trace_dir)
    docs = [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(trace_dir.glob("spans-*.json"))]
    plain_s, traced_s = sum(o.wall for o in plain), sum(o.wall for o in traced)
    metrics = {**tracing.layer_metrics(docs), "trace_overhead": traced_s - plain_s}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    notes = {"untraced_wall_s": plain_s, "traced_wall_s": traced_s,
             "span_files": len(docs)}
    return metrics, units, notes, plain + traced, plain + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = BENCH / "out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, workloads.TIMEOUT_S[args.workload])
    if args.trace:
        plans = [workloads.build(args.workload, args.seed, 0, workdir)]
        metrics, units, notes, checked, counted = traced_run(runner, plans[0])
    else:
        metrics, units, notes, checked, counted, plans = timed_run(
            runner, args.seconds, workloads.PASS_S[args.workload],
            lambda i: workloads.build(args.workload, args.seed, i, workdir))

    failed = sum(1 for o in counted if o.error)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "inputs": [[{"label": r.label, "args": list(r.args), **r.inputs}
                          for r in requests] for requests in plans],
              "metrics": metrics, "notes": notes,
              "outcomes": [vars(o) for o in checked]}
    (workdir / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"error_rate {failed / len(counted)} ({failed} of {len(counted)} requests)")
    for note, value in notes.items():
        print(f"  {note}: {value}")
    for o in checked:
        if o.error:
            print(f"  FAILED {o.label}: {o.error}")
    for name, value in metrics.items():
        print(f"{name:32s} {value!r:>24} {units[name]}")
    print(json.dumps({"correct": not any(o.error for o in checked),
                      "attempted": len(counted), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
