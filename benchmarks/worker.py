"""One workload run in a fresh process: set up, run passes, report JSON.

Started by ``run.py`` with the checkout root as working directory.  It
prints ``ready`` once the first task is ready (flatcirc imported, inputs
generated and written), then measures, then prints one JSON object.  With
``--probe`` it stops after ``ready``; ``run.py`` uses probes to take the
median set-up time.

Load model: one client, closed loop, in process, no threads.  A pass runs
every task of the workload once, in order.  The first pass warms up and is
gated but not timed.  A fixed stdlib-only calibration loop runs between
tasks, outside the task timings, so host speed can be divided out.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import Ledger, Outcome  # noqa: E402
from workloads import Task, build  # noqa: E402

CAL_EVERY_S = 0.03     # task time between two calibration samples
LOCAL_CAL = 4          # fewest calibration samples on each side of a task
MAX_MEASURE_S = 150.0  # hard stop well inside the per-run limit
# Self times plus the tracer's bookkeeping cover the traced pass time up to
# the time spent outside cli.main (output capture); a larger gap fails the run.
SELF_SUM_TOLERANCE = 0.02


def import_flatcirc():
    """Import flatcirc from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    os.environ["FLATCIRC_MAX_N"] = "6"  # the documented default fan bound
    import flatcirc.cli
    if not Path(flatcirc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"flatcirc imported from {flatcirc.__file__}, not {src}")
    return flatcirc.cli


def calibration_operands():
    """Two dense 3-variable polynomials of degree <= 4 over Fraction."""
    def poly(shift: int) -> Dict[Tuple[int, ...], Fraction]:
        return {(i, j, k): Fraction((7 * i + 3 * j + k + shift) % 11 - 5,
                                    1 + (i + 2 * j + k) % 4)
                for i in range(5) for j in range(5 - i) for k in range(5 - i - j)}
    return poly(1), poly(2)


def calibration_loop(a, b) -> float:
    """Time their product truncated at degree 6, written with stdlib only.

    It mirrors the shape of the series kernel (tuple exponents, a degree
    cut, dict accumulation of Fractions) so host slowdowns hit it and the
    workloads alike.
    """
    start = time.perf_counter()
    out: Dict[Tuple[int, ...], Fraction] = {}
    for e1, c1 in a.items():
        d1 = sum(e1)
        for e2, c2 in b.items():
            if d1 + sum(e2) > 6:
                continue
            e = tuple(x + y for x, y in zip(e1, e2))
            total = out.get(e, Fraction(0)) + c1 * c2
            if total:
                out[e] = total
            else:
                out.pop(e, None)
    return time.perf_counter() - start


def run_task(cli, task: Task) -> Outcome:
    if task.report is not None and os.path.exists(task.report):
        os.remove(task.report)
    out, err = io.StringIO(), io.StringIO()
    error = ""
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(task.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # an uncaught exception is a failed task
            error = f"{type(exc).__name__}: {exc}"
    report = None
    if task.report is not None and os.path.exists(task.report):
        with open(task.report, "rb") as handle:
            report = handle.read()
    return Outcome(code, out.getvalue(), err.getvalue(), report, error)


class Run:
    """Passes over one workload with interleaved calibration."""

    def __init__(self, cli, tasks, tracer=None) -> None:
        self.cli = cli
        self.tasks = tasks
        self.tracer = tracer
        self.ledger = Ledger()
        self.cal_operands = calibration_operands()
        self.cal_samples: List[float] = []
        self.cal_times: List[float] = []
        # (plain or traced, pass index, task key, midpoint, seconds) of every
        # timed task
        self.task_log: List[Tuple[str, int, str, float, float]] = []
        self.pass_seconds: Dict[str, List[float]] = {"plain": [], "traced": []}
        self.layer_passes: List[Dict[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.matched = 0
        self.problems: List[str] = []
        self._since_cal = 0.0

    def calibrate(self) -> None:
        """One sample per CAL_EVERY_S of task time since the last call, at least one."""
        for _ in range(max(1, int(self._since_cal / CAL_EVERY_S))):
            self.cal_times.append(time.perf_counter())
            self.cal_samples.append(calibration_loop(*self.cal_operands))
        self._since_cal = 0.0

    def local_cal(self, when: float, elapsed: float) -> float:
        """Median calibration time around a task with midpoint ``when``.

        It takes the samples nearest in time on each side: LOCAL_CAL, or as
        many as were taken for the task's own duration if that is more, so a
        long task is measured against the samples right before and after it.
        """
        k = max(LOCAL_CAL, int(elapsed / CAL_EVERY_S))
        i = bisect.bisect(self.cal_times, when)
        return statistics.median(self.cal_samples[max(0, i - k):i + k])

    def one_pass(self, timed: bool, traced: bool = False) -> None:
        before = self.tracer.snapshot() if traced else None
        total = 0.0
        with self.tracer if traced else contextlib.nullcontext():
            for task in self.tasks:
                total += self.one_task(task, timed, traced)
        if timed:
            self.pass_seconds["traced" if traced else "plain"].append(total)
        if traced:
            after = self.tracer.snapshot()
            self.layer_passes.append({k: after[k] - before[k] for k in after})

    def one_task(self, task: Task, timed: bool, traced: bool) -> float:
        if self._since_cal >= CAL_EVERY_S:
            self.calibrate()
        if traced:
            self.tracer.task = task.key
        start = time.perf_counter()
        outcome = run_task(self.cli, task)
        elapsed = time.perf_counter() - start
        self._since_cal += elapsed
        found = self.ledger.problems(task, outcome)
        self.attempted += 1
        if found:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{task.key}: {'; '.join(found)}")
        if timed:
            kind = "traced" if traced else "plain"
            self.task_log.append((kind, len(self.pass_seconds[kind]), task.key,
                                  start + elapsed / 2, elapsed))
            self.matched += kind == "plain" and not found
        return elapsed


def measure(cli, tasks, seconds: float, trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
    run = Run(cli, tasks, tracer)
    run.calibrate()
    run.one_pass(timed=False)
    start = time.perf_counter()
    deadline = start + seconds
    last = 0.0
    while True:
        now = time.perf_counter()
        if now - start > MAX_MEASURE_S:
            break
        if len(run.pass_seconds["plain"]) >= 2 and now + last > deadline:
            break
        begin = time.perf_counter()
        run.one_pass(timed=True)
        if trace:
            run.one_pass(timed=True, traced=True)
        last = time.perf_counter() - begin
    run.calibrate()
    return summarize(run, trace)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(run: Run, trace: bool) -> dict:
    """End-to-end figures of the untraced passes, and the layers if traced.

    Host speed on a shared machine drifts by up to 2x over tens of seconds,
    so ``norm_work`` divides each task by the median calibration time around
    it, takes each task's median over the untraced passes and sums those;
    the raw-second figures are printed without a bound.
    """
    normalized = {"plain": defaultdict(float), "traced": defaultdict(float)}
    per_task: Dict[str, List[float]] = defaultdict(list)
    samples = []
    for kind, k, key, mid, elapsed in run.task_log:
        value = elapsed / run.local_cal(mid, elapsed)
        normalized[kind][k] += value
        if kind == "plain":
            per_task[key].append(value)
            samples.append(elapsed)
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "host_cal_s": statistics.median(run.cal_samples),
        "cal_samples": len(run.cal_samples),
        "passes": len(run.pass_seconds["plain"]),
        "task_samples": len(samples),
        "metrics": {
            "norm_work": sum(statistics.median(v) for v in per_task.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verdicts_per_s": run.matched / sum(samples),
            "task_p50_s": statistics.median(samples),
            "task_p90_s": percentile(samples, 0.9),
        },
    }
    if trace:
        result["layers"] = layer_metrics(run, normalized)
    return result


def layer_metrics(run: Run, normalized: Dict[str, Dict[int, float]]) -> Dict[str, float]:
    """Per-pass layer figures: the median over traced passes."""
    passes = run.layer_passes
    layers = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    pairs = layers.pop("series.mul.in_cap_pairs")
    layers["series.mul.in_cap_ratio"] = pairs / layers["series.mul.term_pairs"] \
        if layers["series.mul.term_pairs"] else 1.0
    layers.pop("trace.bookkeeping_s")
    layers["trace.overhead_ratio"] = (statistics.median(normalized["traced"].values())
                                      / statistics.median(normalized["plain"].values()))
    for p, seconds in zip(passes, run.pass_seconds["traced"]):
        covered = (sum(v for k, v in p.items() if k.endswith(".self_s"))
                   + p["trace.bookkeeping_s"]) / seconds
        if abs(1 - covered) > SELF_SUM_TOLERANCE:
            raise RuntimeError(f"self times cover {covered:.4f} of a traced pass")
    layers["trace.spans"] = len(run.tracer.spans)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    cli = import_flatcirc()
    workload = build(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, body in workload.documents:
            (work / name).write_bytes(body)
        os.chdir(work)
        print("ready", flush=True)
        if args.probe:
            return 0
        result = measure(cli, workload.tasks, args.seconds, bool(args.trace))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    result["inputs"] = workload.digests()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
