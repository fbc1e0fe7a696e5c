"""flatcirc benchmark: time to verdict on seeded workloads.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload integrability-dense --seed 0 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn

Each run starts fresh worker processes (``worker.py``) one after another:
set-up probes first, then the process that measures.  ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` runs untraced and traced passes and
prints the per-layer table.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Any
failure to set up or measure exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Plus the measuring process: the median of 15 set-ups.  Single set-ups on a
# shared host fall into a fast and a slow mode about 2x apart, so a median
# of few flips between them.
SETUP_PROBES = 14
RUN_LIMIT_S = 175.0     # every child is stopped before this much wall time

# Bounded end-to-end metrics.  norm_work divides each task by the calibration
# loop timed around it.
END_TO_END = (("setup_s", "s"), ("norm_work", "ratio"), ("peak_rss_mb", "MB"))
# Printed for people without a bound: raw seconds drift with the host.
UNBOUNDED = (("verdicts_per_s", "1/s"), ("task_p50_s", "s"), ("task_p90_s", "s"))
# Functions that run on every workload, so their times are never zero.
TIMED_LAYERS = ("series.mul", "series.add", "series.derivative",
                "series.invert_unit", "series.exp_series", "expr.parse_series",
                "models.instantiate", "fmanifold.potential_to_structure",
                "geometry.apply_higgs", "geometry.covariant_derivative",
                "euler.h_from_e", "euler.full_flatness_residual",
                "euler.e_equation_residual", "cli.main")
LAYER_RATIOS = (("series.mul.term_pairs", "count"),
                ("series.mul.in_cap_ratio", "ratio"),
                ("trace.overhead_ratio", "ratio"))


class BenchError(RuntimeError):
    pass


def per_layer_names() -> List[Tuple[str, str]]:
    from tracer import TARGETS
    names = [(f"{label}.calls", "count") for label, _, _ in TARGETS]
    for label in TIMED_LAYERS:
        names += [(f"{label}.total_s", "s"), (f"{label}.self_s", "s")]
    return names + list(LAYER_RATIOS)


def host_record(seed: int, cal: float) -> Dict[str, object]:
    return {"git": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu_model(), "seed": seed,
            "host_cal_s": cal}


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def start_worker(args, probe: bool, deadline: float) -> Tuple[subprocess.Popen, float]:
    """Start a worker; return it with its set-up time (start to ``ready``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--probe"] if probe else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"worker did not get ready (said {line.strip()!r})")
        if time.perf_counter() > deadline:
            raise BenchError("set-up exceeded the run limit")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc.stdout:
        proc.stdout.close()


def finish(proc: subprocess.Popen, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker exceeded the run limit") from exc
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def run_workload(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S

    def probe() -> float:
        proc, setup = start_worker(args, probe=True, deadline=deadline)
        finish(proc, deadline)
        return setup

    # probes before and after the measuring process sample two host phases
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    proc, setup = start_worker(args, probe=False, deadline=deadline)
    setups.append(setup)
    lines = finish(proc, deadline).strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    result = json.loads(lines[-1])
    result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report(args, result: dict) -> dict:
    """Print the human-readable block; return the contract's metrics."""
    host = host_record(args.seed, result["host_cal_s"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print(f"samples {result['task_samples']} tasks in {result['passes']} timed passes; "
          f"{result['cal_samples']} calibration samples")
    print(f"failed_share {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']}")
    for problem in result["problems"]:
        print("  FAILED " + problem)
    if args.trace:
        names, values = per_layer_names(), result["layers"]
        print_layer_table(values)
    else:
        names, values = END_TO_END, result["metrics"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    if not args.trace:
        for name, unit in END_TO_END + UNBOUNDED:
            print(f"  {name:<16} {result['metrics'][name]:<14.6g} {unit}"
                  + ("" if (name, unit) in END_TO_END else "  (unbounded)"))
    return metrics


def print_layer_table(layers: Dict[str, float]) -> None:
    from tracer import TARGETS
    own_total = sum(layers[f"{label}.self_s"] for label, _, _ in TARGETS)
    print(f"  {'layer function':<40} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}")
    for label, _, _ in TARGETS:
        own = layers[f"{label}.self_s"]
        print(f"  {label:<40} {layers[f'{label}.calls']:>9.0f} "
              f"{layers[f'{label}.total_s']:>10.4f} {own:>10.4f} "
              f"{100 * own / own_total if own_total else 0:>6.1f}")
    for name, _ in LAYER_RATIOS + (("trace.spans", "count"),):
        print(f"  {name:<40} {layers[name]:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            args.workload = name
            result = run_workload(args)
            block = report(args, result)
            correct = correct and result["failed"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for key, value in block.items():
                metrics[key if len(names) == 1 else f"{name}/{key}"] = value
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
