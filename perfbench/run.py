#!/usr/bin/env python3
"""The DFX reproduction's benchmark: one workload per run, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-stream --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
instrumentation installed; ``--trace 1`` makes a separate traced run that
wraps the program's public entry points (see ``layers.py``), attributes
host time to them, and reports the per-layer metrics.  Every output the
program returns is checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``, and the exit code
is 1 when any check failed, 2 when the benchmark cannot run at all.
Results, the run manifest and (traced runs) a Chrome trace are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

_START = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
#: The host work is single-threaded; one BLAS thread keeps NumPy from
#: competing with it and keeps results independent of the core count.
BLAS_THREADS = "1"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Failures printed before the rest are summarized.
SHOWN_FAILURES = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _git_describe() -> str:
    """``git describe`` of the checkout, never of a repository above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(REPO_ROOT.parent))
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return described.stdout.strip() if described.returncode == 0 else "unavailable"


def _blas_name(np) -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


#: Run in a fresh interpreter: CPU seconds to import the program.
_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
start = time.process_time()
import layers, workloads
print(time.process_time() - start)
"""


def _import_cpu_s() -> float:
    """CPU seconds to import the program: the median over fresh interpreters
    (one import is as noisy as one set-up)."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(REPO_ROOT / "src"), str(BENCH_DIR)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _typical_pass_s(seconds_of, passes) -> float:
    """One pass's time, summed from each call's median over the passes.

    Every pass makes the same calls (a stream's generation, a driver, a
    step position); the median of each over the run's passes discards the
    calls that a burst of host contention slowed, call by call.
    """
    by_key: dict[object, list[float]] = {}
    for record in passes:
        for key, index in record.calls:
            by_key.setdefault(key, []).append(seconds_of(index))
    return sum(statistics.median(times) for times in by_key.values())


def _work_per_s(seconds_of, passes) -> float:
    """Work of a whole pass over its typical time (0 if nothing completed)."""
    pass_s = _typical_pass_s(seconds_of, passes)
    work = max(record.work for record in passes)
    return work / pass_s if pass_s else 0.0


def _measure(workload, state, clock, checker, seconds):
    """Untraced passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass(state, clock, checker))
    return passes


def timed_run(workload, seed, seconds, clock, checker):
    import_cpu_s = _import_cpu_s()
    setups = []
    for _ in range(SETUP_REPEATS):
        state = None  # one set-up live at a time, for peak_rss_mib
        state, index = clock.call(workload.setup, seed)
        setups.append(index)
    passes = _measure(workload, state, clock, checker, seconds)
    workload.final_checks(state, checker)
    metrics = {
        "setup_s": clock.nominal(import_cpu_s)
                   + statistics.median(clock.nominal_s(i) for i in setups),
        "work_per_s": _work_per_s(clock.nominal_s, passes),
        "peak_rss_mib": _peak_rss_mib(),
    }
    details = {
        "passes": len(passes),
        "import_nominal_s": clock.nominal(import_cpu_s),
        "setup_nominal_s": [clock.nominal_s(i) for i in setups],
        "setup_cpu_s": [clock.raw_s(i) for i in setups],
        "pass_work": [record.work for record in passes],
        "pass_nominal_s": [sum(clock.nominal_s(i) for _, i in r.calls) for r in passes],
        "pass_cpu_s": [sum(clock.raw_s(i) for _, i in r.calls) for r in passes],
        "cpu_work_per_s": _work_per_s(clock.raw_s, passes),
        "summary": workload.summary(state),
    }
    return metrics, passes, details


def traced_run(workload, seed, seconds, clock, checker, tracing, layers):
    """One traced set-up and pass, then untraced passes to price the tracing."""
    tracer = tracing.Tracer()
    fault_events: list[int] = []

    def traced_region():
        state = tracer.call("bench.setup", "bench", workload.setup, seed)
        record = tracer.call("bench.pass", "bench", workload.run_pass,
                             state, clock, checker)
        return state, record

    layers.install(tracer, fault_events)
    workload.tracer = tracer
    clock.sampling = False  # reference samples would land in unattributed time
    try:
        state, traced_pass = tracer.call("bench.traced", "bench", traced_region)
    finally:
        clock.sampling = True
        tracer.restore()
        workload.tracer = None
    gauges = workload.gauges(state)
    passes = _measure(workload, state, clock, checker, seconds)
    workload.final_checks(state, checker)

    metrics = layers.layer_metrics(tracer, gauges, fault_events)
    wall = tracer.inclusive_s("bench.traced")
    metrics["trace.wall_s"] = wall
    # Self times add up to the root span's duration by construction; the
    # check guards the tracer's span bookkeeping, not the program.
    attributed = sum(tracer.self_by_group().values())
    checker.expect(
        abs(attributed - wall) <= 1e-6 * wall,
        f"per-layer self times add up to {attributed!r} s, not the traced "
        f"wall time {wall!r} s",
    )
    untraced_s = _typical_pass_s(clock.nominal_s, passes)
    traced_s = sum(clock.nominal_s(i) for _, i in traced_pass.calls)
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1.0) * 100.0 if untraced_s else 0.0
    steps = sorted(clock.nominal_s(i) * 1e3 for r in passes for _, i in r.calls
                   if workload.calls_are_steps)
    metrics["session.step_ms_p50"] = statistics.median(steps) if steps else 0.0
    metrics["session.step_ms_p95"] = (
        statistics.quantiles(steps, n=20)[-1] if len(steps) >= 2 else 0.0)
    details = {"passes": len(passes) + 1, "steps_timed": len(steps),
               "traced_pass_nominal_s": traced_s, "untraced_pass_nominal_s": untraced_s,
               "summary": workload.summary(state)}
    return metrics, [traced_pass, *passes], details, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = BLAS_THREADS
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import numpy as np

        import hostclock
        import layers
        import tracing
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program from {REPO_ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    program = Path(sys.modules["repro"].__file__).resolve()
    if not program.is_relative_to(REPO_ROOT / "src"):
        print(f"perfbench: imported the program from {program}, not from this "
              "checkout", file=sys.stderr)
        return 2
    try:
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"perfbench: cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    clock = hostclock.HostClock()
    clock.sample_reference()
    checker = workloads.Checker()
    tracer = None
    try:
        if args.trace:
            metrics, passes, details, tracer = traced_run(
                workload, args.seed, args.seconds, clock, checker, tracing, layers)
        else:
            metrics, passes, details = timed_run(
                workload, args.seed, args.seconds, clock, checker)
    except Exception as error:  # set-up failed: nothing was measured
        print(f"perfbench: {args.workload} could not run: {error!r}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = sum(record.ops for record in passes)
    failed = sum(record.failed_ops for record in passes)
    correct = not checker.failures and failed == 0 and attempted > 0
    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "git": _git_describe(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "started_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "wall_s": time.perf_counter() - _START,
        "peak_rss_mib": _peak_rss_mib(),
        "nominal_reference_s": hostclock.NOMINAL_REFERENCE_S,
        "reference_median_s": statistics.median(clock.references),
    }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({workload.work_unit} = unit of work)")
    for name in units:
        print(f"  {name:28s} {metrics[name]:>14.6g} {units[name]}")
    print(f"  {'ops':28s} {attempted:>14d} attempted, {failed} failed "
          f"(failed_ops_frac {failed / attempted if attempted else 0.0:g})")
    for name, value in details["summary"].items():
        print(f"  {name:28s} {value:>14.6g}")
    for message in checker.failures[:SHOWN_FAILURES]:
        print(f"  CHECK FAILED: {message}")
    if len(checker.failures) > SHOWN_FAILURES:
        print(f"  ... and {len(checker.failures) - SHOWN_FAILURES} more failed checks")
    print("manifest " + json.dumps(manifest, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "manifest": manifest,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures,
        "details": details,
    }, indent=2) + "\n")
    if tracer is not None:
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(tracer.chrome_trace({"manifest": manifest})))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
