"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, runs identical rounds of it for
about S seconds (at least one), checks every round's outputs, and prints
one JSON object as the last line: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``run_s``, ``peak_rss_mib``); with ``--trace 1`` rounds
alternate untraced and traced, and the metrics are the per-layer ones.
"""

import os
import sys
import time


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (10 ms resolution)."""
    with open("/proc/self/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


# The program's linear systems are at most 8 x 8, where BLAS threading does
# not engage; one BLAS thread per process keeps the run to one busy core and
# is inherited by the infer-cli child processes.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
sys.path.insert(0, str(SOURCE))


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def cpu_seconds(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def measure(workload, args, workdir: Path):
    from spans import Tracer, layer_metrics, metric_names

    workload.prepare(args.seed, workdir)
    setup_s = seconds_since_process_start()

    who = resource.RUSAGE_CHILDREN if workload.name == "infer-cli" else resource.RUSAGE_SELF
    cpu_before = cpu_seconds(who)
    tracer = Tracer() if args.trace else None
    untraced, traced, outcomes = [], [], []
    started = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(outcomes) % 2 == 1
        before = time.perf_counter()
        outcomes.append(workload.run_round(len(outcomes), tracer if trace_this else None))
        (traced if trace_this else untraced).append(time.perf_counter() - before)
        elapsed = time.perf_counter() - started
        if args.trace and not traced:
            continue
        if elapsed + statistics.fmean(untraced + traced) > args.seconds:
            break
    cpu_s = cpu_seconds(who) - cpu_before
    peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024.0

    workload.prepare_checks()
    failures = {}
    for index, outcome in enumerate(outcomes):
        for operation, reason in workload.check_round(outcome).items():
            failures[(index, operation)] = reason
    sampler_problems = workload.check_sampler()

    print(f"{workload.name} seed {args.seed}: rounds "
          + ", ".join(f"{t:.3f}s" for t in untraced)
          + (" | traced " + ", ".join(f"{t:.3f}s" for t in traced) if traced else "")
          + f"; cpu {cpu_s:.3f}s over {len(outcomes)} rounds")
    for (index, operation), reason in sorted(failures.items(), key=str)[:20]:
        print(f"FAILED round {index} {operation}: {reason}")
    for problem in sampler_problems:
        print(f"SAMPLER CHECK FAILED: {problem}")

    if args.trace:
        # Traced run_s (the mean traced round) minus the untraced median.
        overhead = statistics.fmean(traced) - statistics.median(untraced)
        values = layer_metrics(tracer.spans, len(traced), overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
        trace_dir = HERE / "_runs" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"{workload.name}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.fmean(untraced), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    return {
        "correct": not sampler_problems,
        "attempted": len(outcomes) * workload.ops_per_round,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    try:
        import multitask_irl
    except ImportError as error:
        print(f"cannot import multitask_irl from {SOURCE}: {error}", file=sys.stderr)
        return 2
    if Path(multitask_irl.__file__).resolve().parent.parent != SOURCE:
        print(f"multitask_irl resolves to {multitask_irl.__file__}, not {SOURCE}",
              file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads.NAMES)
    workload = workloads.make(args.workload)
    workdir = HERE / "_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
