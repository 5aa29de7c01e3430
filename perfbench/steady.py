"""Steadiness of the benchmark: repeat runs and report the spread.

Run from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--first-seed 0]
                                [--out set1.json]
    python3 perfbench/steady.py --compare set1.json set2.json

The first form runs ``perfbench/run.py --trace 0`` once per seed on each
workload (seeds ``first-seed`` onwards) and prints, for every end-to-end
metric, the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the quartile spread as a share of the median next to a third of the
metric's bound in ``BENCHMARK.json``.  It also prints each workload's share
of failed operations, which must be the same in every run.  The second form
compares the medians of two saved sets: they must agree within each
metric's bound, in either direction.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run_once(workload: str, seed: int) -> dict:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def measure(workloads, runs: int, first_seed: int) -> dict:
    out = {}
    for workload in workloads:
        results = []
        for seed in range(first_seed, first_seed + runs):
            result = run_once(workload, seed)
            results.append(result)
            values = ", ".join(f"{k} {v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, {values}", flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in BOUNDS}
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        out[workload] = {"metrics": metrics, "failed_shares": shares,
                         "all_correct": all(r["correct"] for r in results),
                         "runs": [r["metrics"] for r in results]}
    return out


def report(sets: dict):
    for workload, entry in sets.items():
        print(f"\n{workload}: failed shares {entry['failed_shares']}, "
              f"all correct {entry['all_correct']}")
        print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound/3':>9}")
        for name, s in entry["metrics"].items():
            if name == "setup_s":
                # One cold set-up per run: its spread is not gated, only the
                # median of many runs is.
                steady = "not gated"
            else:
                steady = "ok" if s["spread"] < BOUNDS[name] / 3 else "WIDE"
            print(f"  {name:<14}{s['median']:>12.4f}{s['q1']:>12.4f}{s['q3']:>12.4f}"
                  f"{s['spread']:>9.4f}{BOUNDS[name] / 3:>9.4f} {steady}")


def compare(first: dict, second: dict):
    """Second set's medians against the first's: they must agree within the
    bound in either direction."""
    for workload in first:
        for name, bound in BOUNDS.items():
            a = first[workload]["metrics"][name]["median"]
            b = second[workload]["metrics"][name]["median"]
            verdict = "ok" if abs(b / a - 1.0) <= bound else "DIFFER"
            print(f"{workload:<24}{name:<14}{a:>12.4f}{b:>12.4f}{b / a - 1.0:>+9.4f} "
                  f"(bound {bound}) {verdict}")
        same = first[workload]["failed_shares"] == second[workload]["failed_shares"]
        print(f"{workload:<24}failed shares {'equal' if same else 'DIFFER'}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="save the set as JSON")
    parser.add_argument("--compare", nargs=2, metavar="SET", default=None)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        compare(first, second)
        return 0
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    sets = measure(args.workload or names, args.runs, args.first_seed)
    report(sets)
    if args.out:
        Path(args.out).write_text(json.dumps(sets, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
