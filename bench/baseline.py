"""Run every workload over several seeds and record the figures.

    python3 bench/baseline.py --label seed --seeds 0 1 2

Every workload of BENCHMARK.json runs for its run_seconds: once per seed
untraced, each in a fresh process, then once traced at the first seed.  The script prints every
end-to-end metric by name and unit for each workload, as the median over
the seeds with the quartile spread (q3 - q1) / median, plus the tracing
overhead: the traced run's requests_per_kref against the untraced median.
With --label it also writes bench/BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--label", help="write bench/BENCH_<label>.json")
    args = parser.parse_args(argv)

    record = {"python": platform.python_version(), "machine": platform.machine(),
              "seconds": BENCHMARK["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "end_to_end": {}}
        ok &= entry["correct"]
        print(f"{workload}: correct {entry['correct']}, requests {entry['attempted']}, "
              f"failed {entry['failed']}")
        for metric in BENCHMARK["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, spr = statistics.median(values), spread(values)
            entry["end_to_end"][name] = {"unit": metric["unit"], "median": med,
                                         "spread": spr, "values": values}
            flag = "" if spr <= metric["bound"] / 3 else "   (spread above a third of the bound)"
            print(f"  {name:20s} {med:12.6g} {metric['unit']:6s} spread {spr:6.1%}"
                  f" bound {metric['bound']:.0%}{flag}")
        traced = run_once(workload, args.seeds[0], 1)
        ok &= traced["correct"]
        untraced = entry["end_to_end"]["requests_per_kref"]["median"]
        rps = traced["metrics"]["trace.requests_per_kref"]["value"]
        entry["tracing_overhead"] = {"untraced_requests_per_kref": untraced,
                                     "traced_requests_per_kref": rps,
                                     "loss": 1 - rps / untraced}
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  tracing overhead: {untraced:.4g} -> {rps:.4g} req/kref "
              f"({1 - rps / untraced:.1%} fewer)")
        record["workloads"][workload] = entry
    if args.label:
        out = HERE / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
