"""Steadiness tool: run workloads repeatedly in fresh processes.

Usage, from the root of the repository::

    python3 perfbench/steady.py --runs 10 [--workloads epc_match ...]
        [--trace 0]

Each run is one ``perfbench/run.py`` process of ``run_seconds`` from
``BENCHMARK.json``, with seeds 1 to ``--runs``, run one after another so
that runs do not compete for the processor.  For every metric the tool
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median -- the spread a bound in ``BENCHMARK.json`` must exceed --
and, for the end-to-end metrics, that share against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def one_run(workload, seed, seconds, trace):
    """One fresh process; returns its result object."""
    output = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=900,
    )
    return json.loads(output.stdout.strip().splitlines()[-1])


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of the values."""
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        results = [
            one_run(workload, seed, spec["run_seconds"], args.trace)
            for seed in range(1, args.runs + 1)
        ]
        correct = all(r["correct"] for r in results)
        shares = {r["failed"] / r["attempted"] for r in results}
        print("%s: %d runs, correct=%s, failed share %s"
              % (workload, len(results), correct, sorted(shares)))
        print("  %-32s %12s %12s %12s %8s %8s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median, q1, q3, share = spread(values)
            bound = bounds.get(metric)
            print("  %-32s %12.5g %12.5g %12.5g %7.2f%% %8s%s" % (
                metric, median, q1, q3, 100 * share,
                "" if bound is None else "%.0f%%" % (100 * bound),
                "  WIDE" if bound and share > bound / 3 else "",
            ))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
