"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload door_publish --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` plays the workload twice, untraced and then traced, for
half the seconds each, and prints the per-layer metrics of the traced
half (see ``spans.py``); its spans are written to ``.perfbench/``.
The last line of standard output is the result object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

An output check that fails stops the run with a non-zero exit and no
result.  The program under test is imported from ``src/`` before any
clock starts; without it the command fails the same way.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import json  # noqa: E402

import spans  # noqa: E402
from timing import Timer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
TRACE_DIR = ".perfbench"
# Set-up time is the median of at least this many fresh set-ups.
SETUPS = 3


def pin_to_one_cpu():
    """Keep this process and its threads on one processor.

    The program is bound by the interpreter lock, so it never computes
    on two processors at once; spread over two, every lock hand-off
    between the thread-pool workers it starts per call becomes a
    cross-processor wake-up, whose cost depends on what else the
    machine runs.  Unpinned, the median ``door_ingest`` operation of
    ten seeds took 11.6 ms in one set and 19.6 ms in the next.  Pinned,
    the benchmark leaves that hand-off cost out (see the README).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(workload, seconds, min_setups=1, tracer=None):
    """One closed-loop run; returns ``(timer, virtual figures)``."""
    timer = Timer(min_setups=min_setups, tracer=tracer)
    figures = workload.run(timer, seconds)
    return timer, figures


def result_line(timer, metrics, units):
    """The result object; a run that gets here passed every check."""
    return json.dumps({
        "correct": True,
        "attempted": timer.attempted,
        "failed": timer.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    workload = WORKLOADS[args.workload](args.seed)
    if not args.trace:
        timer, _figures = measure(workload, args.seconds, SETUPS)
        print(result_line(timer, timer.summary(), END_TO_END_UNITS))
        return 0

    plain, _figures = measure(workload, args.seconds / 2)
    tracer = spans.Tracer(getattr(workload, "root_layer", "bench"))
    with spans.installed(tracer):
        traced, figures = measure(workload, args.seconds / 2,
                                  tracer=tracer)
    metrics = spans.per_layer(tracer, traced, plain, figures)
    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.write(os.path.join(
        TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed)
    ))
    print(result_line(traced, metrics, spans.PER_LAYER_UNITS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
