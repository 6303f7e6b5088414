"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``point_read`` (HTTP point reads,
Zipf keys), ``analytic`` (in-process scans, reductions and a three-way
join) and ``txn_write`` (HTTP transactions on a durable database,
recovered after SIGKILL).  Every answer is checked.  The report prints
each metric with its unit and sample count; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
per-layer metrics (``--trace 1``, a separate traced run).

The program under test is the ``src`` tree next to this directory; the
command fails, printing no result, when it is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where runs keep durable directories and span dumps (removed on exit).
SCRATCH = ROOT / ".perfbench_tmp"

#: The metrics BENCHMARK.json gates, reported with --trace 0.
END_TO_END = ("setup_s", "paced_ops_per_s", "paced_mean_ms", "paced_p90_ms", "rss_p90_mb")
#: Every workload the command runs.  BENCHMARK.json gates analytic and
#: txn_write; point_read's figures swing by more than any bound
#: BENCHMARK.json may set whenever a busy host slows its server process,
#: so it runs on request only.
WORKLOADS = ("point_read", "analytic", "txn_write")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def line(name: str, value: float, unit: str, samples) -> str:
    count = "" if samples is None else f"  (n={samples})"
    return f"  {name:<34} {value:>14.6g} {unit}{count}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import layers
    import workloads

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    children = workloads.Children()
    try:
        outcome = workloads.RUNNERS[args.workload](
            args.seed, args.seconds, bool(args.trace), scratch, children)
    finally:
        children.reap()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}")
    for note in outcome.notes:
        print(f"  {note}")
    wanted = (END_TO_END if not args.trace
              else tuple(name for name, _, _ in layers.METRICS))
    missing = [name for name in wanted if name not in outcome.metrics]
    for name in missing:
        outcome.fail(f"metric {name} was not measured")
    print("metrics:")
    for name in wanted:
        if name in outcome.metrics:
            print(line(name, *outcome.metrics[name]))
    print("end-to-end figures reported, not gated:")
    print(line("failed_frac", outcome.failed / max(1, outcome.attempted), "ratio",
               outcome.attempted))
    for name, figure in outcome.extra.items():
        print(line(name, *figure))
    print(f"correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    for problem in outcome.problems:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name][0], "unit": outcome.metrics[name][1]}
            for name in wanted if name in outcome.metrics
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
