"""One benchmark sample: runs one workload once in this fresh interpreter
and prints its measurements as one JSON line.

    python3 perfbench/sample.py --workload livelock_modp [--seed N] [--trace] [--cpu N]

``perfbench/run.py`` starts one such process per sample, so that no
sample inherits another's module-level caches (``accounts.recover_digest``
and ``wire.tx_hash`` are ``lru_cache``d). Times are absolute
``time.monotonic()`` readings, which share one clock across processes
on the host; the parent subtracts its own spawn time to get set-up time.
An untraced sample runs a ``hostspeed.Gauge`` from the start of
``main()`` to the workload's end and reports the time its slices took.
"""

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from xchain import accounts, wire  # noqa: E402

import hostspeed  # noqa: E402
import tracer as layer_tracer  # noqa: E402
import workloads  # noqa: E402


def cache_state() -> dict:
    return {"recover_digest_hits": accounts.recover_digest.cache_info().hits,
            "tx_hash_hits": wire.tx_hash.cache_info().hits}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None, help="run pinned to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    workload = workloads.WORKLOADS[args.workload]

    caches_at_start = cache_state()
    tracer = None
    gauge = hostspeed.Gauge()
    if args.trace:
        # no gauge: its slices would count in whatever span they interrupt
        tracer = layer_tracer.Tracer()
        tracer.install()
    else:
        gauge.start()
    marks = {}
    workloads.first_call_hook(lambda: marks.setdefault("first_run", time.monotonic()))
    outcome = workloads.run(workload, ROOT, args.seed)
    end = time.monotonic()
    gauge.stop()
    first_run = marks.get("first_run", end)

    record = {
        "first_run": first_run,
        "end": end,
        # host-speed slices: their time in set-up and in the run, and their mean
        "gauge_setup_s": gauge.within(0.0, first_run),
        "gauge_run_s": gauge.within(first_run, end),
        "slice_s": gauge.slice_s(),
        "slices": len(gauge.slices),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "trace_sha256": outcome.trace_sha256,
        "counts": outcome.counts,
        "caches_at_start": caches_at_start,
        "cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }
    if tracer is not None:
        record["layers"] = layer_tracer.layer_metrics(
            tracer, outcome, end - tracer.installed_at)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
