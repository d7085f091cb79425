"""xchain-sim benchmark: runs one workload as repeated samples, checks
every output and prints each metric by name with its unit.

    python3 perfbench/run.py --workload livelock_modp [--seed N] [--seconds 38] [--trace 0|1]

Run it from anywhere inside a checkout; it finds ``src/`` and
``scenarios/`` next to its own directory. Each sample is a fresh
single-threaded interpreter (``perfbench/sample.py``), so no sample
inherits another's module caches. Samples run in up to ``LANES`` lanes
at once, each lane pinned to a CPU of its own and starting its next
sample only after its previous one ended. A lane starts a sample while
it is expected to end within ``--seconds``, and until ``MIN_SAMPLES`` of
each kind have started; every time reported is the median over samples.

``--trace 0`` reports the end-to-end metrics of untraced samples:

  setup_s      s    spawn of the interpreter to the first World.run call
                    (imports, YAML parsing, world build, threshold keygen)
  run_s        s    first World.run call to the end of the workload,
                    output checks included
  ops_per_s    1/s  operations completed per second of run_s
  peak_rss_mb  MB   ru_maxrss of the sample's own process

Times are stated at one host speed: an untraced sample times a small
slice of fixed work every 0.2 s while it runs (``hostspeed.py``), its
times exclude the slices, and they are scaled by REFERENCE_S over the
slices' mean duration before the median is taken. The unscaled medians
are printed beside them.

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (see ``tracer.layer_metrics``), plus
``trace.overhead``: median traced run_s over median untraced run_s,
both unscaled (traced samples run no gauge).

Operations whose outcome is wrong are counted in the result's ``failed``
field (printed as ``failed_ops``); any failed check makes ``correct``
false and the exit code 1. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

MIN_SAMPLES = 2
# Times are stated at the host speed at which one hostspeed.work()
# slice takes this many seconds. The speed of a shared host drifts by
# 20% and more between runs; the slices drift with it, and the scaled
# times far less.
REFERENCE_S = 0.01
# Samples running at once, each pinned to its own CPU. On a shared host
# each CPU's speed drifts on its own, so two lanes give twice the
# samples per run, and two independent ones, at no cost to either.
LANES = 2
# Start no sample that could end after this many seconds of the run.
HARD_LIMIT_S = 165.0


@dataclass
class Sample:
    traced: bool
    wall_s: float
    cpu: Optional[int] = None
    record: Optional[dict] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.record is not None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        # without cached bytecode every sample's setup_s includes compiling src/
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "nproc": os.cpu_count(),
        "lanes_cpus": lane_cpus(),
        "cpu": cpu,
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
    }


def lane_cpus() -> List[Optional[int]]:
    """One CPU per lane; a single unpinned lane where affinity is not
    available."""
    if not hasattr(os, "sched_getaffinity"):
        return [None]
    return sorted(os.sched_getaffinity(0))[:LANES]


def run_sample(workload: str, seed: Optional[int], traced: bool, timeout: float,
               cpu: Optional[int] = None) -> Sample:
    """Run one sample, pinned to ``cpu`` when given."""
    cmd = [sys.executable, os.path.join(HERE, "sample.py"), "--workload", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if cpu is not None:
        cmd += ["--cpu", str(cpu)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return Sample(traced, time.monotonic() - spawned, cpu,
                      error=f"timed out after {timeout:.0f} s")
    sample = Sample(traced, time.monotonic() - spawned, cpu)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        tail = proc.stderr.strip().splitlines()[-5:]
        sample.error = f"exit {proc.returncode}: " + " | ".join(tail)
        return sample
    # the gauge's slices are not the program's time
    record["setup_s"] = record["first_run"] - spawned - record["gauge_setup_s"]
    record["run_s"] = record["end"] - record["first_run"] - record["gauge_run_s"]
    sample.record = record
    return sample


def collect(args) -> List[Sample]:
    """Run samples in every lane until the next one would end past
    ``--seconds`` and each kind has at least MIN_SAMPLES; traced runs
    alternate kinds."""
    samples: List[Sample] = []
    kinds = (False, True) if args.trace else (False,)
    started = dict.fromkeys(kinds, 0)
    lock = threading.Lock()
    start = time.monotonic()

    def next_kind() -> Optional[bool]:
        """The kind of the lane's next sample, or None to stop."""
        with lock:
            elapsed = time.monotonic() - start
            walls = [s.wall_s for s in samples]
            if min(started.values()) >= MIN_SAMPLES and elapsed + median(walls) > args.seconds:
                return None
            if elapsed + 1.5 * max(walls, default=0.0) > HARD_LIMIT_S:
                return None
            traced = min(kinds, key=lambda kind: (started[kind], kind))
            started[traced] += 1
            return traced

    def report(sample: Sample) -> None:
        with lock:
            samples.append(sample)
            label = "traced  " if sample.traced else "untraced"
            head = f"sample {len(samples):2d} cpu {sample.cpu} {label}"
            if sample.ok:
                r = sample.record
                print(f"{head} setup_s={r['setup_s']:.4f} run_s={r['run_s']:.4f} "
                      f"slice_s={r['slice_s']:.5f} ({r['slices']}) "
                      f"peak_rss_mb={r['peak_rss_mb']:.1f} "
                      f"failed={r['failed']}/{r['attempted']}", flush=True)
            else:
                print(f"{head} ERROR {sample.error}", flush=True)

    def lane(cpu: Optional[int]) -> None:
        try:
            while (traced := next_kind()) is not None:
                timeout = HARD_LIMIT_S - (time.monotonic() - start)
                report(run_sample(args.workload, args.seed, traced, timeout, cpu))
        except Exception as exc:  # a broken lane fails the run, not only its thread
            report(Sample(False, 0.0, cpu, error=f"lane stopped: {exc!r}"))
            raise

    threads = [threading.Thread(target=lane, args=(cpu,)) for cpu in lane_cpus()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def judge(samples: List[Sample], ops: int, trace: bool) -> Verdict:
    """Every check across the run's samples."""
    v = Verdict()
    for s in samples:
        if not s.ok:
            v.attempted += ops
            v.failed += ops
            v.problems.append(f"sample failed: {s.error}")
            continue
        r = s.record
        v.attempted += r["attempted"]
        v.failed += r["failed"]
        v.problems += r["problems"]
        if any(r["caches_at_start"].values()):
            v.problems.append(f"sample started with warm caches: {r['caches_at_start']}")
        if not s.traced and not r["slices"]:
            v.problems.append("untraced sample without a host-speed slice")
    good = [s.record for s in samples if s.ok]
    if len({r["trace_sha256"] for r in good}) > 1:
        v.problems.append("trace digests differ between samples (traced or not)")
    if len({json.dumps(r["counts"], sort_keys=True) for r in good}) > 1:
        v.problems.append("deterministic counts differ between samples")
    for kind in ((False, True) if trace else (False,)):
        if sum(1 for s in samples if s.ok and s.traced == kind) < MIN_SAMPLES:
            v.problems.append(f"fewer than {MIN_SAMPLES} good {'traced' if kind else 'untraced'} samples")
    return v


def varies(name: str, unit: str) -> bool:
    """Measured values vary between samples; counts must repeat exactly."""
    return unit in ("s", "1/s", "MB") or name.endswith((".self_share", ".overhead"))


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def scaled(record: dict, key: str) -> float:
    """A sample's time at the host speed REFERENCE_S stands for; the
    unscaled time if no slice ran, which ``judge`` reports as a problem."""
    if not record["slice_s"]:
        return record[key]
    return record[key] * REFERENCE_S / record["slice_s"]


def end_to_end(samples: List[Sample], ops: int) -> Dict[str, tuple]:
    rs = [s.record for s in samples if s.ok and not s.traced]
    return {
        "setup_s": (median([scaled(r, "setup_s") for r in rs]), "s"),
        "run_s": (median([scaled(r, "run_s") for r in rs]), "s"),
        "ops_per_s": (median([ops / scaled(r, "run_s") for r in rs]), "1/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in rs]), "MB"),
    }


def unscaled(samples: List[Sample]) -> Dict[str, float]:
    rs = [s.record for s in samples if s.ok and not s.traced]
    return {key: median([r[key] for r in rs]) for key in ("setup_s", "run_s", "slice_s")}


def per_layer(samples: List[Sample], verdict: Verdict) -> Dict[str, tuple]:
    traced = [s.record for s in samples if s.ok and s.traced]
    untraced = [s.record for s in samples if s.ok and not s.traced]
    out: Dict[str, tuple] = {}
    for name, (_, unit) in (traced[0]["layers"].items() if traced else ()):
        values = [r["layers"][name][0] for r in traced]
        if varies(name, unit):
            out[name] = (median(values), unit)
        else:
            if len(set(values)) > 1:
                verdict.problems.append(f"{name} differs between traced samples: {values}")
            out[name] = (values[0], unit)
    untraced_run = median([r["run_s"] for r in untraced])
    out["trace.overhead"] = (median([r["run_s"] for r in traced]) / untraced_run
                             if untraced_run else 0.0, "ratio")
    return out


def seed_arg(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**64:  # world ids encode the seed in 8 bytes
        raise argparse.ArgumentTypeError("seed must be in [0, 2**64)")
    return seed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=seed_arg, default=None,
                        help="workload seed (default: the scenario file's own seed)")
    parser.add_argument("--seconds", type=float, default=38.0,
                        help="start samples while the next is expected to end within this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "xchain", "__init__.py")):
        print(f"perfbench: no xchain sources under {ROOT}/src; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, workload.scenario)):
        print(f"perfbench: missing {workload.scenario}", file=sys.stderr)
        return 2

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    samples = collect(args)
    verdict = judge(samples, workload.ops, bool(args.trace))
    metrics = per_layer(samples, verdict) if args.trace else end_to_end(samples, workload.ops)

    good = [s.record for s in samples if s.ok]
    if good:
        print("counts " + json.dumps(good[0]["counts"]) + f" trace_sha256={good[0]['trace_sha256']}")
    n = sum(1 for s in samples if s.ok and s.traced == bool(args.trace))
    for name, (value, unit) in metrics.items():
        how = f"median of {n}" if varies(name, unit) else "exact"
        if unit in ("s", "1/s") and not name.endswith("self_s"):
            how += f", at reference {REFERENCE_S:g} s"
        print(f"{name:40s} {value:14.6g} {unit:8s} ({how})")
    untraced = sum(1 for s in samples if s.ok and not s.traced)
    if untraced:
        for name, value in unscaled(samples).items():
            print(f"{'unscaled ' + name:40s} {value:14.6g} {'s':8s} (median of {untraced} untraced)")
    share = verdict.failed / verdict.attempted if verdict.attempted else 0.0
    print(f"{'failed_ops':40s} {share:14.6g} {'share':8s} ({verdict.failed} of {verdict.attempted})")
    for problem in verdict.problems[:20]:
        print(f"problem: {problem}")

    correct = not verdict.problems and verdict.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
