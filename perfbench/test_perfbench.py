"""Self-tests of the benchmark itself:

    python3 -m pytest perfbench -q

They check that samples do not share module caches and run pinned to
their lane's CPU, that the host-speed gauge times its slices apart from
the program and runs none of its code, that the tracer reaches every binding of the functions
it wraps without changing the trace, that BENCHMARK.json names exactly
the metrics the benchmark prints, and that the benchmark refuses to run
without the sources.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _python(code: str) -> dict:
    """Run code in a fresh interpreter with src/ and perfbench/ on the
    path; it prints one JSON line, returned here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_each_sample_starts_with_cold_caches():
    # In one interpreter a second run starts with warm lru caches...
    warm = _python("""
        import json
        from xchain import accounts, wire
        from xchain.scenario import Scenario
        scenario = Scenario.load("scenarios/atomic_swap.scn")
        scenario.run()
        print(json.dumps([accounts.recover_digest.cache_info().hits,
                          wire.tx_hash.cache_info().hits]))
    """)
    assert warm[0] > 0 and warm[1] > 0
    # ...so the benchmark starts each sample in a fresh interpreter,
    # one per lane, each pinned to its lane's CPU.
    for cpu in bench.lane_cpus():
        sample = bench.run_sample("livelock_modp", None, False, 120, cpu)
        assert sample.ok, sample.error
        assert sample.record["caches_at_start"] == {"recover_digest_hits": 0,
                                                    "tx_hash_hits": 0}
        assert sample.record["failed"] == 0
        if cpu is not None:
            assert sample.record["cpus"] == [cpu]


def test_tracer_rebinds_every_copy_and_detects_a_missed_one():
    result = _python("""
        import json
        import xchain.scenario
        from xchain import accounts, coordination, sidechain, wire
        from xchain.threshold import scheme
        import tracer
        t = tracer.Tracer()
        t.install()
        keccak = t.originals["hashing.keccak256"]
        copies = [m.keccak256 for m in (accounts, wire, coordination, sidechain, scheme)]
        rebound = all(c is not keccak for c in copies)
        rebound = rebound and wire.recover_digest is not t.originals["accounts.recover_digest"]
        wire.keccak256 = keccak
        try:
            t.check_coverage()
            detected = False
        except tracer.TracerCoverageError:
            detected = True
        print(json.dumps([rebound, detected]))
    """)
    assert result == [True, True]


def test_traced_run_keeps_the_trace_and_matches_benchmark_json():
    result = _python("""
        import json
        from xchain.scenario import Scenario
        import tracer, workloads
        scenario = Scenario.load("scenarios/atomic_swap.scn")
        plain = scenario.run().world.net.trace_lines()
        t = tracer.Tracer()
        t.install()
        traced = scenario.run()
        observer = workloads.Observer()
        observer.world(traced)
        layers = tracer.layer_metrics(t, observer.finish(), 1.0)
        print(json.dumps({
            "same": plain == traced.world.net.trace_lines(),
            "keccak_calls": layers["hashing.keccak256.calls"][0],
            "layers": {name: unit for name, (_, unit) in layers.items()},
        }))
    """)
    assert result["same"]
    assert result["keccak_calls"] > 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    printed = dict(result["layers"], **{"trace.overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == printed
    e2e = bench.end_to_end([], 1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_gauge_times_slices_and_runs_no_program_code():
    # No change to the program can move the slices the times are scaled
    # by, and the slices' time is told apart from the program's.
    result = _python("""
        import json, sys, time
        import hostspeed
        gauge = hostspeed.Gauge()
        gauge.start()
        begin = time.monotonic()
        while time.monotonic() - begin < 1.0:
            pass
        mid = time.monotonic()
        while time.monotonic() - mid < 0.5:
            pass
        gauge.stop()
        time.sleep(2 * hostspeed.PERIOD_S)
        print(json.dumps({
            "slices": len(gauge.slices),
            "parts": gauge.within(0.0, mid) + gauge.within(mid, time.monotonic()),
            "total": sum(took for _, took in gauge.slices),
            "slice_s": gauge.slice_s(),
            "xchain": sorted(m for m in sys.modules if m.split(".")[0] == "xchain"),
        }))
    """)
    assert result["xchain"] == []
    assert 3 <= result["slices"] <= 1.5 / hostspeed.PERIOD_S
    assert abs(result["parts"] - result["total"]) < 1e-9
    assert 0 < result["slice_s"] < hostspeed.PERIOD_S
    record = {"run_s": 6.0, "slice_s": 2 * bench.REFERENCE_S}
    assert bench.scaled(record, "run_s") == 3.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "livelock_modp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
