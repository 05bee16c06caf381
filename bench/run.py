"""The heckestab benchmark: one workload, one seed, one closed-loop caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload modules --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout in this process, so
cold caches and set-up are real; nothing runs in threads or subprocesses.
Set-up (import plus the workload's warm-up) is repeated the workload's
fixed ``setup_repeats`` times, on freshly imported modules, and its median
is ``setup_s``; only the first repeat is cold, the later ones re-execute
the package's modules from warm ``.pyc`` files.  Then whole passes of the
seeded job deck run until at least ``--seconds`` of timed work have been
done; each job is one timed call into the package followed by an untimed
oracle check.

With ``--trace 0`` the last line reports the end-to-end metrics;
``op_p50_ms`` and ``op_tail_ms`` are smoothed order statistics (see
``metrics.central`` and ``metrics.tail``), and the exact ones are in the
detail line.  With ``--trace 1`` two copies of the package run the same
deck side by side, op by op and in alternating order: one untraced, one
freshly imported and traced.  The last line reports the per-layer metrics
and ``trace.overhead_ratio``, the traced copy's timed time over the
untraced copy's; interleaving the ops lets host drift cancel out of it.
Both modes print a ``detail`` line before it with the output digest (a
hash of every op's canonical output), the tail percentile and its sample
count, and the failure ratio.  A traced run fails if its digest differs
from the untraced one, and writes its spans to ``.bench_out/``.

The ``battery`` workload runs ``verify_all(n_max=6)`` once and ignores
``--seconds``; one run takes over a minute, too long for the workloads
listed in BENCHMARK.json, so it is run by hand.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from metrics import central, tail
from tracer import Tracer
from workloads import BATTERY, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "heckestab"

clock = time.perf_counter


def fresh_import():
    """Import the package from scratch, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {SRC}")
    return pkg


def set_up(workload) -> tuple:
    """(package, set-up seconds)."""
    t0 = clock()
    pkg = fresh_import()
    workload.warm_up(pkg)
    return pkg, clock() - t0


def set_up_repeatedly(workload) -> tuple:
    """The last package, and the time of each set-up."""
    seconds = []
    for _ in range(workload.setup_repeats):
        pkg, dt = set_up(workload)
        seconds.append(dt)
    return pkg, seconds


class Lane:
    """One copy of the package running the deck, with its own results."""

    def __init__(self, pkg, name, tracer=None):
        self.pkg = pkg
        self.tracer = tracer
        self.dir = OUT / f"work-{os.getpid()}-{name}"  # for files ops write
        self.latencies = []
        self.digest = hashlib.sha256()
        self.failed = 0

    def run_op(self, workload, job, op) -> None:
        """One timed call and its oracle check, in the lane's directory."""
        os.chdir(self.dir)
        if self.tracer is not None:
            self.tracer.op = op
        pkg = self.pkg
        args = workload.prepare(pkg, job)
        t0 = clock()
        try:
            result = workload.call(pkg, args)
            raised = None
        except Exception as exc:  # an op that raises is a failed op
            raised = exc
        dt = clock() - t0
        if raised is None:
            try:
                ok, canonical = workload.check(pkg, job, result)
            except Exception as exc:  # output the oracle cannot read
                raised = exc
        if raised is not None:
            traceback.print_exception(raised, file=sys.stderr)
            ok, canonical = False, f"raised {type(raised).__name__}".encode()
        if not ok:
            self.failed += 1
            print(f"failed op {op}: {job!r}", file=sys.stderr)
        self.digest.update(len(canonical).to_bytes(8, "big") + canonical)
        self.latencies.append(dt)


@contextlib.contextmanager
def lane_dirs(lanes):
    """Each lane's private working directory under .bench_out."""
    here = os.getcwd()
    for lane in lanes:
        lane.dir.mkdir(parents=True, exist_ok=True)
    try:
        yield
    finally:
        os.chdir(here)
        for lane in lanes:
            shutil.rmtree(lane.dir, ignore_errors=True)


def run_stream(workload, lanes, seed, seconds) -> int:
    """Whole passes until the first lane has done ``seconds`` of timed work.

    Every lane runs every op of the deck before the next op starts, the
    lanes taking turns at going first.  Returns the number of passes.
    """
    rng = random.Random(seed)
    passes = 0
    with lane_dirs(lanes):
        while sum(lanes[0].latencies) < seconds:
            for i, job in enumerate(workload.pass_jobs(rng)):
                for lane in lanes if i % 2 == 0 else lanes[::-1]:
                    lane.run_op(workload, job, f"{passes}:{i}")
            passes += 1
    return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def latency_metrics(latencies, passes, setups) -> tuple:
    """End-to-end metrics, and the exact order statistics for the detail."""
    tail_value, tail_pct, beyond = tail(latencies, passes)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": metric(central(latencies) * 1e3, "ms"),
        "op_tail_ms": metric(tail_value * 1e3, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    detail = {
        "ops": len(latencies),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "exact_p50_ms": statistics.median(latencies) * 1e3,
        "exact_tail_ms": tail(latencies, passes, width=1)[0] * 1e3,
        "setup_samples_s": setups,
    }
    return metrics, detail


def measure(workload, seed, seconds) -> tuple:
    pkg, setups = set_up_repeatedly(workload)
    lane = Lane(pkg, "plain")
    passes = run_stream(workload, [lane], seed, seconds)
    metrics, detail = latency_metrics(lane.latencies, passes, setups)
    attempted = len(lane.latencies)
    detail.update(passes=passes, digest=lane.digest.hexdigest(),
                  fail_ratio=lane.failed / attempted)
    return lane.failed == 0, attempted, lane.failed, metrics, detail


def traced_package(tracer):
    pkg = fresh_import()
    tracer.install(PACKAGE)
    return pkg


def measure_traced(workload, seed, seconds) -> tuple:
    plain = Lane(set_up(workload)[0], "plain")
    tracer = Tracer()
    traced = Lane(traced_package(tracer), "traced", tracer)
    workload.warm_up(traced.pkg)
    passes = run_stream(workload, [plain, traced], seed, seconds)
    metrics = tracer.metrics(sum(traced.latencies) / sum(plain.latencies))
    digest, traced_digest = plain.digest.hexdigest(), traced.digest.hexdigest()
    failed = plain.failed + traced.failed
    attempted = len(plain.latencies) + len(traced.latencies)
    detail = {
        "passes": passes,
        "digest": digest,
        "traced_digest": traced_digest,
        "digests_match": digest == traced_digest,
        "fail_ratio": failed / attempted,
        **write_spans(tracer, workload.name, seed),
    }
    return failed == 0 and digest == traced_digest, attempted, failed, metrics, detail


def write_spans(tracer, name, seed) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{name}-{seed}.jsonl"
    tracer.write(path)
    return {"spans": len(tracer.spans), "trace_file": str(path.relative_to(ROOT))}


def run_battery(pkg) -> dict:
    result = BATTERY.run(pkg, clock)
    lines = result["canonical"].decode().splitlines()
    result["failed"] = 12 - sum(1 for line in lines[:12] if line.startswith("PASS"))
    return result


def battery_passes(result) -> list:
    """Seconds of the cold and the warm pass."""
    totals = [0.0, 0.0]
    for index, _name, seconds in result["timings"]:
        totals[index] += seconds
    return totals


def measure_battery(seed, seconds) -> tuple:
    pkg, setups = set_up_repeatedly(BATTERY)
    result = run_battery(pkg)
    metrics, detail = latency_metrics(result["latencies"], 1, setups)
    cold, warm = battery_passes(result)
    metrics["battery_cold_s"] = metric(cold, "s")
    metrics["battery_warm_s"] = metric(warm, "s")
    detail.update(digest=hashlib.sha256(result["canonical"]).hexdigest(),
                  fail_ratio=result["failed"] / 12, pass_s=result["passes"],
                  criteria=criterion_times(result))
    return result["ok"], 12, result["failed"], metrics, detail


def measure_battery_traced(seed, seconds) -> tuple:
    pkg, _ = set_up(BATTERY)
    plain = run_battery(pkg)
    tracer = Tracer()
    traced = run_battery(traced_package(tracer))
    # the two batteries run one after the other, so host drift is in this ratio
    metrics = tracer.metrics(sum(traced["latencies"]) / sum(plain["latencies"]))
    for name, (cold, warm) in criterion_times(traced).items():
        metrics[f"verify.{name}.cold_s"] = metric(cold, "s")
        metrics[f"verify.{name}.warm_s"] = metric(warm, "s")
    same = plain["canonical"] == traced["canonical"]
    failed = plain["failed"] + traced["failed"]
    detail = {
        "digest": hashlib.sha256(plain["canonical"]).hexdigest(),
        "traced_digest": hashlib.sha256(traced["canonical"]).hexdigest(),
        "digests_match": same,
        "fail_ratio": failed / 24,
        "criteria_untraced": criterion_times(plain),
        **write_spans(tracer, BATTERY.name, seed),
    }
    return plain["ok"] and traced["ok"] and same, 24, failed, metrics, detail


def criterion_times(result) -> dict:
    """{criterion: [cold, warm]} seconds, in battery order."""
    out: dict = {}
    for _index, name, seconds in result["timings"]:
        out.setdefault(name, []).append(seconds)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description="heckestab benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, BATTERY.name])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == BATTERY.name:
        runner = measure_battery_traced if args.trace else measure_battery
        correct, attempted, failed, metrics, detail = runner(args.seed, args.seconds)
    else:
        runner = measure_traced if args.trace else measure
        correct, attempted, failed, metrics, detail = runner(
            WORKLOADS[args.workload], args.seed, args.seconds
        )
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
