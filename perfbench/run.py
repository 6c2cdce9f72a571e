"""Benchmark of the DEFT reproduction, run from the root of a checkout.

    python3 perfbench/run.py --workload lm_sync --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

One invocation measures one workload (``all`` runs each in its own
process).  With ``--trace 0`` it reports the end-to-end metrics, measured
untraced; with ``--trace 1`` the per-layer metrics of a separate traced
run.  Every metric is printed with its unit and sample count, then the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every correctness check passed.  Reports and span dumps are written under
``.bench_build/perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: Environment every measured process runs in, read at process start, so
#: the command re-executes itself with it.  One BLAS thread, because the
#: host's few cores are shared and a fixed thread count keeps float results
#: identical from run to run.  And glibc's mmap threshold held at its
#: initial value, 128 KiB: left alone, glibc raises it each time a larger
#: mapped block is freed, which differs from process to process, and
#: ``rec_wide`` runs 25-40% faster once it rises above that workload's
#: per-round temporaries.  Held, every process maps them fresh each round
#: (~495,000 minor page faults per run), and the cost of allocating stays
#: counted.
BENCH_ENV: Dict[str, str] = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": "131072",
}

#: name -> unit of the metrics reported with ``--trace 0``.
END_TO_END: Dict[str, str] = {
    "samples_per_s": "samples/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "sent_elements_per_round": "elements",
    "final_loss": "loss",
    "cells_per_s": "cells/s",
    "cached_cells_per_s": "cells/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COMM_OPS = ("allgather", "allreduce_rows", "allgather_rows", "broadcast", "push", "pull", "send")
COMM_TAGS = ("indices", "values", "deft-allocation", "ps-push", "ps-pull", "gossip")

#: name -> unit of the metrics reported with ``--trace 1``.  Seconds and
#: calls are per traced unit (one run, or one sweep repetition); seconds
#: are self time.  Sent elements are per round.
PER_LAYER: Dict[str, str] = {
    "cli.import_s": "s",
    "data.task_build_s": "s",
    "data.loader_wait_s": "s",
    "models.forward_s": "s",
    "models.forward_calls": "count",
    "tensor.backward_s": "s",
    "training.grad_flatten_s": "s",
    "training.ef_accumulate_s": "s",
    "training.ef_update_s": "s",
    "training.apply_update_s": "s",
    "training.exchange_self_s": "s",
    "training.evaluate_s": "s",
    "sparsifiers.select_s": "s",
    "sparsifiers.select_calls": "count",
    "sparsifiers.coordinate_s": "s",
    "sparsifiers.k_ratio": "ratio",
    **{f"comm.{op}_s": "s" for op in COMM_OPS},
    **{f"comm.{op}_calls": "count" for op in COMM_OPS},
    **{f"comm.sent_elements.{tag}": "elements" for tag in COMM_TAGS},
    "aggregators.aggregate_s": "s",
    "aggregators.aggregate_calls": "count",
    "attacks.corrupt_s": "s",
    "execution.self_s": "s",
    "api.resolve_s": "s",
    "api.trainer_build_s": "s",
    "sweep.cache_get_s": "s",
    "sweep.cache_put_s": "s",
    "sweep.spec_key_s": "s",
    "sweep.cache_hit_ratio": "ratio",
    "unattributed_s": "s",
    "trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}

#: Span names whose call counts are metrics.
COUNTED_SPANS = ("models.forward", "sparsifiers.select", "aggregators.aggregate") + tuple(
    f"comm.{op}" for op in COMM_OPS
)

Value = Tuple[float, int]  # (value, sample count)


def stamp() -> Dict[str, object]:
    """What a number depends on besides the code: never compare across stamps."""
    from checks import environment

    return {"nproc": len(os.sched_getaffinity(0)), **environment()}


def setup_seconds(probe: Dict[str, object]) -> float:
    """A probe's import and task-build seconds, adjusted by its ticks."""
    from hostspeed import slowdown

    return (probe["import_s"] + probe["task_build_s"]) / slowdown(probe["ticks"])


def end_to_end(measurement) -> Dict[str, Value]:
    """Every timing is adjusted for the host's speed by the ticks taken next
    to it (see ``hostspeed.py``).  Throughputs are pooled over the whole
    window: total work over total adjusted time.  Cache-served passes are
    short enough to be adjusted one by one.  Their rate is that of the pass
    at the fast tenth (the 9th decile of the passes' rates), as ``timeit``
    advises taking the fast end for short timings: a pass takes 0.3-10 ms,
    and bursts of them run faster or slower as a whole, by more than their
    ticks show."""
    plain, probes = measurement.plain, measurement.probes
    intervals = [ms for unit in plain for ms in unit.intervals_ms]
    deciles = statistics.quantiles(intervals, n=10, method="inclusive")
    seconds = sum(u.adjusted_seconds for u in plain)
    if measurement.cached_seconds:
        cached = [1.0 / s for s in measurement.cached_seconds]
    else:
        cached = [unit.runs / s for unit in plain for s in unit.warm_seconds]
    return {
        "samples_per_s": (sum(u.samples for u in plain) / seconds, len(plain)),
        "round_ms_p50": (deciles[4], len(intervals)),
        "round_ms_p90": (deciles[8], len(intervals)),
        "sent_elements_per_round": (plain[0].outputs["sent_elements_per_round"], len(plain)),
        "final_loss": (plain[0].outputs["final_loss"], len(plain)),
        "cells_per_s": (sum(u.runs for u in plain) / seconds, len(plain)),
        "cached_cells_per_s": (statistics.quantiles(cached, n=10, method="inclusive")[8], len(cached)),
        "setup_s": (statistics.median(setup_seconds(p) for p in probes), len(probes)),
        "peak_rss_mb": (measurement.peak_rss_mb, 1),
    }


def unadjusted(measurement) -> Dict[str, float]:
    """Throughputs and set-up time as the host's clock read them, and the
    host's mean slowdown: for the report, not compared."""
    from hostspeed import slowdown

    plain, probes = measurement.plain, measurement.probes
    ticks = [t for u in plain for t in u.ticks]
    return {
        "host_slowdown": slowdown(ticks) if ticks else 1.0,
        "samples_per_s": sum(u.samples for u in plain) / sum(u.seconds for u in plain),
        "setup_s": statistics.median(p["import_s"] + p["task_build_s"] for p in probes),
        "minor_faults_per_unit": statistics.median(u.minor_faults for u in plain),
    }


def per_layer(measurement, tally) -> Dict[str, Value]:
    from checks import check_attribution
    from tracing import ROOT as ROOT_SPAN
    from tracing import SPAN_NAMES

    traced, plain, calls = measurement.traced, measurement.plain, measurement.calls
    probes = measurement.probes
    recorder = measurement.recorder
    n = len(traced)
    self_times = recorder.self_times()
    unattributed = check_attribution(tally, recorder, measurement.traced_seconds)
    out: Dict[str, Value] = {
        "cli.import_s": (statistics.median(p["import_s"] for p in probes), len(probes)),
        "data.task_build_s": (statistics.median(p["task_build_s"] for p in probes), len(probes)),
        "unattributed_s": (unattributed / n, n),
    }
    for name in SPAN_NAMES:
        if name != ROOT_SPAN:
            out[f"{name}_s"] = (self_times.get(name, 0.0) / n, n)
    counts = recorder.calls()
    for name in COUNTED_SPANS:
        out[f"{name}_calls"] = (counts.get(name, 0) / n, n)
    rounds = sum(u.iterations for u in traced)
    for tag in COMM_TAGS:
        out[f"comm.sent_elements.{tag}"] = (sum(u.sent_by_tag.get(tag, 0) for u in traced) / rounds, n)
    out["sparsifiers.k_ratio"] = (calls.k_selected / calls.k_target if calls.k_target else 0.0, n)
    out["sweep.cache_hit_ratio"] = (calls.cache_hits / calls.cache_gets if calls.cache_gets else 0.0, n)
    out["trace_overhead_frac"] = (
        statistics.median(u.total_seconds for u in traced)
        / statistics.median(u.total_seconds for u in plain) - 1.0,
        n,
    )
    out["failed_frac"] = (tally.failed_frac, tally.attempted)
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from checks import Tally
    from workloads import WORKLOADS, measure

    workload = WORKLOADS[name]
    scratch = OUT / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    tally = Tally()
    try:
        measurement = measure(workload, seed, seconds, trace, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    raw = {}
    if trace:
        values, units = per_layer(measurement, tally), PER_LAYER
        measurement.recorder.write(OUT / f"spans-{name}-seed{seed}.json")
    else:
        values, units = end_to_end(measurement), END_TO_END
        raw = unadjusted(measurement)
    values = {metric: values[metric] for metric in units}

    info = stamp()
    print(f"# {name} seed={seed} trace={int(trace)} " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"# recorded reference: {measurement.reference_status}")
    for metric, (value, count) in values.items():
        print(f"{metric:32s} {value:>16.6g} {units[metric]:10s} n={count}")
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, (value, _) in values.items()},
    }
    report = dict(result, stamp=info, workload=name, seed=seed, trace=int(trace),
                  reference_status=measurement.reference_status,
                  samples={metric: count for metric, (_, count) in values.items()}, failures=tally.failures,
                  unadjusted=raw,
                  unit_seconds=[u.total_seconds for u in measurement.plain],
                  traced_unit_seconds=[u.total_seconds for u in measurement.traced])
    (OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own process (peak memory is per process)."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if not done.stdout.strip():
            return done.returncode or 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"] and done.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    OUT.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


def ensure_bench_env(script: str) -> None:
    """Re-execute ``script`` with this process's arguments under
    :data:`BENCH_ENV`, unless it already runs under it."""
    if any(os.environ.get(var) != value for var, value in BENCH_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(Path(script).resolve()), *sys.argv[1:]],
                  {**os.environ, **BENCH_ENV})


if __name__ == "__main__":
    ensure_bench_env(__file__)
    sys.exit(main())
