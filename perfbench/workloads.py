"""The benchmark's workloads, and how one invocation measures one of them.

All load is a closed loop with one client: the next run (or sweep pass)
starts when the previous one returns.  Every input is generated from the
seed given on the command line; the program receives only the built task,
the run spec or the grid.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from checks import (
    Tally,
    check_cold_pass,
    check_outputs,
    check_recorded_reference,
    check_warm_pass,
    overlapping_rounds,
)
from hostspeed import slowdown, tick
from repro.api import RunSpec, Session
from repro.sparsifiers.deft import DEFTSparsifier
from repro.sweep import ResultCache, expand_grid, run_sweep
from tracing import ROOT, SpanRecorder, instrument

HERE = Path(__file__).resolve().parent

#: Round-time samples an untraced measurement needs at least.
MIN_ROUNDS = 100

#: Fresh interpreters started per invocation to time set-up; the median counts.
SETUP_PROBES = 5


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs."""

    name: str
    #: RunSpec dict of every run, without the seed.
    spec: dict
    #: ``RecommendationTask`` keyword arguments of a task the benchmark
    #: builds itself; ``None`` builds the spec's workload/scale preset.
    task: Optional[dict] = None
    #: Grid axes over ``spec``; ``None`` for a single-run workload.
    axes: Optional[dict] = None
    #: Cells ``expand_grid`` keeps of the grid.
    cells: int = 0
    #: Cache-served passes after each cold sweep pass, or cache-served reads
    #: after each run of a single-run workload.
    warm_passes: int = 30


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Forward and backward are ~85% of host time, selection ~6%: a
        # compute change shows here, a sparsifier change should not.
        Workload(
            name="lm_sync",
            spec={
                "workload": "lm",
                "scale": "smoke",
                "cluster": {"n_workers": 8, "straggler_profile": "lognormal"},
                "optimizer": {"epochs": 4},
                "compression": {"sparsifier": "deft", "density": 0.001},
                "robustness": {"aggregator": "mean"},
                "execution": {"model": "synchronous"},
            },
            warm_passes=20,
        ),
        # The paper's regime: 150,097 gradients and cheap compute, so
        # selection, error feedback and flattening outweigh forward and
        # backward, and DEFT's per-worker selection cost shows.
        Workload(
            name="rec_wide",
            spec={
                "workload": "rec",
                "scale": "repro",
                "cluster": {"n_workers": 16},
                "optimizer": {"epochs": 2, "max_iterations_per_epoch": 16},
                "compression": {"sparsifier": "deft", "density": 0.1},
                "execution": {"model": "synchronous"},
            },
            task={"num_users": 1024, "num_items": 2048, "interactions_per_user": 8, "eval_users": 64},
            warm_passes=20,
        ),
        # Many short runs: per-run set-up (resolve, plugin build, trainer
        # construction), every schedule, the robust aggregators and attacks,
        # and the result cache's write and read paths.
        Workload(
            name="sweep_grid",
            spec={
                "workload": "lm",
                "scale": "smoke",
                "cluster": {"n_workers": 8},
                "optimizer": {"epochs": 1, "max_iterations_per_epoch": 4},
                "robustness": {"n_byzantine": 2},
            },
            axes={
                "execution.model": ["synchronous", "async_bsp", "local_sgd", "gossip"],
                "compression.sparsifier": ["deft", "topk"],
                "robustness.aggregator": ["mean", "median", "krum"],
                "robustness.attack": ["none", "alie"],
            },
            cells=34,
        ),
    )
}


def build_task(workload: Workload, seed: int):
    """The workload's task, generated from ``seed``."""
    if workload.task is not None:
        from repro.training.tasks import RecommendationTask

        return RecommendationTask(seed=seed, **workload.task)
    from repro.experiments.config import make_task

    return make_task(workload.spec["workload"], scale=workload.spec["scale"], seed=seed)


# ---------------------------------------------------------------------- #
class RoundClock:
    """``round_complete`` hook: host time, iteration and loss of each round,
    then, when ``calibrate``, a host-speed tick (see ``hostspeed.py``)."""

    def __init__(self, calibrate: bool) -> None:
        self.calibrate = calibrate
        self.times: List[float] = []
        self.iterations: List[int] = []
        self.losses: List[float] = []
        self.ticks: List[float] = []
        #: Host seconds the run was held up by each tick.
        self.paused: List[float] = []

    def __call__(self, payload: dict) -> None:
        now = time.perf_counter()
        self.times.append(now)
        self.iterations.append(int(payload["iteration"]))
        self.losses.append(float(payload["metrics"]["loss"]))
        if self.calibrate:
            self.ticks.append(tick())
            self.paused.append(time.perf_counter() - now)

    def intervals_ms(self, rounds_per_epoch: int) -> List[float]:
        """Milliseconds between consecutive rounds of the same epoch.  With
        ticks, the tick between two rounds is taken off, and the rest is
        divided by the slowdown of the ticks before and after the round."""
        intervals = []
        for i in range(1, len(self.times)):
            if self.iterations[i] // rounds_per_epoch != self.iterations[i - 1] // rounds_per_epoch:
                continue
            seconds = self.times[i] - self.times[i - 1]
            if self.ticks:
                seconds = (seconds - self.paused[i - 1]) / slowdown(self.ticks[i - 1:i + 1])
            intervals.append(1e3 * seconds)
        return intervals


class _RoundClockSession(Session):
    """A Session attaching a fresh :class:`RoundClock` to every run."""

    def __init__(self, calibrate: bool) -> None:
        super().__init__()
        self.calibrate = calibrate
        self.clocks: List[RoundClock] = []

    def run(self, spec, **kwargs):
        clock = RoundClock(self.calibrate)
        self.clocks.append(clock)
        return super().run(spec, hooks={"round_complete": clock}, **kwargs)


T = TypeVar("T")


def timed_passes(count: int, do_pass: Callable[[], T], calibrate: bool) -> Tuple[List[float], List[T]]:
    """Host seconds and results of ``count`` calls of ``do_pass``.  When
    ``calibrate``, a tick is taken before the first call and after each,
    and each call's seconds are divided by the slowdown of its two ticks."""
    seconds, results = [], []
    ticks = [tick()] if calibrate else []
    for _ in range(count):
        start = time.perf_counter()
        results.append(do_pass())
        elapsed = time.perf_counter() - start
        if calibrate:
            ticks.append(tick())
            elapsed /= slowdown(ticks[-2:])
        seconds.append(elapsed)
    return seconds, results


@dataclass
class Unit:
    """One measured unit of work: a training run, or a sweep repetition.
    Its seconds do not include the ticks taken after its rounds."""

    #: Host seconds of the training runs (the cold pass of a sweep).
    seconds: float
    #: Host seconds of the whole unit, cache-served passes included.
    total_seconds: float
    samples: int
    iterations: int
    intervals_ms: List[float]
    #: Deterministic outputs: ``final_loss`` and ``sent_elements_per_round``.
    outputs: Dict[str, float]
    sent_by_tag: Dict[str, int]
    results: list
    runs: int = 1
    #: Host-speed ticks taken after the training rounds; empty when traced.
    ticks: List[float] = field(default_factory=list)
    #: Cache-served passes' seconds, each adjusted by its ticks unless traced.
    warm_seconds: List[float] = field(default_factory=list)
    #: Minor page faults of the process during the unit.
    minor_faults: int = 0

    @property
    def adjusted_seconds(self) -> float:
        """:attr:`seconds` divided by the host's slowdown during them."""
        return self.seconds / slowdown(self.ticks) if self.ticks else self.seconds

    @classmethod
    def of(cls, seconds: float, runs: List[Tuple[object, RoundClock]]) -> "Unit":
        """``seconds`` of the ``runs``, the time their ticks held them up included."""
        samples = iterations = sent = 0
        by_tag: Dict[str, int] = {}
        intervals: List[float] = []
        losses = []
        ticks: List[float] = []
        for result, clock in runs:
            seconds -= sum(clock.paused)
            spec = result.spec
            samples += result.iterations_run * spec.cluster.n_workers * spec.optimizer.batch_size
            iterations += result.iterations_run
            sent += result.traffic["total_sent_elements"]
            for tag, count in result.traffic["by_tag"].items():
                by_tag[tag] = by_tag.get(tag, 0) + count
            intervals += clock.intervals_ms(max(1, result.iterations_run // max(1, result.epochs_run)))
            losses.append(clock.losses[-1])
            ticks += clock.ticks
        outputs = {
            "final_loss": statistics.median(losses),
            "sent_elements_per_round": sent / iterations,
        }
        return cls(seconds, seconds, samples, iterations, intervals, outputs, by_tag,
                   [result for result, _ in runs], runs=len(runs), ticks=ticks)


def _train_unit(workload: Workload, seed: int, calibrate: bool) -> Callable[[], Unit]:
    session = _RoundClockSession(calibrate)
    task = build_task(workload, seed)
    spec = RunSpec.from_dict(dict(workload.spec, seed=seed))

    def run() -> Unit:
        start = time.perf_counter()
        result = session.run(spec, task=task)
        return Unit.of(time.perf_counter() - start, [(result, session.clocks.pop())])

    return run


def _sweep_unit(workload: Workload, seed: int, scratch: Path, tally: Tally,
                calibrate: bool) -> Callable[[], Unit]:
    specs = expand_grid({"base": dict(workload.spec, seed=seed), "axes": workload.axes}).specs
    tally.check(len(specs) == workload.cells, f"grid kept {len(specs)} cells, expected {workload.cells}")
    counter = itertools.count()

    def run() -> Unit:
        cache = ResultCache(root=scratch / f"cache-{next(counter)}")
        session = _RoundClockSession(calibrate)
        start = time.perf_counter()
        cold = run_sweep(specs, cache=cache, session=session)
        cold_seconds = time.perf_counter() - start
        check_cold_pass(tally, cold, len(specs))
        cold_results = [None if r is None else r.to_dict() for r in cold.results()]
        warm_seconds, warm_reports = timed_passes(
            workload.warm_passes, lambda: run_sweep(specs, cache=cache), calibrate)
        for warm in warm_reports:
            check_warm_pass(tally, warm, cold_results, len(specs))
        shutil.rmtree(cache.root)
        unit = Unit.of(cold_seconds, [(r, c) for r, c in zip(cold.results(), session.clocks) if r is not None])
        unit.total_seconds = unit.seconds + sum(warm_seconds)
        unit.warm_seconds = warm_seconds
        return unit

    return run


def make_unit(workload: Workload, seed: int, scratch: Path, tally: Tally,
              calibrate: bool) -> Callable[[], Unit]:
    """A callable doing one unit of ``workload``'s work per call; with
    ``calibrate``, taking host-speed ticks next to what it times."""
    if workload.axes is None:
        return _train_unit(workload, seed, calibrate)
    return _sweep_unit(workload, seed, scratch, tally, calibrate)


def cached_read_seconds(workload: Workload, result, scratch: Path, tally: Tally) -> List[float]:
    """Host seconds of ``run_sweep`` serving a single-run workload's spec
    from a result cache holding it, once per warm pass, each adjusted by
    the host-speed ticks before and after it."""
    cache = ResultCache(root=scratch / "cache-single")
    cache.put(result.spec, result)
    expected = [result.to_dict()]
    seconds, reports = timed_passes(
        workload.warm_passes, lambda: run_sweep([result.spec], cache=cache), calibrate=True)
    for warm in reports:
        check_warm_pass(tally, warm, expected, 1)
    shutil.rmtree(cache.root)
    return seconds


def setup_probe(workload: Workload, seed: int) -> Dict[str, float]:
    """Seconds a fresh interpreter takes to import ``repro.cli`` and to build
    the workload's task, and the ticks it took right after (see ``probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload.name, str(seed)],
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
        cwd=HERE.parent, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


class CallLog:
    """What the traced calls returned: selection sizes and cache hits."""

    def __init__(self) -> None:
        self.k_selected = 0
        self.k_target = 0
        #: ``(DEFT sparsifier, iteration)`` -> index arrays of its ranks.
        self.deft_rounds: Dict[tuple, list] = {}
        self.cache_gets = 0
        self.cache_hits = 0

    def __call__(self, span_name: str, args: tuple, result) -> None:
        if span_name == "sparsifiers.select":
            self.k_selected += result.k_selected
            self.k_target += result.target_k
            sparsifier, iteration = args[0], args[1]
            if isinstance(sparsifier, DEFTSparsifier):
                self.deft_rounds.setdefault((sparsifier, int(iteration)), []).append(result.indices)
        elif span_name == "sweep.cache_get":
            self.cache_gets += 1
            self.cache_hits += result is not None


@dataclass
class Measurement:
    """Everything one invocation measured of one workload."""

    plain: List[Unit]
    traced: List[Unit]
    recorder: SpanRecorder
    calls: CallLog
    #: Run times of the traced units, read inside their root spans.
    traced_seconds: List[float]
    cached_seconds: List[float]
    peak_rss_mb: float
    probes: List[Dict[str, float]]
    #: What was checked against ``reference.json``, see ``check_recorded_reference``.
    reference_status: str


def measure(workload: Workload, seed: int, seconds: float, trace: bool, scratch: Path,
            tally: Tally) -> Measurement:
    """Run ``workload`` in a closed loop for ``seconds``.

    A first unit warms caches and is not timed; its outputs are this
    seed's reference, which every later unit must reproduce, and which
    must match the reference recorded for the seed when there is one.
    Without ``trace`` every unit is untraced, and the loop runs on until
    it has ``MIN_ROUNDS`` round times.  With ``trace``, traced and
    untraced units alternate, and their time ratio is the tracing overhead.

    The host's speed drifts over tens of seconds, so the other samples are
    spread over the same time as the units: a set-up probe after each of
    the first ``SETUP_PROBES`` units, and cache-served reads after each
    untraced unit of a single-run workload.  Untraced, every timing is
    adjusted by host-speed ticks taken next to it (see ``hostspeed.py``);
    traced, no ticks are taken, so that traced and untraced units compare.
    """
    unit = make_unit(workload, seed, scratch, tally, calibrate=not trace)
    reference = unit()
    # Peak memory of building the task and running the workload once: the
    # heap keeps growing slowly over later runs, so a peak taken at the end
    # would grow with the number of runs that fit in the time.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference_status = check_recorded_reference(tally, workload.name, seed, reference.outputs)

    recorder = SpanRecorder()
    calls = CallLog()
    plain: List[Unit] = []
    traced: List[Unit] = []
    traced_seconds: List[float] = []
    cached: List[float] = []
    probes: List[Dict[str, float]] = []

    def enough() -> bool:
        if trace:
            return bool(plain) and bool(traced)
        return sum(len(u.intervals_ms) for u in plain) >= MIN_ROUNDS

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not enough():
        if trace and len(traced) < len(plain):
            with instrument(recorder, calls), recorder.span(ROOT):
                start = time.perf_counter()
                measured = unit()
                traced_seconds.append(time.perf_counter() - start)
            traced.append(measured)
        else:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            measured = unit()
            measured.minor_faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            plain.append(measured)
            if workload.axes is None and not trace:
                cached += cached_read_seconds(workload, reference.results[0], scratch, tally)
        check_outputs(tally, f"unit {len(plain) + len(traced)}", measured.outputs, reference.outputs)
        if len(probes) < SETUP_PROBES:
            probes.append(setup_probe(workload, seed))
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(workload, seed))

    overlapping = set(overlapping_rounds(calls.deft_rounds))
    for round_key in calls.deft_rounds:
        tally.check(
            round_key not in overlapping,
            f"DEFT ranks selected overlapping indices in iteration {round_key[1]}",
        )
    return Measurement(plain, traced, recorder, calls, traced_seconds, cached, peak_rss_mb, probes,
                       reference_status)
