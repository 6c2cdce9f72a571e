"""Tests of the benchmark itself: each correctness check fires on a broken
input, and every metric BENCHMARK.json names is reported.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import (  # noqa: E402
    Tally,
    check_attribution,
    check_outputs,
    check_recorded_reference,
    check_warm_pass,
    overlapping_rounds,
)
from tracing import ROOT, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, make_unit, measure, setup_probe  # noqa: E402

from repro.api import RunSpec  # noqa: E402
from repro.sweep import ResultCache, run_sweep  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Small versions of the workloads: same code paths, a fraction of the work,
#: and names with no recorded reference.
TINY_TRAIN = dataclasses.replace(
    WORKLOADS["lm_sync"],
    name="tiny_train",
    spec=dict(WORKLOADS["lm_sync"].spec, cluster={"n_workers": 4},
              optimizer={"epochs": 2, "max_iterations_per_epoch": 3}),
    warm_passes=2,
)
TINY_SWEEP = dataclasses.replace(
    WORKLOADS["sweep_grid"],
    name="tiny_sweep",
    spec=dict(WORKLOADS["sweep_grid"].spec, cluster={"n_workers": 4},
              robustness={"n_byzantine": 1}, optimizer={"epochs": 1, "max_iterations_per_epoch": 2}),
    axes={"compression.sparsifier": ["deft", "topk"], "robustness.attack": ["none", "alie"]},
    cells=4,
    warm_passes=2,
)


def _deft_selections(n_workers=4):
    """Per-rank DEFT index sets of one real round."""
    from repro.comm.simulated import SimulatedBackend
    from repro.sparsifiers.base import GradientLayout
    from repro.sparsifiers.deft import DEFTSparsifier

    layout = GradientLayout.from_named_shapes([("a", (64, 8)), ("b", (64,)), ("c", (32, 16))])
    rng = np.random.default_rng(0)
    accs = [rng.standard_normal(layout.total_size) for _ in range(n_workers)]
    deft = DEFTSparsifier(0.1)
    deft.setup(layout, n_workers)
    deft.coordinate(0, accs, SimulatedBackend(n_workers))
    return [deft.select(0, rank, accs[rank]).indices for rank in range(n_workers)]


def test_disjointness_check_passes_deft_and_fires_on_overlapping_ranks():
    per_rank = _deft_selections()
    assert overlapping_rounds({"round": per_rank}) == []
    overlapping = [per_rank[0], np.concatenate([per_rank[1], per_rank[0][:1]])] + per_rank[2:]
    assert overlapping_rounds({"round": per_rank, "bad": overlapping}) == ["bad"]


class MissingCache(ResultCache):
    """A cache that stores results but never finds them."""

    def get(self, spec, key=None):
        return None


class CorruptCache(ResultCache):
    """A cache whose stored results come back with a changed loss."""

    def get(self, spec, key=None):
        result = super().get(spec, key=key)
        if result is not None:
            result.final_metrics["loss"] += 1.0
        return result


@pytest.mark.parametrize(
    "cache_cls, failures",
    [(ResultCache, []), (MissingCache, ["warm pass settled"]), (CorruptCache, ["warm pass results differ"])],
)
def test_warm_pass_check_fires_on_a_cache_that_misses(tmp_path, cache_cls, failures):
    spec = RunSpec.from_dict(dict(TINY_SWEEP.spec, seed=0)).resolve()
    cache = cache_cls(root=tmp_path)
    cold = run_sweep([spec], cache=cache)
    tally = Tally()
    check_warm_pass(tally, run_sweep([spec], cache=cache), [cold.results()[0].to_dict()], 1)
    assert tally.attempted == 2
    assert [f[: len(p)] for f, p in zip(tally.failures, failures)] == failures
    assert tally.failed == len(failures)


def test_output_check_fires_on_a_wrong_loss_or_traffic():
    reference = {"final_loss": 4.1234567, "sent_elements_per_round": 359.0}
    tally = Tally()
    check_outputs(tally, "same", dict(reference), reference)
    assert tally.failed == 0
    check_outputs(tally, "loss", dict(reference, final_loss=4.1234567 * (1 + 1e-6)), reference)
    check_outputs(tally, "traffic", dict(reference, sent_elements_per_round=360.0), reference)
    check_outputs(tally, "nan", dict(reference, final_loss=float("nan")), reference)
    assert [f.split(":")[0] for f in tally.failures] == ["loss", "traffic", "nan"]


def test_recorded_reference_is_reproduced(tmp_path):
    tally = Tally()
    outputs = make_unit(WORKLOADS["lm_sync"], 0, tmp_path, tally, calibrate=False)().outputs
    status = check_recorded_reference(tally, "lm_sync", 0, outputs)
    if status.startswith("skipped"):
        pytest.skip(f"recorded reference {status}")
    assert status.startswith("matched")
    assert tally.failures == []


def test_recorded_reference_says_what_it_checked(monkeypatch):
    recorded = json.loads(checks.REFERENCE_PATH.read_text())
    outputs = recorded["workloads"]["lm_sync"]["0"]
    wrong_loss = dict(outputs, final_loss=outputs["final_loss"] + 1.0)
    here = recorded["environment"]
    monkeypatch.setattr(checks, "environment", lambda: dict(here))
    tally = Tally()
    assert check_recorded_reference(tally, "lm_sync", 0, outputs).startswith("matched (final_loss and")
    assert check_recorded_reference(tally, "lm_sync", 0, wrong_loss).startswith("MISMATCHED")
    assert check_recorded_reference(tally, "lm_sync", 10_000, outputs).startswith("skipped: no entry")
    monkeypatch.setattr(checks, "environment", lambda: dict(here, python="0.0.0"))
    assert check_recorded_reference(tally, "lm_sync", 0, wrong_loss) == (
        "matched (sent_elements_per_round); final_loss skipped: recorded under another python"
    )
    monkeypatch.setattr(checks, "environment", lambda: dict(here, numpy="0.0.0"))
    assert check_recorded_reference(tally, "lm_sync", 0, wrong_loss).startswith("skipped: NumPy")
    assert tally.failed == 1 and tally.failures[0].startswith("recorded reference: final_loss")


def test_attribution_check_fires_on_a_double_counted_span():
    recorder = SpanRecorder()
    with recorder.span(ROOT):
        start = time.perf_counter()
        with recorder.span("models.forward"):
            time.sleep(0.002)
            with recorder.span("tensor.backward"):
                time.sleep(0.002)
        time.sleep(0.002)
        measured = time.perf_counter() - start
    tally = Tally()
    unattributed = check_attribution(tally, recorder, [measured])
    assert tally.failures == [] and 0.002 <= unattributed <= measured - 0.004
    forward = recorder.names.index("models.forward")
    for column in (recorder.names, recorder.starts, recorder.ends, recorder.parents):
        column.append(column[forward])
    check_attribution(tally, recorder, [measured])
    assert tally.failed == 1 and tally.failures[0].startswith("layer self times sum to")


def test_round_times_are_adjusted_by_the_ticks_around_them(monkeypatch):
    ref = hostspeed.REFERENCE_TICK_S
    # Clock readings: each round's end, then the end of the tick after it.
    readings = iter([0.0, 0.1, 1.0, 1.2, 3.0, 3.1])
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(readings))
    ticks = iter([ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(workloads, "tick", lambda: next(ticks))
    clock = workloads.RoundClock(calibrate=True)
    for iteration in range(3):
        clock({"iteration": iteration, "metrics": {"loss": 1.0}})
    assert clock.paused == pytest.approx([0.1, 0.2, 0.1])
    # Each round loses the tick before it and is divided by the mean
    # slowdown of the ticks on either side: 1.5, then 2.
    assert clock.intervals_ms(rounds_per_epoch=8) == pytest.approx([1e3 * 0.9 / 1.5, 1e3 * 1.8 / 2.0])


@pytest.mark.parametrize("workload", [TINY_TRAIN, TINY_SWEEP], ids=["train", "sweep"])
def test_every_benchmark_metric_is_reported(tmp_path, monkeypatch, workload):
    monkeypatch.setattr(workloads, "MIN_ROUNDS", 1)
    monkeypatch.setattr(workloads, "SETUP_PROBES", 0)
    tally = Tally()
    plain = measure(workload, 0, 0.0, False, tmp_path, tally)
    traced = measure(workload, 0, 0.0, True, tmp_path, tally)
    # The probe builds a named workload's task in a fresh interpreter.
    plain.probes = traced.probes = [setup_probe(WORKLOADS["lm_sync"], 0)]
    end_to_end = run.end_to_end(plain)
    per_layer = run.per_layer(traced, tally)
    assert tally.failures == []
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(per_layer) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert all(value > 0 for value, _ in end_to_end.values())
    assert per_layer["models.forward_s"][0] > 0 and per_layer["sparsifiers.k_ratio"][0] > 0


def test_benchmark_json_units_match_the_reported_units():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lm_sync", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
