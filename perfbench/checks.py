"""Output correctness checks of the benchmark.

Every check is counted in a :class:`Tally`: each one attempted, and each
one failed with its message.  A failure makes ``failed_frac`` non-zero,
turns the result's ``correct`` false and the command's exit code non-zero.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path
from typing import Dict, Hashable, Iterable, List, Sequence

import numpy as np
from tracing import ROOT, SpanRecorder

#: Losses recorded for a seed by this benchmark, see ``record_reference.py``.
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Relative tolerance of "equal to rounding": float64 values that went
#: through the same arithmetic in the same order agree to this.
SAME_RUN_REL_TOL = 1e-9

#: Relative tolerance against the recorded reference: the model is float32,
#: and a BLAS build or kernel may round its last bits differently.
REFERENCE_REL_TOL = 1e-6


#: Rounding of one span's duration: the clock reads ~1e6 s at most, whose
#: float64 spacing is ~1e-10 s.
CLOCK_ROUNDING_S = 1e-9


class Tally:
    """Attempted and failed operations and checks, with failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def close(value: float, expected: float, rel_tol: float) -> bool:
    return math.isfinite(value) and math.isclose(value, expected, rel_tol=rel_tol, abs_tol=0.0)


def check_outputs(tally: Tally, label: str, outputs: Dict[str, float], reference: Dict[str, float],
                  rel_tol: float = SAME_RUN_REL_TOL, loss: bool = True) -> bool:
    """``final_loss`` equal to rounding (unless not ``loss``) and
    ``sent_elements_per_round`` exactly; true when every check passed."""
    ok = True
    if loss:
        ok = tally.check(
            close(outputs["final_loss"], reference["final_loss"], rel_tol),
            f"{label}: final_loss {outputs['final_loss']!r} != reference {reference['final_loss']!r}",
        )
    return tally.check(
        outputs["sent_elements_per_round"] == reference["sent_elements_per_round"],
        f"{label}: sent_elements_per_round {outputs['sent_elements_per_round']!r} "
        f"!= reference {reference['sent_elements_per_round']!r}",
    ) and ok


def environment() -> Dict[str, str]:
    """What a recorded reference depends on besides the code and the seed:
    the interpreter, NumPy, and the instruction set NumPy and its BLAS
    dispatch on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_features": ",".join(sorted(name for name, found in features.items() if found)),
    }


def check_recorded_reference(tally: Tally, workload: str, seed: int, outputs: Dict[str, float]) -> str:
    """Hold ``outputs`` to the ones recorded in ``reference.json`` for
    ``workload`` at ``seed``, as far as this :func:`environment` allows, and
    say what was checked.

    Under the recorded environment both outputs are checked.  Under the
    recorded NumPy but another interpreter or instruction set, the float
    rounding of ``final_loss`` may differ, so only the traffic count is
    held.  Under another NumPy, or for a seed without an entry, nothing is.
    """
    data = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.is_file() else {}
    recorded = data.get("workloads", {}).get(workload, {}).get(str(seed))
    if recorded is None:
        return f"skipped: no entry for {workload} seed {seed}"
    here, then = environment(), data["environment"]
    if here["numpy"] != then["numpy"]:
        return f"skipped: NumPy {here['numpy']} here, {then['numpy']} recorded"
    differs = [key for key in then if then[key] != here[key]]
    ok = check_outputs(tally, "recorded reference", outputs, recorded, REFERENCE_REL_TOL, loss=not differs)
    checked = "sent_elements_per_round" if differs else "final_loss and sent_elements_per_round"
    status = f"{'matched' if ok else 'MISMATCHED'} ({checked})"
    if differs:
        status += f"; final_loss skipped: recorded under another {', '.join(differs)}"
    return status


def check_attribution(tally: Tally, recorder: SpanRecorder, measured_seconds: Sequence[float]) -> float:
    """Seconds of the traced units no layer span covers: ``unattributed_s``.

    ``measured_seconds`` are the traced units' run times, read off the clock
    inside the root spans, not taken from the recorder.  The layers' self
    times must add up to the time their spans cover, worked out as the union
    of their intervals without the parent links (a span counted twice, or a
    child not taken off its parent, breaks this), and that time must fit in
    the measured run time.
    """
    layers = sum(t for name, t in recorder.self_times().items() if name != ROOT)
    covered = recorder.covered_seconds()
    measured = sum(measured_seconds)
    tally.check(
        math.isclose(layers, covered, rel_tol=0.0, abs_tol=CLOCK_ROUNDING_S * len(recorder.names)),
        f"layer self times sum to {layers!r} s, their spans cover {covered!r} s",
    )
    tally.check(covered <= measured, f"layer spans cover {covered!r} s of {measured!r} s measured")
    return measured - layers


def overlapping_rounds(selections: Dict[Hashable, Sequence[np.ndarray]]) -> List[Hashable]:
    """Rounds whose per-rank index sets are not pairwise disjoint.

    ``selections`` maps a round to the index arrays its ranks selected.
    Sets are pairwise disjoint exactly when their union is as large as the
    sum of their sizes: DEFT's no-build-up property.
    """
    bad = []
    for round_key, per_rank in selections.items():
        arrays = [np.unique(np.asarray(a, dtype=np.int64)) for a in per_rank]
        total = sum(a.size for a in arrays)
        union = np.unique(np.concatenate(arrays)).size if arrays else 0
        if union != total:
            bad.append(round_key)
    return bad


def check_cold_pass(tally: Tally, report, cells: int) -> None:
    """Every cell of a cold sweep ran, none errored."""
    for outcome in report.outcomes:
        tally.check(outcome.ok, f"cell {outcome.index} errored: {outcome.error}")
    tally.check(
        report.counts() == {"run": cells, "cache": 0, "error": 0},
        f"cold pass settled {report.counts()}, expected {cells} runs",
    )


def check_warm_pass(tally: Tally, warm, cold_results: Iterable[dict], cells: int) -> None:
    """A warm sweep settles every cell from the cache, runs nothing, and
    returns the cold pass's results."""
    tally.check(
        warm.counts() == {"run": 0, "cache": cells, "error": 0},
        f"warm pass settled {warm.counts()}, expected {cells} cache hits",
    )
    warm_results = [None if r is None else r.to_dict() for r in warm.results()]
    tally.check(warm_results == list(cold_results), "warm pass results differ from the cold pass")
