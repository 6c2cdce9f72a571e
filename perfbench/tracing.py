"""Spans recorded from outside the program, around each layer's public calls.

:func:`instrument` replaces the public methods and functions listed in
:data:`LAYERS` with wrappers that open a span around every call, and puts
the originals back on exit.  The program itself is not changed: the
benchmark measures each layer by timing the calls into it.

A span has a name, a start, an end and a parent (the span open when it
began).  Spans are kept in memory in :class:`SpanRecorder` and written out
by :meth:`SpanRecorder.write` when the benchmark ends.  A layer's self time
is the time its spans cover minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Name of the root span the benchmark opens around each traced unit of
#: work (one ``Session.run``, or one sweep repetition).  Its self time is
#: the time no layer span covers: ``unattributed_s``.
ROOT = "run"

#: ``(module:Class or module, attribute, span name)``.  A class entry
#: wraps the attribute on the class and on every subclass that overrides it.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api.spec:RunSpec", "resolve", "api.resolve"),
    ("repro.training.trainer:DistributedTrainer", "__init__", "api.trainer_build"),
    ("repro.execution.base:ExecutionModel", "run", "execution.self"),
    ("repro.data.dataloader:DataLoader", "__iter__", "data.loader_wait"),
    ("repro.training.trainer:DistributedTrainer", "batch_gradients", "training.grad_flatten"),
    ("repro.training.tasks:Task", "compute_loss", "models.forward"),
    ("repro.tensor.tensor:Tensor", "backward", "tensor.backward"),
    ("repro.training.error_feedback:ErrorFeedbackMemory", "accumulate", "training.ef_accumulate"),
    ("repro.training.error_feedback:ErrorFeedbackMemory", "update", "training.ef_update"),
    ("repro.training.trainer:DistributedTrainer", "sparse_exchange", "training.exchange_self"),
    ("repro.training.optimizers:SGD", "apply_update", "training.apply_update"),
    ("repro.training.tasks:Task", "evaluate", "training.evaluate"),
    ("repro.sparsifiers.base:Sparsifier", "select", "sparsifiers.select"),
    ("repro.sparsifiers.base:Sparsifier", "coordinate", "sparsifiers.coordinate"),
    ("repro.aggregators.base:Aggregator", "aggregate", "aggregators.aggregate"),
    ("repro.aggregators.base:Aggregator", "aggregate_reduced", "aggregators.aggregate"),
    ("repro.attacks.base:Adversary", "corrupt_batch", "attacks.corrupt"),
    ("repro.attacks.base:Adversary", "corrupt_accumulator", "attacks.corrupt"),
    ("repro.attacks.base:Adversary", "corrupt_accumulators", "attacks.corrupt"),
    ("repro.comm.simulated:SimulatedBackend", "allgather", "comm.allgather"),
    ("repro.comm.simulated:SimulatedBackend", "allreduce_rows", "comm.allreduce_rows"),
    ("repro.comm.simulated:SimulatedBackend", "allgather_rows", "comm.allgather_rows"),
    ("repro.comm.simulated:SimulatedBackend", "broadcast", "comm.broadcast"),
    ("repro.comm.simulated:SimulatedBackend", "push", "comm.push"),
    ("repro.comm.simulated:SimulatedBackend", "pull", "comm.pull"),
    ("repro.comm.simulated:SimulatedBackend", "send", "comm.send"),
    ("repro.sweep.cache:ResultCache", "get", "sweep.cache_get"),
    ("repro.sweep.cache:ResultCache", "put", "sweep.cache_put"),
    # ResultCache.key_for looks spec_key up in its module on every call.
    ("repro.sweep.cache", "spec_key", "sweep.spec_key"),
)

#: Every span name a traced run can record, root included.
SPAN_NAMES: Tuple[str, ...] = (ROOT,) + tuple(dict.fromkeys(name for _, _, name in LAYERS))


class SpanRecorder:
    """In-memory span store: parallel lists, one entry per span."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._open: List[int] = []

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def innermost(self) -> Optional[str]:
        return self.names[self._open[-1]] if self._open else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # ------------------------------------------------------------------ #
    def self_times(self) -> Dict[str, float]:
        """Summed self time per span name."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals: Dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += self.ends[index] - self.starts[index] - child_time[index]
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(self.names)

    def covered_seconds(self) -> float:
        """Length of the union of the layer spans' intervals (root excluded)."""
        intervals = sorted((s, e) for n, s, e in zip(self.names, self.starts, self.ends) if n != ROOT)
        covered, reach = 0.0, float("-inf")
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        return covered

    def write(self, path) -> None:
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p}
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]
        with open(path, "w") as handle:
            json.dump({"spans": spans}, handle)


# ---------------------------------------------------------------------- #
def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def _owners(owner, attr: str) -> List[object]:
    """``owner`` itself, or the class and every subclass defining ``attr``."""
    if not isinstance(owner, type):
        return [owner]
    found, pending = [], [owner]
    while pending:
        cls = pending.pop()
        if attr in vars(cls) and cls not in found:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class _TimedIterator:
    """Iterator whose every ``next`` is a span (the time a step waits for data)."""

    def __init__(self, iterator, recorder: SpanRecorder, name: str) -> None:
        self._iterator = iterator
        self._recorder = recorder
        self._name = name

    def __iter__(self):
        return self

    def __next__(self):
        index = self._recorder.begin(self._name)
        try:
            return next(self._iterator)
        finally:
            self._recorder.end(index)


def _wrap(fn: Callable, recorder: SpanRecorder, name: str, on_result) -> Callable:
    if name == "data.loader_wait":
        @functools.wraps(fn)
        def iterate(*args, **kwargs):
            return _TimedIterator(fn(*args, **kwargs), recorder, name)
        return iterate

    @functools.wraps(fn)
    def call(*args, **kwargs):
        # An override calling its base implementation is one span, not two.
        if recorder.innermost() == name:
            return fn(*args, **kwargs)
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if on_result is not None:
            on_result(name, args, result)
        return result

    return call


@contextmanager
def instrument(recorder: SpanRecorder, on_result=None) -> Iterator[None]:
    """Wrap every :data:`LAYERS` entry for the duration of the block.

    ``on_result(span_name, args, result)`` is called after each wrapped
    call returns, outside its span.
    """
    from repro.plugins import load_builtin_components

    load_builtin_components()  # registers every subclass that may override
    patched = []
    try:
        for target, attr, name in LAYERS:
            for owner in _owners(_resolve(target), attr):
                original = vars(owner)[attr]
                patched.append((owner, attr, original))
                setattr(owner, attr, _wrap(original, recorder, name, on_result))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
