"""Multi-process collective backend over shared-memory tensors.

Drop-in replacement of :class:`~repro.comm.simulated.SimulatedBackend`
where the heavy row collectives and (optionally) the forward/backward
compute run on real OS worker processes.  The parent stages per-rank
tensors in shared-memory arenas, publishes a command through the seqlock
:class:`~repro.backends.shm.ControlBlock`, and each worker reduces its
own column shard in place -- tensors never cross a pipe.

Parity contract with the simulated oracle:

- Every operation records the *byte-identical*
  :class:`~repro.comm.traffic.TrafficMeter` entry the simulated backend
  would, so topology pricing, ledger traffic totals and the regression
  sentinel see no difference between backends.
- Lock-step reductions are *bit-identical*: numpy's axis-0 reductions are
  per-column independent (pairwise summation blocks only over the
  reduction axis), so worker ``p`` reducing columns ``[c0, c1)`` produces
  exactly the elements the single-process ``rows.sum(axis=0)`` would.
- Small heterogeneous payloads (index lists, broadcast objects, scalars)
  stay parent-side on the simulated code path: forking processes to move
  a handful of ``int64`` indices would cost more than it parallelises,
  and keeping them parent-side keeps them trivially bit-identical.

Workers are forked (never spawned): they inherit the arena mappings and
the bound model/task, so nothing is re-pickled per round, and they leave
through ``os._exit`` so no child ever runs the parent's cleanup paths.
The parent alone unlinks segments -- on ``close()``, at interpreter exit,
and from ``__del__`` as a last resort -- which is what keeps ``/dev/shm``
clean even when a worker is SIGKILLed mid-round (asserted in tests and by
the CI leak guard).
"""

from __future__ import annotations

import atexit
import copy
import multiprocessing
import os
import time
import traceback
import zlib
from time import perf_counter
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.shm import (
    OP_BARRIER,
    OP_REDUCE,
    OP_SHUTDOWN,
    ControlBlock,
    MailboxRing,
    SharedArena,
)
from repro.comm.backend import CollectiveBackend, ReduceOp
from repro.comm.simulated import _payload_size
from repro.comm.traffic import TrafficMeter

__all__ = ["MultiprocessBackend"]

#: ReduceOp <-> int encoding for the command header.
_ROP_CODES = {ReduceOp.SUM: 0, ReduceOp.MEAN: 1, ReduceOp.MAX: 2, ReduceOp.MIN: 3}
_ROP_FROM_CODE = {code: op for op, code in _ROP_CODES.items()}

#: Mailbox record kinds.
_MBOX_PUSH = 1
_MBOX_SEND = 2

_ACK_TIMEOUT_SECONDS = 60.0
_SHUTDOWN_TIMEOUT_SECONDS = 2.0
_POLL_SLEEP = 0.0002


def _tag_hash(tag: str) -> int:
    """Stable (hash-seed independent) int64 digest of a traffic tag."""
    return zlib.crc32(tag.encode("utf-8"))


def _shard(proc_index: int, n_procs: int, cols: int) -> Tuple[int, int]:
    """Column range ``[c0, c1)`` owned by one worker process."""
    c0 = proc_index * cols // n_procs
    c1 = (proc_index + 1) * cols // n_procs
    return c0, c1


def _reduce_rows(rows: np.ndarray, op: ReduceOp) -> np.ndarray:
    if op is ReduceOp.SUM:
        return rows.sum(axis=0)
    if op is ReduceOp.MEAN:
        return rows.mean(axis=0)
    if op is ReduceOp.MAX:
        return rows.max(axis=0)
    if op is ReduceOp.MIN:
        return rows.min(axis=0)
    raise ValueError(f"unsupported reduce op {op!r}")


class MultiprocessBackend(CollectiveBackend):
    """Real-process implementation of the collective metering interface.

    Parameters
    ----------
    n_workers:
        Number of *modelled* worker ranks (matches the training config).
    meter:
        Traffic meter shared with the trainer; created when omitted.
    procs:
        Number of OS worker processes.  Defaults to
        ``min(n_workers, os.cpu_count())`` -- ranks are sharded over
        processes, so ``procs`` may be smaller than ``n_workers``.
    capacity:
        Minimum per-rank arena width in elements; grown to the bound
        model's gradient size by :meth:`bind_compute`.  Oversize payloads
        fall back to the parent-side code path (counted in
        ``fallback_ops``) instead of failing.
    """

    name = "multiprocess"

    def __init__(
        self,
        n_workers: int,
        meter: Optional[TrafficMeter] = None,
        procs: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> None:
        super().__init__(n_workers)
        self.meter = meter if meter is not None else TrafficMeter()
        # repro: allow-hostenv(pool-size default only; an explicit procs spec field overrides it and spec_key drops procs for simulated runs)
        cpu = os.cpu_count() or 1
        if procs is None:
            procs = min(self.n_workers, cpu)
        if procs <= 0:
            raise ValueError("procs must be positive")
        self.procs = min(int(procs), self.n_workers)
        self.fallback_ops = 0
        self.shm_ops = 0
        #: Shutdown/unlink failures observed by ``close()``: arena close
        #: errors, pipe close errors and shutdown-publish failures.  They
        #: surface here (and in :meth:`mailbox_stats`) instead of vanishing
        #: in silent handlers.
        self.cleanup_errors = 0
        self._capacity_hint = int(capacity) if capacity else 0
        self._capacity = 0
        self._started = False
        self._closed = False
        # Fork is required: workers inherit arena mappings and the bound
        # model/task.  Without it the backend degrades to the parent-side
        # (simulated-identical) code path rather than failing the run.
        self._fork_ok = "fork" in multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork") if self._fork_ok else None
        self._processes: List[Any] = []
        self._pipes: List[Any] = []
        self._arenas: List[SharedArena] = []
        self._data: Optional[SharedArena] = None
        self._out: Optional[SharedArena] = None
        self._params: Optional[SharedArena] = None
        self._ctrl: Optional[ControlBlock] = None
        self._mailbox: Optional[MailboxRing] = None
        self._buf_index = 0
        self._mailbox_enqueued = 0
        self._mailbox_drained = 0
        self._mailbox_dropped = 0
        self._mailbox_pending = 0
        # Compute-offload bindings (set by the trainer when the model is
        # safe to evaluate in forked workers).
        self._model = None
        self._task = None
        self._n_gradients = 0
        self.supports_compute = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def bind_compute(self, model, task, n_gradients: int) -> None:
        """Attach the model/task workers will inherit for gradient jobs.

        Must be called before the first collective (workers fork on first
        use and inherit these objects).  Offload *safety* is the caller's
        judgement -- the trainer only binds models whose forward pass
        mutates no shared state (no batch-norm style buffers, no dropout).
        """
        if self._started:
            raise RuntimeError("bind_compute must precede the first collective")
        self._model = model
        self._task = task
        self._n_gradients = int(n_gradients)
        self._capacity_hint = max(self._capacity_hint, self._n_gradients)
        self.supports_compute = self._fork_ok and model is not None and task is not None

    def _ensure_started(self, min_capacity: int) -> bool:
        """Fork the worker pool on first use; ``False`` in degraded mode."""
        if self._started:
            return min_capacity <= self._capacity
        if self._closed or not self._fork_ok:
            return False
        self._capacity = max(self._capacity_hint, int(min_capacity), 16)
        n_rings = self.n_workers + 1  # one mailbox per rank + the server
        self._data = SharedArena("data", (2, self.n_workers, self._capacity))
        self._out = SharedArena("out", (self.n_workers, self._capacity))
        self._params = SharedArena("params", (self.n_workers, self._capacity))
        ctrl_arena = SharedArena(
            "ctrl", (ControlBlock.size_for(self.procs, n_rings),), dtype=np.int64
        )
        mbox_arena = SharedArena(
            "mbox", (n_rings, 256, MailboxRing.RECORD_FIELDS), dtype=np.int64
        )
        self._arenas = [self._data, self._out, self._params, ctrl_arena, mbox_arena]
        self._ctrl = ControlBlock(ctrl_arena.array, self.procs, n_rings)
        self._mailbox = MailboxRing(mbox_arena.array, self._ctrl)
        for proc_index in range(self.procs):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=self._worker_main,
                args=(proc_index, child_conn),
                daemon=True,
                name=f"repro-mp-worker-{proc_index}",
            )
            process.start()
            child_conn.close()
            self._processes.append(process)
            self._pipes.append(parent_conn)
        self._started = True
        atexit.register(self.close)
        return True

    def close(self) -> None:
        """Shut workers down and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._started and self._ctrl is not None:
                try:
                    seq = self._ctrl.publish(OP_SHUTDOWN)
                    deadline = time.monotonic() + _SHUTDOWN_TIMEOUT_SECONDS
                    while not self._ctrl.acked(seq) and time.monotonic() < deadline:
                        if not any(p.is_alive() for p in self._processes):
                            break
                        time.sleep(_POLL_SLEEP)
                except Exception:  # repro: isolation(shutdown publish is best-effort; failure is counted and workers are joined/terminated below)
                    self.cleanup_errors += 1
                for process in self._processes:
                    process.join(timeout=_SHUTDOWN_TIMEOUT_SECONDS)
                    if process.is_alive():
                        process.terminate()
                        process.join(timeout=_SHUTDOWN_TIMEOUT_SECONDS)
                for pipe in self._pipes:
                    try:
                        pipe.close()
                    except OSError:
                        self.cleanup_errors += 1
        finally:
            # Unlink unconditionally -- even after a worker crash or a
            # shutdown timeout the parent owns every segment.
            if self._mailbox is not None:
                self._mailbox_dropped = self._mailbox.dropped
                self._mailbox_pending = len(self._mailbox)
            for arena in self._arenas:
                if not arena.close():
                    self.cleanup_errors += 1
            self._arenas = []
            self._data = self._out = self._params = None
            self._ctrl = None
            self._mailbox = None
            self._processes = []
            self._pipes = []
            try:
                atexit.unregister(self.close)
            except Exception:  # repro: isolation(atexit machinery may already be torn down at interpreter exit; nothing leaks)
                pass

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:  # repro: isolation(GC finalizer; close() itself counts failures on cleanup_errors)
            pass

    # ------------------------------------------------------------------ #
    # Worker process
    # ------------------------------------------------------------------ #
    def _worker_main(self, proc_index: int, pipe) -> None:
        """Poll loop of one forked worker: seqlock commands + compute jobs."""
        last_seq = 0
        try:
            while True:
                command = self._ctrl.read_command(last_seq)
                if command is not None:
                    seq, opcode, rows, cols, rop_code, buf_index = command
                    last_seq = seq
                    if opcode == OP_SHUTDOWN:
                        self._ctrl.ack(proc_index, seq)
                        break
                    if opcode == OP_REDUCE:
                        self._worker_reduce(proc_index, rows, cols, rop_code, buf_index)
                    self._ctrl.ack(proc_index, seq)
                    continue
                if pipe.poll(0.0005):
                    try:
                        message = pipe.recv()
                    except EOFError:
                        break
                    if message is None:
                        break
                    self._worker_compute(message, pipe)
                    continue
                time.sleep(_POLL_SLEEP)
        except Exception:  # repro: isolation(worker crash is recorded via the control-block error flag and the traceback pipe)
            try:
                self._ctrl.flag_error(proc_index)
                pipe.send(("err", proc_index, traceback.format_exc()))
            except Exception:  # repro: isolation(parent pipe may already be gone; the error flag is the fallback signal)
                pass
        finally:
            # Skip every parent-inherited teardown path (atexit handlers,
            # arena finalizers): the parent owns all shared state.
            os._exit(0)

    def _worker_reduce(
        self, proc_index: int, rows: int, cols: int, rop_code: int, buf_index: int
    ) -> None:
        c0, c1 = _shard(proc_index, self.procs, cols)
        if c0 == c1:
            return
        block = self._data.array[buf_index, :rows, c0:c1]
        self._out.array[0, c0:c1] = _reduce_rows(block, _ROP_FROM_CODE[rop_code])

    def _worker_compute(self, message, pipe) -> None:
        kind, job_index, rank, params_row, batch = message
        if kind != "job":
            raise RuntimeError(f"unexpected worker message {kind!r}")
        from repro.execution.base import load_flat_parameters
        from repro.training.optimizers import flatten_gradients

        load_flat_parameters(
            self._model, self._params.array[params_row, : self._n_gradients]
        )
        start = perf_counter()
        self._model.zero_grad()
        loss = self._task.compute_loss(self._model, batch)
        loss.backward()
        flatten_gradients(self._model, out=self._out.array[job_index, : self._n_gradients])
        self._model.zero_grad()
        end = perf_counter()
        pipe.send(("done", job_index, float(loss.item()), start, end))

    # ------------------------------------------------------------------ #
    # Parent-side coordination
    # ------------------------------------------------------------------ #
    def _check_workers(self) -> None:
        # The error flag is checked before liveness: a worker that raised
        # flags, reports its traceback over the pipe, then exits -- the
        # traceback is strictly more useful than the exit code.
        if self._ctrl is not None and int(self._ctrl.errors.max()) != 0:
            detail = ""
            for pipe in self._pipes:
                try:
                    if pipe.poll(0):
                        message = pipe.recv()
                        if message and message[0] == "err":
                            detail = f"\n{message[2]}"
                except (EOFError, OSError):
                    continue
            raise RuntimeError(f"multiprocess backend worker raised{detail}")
        for index, process in enumerate(self._processes):
            if not process.is_alive():
                raise RuntimeError(
                    f"multiprocess backend worker {index} (pid {process.pid}) "
                    f"died with exitcode {process.exitcode}"
                )

    def _wait_acks(self, seq: int) -> None:
        deadline = time.monotonic() + _ACK_TIMEOUT_SECONDS
        while not self._ctrl.acked(seq):
            self._check_workers()
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"multiprocess backend timed out waiting for command {seq}"
                )
            time.sleep(_POLL_SLEEP)

    def _next_buffer(self) -> int:
        """Flip the double buffer; views returned from the *previous* data
        write stay valid across exactly one subsequent operation."""
        self._buf_index ^= 1
        return self._buf_index

    def _shm_reduce(self, rows: np.ndarray, op: ReduceOp) -> Optional[np.ndarray]:
        """Reduce ``(k, m)`` staged rows across workers; ``None`` on fallback."""
        k, m = int(rows.shape[0]), int(rows.shape[1])
        if m == 0:
            return rows.sum(axis=0) if op in (ReduceOp.SUM, ReduceOp.MEAN) else np.empty(0)
        if not self._ensure_started(m):
            return None
        buf = self._next_buffer()
        self._data.array[buf, :k, :m] = rows
        seq = self._ctrl.publish(
            OP_REDUCE, rows=k, cols=m, rop=_ROP_CODES[op], buf_index=buf
        )
        self._wait_acks(seq)
        self.shm_ops += 1
        return self._out.array[0, :m].copy()

    # ------------------------------------------------------------------ #
    # Collectives -- metering identical to SimulatedBackend
    # ------------------------------------------------------------------ #
    def allgather(self, buffers: Sequence[np.ndarray], tag: str = "") -> List[np.ndarray]:
        # Variable-length, dtype-heterogeneous payloads (index arrays):
        # parent-side, byte-identical to the simulated backend.
        self._check_ranks(buffers)
        arrays = [np.asarray(b) for b in buffers]
        gathered = np.concatenate([a.reshape(-1) for a in arrays]) if arrays else np.empty(0)
        sent = [int(a.size) for a in arrays]
        received = [int(gathered.size)] * self.n_workers
        self.meter.record("allgather", sent, received, tag=tag)
        return [gathered.copy() for _ in range(self.n_workers)]

    def allreduce(
        self,
        buffers: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        tag: str = "",
    ) -> List[np.ndarray]:
        self._check_ranks(buffers)
        arrays = [np.asarray(b) for b in buffers]
        shapes = {a.shape for a in arrays}
        if len(shapes) != 1:
            raise ValueError(f"allreduce requires equal shapes, got {sorted(map(str, shapes))}")
        shape = arrays[0].shape
        reduced = None
        if all(a.dtype == np.float64 for a in arrays):
            flat = np.stack([a.reshape(-1) for a in arrays], axis=0)
            reduced = self._shm_reduce(flat, op)
        if reduced is None:
            self.fallback_ops += 1
            reduced = self._reduce(arrays, op)
        else:
            reduced = reduced.reshape(shape)
        sent = [int(a.size) for a in arrays]
        received = [int(reduced.size)] * self.n_workers
        self.meter.record("allreduce", sent, received, tag=tag)
        return [reduced.copy() for _ in range(self.n_workers)]

    def allgather_rows(self, matrix: np.ndarray, tag: str = "") -> np.ndarray:
        rows = np.asarray(matrix)
        if rows.ndim != 2:
            raise ValueError(f"expected a (n_workers, m) matrix, got shape {rows.shape}")
        self._check_ranks(rows)
        m = int(rows.shape[1])
        self.meter.record(
            "allgather", [m] * self.n_workers, [m * self.n_workers] * self.n_workers, tag=tag
        )
        # Staging the rows in the shared arena *is* the gather: every
        # worker maps the same segment, so publishing the matrix makes it
        # visible to all ranks; the parent's aggregation reads the view.
        if rows.dtype == np.float64 and self._ensure_started(m) and m > 0:
            buf = self._next_buffer()
            self._data.array[buf, : self.n_workers, :m] = rows
            self.shm_ops += 1
            return self._data.array[buf, : self.n_workers, :m]
        if m > 0:
            self.fallback_ops += 1
        return rows

    def allreduce_rows(
        self, matrix: np.ndarray, op: ReduceOp = ReduceOp.SUM, tag: str = ""
    ) -> np.ndarray:
        rows = np.asarray(matrix)
        if rows.ndim != 2:
            raise ValueError(f"expected a (n_workers, m) matrix, got shape {rows.shape}")
        self._check_ranks(rows)
        reduced = self._shm_reduce(rows, op) if rows.dtype == np.float64 else None
        if reduced is None:
            self.fallback_ops += 1
            reduced = _reduce_rows(rows, op)
        m = int(rows.shape[1])
        self.meter.record(
            "allreduce", [m] * self.n_workers, [int(reduced.size)] * self.n_workers, tag=tag
        )
        return reduced

    def broadcast(self, value, root: int, tag: str = ""):
        if not 0 <= root < self.n_workers:
            raise ValueError(f"root {root} out of range for {self.n_workers} workers")
        size = _payload_size(value)
        sent = [0] * self.n_workers
        sent[root] = size
        received = [size] * self.n_workers
        self.meter.record("broadcast", sent, received, tag=tag)
        return [copy.deepcopy(value) for _ in range(self.n_workers)]

    def gather(self, buffers: Sequence[np.ndarray], root: int, tag: str = "") -> List[np.ndarray]:
        self._check_ranks(buffers)
        if not 0 <= root < self.n_workers:
            raise ValueError(f"root {root} out of range for {self.n_workers} workers")
        arrays = [np.asarray(b).copy() for b in buffers]
        sent = [int(a.size) for a in arrays]
        received = [0] * self.n_workers
        received[root] = int(sum(sent))
        self.meter.record("gather", sent, received, tag=tag)
        return arrays

    def reduce_scalar(self, values: Sequence[float], op: ReduceOp = ReduceOp.MEAN, tag: str = "") -> float:
        self._check_ranks(values)
        arr = np.asarray([float(v) for v in values], dtype=np.float64)
        self.meter.record("reduce_scalar", [1] * self.n_workers, [1] * self.n_workers, tag=tag)
        if op is ReduceOp.MEAN:
            return float(arr.mean())
        if op is ReduceOp.SUM:
            return float(arr.sum())
        if op is ReduceOp.MAX:
            return float(arr.max())
        if op is ReduceOp.MIN:
            return float(arr.min())
        raise ValueError(f"unsupported reduce op {op!r}")

    def barrier(self) -> None:
        """A real per-round barrier: all workers acknowledge one command."""
        if not self._started:
            return
        seq = self._ctrl.publish(OP_BARRIER)
        self._wait_acks(seq)

    # ------------------------------------------------------------------ #
    # Parameter-server / point-to-point traffic (bounded mailbox rings)
    # ------------------------------------------------------------------ #
    @property
    def _server_ring(self) -> int:
        return self.n_workers

    def _mailbox_append(self, ring: int, kind: int, peer: int, payload: int, tag: str) -> None:
        if self._mailbox is None and not self._ensure_started(0):
            return
        self._mailbox.append(ring, kind, peer, int(payload), _tag_hash(tag))
        self._mailbox_enqueued += 1

    def push(self, rank: int, payload: int, tag: str = "") -> None:
        if not 0 <= rank < self.n_workers:
            raise ValueError(f"rank {rank} out of range for {self.n_workers} workers")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        sent = [0] * self.n_workers
        sent[rank] = int(payload)
        self.meter.record("push", sent, [0] * self.n_workers, tag=tag, src=rank)
        self._mailbox_append(self._server_ring, _MBOX_PUSH, rank, payload, tag)

    def pull(self, rank: int, payload: int, tag: str = "") -> None:
        if not 0 <= rank < self.n_workers:
            raise ValueError(f"rank {rank} out of range for {self.n_workers} workers")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        received = [0] * self.n_workers
        received[rank] = int(payload)
        self.meter.record("pull", [0] * self.n_workers, received, tag=tag, dst=rank)
        # A pull means the server applied everything pushed so far before
        # answering: drain its mailbox ring (bounded staleness -- records
        # beyond the ring capacity were dropped oldest-first on append).
        if self._mailbox is not None:
            self._mailbox_drained += len(self._mailbox.drain(self._server_ring))

    def send(self, src: int, dst: int, payload: int, tag: str = "") -> None:
        for rank in (src, dst):
            if not 0 <= rank < self.n_workers:
                raise ValueError(f"rank {rank} out of range for {self.n_workers} workers")
        if src == dst:
            raise ValueError("send requires distinct src and dst ranks")
        if payload < 0:
            raise ValueError("payload must be non-negative")
        sent = [0] * self.n_workers
        sent[src] = int(payload)
        received = [0] * self.n_workers
        received[dst] = int(payload)
        self.meter.record("send", sent, received, tag=tag, src=src, dst=dst)
        self._mailbox_append(dst, _MBOX_SEND, src, payload, tag)

    def drain_mailbox(self, ring: int) -> List[Tuple[int, int, int, int]]:
        """Pending ``(kind, peer, payload, tag_hash)`` records of one ring."""
        if self._mailbox is None:
            return []
        records = self._mailbox.drain(ring)
        self._mailbox_drained += len(records)
        return records

    def mailbox_stats(self) -> dict:
        """Ring counters; snapshotted on close so they survive shutdown."""
        pending = len(self._mailbox) if self._mailbox is not None else self._mailbox_pending
        dropped = self._mailbox.dropped if self._mailbox is not None else self._mailbox_dropped
        return {
            "enqueued": self._mailbox_enqueued,
            "drained": self._mailbox_drained,
            "dropped": dropped,
            "pending": pending,
            "cleanup_errors": self.cleanup_errors,
        }

    # ------------------------------------------------------------------ #
    # Compute offload
    # ------------------------------------------------------------------ #
    def compute_gradients(self, jobs: Sequence[Tuple[int, Optional[np.ndarray], Any]]):
        """Evaluate ``(rank, params, batch)`` jobs on the worker pool.

        Returns one ``(loss, grad_flat, host_start, host_end)`` tuple per
        job, in job order.  ``params is None`` means "the bound model's
        current parameters" (the synchronous schedule, where every rank
        starts from the same weights); per-job parameter vectors are
        staged in their own arena rows.
        """
        if not self.supports_compute:
            raise RuntimeError("compute offload is not bound or not supported")
        if len(jobs) > self.n_workers:
            raise ValueError(f"at most {self.n_workers} jobs per round, got {len(jobs)}")
        if not self._ensure_started(self._n_gradients):
            raise RuntimeError("multiprocess backend could not start worker processes")
        from repro.execution.base import flatten_parameters

        shared_params = all(params is None for _, params, _ in jobs)
        if shared_params:
            self._params.array[0, : self._n_gradients] = flatten_parameters(self._model)
        for job_index, (rank, params, batch) in enumerate(jobs):
            params_row = 0 if shared_params else job_index
            if not shared_params:
                vector = flatten_parameters(self._model) if params is None else params
                self._params.array[job_index, : self._n_gradients] = vector
            pipe = self._pipes[job_index % self.procs]
            pipe.send(("job", job_index, int(rank), params_row, batch))
        results: List[Optional[Tuple[float, np.ndarray, float, float]]] = [None] * len(jobs)
        outstanding = len(jobs)
        deadline = time.monotonic() + _ACK_TIMEOUT_SECONDS
        while outstanding:
            progressed = False
            for pipe in self._pipes[: min(self.procs, len(jobs))]:
                try:
                    if not pipe.poll(0.0005):
                        continue
                    message = pipe.recv()
                except (EOFError, OSError):
                    self._check_workers()
                    raise RuntimeError("multiprocess backend lost a worker pipe")
                progressed = True
                if message[0] == "err":
                    raise RuntimeError(f"multiprocess backend worker raised\n{message[2]}")
                _, job_index, loss, start, end = message
                grad = self._out.array[job_index, : self._n_gradients].copy()
                results[job_index] = (loss, grad, start, end)
                outstanding -= 1
            if not progressed:
                self._check_workers()
                if time.monotonic() > deadline:
                    raise RuntimeError("multiprocess backend timed out waiting for gradients")
        return results
