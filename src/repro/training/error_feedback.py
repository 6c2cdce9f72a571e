"""Error-feedback memory (Seide et al., 2014).

Each worker keeps a local error vector ``e`` of the same length as the flat
gradient.  Per iteration (Algorithm 1, lines 5, 11, 12):

- ``acc = e + lr * grad`` -- unselected gradients from previous iterations
  are added back before selection,
- after the globally selected indices are known, those entries of ``acc``
  are zeroed (they were transmitted) and the remainder becomes the new ``e``.

The memory owns two vectors, the error and an accumulator buffer, allocated
once.  ``accumulate`` writes ``acc`` into the buffer in place and ``update``
swaps the two, so a round allocates no ``n_gradients``-sized array.  The
returned accumulator is therefore valid for one round only: the next
``accumulate`` overwrites it.

The L2 norm of ``e`` averaged over workers is the "error" metric of
Figures 5 and 6.
"""

from __future__ import annotations


import numpy as np

__all__ = ["ErrorFeedbackMemory"]


class ErrorFeedbackMemory:
    """Per-worker error-feedback accumulator."""

    def __init__(self, n_gradients: int, dtype=np.float64) -> None:
        if n_gradients <= 0:
            raise ValueError("n_gradients must be positive")
        self.n_gradients = int(n_gradients)
        self.error = np.zeros(self.n_gradients, dtype=dtype)
        self._acc = np.empty_like(self.error)

    def accumulate(self, grad_flat: np.ndarray, lr: float) -> np.ndarray:
        """Return ``acc = e + lr * grad`` (does not modify the stored error).

        The result is the memory's own buffer, overwritten by the next call.
        """
        grad_flat = np.asarray(grad_flat, dtype=self.error.dtype).reshape(-1)
        if grad_flat.size != self.n_gradients:
            raise ValueError(
                f"gradient has {grad_flat.size} elements, expected {self.n_gradients}"
            )
        acc = self._acc
        np.multiply(lr, grad_flat, out=acc)
        np.add(self.error, acc, out=acc)
        return acc

    def update(self, acc: np.ndarray, selected_indices: np.ndarray) -> None:
        """Zero the transmitted entries of ``acc`` and store it as the new error.

        The memory's own buffer (what :meth:`accumulate` returned) becomes
        the error by a swap; any other array is copied.
        """
        if acc is self._acc:
            self.error, self._acc = acc, self.error
        else:
            acc = np.asarray(acc, dtype=self.error.dtype).reshape(-1)
            if acc.size != self.n_gradients:
                raise ValueError(f"accumulator has {acc.size} elements, expected {self.n_gradients}")
            np.copyto(self.error, acc)
        if selected_indices is not None and len(selected_indices):
            self.error[np.asarray(selected_indices, dtype=np.int64)] = 0.0

    def error_norm(self, ord: int = 2) -> float:
        """Norm of the stored error (the per-worker term of Eq. 2)."""
        return float(np.linalg.norm(self.error, ord=ord))

    def reset(self) -> None:
        """Clear the accumulated error."""
        self.error[:] = 0.0
