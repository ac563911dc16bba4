"""Tensor algebra for small composite quantum registers.

States and operators carry an explicit tuple of subsystem dimensions
(leftmost factor is the most significant index). Everything is plain
``numpy`` underneath; arrays are defensively copied and frozen on
construction. Operators store their nonzero entries, so a sparse
operator on a large register costs memory in its nonzeros, not in the
square of its side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadSubsystemIndexError,
    NotHermitianError,
    NotNormalizedError,
)

__all__ = [
    "StateVector",
    "OperatorMatrix",
    "kron",
    "eigh",
    "partial_trace",
    "outer",
    "identity",
]

_HERMITIAN_TOL = 1e-12  # largest max|M - M^dag| / max|M| of a Hermitian M
_NORM_TOL = 1e-12  # largest |<psi|psi> - 1| that StateVector.is_normalized accepts
_OUTER_NORM_TOL = 1e-9  # largest |<psi|psi> - 1| that outer accepts


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("dims must name at least one subsystem")
    if any(d < 1 for d in out):
        raise ValueError(f"subsystem dimensions must be >= 1, got {out}")
    return out


@dataclass(frozen=True)
class StateVector:
    """Pure state amplitudes over a composite register.

    Parameters
    ----------
    dims:
        Subsystem dimensions, most significant first.
    amplitudes:
        Complex vector of length ``prod(dims)``.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        expected = int(np.prod(dims))
        if amps.size != expected:
            raise ValueError(
                f"amplitude length {amps.size} does not match dims {dims}"
                f" (expected {expected})"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm**2 - 1.0) <= _NORM_TOL


class OperatorMatrix:
    """Square operator over a composite register, stored as its nonzeros.

    The nonzero entries are kept as triplets: entry ``(rows[k], cols[k])``
    is ``values[k]``, sorted by row and then by column, each position at
    most once. ``entries``, the dense complex matrix whose side equals
    ``prod(dims)``, is built on its first read and kept; ``dims``,
    ``side`` and the methods below never build it. Instances and their
    arrays are read-only.
    """

    __slots__ = ("dims", "side", "rows", "cols", "values", "_entries")

    def __init__(self, dims: Sequence[int], entries: np.ndarray) -> None:
        dims = _check_dims(dims)
        mat = np.array(entries, dtype=complex)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(
                f"entries shape {mat.shape} does not match dims {dims}"
                f" (expected {(side, side)})"
            )
        rows, cols = np.nonzero(mat)
        self._freeze(dims, side, rows, cols, mat[rows, cols], mat)

    @classmethod
    def from_triplets(
        cls,
        dims: Sequence[int],
        rows: Sequence[int],
        cols: Sequence[int],
        values: Sequence[complex],
    ) -> "OperatorMatrix":
        """Operator whose entry ``(rows[k], cols[k])`` is ``values[k]``.

        Every other entry is zero; zero values are dropped. A position
        may be given once.
        """
        dims = _check_dims(dims)
        side = math.prod(dims)
        rows = np.asarray(rows, dtype=np.intp).ravel()
        cols = np.asarray(cols, dtype=np.intp).ravel()
        values = np.asarray(values, dtype=complex).ravel()
        if not rows.size == cols.size == values.size:
            raise ValueError(
                f"triplet lengths differ: {rows.size} rows, {cols.size} cols,"
                f" {values.size} values"
            )
        if rows.size and not (
            min(rows.min(), cols.min()) >= 0 and max(rows.max(), cols.max()) < side
        ):
            raise ValueError(f"triplet index outside 0..{side - 1} for dims {dims}")
        nonzero = values != 0
        rows, cols, values = rows[nonzero], cols[nonzero], values[nonzero]
        keys = rows * side + cols
        order = np.argsort(keys, kind="stable")
        if not (np.diff(keys[order]) > 0).all():
            raise ValueError("triplets give one position more than once")
        return cls._canonical(dims, rows[order], cols[order], values[order])

    @classmethod
    def _canonical(
        cls,
        dims: tuple[int, ...],
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "OperatorMatrix":
        """Wrap triplets that are canonical already, without checks.

        For builders whose output is canonical by construction: ``dims``
        a checked tuple, indices in range and sorted by position, each
        position once, complex values none of which is zero. The arrays
        are kept, not copied.
        """
        op = cls.__new__(cls)
        op._freeze(dims, math.prod(dims), rows, cols, values, None)
        return op

    def _freeze(self, dims, side, rows, cols, values, entries) -> None:
        for array in (rows, cols, values, entries):
            if array is not None:
                array.setflags(write=False)
        for name, value in zip(
            self.__slots__, (dims, side, rows, cols, values, entries)
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"OperatorMatrix is read-only; cannot set {name!r}")

    def __repr__(self) -> str:
        return f"OperatorMatrix(dims={self.dims}, nonzeros={self.values.size})"

    def __reduce__(self):
        triplets = (self.dims, self.rows, self.cols, self.values)
        return OperatorMatrix.from_triplets, triplets

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            mat = np.zeros((self.side, self.side), dtype=complex)
            mat[self.rows, self.cols] = self.values
            mat.setflags(write=False)
            object.__setattr__(self, "_entries", mat)
        return self._entries

    def diagonal(self) -> np.ndarray:
        """The diagonal as a dense vector of length ``side``."""
        out = np.zeros(self.side, dtype=complex)
        on = self.rows == self.cols
        out[self.rows[on]] = self.values[on]
        return out

    @property
    def trace(self) -> complex:
        return complex(self.diagonal().sum())

    def _hermitian_deviation(self) -> tuple[float, float]:
        """``(max|M - M^dag|, max|M|)`` over the nonzero entries.

        An entry whose mirror is zero deviates by its own magnitude; a
        pair of zero mirror entries adds 0 to both maxima.
        """
        if self.values.size == 0:
            return 0.0, 0.0
        keys = self.rows * self.side + self.cols  # ascending
        mirror_keys = self.cols * self.side + self.rows
        at = np.minimum(np.searchsorted(keys, mirror_keys), keys.size - 1)
        mirror = np.where(keys[at] == mirror_keys, self.values[at], 0)
        dev = float(np.abs(self.values - mirror.conj()).max())
        return dev, float(np.abs(self.values).max())

    def is_hermitian(self) -> bool:
        """Whether ``max|M - M^dag| <= 1e-12 * max|M|`` (a zero ``M`` is)."""
        dev, scale = self._hermitian_deviation()
        return dev <= _HERMITIAN_TOL * scale


def identity(dims: Sequence[int]) -> OperatorMatrix:
    """Identity operator on the register described by ``dims``."""
    index = np.arange(math.prod(_check_dims(dims)))
    return OperatorMatrix.from_triplets(dims, index, index, np.ones(index.size))


def kron(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product; the left operand is the most significant factor."""
    return OperatorMatrix(a.dims + b.dims, np.kron(a.entries, b.entries))


def eigh(m: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian operator, as ``np.linalg.eigh``.

    Returns the eigenvalues, real and ascending, and the eigenvectors,
    column ``k`` belonging to eigenvalue ``k``.

    Raises
    ------
    NotHermitianError
        If ``max|M - M^dag|`` exceeds ``1e-12 * max|M|``.
    """
    dev, scale = m._hermitian_deviation()
    if not dev <= _HERMITIAN_TOL * scale:
        raise NotHermitianError(
            f"operator deviates from Hermiticity by {dev:.3e}"
            f" (tolerance {_HERMITIAN_TOL:g} relative)"
        )
    return np.linalg.eigh(m.entries)


def partial_trace(rho: OperatorMatrix, keep: Iterable[int]) -> OperatorMatrix:
    """Trace out every subsystem not listed in ``keep``.

    Parameters
    ----------
    rho:
        Density operator on the full register.
    keep:
        Indices of the subsystems to retain, in the order they should
        appear in the result.

    Returns
    -------
    OperatorMatrix
        Reduced operator with ``dims = tuple(rho.dims[k] for k in keep)``.
    """
    kept = tuple(int(k) for k in keep)
    n = len(rho.dims)
    if not kept:
        raise BadSubsystemIndexError("keep selection must not be empty")
    if len(set(kept)) != len(kept):
        raise BadSubsystemIndexError(f"duplicate subsystem index in keep={kept}")
    bad = [k for k in kept if k < 0 or k >= n]
    if bad:
        raise BadSubsystemIndexError(
            f"subsystem index {bad[0]} out of range for {n} subsystems"
        )

    tensor = rho.entries.reshape(rho.dims + rho.dims)
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    if 2 * n > len(letters):
        raise ValueError(f"too many subsystems for einsum labels: {n}")
    row = list(letters[:n])
    col = list(letters[:n])
    for i, k in enumerate(kept):
        col[k] = letters[n + i]
    out = "".join(row[k] for k in kept) + "".join(col[k] for k in kept)
    spec = "".join(row) + "".join(col) + "->" + out
    reduced_dims = tuple(rho.dims[k] for k in kept)
    side = int(np.prod(reduced_dims))
    reduced = np.einsum(spec, tensor).reshape(side, side)
    return OperatorMatrix(reduced_dims, reduced)


def outer(psi: StateVector) -> OperatorMatrix:
    """Projector ``|psi><psi|`` of a normalized state.

    Raises
    ------
    NotNormalizedError
        If the squared norm deviates from 1 by more than ``1e-9``.
    """
    sq = psi.norm**2
    if abs(sq - 1.0) > _OUTER_NORM_TOL:
        raise NotNormalizedError(
            f"state squared norm {sq!r} deviates from 1 beyond {_OUTER_NORM_TOL:g}"
        )
    return OperatorMatrix(psi.dims, np.outer(psi.amplitudes, psi.amplitudes.conj()))
