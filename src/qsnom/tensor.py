"""Dense tensor algebra for small composite quantum registers.

States and operators carry an explicit tuple of subsystem dimensions
(leftmost factor is the most significant index). Everything is plain
``numpy`` underneath; arrays are defensively copied and frozen on
construction.
"""

from __future__ import annotations

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
    "EigenDecomposition",
    "kron",
    "eigh",
    "partial_trace",
    "outer",
    "identity",
]


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

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm**2 - 1.0) <= tol


@dataclass(frozen=True)
class OperatorMatrix:
    """Square operator over a composite register.

    ``entries`` is a dense complex matrix whose side equals
    ``prod(dims)``.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        mat = np.array(self.entries, dtype=complex)
        side = int(np.prod(dims))
        if mat.shape != (side, side):
            raise ValueError(
                f"entries shape {mat.shape} does not match dims {dims}"
                f" (expected {(side, side)})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """Whether ``max|M - M^dag| <= tol * max|M|`` (an all-zero ``M`` is).

        Only nonzero entries are compared: a pair of mirror entries that
        are both zero adds 0 to either maximum, and an entry whose mirror
        is zero deviates by its own magnitude from either side.
        """
        rows, cols = np.nonzero(self.entries != 0)
        if rows.size == 0:
            return True
        values = self.entries[rows, cols]
        scale = float(np.abs(values).max())
        dev = float(np.abs(values - self.entries[cols, rows].conj()).max())
        return dev <= tol * scale


@dataclass(frozen=True)
class EigenDecomposition:
    """Result of a Hermitian eigendecomposition.

    ``eigenvalues`` are real and ascending; column ``k`` of
    ``eigenvectors`` belongs to ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors, dtype=complex)
        vals.setflags(write=False)
        vecs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)


def identity(dims: Sequence[int]) -> OperatorMatrix:
    """Identity operator on the register described by ``dims``."""
    dims = _check_dims(dims)
    return OperatorMatrix(dims, np.eye(int(np.prod(dims)), dtype=complex))


def kron(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """Kronecker product; the left operand is the most significant factor."""
    return OperatorMatrix(a.dims + b.dims, np.kron(a.entries, b.entries))


def eigh(m: OperatorMatrix, tol: float = 1e-12) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian operator.

    Raises
    ------
    NotHermitianError
        If ``max|M - M^dag|`` exceeds ``tol * max|M|``.
    """
    if not m.is_hermitian(tol):
        dev = float(np.max(np.abs(m.entries - m.entries.conj().T)))
        raise NotHermitianError(
            f"operator deviates from Hermiticity by {dev:.3e}"
            f" (tolerance {tol:g} relative)"
        )
    vals, vecs = np.linalg.eigh(m.entries)
    return EigenDecomposition(vals, vecs)


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


def outer(psi: StateVector, tol: float = 1e-9) -> OperatorMatrix:
    """Projector ``|psi><psi|`` of a normalized state.

    Raises
    ------
    NotNormalizedError
        If the squared norm deviates from 1 by more than ``tol``.
    """
    sq = psi.norm**2
    if abs(sq - 1.0) > tol:
        raise NotNormalizedError(
            f"state squared norm {sq!r} deviates from 1 beyond {tol:g}"
        )
    return OperatorMatrix(psi.dims, np.outer(psi.amplitudes, psi.amplitudes.conj()))
