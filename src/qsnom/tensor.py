"""Tensor algebra for small composite quantum registers.

States and operators carry an explicit tuple of subsystem dimensions
(leftmost factor is the most significant index). Everything is plain
dense ``numpy`` underneath; arrays are defensively copied and frozen on
construction. The registers here are small: the oracle's one-photon
sector has four states and the scattered-photon state eight.
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

__all__ = ["StateVector", "OperatorMatrix", "eigh", "partial_trace", "outer"]

_HERMITIAN_TOL = 1e-12  # largest max|M - M^dag| / max|M| of a Hermitian M
_OUTER_NORM_TOL = 1e-9  # largest |<psi|psi> - 1| that outer accepts


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(map(int, dims))
    if not out:
        raise ValueError("dims must name at least one subsystem")
    if min(out) < 1:
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

    def __reduce__(self):
        # rebuild through the constructor, so a copy's amplitudes are
        # read-only too
        return StateVector, (self.dims, self.amplitudes)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Square operator over a composite register.

    Parameters
    ----------
    dims:
        Subsystem dimensions, most significant first.
    entries:
        Complex matrix whose side equals ``prod(dims)``; kept read-only.
    """

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = _check_dims(self.dims)
        mat = np.array(self.entries, dtype=complex)
        side = math.prod(dims)
        if mat.shape != (side, side):
            raise ValueError(
                f"entries shape {mat.shape} does not match dims {dims}"
                f" (expected {(side, side)})"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", mat)

    def __reduce__(self):
        # rebuild through the constructor, so a copy's entries are
        # read-only too
        return OperatorMatrix, (self.dims, self.entries)

    @property
    def side(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        """The diagonal as a read-only vector of length ``side``."""
        return self.entries.diagonal()

    @property
    def trace(self) -> complex:
        return complex(self.diagonal().sum())

    def _hermitian_deviation(self) -> tuple[float, float]:
        """``(max|M - M^dag|, max|M|)``."""
        m = self.entries
        return float(np.abs(m - m.conj().T).max()), float(np.abs(m).max())

    def is_hermitian(self) -> bool:
        """Whether ``max|M - M^dag| <= 1e-12 * max|M|`` (a zero ``M`` is)."""
        m = self.entries
        dev = float(np.abs(m - m.conj().T).max())
        # only finite entries that mirror exactly leave no deviation (an inf
        # or nan leaves inf or nan), and then max|M| cannot change the answer
        if dev == 0.0:
            return True
        return dev <= _HERMITIAN_TOL * float(np.abs(m).max())


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
