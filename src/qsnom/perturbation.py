"""Second-order energy corrections and their exact cross-check.

The engine works in the eigenbasis of the free Hamiltonian, which must
therefore arrive diagonal. For a reference level ``n`` coupled by a
Hermitian perturbation ``V`` the second-order shift is the sum over
intermediate levels ``m`` of ``|<m|V|n>|^2 / (E_n - E_m)``, and the
first-order state mixes in each ``|m>`` with coefficient
``<m|V|n> / (E_n - E_m)``.

The exact cross-check diagonalizes only the block of basis states that
``V`` links to the reference level, directly or through other states.
Because ``H0`` is diagonal, every entry of ``H0 + V`` between that block
and the remaining states is exactly zero, so the block's eigenpairs are
exact eigenpairs of the full operator; no property of the physical
model is assumed. Both steps read the operators' nonzero entries only,
so their cost follows the number of nonzeros and the size of that
block, not the square of the register side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatchingError, DegenerateGapError, NotHermitianError
from .tensor import OperatorMatrix, eigh

__all__ = [
    "PerturbationResult",
    "ExactComparison",
    "rs_pt2",
    "validate_against_exact",
]


@dataclass(frozen=True)
class PerturbationResult:
    """Energy corrections for one reference level.

    ``corrected_coefficients`` is the first-order ket in the free
    eigenbasis, unnormalized, with coefficient 1 on the reference level.
    ``gap_report`` lists ``(m, E_n - E_m)`` for every coupled level.
    """

    state_index: int
    e0: float
    e1: float
    e2: float
    corrected_coefficients: np.ndarray
    gap_report: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        coeffs = np.array(self.corrected_coefficients, dtype=complex)
        coeffs.setflags(write=False)
        object.__setattr__(self, "corrected_coefficients", coeffs)

    @property
    def normalized_coefficients(self) -> np.ndarray:
        return self.corrected_coefficients / np.linalg.norm(
            self.corrected_coefficients
        )


@dataclass(frozen=True)
class ExactComparison:
    """Perturbative energy against the matching exact eigenvalue.

    ``pt2`` is the :func:`rs_pt2` result the comparison was made with.
    """

    pt2_energy: float
    exact_energy: float
    residual: float
    overlap: float
    pt2: PerturbationResult


def _check_inputs(
    h0: OperatorMatrix, v: OperatorMatrix, state_index: int
) -> np.ndarray:
    """Raise unless the engine applies; return the diagonal of ``h0``."""
    if h0.dims != v.dims:
        raise ValueError(f"dims mismatch: h0 {h0.dims} vs v {v.dims}")
    if not 0 <= state_index < h0.side:
        raise ValueError(
            f"state_index {state_index} outside 0..{h0.side - 1}"
        )
    diag = h0.diagonal()
    # a non-finite diagonal entry is not diagonal either: it leaves a NaN
    # in h0 - diag(diag(h0))
    if (h0.rows != h0.cols).any() or not np.isfinite(diag).all():
        raise ValueError("h0 must be diagonal (engine works in its eigenbasis)")
    # OperatorMatrix.is_hermitian() for a diagonal matrix
    if not 2 * np.abs(diag.imag).max() <= 1e-12 * np.abs(diag).max():
        raise NotHermitianError("h0 diagonal must be real")
    if not v.is_hermitian():
        raise NotHermitianError("perturbation v must be Hermitian")
    return diag


def rs_pt2(
    h0: OperatorMatrix,
    v: OperatorMatrix,
    state_index: int,
    degeneracy_tol_scale: float = 1e-12,
) -> PerturbationResult:
    """Second-order correction of level ``state_index`` under ``v``.

    Raises
    ------
    DegenerateGapError
        If a coupled level sits within ``degeneracy_tol_scale * max|H0|``
        of the reference level.
    """
    diag = _check_inputs(h0, v, state_index)
    energies = diag.real
    n = state_index
    in_column = v.cols == n
    tol_deg = degeneracy_tol_scale * float(np.abs(diag).max())

    e1 = 0.0
    gaps: list[tuple[int, float]] = []
    column = []  # the coupled entries of v's column n, in ascending row order
    for m, value in zip(v.rows[in_column].tolist(), v.values[in_column]):
        if m == n:
            e1 = float(np.real(value))
            continue
        gap = float(energies[n] - energies[m])
        if abs(gap) <= tol_deg:
            raise DegenerateGapError(
                f"level {m} is degenerate with reference level {n}"
                f" (gap {gap:.3e} eV within tolerance {tol_deg:.3e} eV)"
                f" while coupled by v"
            )
        gaps.append((m, gap))
        column.append(value)

    coeffs = np.zeros(h0.side, dtype=complex)
    coeffs[n] = 1.0
    e2 = 0.0
    for (m, gap), value in zip(gaps, column):
        # in Python floats an overflowing square raises OverflowError
        # instead of warning and leaving inf in e2; value stays a numpy
        # scalar, whose division by a float may differ from Python's
        # complex division in the last bit
        e2 += abs(complex(value)) ** 2 / gap
        if not math.isfinite(e2):
            raise OverflowError(f"second-order shift of level {n} overflows: {e2!r}")
        coeffs[m] = value / gap

    return PerturbationResult(
        state_index=n,
        e0=float(energies[n]),
        e1=e1,
        e2=e2,
        corrected_coefficients=coeffs,
        gap_report=tuple(gaps),
    )


def _linked_block(v: OperatorMatrix, start: int) -> np.ndarray:
    """Mask of the basis states reachable from ``start`` through nonzero
    entries of ``v``.

    Links are followed along rows and columns alike, so the set is
    closed under both ``v[i, j] != 0`` and ``v[j, i] != 0``.
    """
    seen = np.zeros(v.side, dtype=bool)
    seen[start] = True
    frontier = seen.copy()
    while frontier.any():
        linked = np.zeros(v.side, dtype=bool)
        linked[v.cols[frontier[v.rows]]] = True
        linked[v.rows[frontier[v.cols]]] = True
        frontier = linked & ~seen
        seen |= frontier
    return seen


def validate_against_exact(
    h0: OperatorMatrix,
    v: OperatorMatrix,
    state_index: int,
    overlap_threshold: float = 0.5,
) -> ExactComparison:
    """Compare the second-order energy against exact diagonalization.

    Only the principal block of ``H0 + V`` on the basis states linked to
    ``state_index`` through nonzero entries of ``V`` is diagonalized.
    ``H0`` is diagonal, so the entries coupling that block to the other
    states are exactly zero and its eigenpairs are exact eigenpairs of
    ``H0 + V``. The exact level is the block eigenvector with the
    largest squared overlap against the reference basis state; the match
    must exceed ``overlap_threshold`` or the pairing is ambiguous. The
    residual is ``|exact - (e0 + e1 + e2)|``; it shrinks like the fourth
    power of the coupling in the perturbative regime. The second-order
    result is returned as ``pt2``, so callers need not run the engine
    again.
    """
    result = rs_pt2(h0, v, state_index)
    linked = _linked_block(v, state_index)
    block = np.flatnonzero(linked)
    # the block is closed under links, so a nonzero in one of its rows
    # also has its column in the block
    inside = linked[v.rows]
    at = np.searchsorted(block, v.rows[inside]), np.searchsorted(block, v.cols[inside])
    sub = np.zeros((block.size, block.size), dtype=complex)
    sub[at] = v.values[inside]
    sub[np.diag_indices(block.size)] += h0.diagonal()[block]
    values, vectors = eigh(OperatorMatrix((block.size,), sub))
    local = int(np.searchsorted(block, state_index))
    weights = np.abs(vectors[local, :]) ** 2
    best = int(np.argmax(weights))
    if weights[best] < overlap_threshold:
        raise AmbiguousMatchingError(
            f"largest overlap {weights[best]:.3f} with basis state"
            f" {state_index} is below threshold {overlap_threshold}"
        )
    exact = float(values[best])
    pt2 = result.e0 + result.e1 + result.e2
    return ExactComparison(
        pt2_energy=pt2,
        exact_energy=exact,
        residual=abs(exact - pt2),
        overlap=float(weights[best]),
        pt2=result,
    )
