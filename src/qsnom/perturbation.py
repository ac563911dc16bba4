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
model is assumed. Diagonalizing the whole operator instead would move
the exact energies in the last bit.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousMatchingError, DegenerateGapError, NotHermitianError
from .tensor import _HERMITIAN_TOL, OperatorMatrix, eigh

__all__ = [
    "PerturbationResult",
    "ExactComparison",
    "rs_pt2",
    "validate_against_exact",
]

_DEGENERACY_TOL_SCALE = 1e-12  # coupled gaps within this * max|H0| are degenerate
_OVERLAP_THRESHOLD = 0.5  # least squared overlap that pairs an exact level
_SMALLEST_NORMAL = sys.float_info.min


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
) -> tuple[np.ndarray, float]:
    """Raise unless the engine applies; return the diagonal of ``h0`` and
    its largest magnitude."""
    if h0.dims != v.dims:
        raise ValueError(f"dims mismatch: h0 {h0.dims} vs v {v.dims}")
    if not 0 <= state_index < h0.side:
        raise ValueError(
            f"state_index {state_index} outside 0..{h0.side - 1}"
        )
    diag = h0.diagonal()
    not_diagonal = "h0 must be diagonal (engine works in its eigenbasis)"
    if np.count_nonzero(h0.entries) != np.count_nonzero(diag):
        raise ValueError(not_diagonal)
    scale = float(np.abs(diag).max())
    # a non-finite diagonal entry is not diagonal either: it leaves a NaN
    # in h0 - diag(diag(h0)). Such an entry leaves scale non-finite, and so
    # can a finite complex one whose magnitude overflows
    if not math.isfinite(scale) and not np.isfinite(diag).all():
        raise ValueError(not_diagonal)
    # OperatorMatrix.is_hermitian() for a diagonal matrix; a zero imaginary
    # part always passes
    if any(diag.imag.tolist()) and not (
        2 * np.abs(diag.imag).max() <= _HERMITIAN_TOL * scale
    ):
        raise NotHermitianError("h0 diagonal must be real")
    if not v.is_hermitian():
        raise NotHermitianError("perturbation v must be Hermitian")
    return diag, scale


def rs_pt2(
    h0: OperatorMatrix,
    v: OperatorMatrix,
    state_index: int,
) -> PerturbationResult:
    """Second-order correction of level ``state_index`` under ``v``.

    Raises
    ------
    DegenerateGapError
        If a coupled level sits within ``1e-12 * max|H0|`` of the
        reference level.
    OverflowError
        If the shift or a first-order coefficient is not finite.
    """
    diag, scale = _check_inputs(h0, v, state_index)
    # Python floats: their differences are numpy's, bit for bit
    energies = diag.real.tolist()
    n = state_index
    tol_deg = _DEGENERACY_TOL_SCALE * scale

    e1 = 0.0
    gaps: list[tuple[int, float]] = []
    column = v.entries[:, n]
    for m, value in enumerate(column.tolist()):
        if not value:
            continue
        if m == n:
            e1 = value.real
            continue
        gap = energies[n] - energies[m]
        if abs(gap) <= tol_deg:
            raise DegenerateGapError(
                f"level {m} is degenerate with reference level {n}"
                f" (gap {gap:.3e} eV within tolerance {tol_deg:.3e} eV)"
                f" while coupled by v"
            )
        gaps.append((m, gap))

    coeffs = np.zeros(h0.side, dtype=complex)
    coeffs[n] = 1.0
    e2 = 0.0
    for m, gap in gaps:
        # in Python floats an overflowing square raises OverflowError
        # instead of warning and leaving inf in e2
        value = column[m]
        size = abs(complex(value))
        square = size**2
        # a square below the normal range loses digits or vanishes where
        # the term need not, so there the division comes first
        e2 += square / gap if square >= _SMALLEST_NORMAL else size * (size / gap)
        if not math.isfinite(e2):
            raise OverflowError(f"second-order shift of level {n} overflows: {e2!r}")
        # a coupling far above a subnormal gap overflows here while e2
        # underflows to zero. The entry stays a numpy scalar, whose
        # division by a float may differ from Python's complex division in
        # the last bit
        with np.errstate(over="ignore", invalid="ignore"):
            coefficient = value / gap
        if not cmath.isfinite(coefficient):
            raise OverflowError(
                f"first-order coefficient of level {m} in level {n} overflows:"
                f" {complex(coefficient)!r}"
            )
        coeffs[m] = coefficient

    return PerturbationResult(
        state_index=n,
        e0=energies[n],
        e1=e1,
        e2=e2,
        corrected_coefficients=coeffs,
        gap_report=tuple(gaps),
    )


def _linked_block(rows: list[list[complex]], start: int) -> list[int]:
    """The basis states reachable from ``start`` through nonzero entries
    of the matrix ``rows``, in ascending order.

    Links are followed along rows and columns alike, so the set is
    closed under both ``v[i, j] != 0`` and ``v[j, i] != 0``.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j in range(len(rows)):
            if j not in seen and (rows[i][j] or rows[j][i]):
                seen.add(j)
                frontier.append(j)
    return sorted(seen)


def validate_against_exact(
    h0: OperatorMatrix,
    v: OperatorMatrix,
    state_index: int,
) -> ExactComparison:
    """Compare the second-order energy against exact diagonalization.

    Only the principal block of ``H0 + V`` on the basis states linked to
    ``state_index`` through nonzero entries of ``V`` is diagonalized.
    ``H0`` is diagonal, so the entries coupling that block to the other
    states are exactly zero and its eigenpairs are exact eigenpairs of
    ``H0 + V``. The exact level is the block eigenvector with the
    largest squared overlap against the reference basis state; the match
    must reach 0.5 or the pairing is ambiguous. The residual is
    ``|exact - (e0 + e1 + e2)|``; it shrinks like the fourth power of
    the coupling in the perturbative regime. The second-order
    result is returned as ``pt2``, so callers need not run the engine
    again.
    """
    result = rs_pt2(h0, v, state_index)
    rows = v.entries.tolist()
    block = _linked_block(rows, state_index)
    # the block of V plus diag(H0), added as numpy adds them: off the
    # diagonal an entry gains a complex zero
    diag = h0.diagonal().tolist()
    sub = [[rows[i][j] + (diag[i] if i == j else 0j) for j in block] for i in block]
    values, vectors = eigh(OperatorMatrix((len(block),), sub))
    # numpy's |c|, which can differ from Python's in the last bit; its
    # square is numpy's ** 2, bit for bit
    sizes = np.abs(vectors[block.index(state_index)]).tolist()
    weights = [size * size for size in sizes]
    # as np.argmax: the first nan (an inf entry of v passes the Hermitian
    # check), else the first of equal largest weights
    nans = [k for k, weight in enumerate(weights) if weight != weight]
    best = nans[0] if nans else max(range(len(weights)), key=weights.__getitem__)
    if weights[best] < _OVERLAP_THRESHOLD:
        raise AmbiguousMatchingError(
            f"largest overlap {weights[best]:.3f} with basis state"
            f" {state_index} is below threshold {_OVERLAP_THRESHOLD}"
        )
    exact = float(values[best])
    pt2 = result.e0 + result.e1 + result.e2
    return ExactComparison(
        pt2_energy=pt2,
        exact_energy=exact,
        residual=abs(exact - pt2),
        overlap=weights[best],
        pt2=result,
    )
