"""Side-by-side comparison of the closed-form and numeric routes.

The closed-form shift and corrected coefficients do not reduce to the
generic second-order results produced by :mod:`qsnom.perturbation`:
their scaling with tip height differs (inverse cube against inverse
sixth power) and so does the gap dependence. This module measures the
disagreement on a height sweep and flags it; it never reconciles the
two routes.

The report runs on the scalars, as ``forward`` does: each input is
checked once, H0 is built once per report (it depends only on the tip
and image gaps) and only the coupling term is built at each height.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import closedform
# DielectricSample, TipDipole, build_hamiltonian_pair and rs_pt2 are no
# longer called here, but perfbench/tracer.py wraps these names in this
# module and fails to start without them
from .dipole import (  # noqa: F401
    DielectricSample,
    TipDipole,
    _alpha,
    _epsilon,
    _image_gap,
    _positive_finite,
)
from .hamiltonian import (  # noqa: F401
    ModelConfig,
    build_delta_h,
    build_h0,
    build_hamiltonian_pair,
    coupling_constant,
    regime_warnings,
)
from .perturbation import rs_pt2, validate_against_exact  # noqa: F401

__all__ = ["ConsistencyRow", "ConsistencyReport", "consistency_report"]


@dataclass(frozen=True, slots=True)
class ConsistencyRow:
    """One tip height: both shifts, the exact shift, and coefficient gaps.

    The differences between the routes are derived from the stored
    fields when read, so a kept row holds only what was computed.
    """

    height_nm: float
    alpha: float
    g: float
    delta_e_closed: float
    delta_e_oracle: float
    delta_e_exact: float
    pt2_exact_residual: float
    beta1_closed: float
    beta1_oracle: float
    warnings: tuple[str, ...]

    @property
    def shift_abs_diff(self) -> float:
        return abs(self.delta_e_closed - self.delta_e_oracle)

    @property
    def shift_rel_diff(self) -> float:
        return _rel_diff(self.delta_e_closed, self.delta_e_oracle)

    @property
    def beta1_abs_diff(self) -> float:
        return abs(self.beta1_closed - self.beta1_oracle)


_ROW_NUMBERS = tuple(f.name for f in fields(ConsistencyRow) if f.name != "warnings")
# the three exponents, the mismatch flag and the tip gap omega, ahead of
# the rows' numbers
_HEAD = struct.Struct("5d")


@dataclass(frozen=True, slots=True)
class ConsistencyReport:
    """Height sweep rows plus fitted height-scaling exponents.

    ``_numbers`` holds the bytes of one float64 buffer: the exponents,
    the mismatch flag and the tip gap, then each row's numbers in
    ``_ROW_NUMBERS`` order. ``rows`` rebuilds the rows as
    :class:`ConsistencyRow` objects on each read, and a row's warnings
    are the regime check rerun on the stored gap, alpha and ``g``. A
    kept report of four heights so holds under 448 bytes. ``notes`` is
    derived from the exponents when read.
    """

    _numbers: bytes

    @property
    def closed_height_exponent(self) -> float:
        return _HEAD.unpack_from(self._numbers)[0]

    @property
    def oracle_height_exponent(self) -> float:
        return _HEAD.unpack_from(self._numbers)[1]

    @property
    def exact_height_exponent(self) -> float:
        return _HEAD.unpack_from(self._numbers)[2]

    @property
    def scaling_mismatch(self) -> bool:
        return _HEAD.unpack_from(self._numbers)[3] != 0.0

    @property
    def rows(self) -> tuple[ConsistencyRow, ...]:
        omega = _HEAD.unpack_from(self._numbers)[4]
        values = memoryview(self._numbers)[_HEAD.size :].cast("d").tolist()
        width = len(_ROW_NUMBERS)
        rows = (values[k : k + width] for k in range(0, len(values), width))
        # row[1] is alpha and row[2] is g, in _ROW_NUMBERS order
        return tuple(
            ConsistencyRow(*row, regime_warnings(omega, _image_gap(row[1], omega), row[2]))
            for row in rows
        )

    @property
    def notes(self) -> tuple[str, ...]:
        if not self.scaling_mismatch:
            return ()
        return (
            "height-scaling mismatch: closed-form exponent "
            f"{self.closed_height_exponent:.6g} vs numeric exponent "
            f"{self.oracle_height_exponent:.6g}",
        )

    def __repr__(self) -> str:
        return (
            f"ConsistencyReport(closed_height_exponent={self.closed_height_exponent!r},"
            f" oracle_height_exponent={self.oracle_height_exponent!r},"
            f" exact_height_exponent={self.exact_height_exponent!r},"
            f" scaling_mismatch={self.scaling_mismatch!r})"
        )


def _fit_exponent(heights: Sequence[float], values: Sequence[float]) -> float:
    mags = np.abs(np.asarray(values, dtype=float))
    if len(set(heights)) < 2 or np.any(mags == 0.0) or not np.all(np.isfinite(mags)):
        return math.nan
    slope = np.polyfit(np.log(np.asarray(heights, dtype=float)), np.log(mags), 1)[0]
    return float(slope)


def _rel_diff(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    if scale == 0.0:
        return 0.0
    return abs(x - y) / scale


def consistency_report(
    epsilon_d: float,
    heights_nm: Sequence[float],
    omega: float = 1.0,
    kappa: float = 0.05,
    n_max: int = 1,
) -> ConsistencyReport:
    """Compare shift and coefficient routes over a tip-height sweep.

    On both routes the reference level is the dipole-pair ground state,
    with one photon present at each height; on the oracle route it is
    level 0 of the one-photon sector. ``n_max`` is checked by
    :class:`ModelConfig` and sizes nothing. The oracle route is the
    generic second-order engine validated against exact diagonalization,
    run once per height on (H0, coupling) matrices built from the
    checked scalars; the closed-form route is the closed shift and the
    first corrected coefficient. Exponents are least-squares slopes of
    log|shift| against log height; any engine error propagates.
    """
    if len(heights_nm) == 0:
        raise ValueError("heights_nm must contain at least one height")
    alpha = _alpha(_epsilon(epsilon_d))
    ModelConfig(n_max=n_max, kappa=kappa)
    _positive_finite(omega=omega)
    omega_image = _image_gap(alpha, omega)

    h0 = None
    rows: list[tuple[float, ...]] = []  # in the order of _ROW_NUMBERS
    for height in heights_nm:
        _positive_finite(height_nm=height)
        g = coupling_constant(kappa, alpha, 2.0 * height)
        if h0 is None:
            # after the first g, as build_hamiltonian_pair, so an input
            # that fails both keeps its error class
            h0 = build_h0(omega, omega_image)
        comparison = validate_against_exact(h0, build_delta_h(g), 0)
        result = comparison.pt2
        rows.append((
            float(height),
            alpha,
            g,
            closedform._shift(1.0, height, alpha, omega, kappa),
            result.e2,
            comparison.exact_energy - result.e0,
            comparison.residual,
            # from the ground state |g, g>
            closedform._betas(1.0, 0.0, 0.0, 0.0, height, alpha, omega, kappa)[0],
            float(np.real(result.normalized_coefficients[0])),
        ))

    heights, _, _, closed, oracle, exact, *_ = zip(*rows)
    # one polyfit per series: one fit of the three as columns differs in
    # the last bits for some heights
    closed_exp = _fit_exponent(heights, closed)
    oracle_exp = _fit_exponent(heights, oracle)
    exact_exp = _fit_exponent(heights, exact)
    mismatch = (
        math.isfinite(closed_exp)
        and math.isfinite(oracle_exp)
        and abs(closed_exp - oracle_exp) > 0.5
    )
    numbers = [closed_exp, oracle_exp, exact_exp, float(mismatch), omega]
    numbers += [value for row in rows for value in row]
    return ConsistencyReport(struct.pack(f"{len(numbers)}d", *numbers))
