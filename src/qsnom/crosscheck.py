"""Side-by-side comparison of the closed-form and numeric routes.

The closed-form shift and corrected coefficients do not reduce to the
generic second-order results produced by :mod:`qsnom.perturbation`:
their scaling with tip height differs (inverse cube against inverse
sixth power) and so does the gap dependence. This module measures the
disagreement on a height sweep and flags it; it never reconciles the
two routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from . import closedform
from .dipole import DielectricSample, TipDipole
from .hamiltonian import ModelConfig, build_hamiltonian_pair
# rs_pt2 is no longer called here (validate_against_exact returns its
# result), but perfbench/tracer.py wraps qsnom.crosscheck.rs_pt2 and
# fails to start without it
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


@dataclass(frozen=True, slots=True, init=False)
class ConsistencyReport:
    """Height sweep rows plus fitted height-scaling exponents.

    The rows are stored packed, their numbers as the bytes of one float64
    array and their warnings beside it, and ``rows`` rebuilds them as
    :class:`ConsistencyRow` objects on each read. A kept report so holds
    one buffer in place of a Python float object per number, under 1 KiB
    with four heights. ``notes`` is derived from the exponents when read.
    """

    _row_numbers: bytes = field(repr=False)
    _row_warnings: tuple[tuple[str, ...], ...] = field(repr=False)
    closed_height_exponent: float
    oracle_height_exponent: float
    exact_height_exponent: float
    scaling_mismatch: bool

    def __init__(
        self,
        rows: Sequence[ConsistencyRow],
        closed_height_exponent: float,
        oracle_height_exponent: float,
        exact_height_exponent: float,
        scaling_mismatch: bool,
    ) -> None:
        numbers = [[getattr(row, name) for name in _ROW_NUMBERS] for row in rows]
        for name, value in (
            ("_row_numbers", np.array(numbers, dtype=float).tobytes()),
            ("_row_warnings", tuple(row.warnings for row in rows)),
            ("closed_height_exponent", closed_height_exponent),
            ("oracle_height_exponent", oracle_height_exponent),
            ("exact_height_exponent", exact_height_exponent),
            ("scaling_mismatch", scaling_mismatch),
        ):
            object.__setattr__(self, name, value)

    @property
    def rows(self) -> tuple[ConsistencyRow, ...]:
        numbers = np.frombuffer(self._row_numbers).reshape(-1, len(_ROW_NUMBERS))
        return tuple(
            ConsistencyRow(**dict(zip(_ROW_NUMBERS, values)), warnings=warnings)
            for values, warnings in zip(numbers.tolist(), self._row_warnings)
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
    run once per height; the closed-form route is
    :func:`qsnom.closedform.energy_shift` and the first corrected
    coefficient. Exponents are least-squares slopes of
    log|shift| against log height; any engine error propagates.
    """
    if len(heights_nm) == 0:
        raise ValueError("heights_nm must contain at least one height")
    sample = DielectricSample(epsilon_d)
    a = closedform.InitialCoefficients.ground_state()
    cfg = ModelConfig(n_max=n_max, kappa=kappa)

    rows: list[ConsistencyRow] = []
    for height in heights_nm:
        tip = TipDipole(omega=omega, height_nm=height)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        comparison = validate_against_exact(pair.h0, pair.delta_h, 0)
        result = comparison.pt2
        exact_shift = comparison.exact_energy - result.e0

        closed_shift = closedform.energy_shift(
            a.a1, height, sample.alpha, omega, kappa
        )
        beta = closedform.beta_coefficients(a, height, sample.alpha, omega, kappa)
        beta1_oracle = float(np.real(result.normalized_coefficients[0]))

        rows.append(
            ConsistencyRow(
                height_nm=float(height),
                alpha=sample.alpha,
                g=pair.g,
                delta_e_closed=closed_shift,
                delta_e_oracle=result.e2,
                delta_e_exact=exact_shift,
                pt2_exact_residual=comparison.residual,
                beta1_closed=beta.beta1,
                beta1_oracle=beta1_oracle,
                warnings=pair.warnings,
            )
        )

    heights = [r.height_nm for r in rows]
    closed_exp = _fit_exponent(heights, [r.delta_e_closed for r in rows])
    oracle_exp = _fit_exponent(heights, [r.delta_e_oracle for r in rows])
    exact_exp = _fit_exponent(heights, [r.delta_e_exact for r in rows])

    mismatch = (
        math.isfinite(closed_exp)
        and math.isfinite(oracle_exp)
        and abs(closed_exp - oracle_exp) > 0.5
    )
    return ConsistencyReport(
        rows=rows,
        closed_height_exponent=closed_exp,
        oracle_height_exponent=oracle_exp,
        exact_height_exponent=exact_exp,
        scaling_mismatch=mismatch,
    )
