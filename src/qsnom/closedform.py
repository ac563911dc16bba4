"""Closed-form expressions for the scattered photon channel.

These are the model's analytic results, implemented exactly as derived:
the leading correction to each dipole-pair coefficient, the rank-one
reduced state built from those coefficients, the subnormalized
amplitude of the single-photon component, and the red shift of the
emitted line. The numeric route in :mod:`qsnom.perturbation` serves as
the independent cross-check; :mod:`qsnom.crosscheck` quantifies where
the two disagree, and the disagreement is reported rather than patched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .dipole import _positive_finite
from .errors import (
    DegenerateDenominatorError,
    NotNormalizedError,
    ShiftExceedsGapError,
    ZeroStateError,
)
from .tensor import OperatorMatrix

__all__ = [
    "InitialCoefficients",
    "BetaCoefficients",
    "ScatteredPhotonReport",
    "beta_coefficients",
    "density_matrix",
    "scattered_amplitude",
    "energy_shift",
    "scattered_frequency",
    "photon_report",
]

DENOMINATOR_TOL = 1e-9
_SMALLEST_NORMAL = sys.float_info.min


@dataclass(frozen=True)
class InitialCoefficients:
    """Real amplitudes on the four dipole-pair basis states.

    Order: (tip ground, image ground), (ground, excited),
    (excited, ground), (excited, excited). Must be unit-normalized.
    """

    a1: float
    a2: float
    a3: float
    a4: float

    def __post_init__(self) -> None:
        sq = self.a1**2 + self.a2**2 + self.a3**2 + self.a4**2
        if abs(sq - 1.0) > 1e-12:
            raise NotNormalizedError(
                f"initial coefficients have squared norm {sq!r}, expected 1"
            )

    @classmethod
    def ground_state(cls) -> InitialCoefficients:
        return cls(1.0, 0.0, 0.0, 0.0)

    def as_array(self) -> np.ndarray:
        return np.array([self.a1, self.a2, self.a3, self.a4], dtype=float)


@dataclass(frozen=True)
class BetaCoefficients:
    """Corrected dipole-pair coefficients, same ordering, subnormalized."""

    beta1: float
    beta2: float
    beta3: float
    beta4: float

    def as_array(self) -> np.ndarray:
        return np.array([self.beta1, self.beta2, self.beta3, self.beta4])

    @property
    def norm(self) -> float:
        return math.hypot(self.beta1, self.beta2, self.beta3, self.beta4)

    def normalized(self) -> np.ndarray:
        n = self.norm
        if n < 1e-15:
            raise ZeroStateError("corrected coefficients have zero norm")
        return self.as_array() / n


@dataclass(frozen=True)
class ScatteredPhotonReport:
    """Single-photon component of the perturbed state.

    ``amplitude`` is the subnormalized coefficient of the one-photon
    ket; ``probability_weight`` its square. ``omega_s`` is the emitted
    angular frequency in eV/hbar.
    """

    amplitude: float
    probability_weight: float
    delta_e: float
    omega_s: float


def _check_inputs(height_nm: float, alpha: float, omega: float, kappa: float) -> None:
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha!r}")
    _positive_finite(omega=omega, height_nm=height_nm)
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa!r}")


def beta_coefficients(
    a: InitialCoefficients,
    height_nm: float,
    alpha: float,
    omega: float,
    kappa: float,
) -> BetaCoefficients:
    """Leading correction to the dipole-pair coefficients.

    States with equal excitation on tip and image are corrected through
    the sum gap (1 + alpha^2), the mixed states through the difference
    gap (1 - alpha^2); each correction is quadratic in the initial
    amplitude. The difference gap closes as alpha -> 1, where mixed
    amplitudes lose their perturbative meaning.

    Raises
    ------
    DegenerateDenominatorError
        If ``|1 - alpha^2| < 1e-9`` while a mixed amplitude is nonzero.
    """
    _check_inputs(height_nm, alpha, omega, kappa)
    return BetaCoefficients(
        *_betas(a.a1, a.a2, a.a3, a.a4, height_nm, alpha, omega, kappa)
    )


def _betas(
    a1: float,
    a2: float,
    a3: float,
    a4: float,
    height_nm: float,
    alpha: float,
    omega: float,
    kappa: float,
) -> tuple[float, float, float, float]:
    mixed_gap = 1.0 - alpha * alpha
    if abs(mixed_gap) < DENOMINATOR_TOL and (a2 != 0 or a4 != 0):
        raise DegenerateDenominatorError(
            f"difference gap 1 - alpha^2 = {mixed_gap:.3e} is too small for"
            f" nonzero mixed amplitudes (a2={a2!r}, a4={a4!r})"
        )
    coupling = kappa * alpha
    square = coupling**2
    cube = 2.0 * (2.0 * height_nm) ** 3
    # a square below the normal range loses digits or vanishes where the
    # correction need not, so there the division comes first
    if square >= _SMALLEST_NORMAL:
        pref = square / cube
    else:
        pref = coupling * (coupling / cube)
    # divided by each gap twice: its square can leave the float range
    # where the correction does not
    d_sum = omega * (1.0 + alpha * alpha)
    d_diff = omega * mixed_gap
    return (
        a1 - pref * a1**2 / d_sum / d_sum,
        a2 - pref * a2**2 / d_diff / d_diff,
        a3 - pref * a3**2 / d_sum / d_sum,
        a4 - pref * a4**2 / d_diff / d_diff,
    )


def density_matrix(beta: BetaCoefficients) -> OperatorMatrix:
    """Rank-one reduced state of the dipole pair after correction.

    Built from the normalized coefficients, so the result has unit
    trace and purity 1 regardless of the subnormalization.
    """
    unit = beta.normalized()
    return OperatorMatrix((2, 2), np.outer(unit, unit))


def scattered_amplitude(beta: BetaCoefficients) -> float:
    """Euclidean norm of the corrected coefficients.

    This is the subnormalized amplitude carried by the one-photon ket;
    it stays below 1 once any correction is nonzero.
    """
    return beta.norm


def energy_shift(
    a1: float,
    height_nm: float,
    alpha: float,
    omega: float,
    kappa: float,
) -> float:
    """Closed-form shift of the emitting level, in eV (always <= 0).

    Note the closed form scales with the inverse cube of the tip-image
    separation and carries a single power of the sum gap; the numeric
    second-order route scales with the inverse sixth power and a
    squared gap. ``crosscheck.consistency_report`` measures the gap
    between the two routes instead of reconciling them.
    """
    _check_inputs(height_nm, alpha, omega, kappa)
    return _shift(a1, height_nm, alpha, omega, kappa)


def _shift(
    a1: float, height_nm: float, alpha: float, omega: float, kappa: float
) -> float:
    weight = -(a1**2)
    coupling = kappa * alpha
    square = coupling**2
    denominator = (2.0 * height_nm) ** 3 * omega * (1.0 + alpha * alpha)
    # as in _betas, the division comes first where the square is not normal
    if square >= _SMALLEST_NORMAL:
        shift = weight * square / denominator
    else:
        shift = weight * (coupling * (coupling / denominator))
    return shift + 0.0  # fold -0.0 to +0.0


def scattered_frequency(omega: float, delta_e: float) -> float:
    """Emitted angular frequency omega - |delta_e|, in eV since hbar = 1.

    Raises
    ------
    ShiftExceedsGapError
        If the shift magnitude reaches the bare gap, which would drive
        the emitted frequency to zero or below.
    """
    _positive_finite(omega=omega)
    return _emitted(omega, delta_e)


def _emitted(omega: float, delta_e: float) -> float:
    shift = abs(delta_e)
    if shift >= omega:
        raise ShiftExceedsGapError(
            f"|delta_e| = {shift!r} eV reaches the bare gap {omega!r} eV"
        )
    return omega - shift


def photon_report(
    a: InitialCoefficients,
    height_nm: float,
    alpha: float,
    omega: float,
    kappa: float,
) -> ScatteredPhotonReport:
    """Compose the closed-form scattered photon summary.

    The gap check runs before ``||beta||`` is taken. Below the gap the
    ground-state correction stays under half its amplitude, so a
    coupling strong enough to overflow that norm fails as
    :class:`ShiftExceedsGapError` instead.
    """
    _check_inputs(height_nm, alpha, omega, kappa)
    amp, delta, omega_s = _photon(
        a.a1, a.a2, a.a3, a.a4, height_nm, alpha, omega, kappa
    )
    return ScatteredPhotonReport(
        amplitude=amp,
        probability_weight=amp * amp,
        delta_e=delta,
        omega_s=omega_s,
    )


def _photon(
    a1: float,
    a2: float,
    a3: float,
    a4: float,
    height_nm: float,
    alpha: float,
    omega: float,
    kappa: float,
) -> tuple[float, float, float]:
    """``||beta||``, the shift and the emitted frequency, from checked inputs."""
    beta = _betas(a1, a2, a3, a4, height_nm, alpha, omega, kappa)
    delta = _shift(a1, height_nm, alpha, omega, kappa)
    omega_s = _emitted(omega, delta)
    return math.hypot(*beta), delta, omega_s
