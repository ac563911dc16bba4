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
from fractions import Fraction

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
        # written so that a nan squared norm fails too
        if not abs(sq - 1.0) <= 1e-12:
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
    """Corrected dipole-pair coefficients, same ordering, subnormalized.

    Coefficients whose norm overflows, each finite or not, raise
    ``OverflowError``, so :attr:`norm` is never infinite.
    """

    beta1: float
    beta2: float
    beta3: float
    beta4: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.beta1, self.beta2, self.beta3, self.beta4)
        if norm == math.inf:
            raise OverflowError(
                f"norm ||beta|| of the corrected coefficients overflows: {norm!r}"
            )

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
        If ``|1 - alpha^2| < 1e-9``, or the difference gap
        ``omega * (1 - alpha^2)`` rounds to 0, while a mixed amplitude is
        nonzero.
    OverflowError
        If a corrected coefficient overflows; it names the first one. If
        each is finite but their norm overflows, it names the norm.
    """
    _check_inputs(height_nm, alpha, omega, kappa)
    _check_mixed_gap(alpha, omega, a.a2, a.a4)
    beta = _betas(a.a1, a.a2, a.a3, a.a4, height_nm, alpha, omega, kappa)
    for k, value in enumerate(beta, start=1):
        if not math.isfinite(value):
            raise OverflowError(f"corrected coefficient beta{k} overflows: {value!r}")
    return BetaCoefficients(*beta)


def _check_mixed_gap(alpha: float, omega: float, a2: float, a4: float) -> None:
    if a2 == 0 and a4 == 0:
        return
    mixed_gap = 1.0 - alpha * alpha
    if abs(mixed_gap) < DENOMINATOR_TOL:
        raise DegenerateDenominatorError(
            f"difference gap 1 - alpha^2 = {mixed_gap:.3e} is too small for"
            f" nonzero mixed amplitudes (a2={a2!r}, a4={a4!r})"
        )
    if omega * mixed_gap == 0.0:
        raise DegenerateDenominatorError(
            f"difference gap omega * (1 - alpha^2) rounds to 0 (omega={omega!r},"
            f" alpha={alpha!r}) for nonzero mixed amplitudes (a2={a2!r}, a4={a4!r})"
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
    """The corrected coefficients, from inputs that passed
    :func:`_check_inputs` and :func:`_check_mixed_gap`."""
    mixed_gap = 1.0 - alpha * alpha
    coupling = kappa * alpha
    square = coupling**2
    cube = 2.0 * (2.0 * height_nm) ** 3
    # divided by each gap twice: its square can leave the float range
    # where the correction does not
    d_sum = omega * (1.0 + alpha * alpha)
    d_diff = omega * mixed_gap
    # the difference gap rounds to 0 at a subnormal omega, where
    # _check_mixed_gap lets only zero mixed amplitudes through; they take
    # no correction, as dividing by an infinite gap gives
    if d_diff == 0.0:
        d_diff = math.inf
    try:
        # a square below the normal range loses digits or vanishes where
        # the correction need not, so there the division comes first
        if square >= _SMALLEST_NORMAL:
            pref = square / cube
        else:
            pref = coupling * (coupling / cube)
    except ZeroDivisionError:
        # (2R)^3 rounds to 0 where a correction need not; one past the
        # float range is infinite, and a zero amplitude takes none. The
        # gaps go in as factors: omega (1 + alpha^2) can overflow here
        s = 2.0 * height_nm
        sum_gap = 1.0 + alpha * alpha
        return tuple(
            a - _exact_quotient((coupling, coupling, a, a), (2.0, s, s, s, omega, omega, gap, gap))
            if a
            else a
            for a, gap in ((a1, sum_gap), (a2, mixed_gap), (a3, sum_gap), (a4, mixed_gap))
        )
    # a prefactor below the normal range has lost digits or vanished where
    # the correction need not, so there each gap divides first. An infinite
    # cube (2R overflows) leaves no correction, as the order below gives
    if pref < _SMALLEST_NORMAL and cube < math.inf:
        u1, u2 = coupling * a1 / d_sum, coupling * a2 / d_diff
        u3, u4 = coupling * a3 / d_sum, coupling * a4 / d_diff
        return (
            a1 - u1 * (u1 / cube),
            a2 - u2 * (u2 / cube),
            a3 - u3 * (u3 / cube),
            a4 - u4 * (u4 / cube),
        )
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

    Raises
    ------
    ValueError
        If ``a1`` is not finite (nan included).
    ShiftExceedsGapError
        If the shift overflows, as an infinite shift reaches every gap;
        the message is :func:`scattered_frequency`'s for that shift.
    """
    _check_inputs(height_nm, alpha, omega, kappa)
    if not math.isfinite(a1):
        raise ValueError(f"a1 must be finite, got {a1!r}")
    shift = _shift(a1, height_nm, alpha, omega, kappa)
    if math.isinf(shift):
        _emitted(omega, shift)  # raises: an infinite shift reaches the gap
    return shift


def _shift(
    a1: float, height_nm: float, alpha: float, omega: float, kappa: float
) -> float:
    weight = -(a1**2)
    coupling = kappa * alpha
    square = coupling**2
    denominator = (2.0 * height_nm) ** 3 * omega * (1.0 + alpha * alpha)
    try:
        # as in _betas, the division comes first where the square is not normal
        if square >= _SMALLEST_NORMAL:
            shift = weight * square / denominator
        else:
            shift = weight * (coupling * (coupling / denominator))
    except ZeroDivisionError:
        # the denominator rounds to 0 where the shift need not: -inf past
        # the float range, 0 without coupling or amplitude
        s = 2.0 * height_nm
        shift = -_exact_quotient(
            (a1, a1, coupling, coupling), (s, s, s, omega, 1.0 + alpha * alpha)
        )
    return shift + 0.0  # fold -0.0 to +0.0


def _exact_quotient(numerator: tuple[float, ...], denominator: tuple[float, ...]) -> float:
    """The product of ``numerator`` over that of ``denominator``, rounded
    once from the exact rational, and infinite past the float range.

    For the rare inputs where a float product rounds to 0 while the
    quotient need not, such as (2R)^3 for 2R below ~2e-108.
    """
    quotient = math.prod(map(Fraction, numerator)) / math.prod(map(Fraction, denominator))
    try:
        return float(quotient)
    except OverflowError:
        return math.inf if quotient > 0 else -math.inf


def scattered_frequency(omega: float, delta_e: float) -> float:
    """Emitted angular frequency omega - |delta_e|, in eV since hbar = 1.

    Raises
    ------
    ValueError
        If ``delta_e`` is nan.
    ShiftExceedsGapError
        If the shift magnitude reaches the bare gap, which would drive
        the emitted frequency to zero or below.
    """
    _positive_finite(omega=omega)
    if math.isnan(delta_e):
        raise ValueError("delta_e must not be nan")
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

    The gap check runs before beta is computed. Below the gap the
    ground-state correction stays under half its amplitude, so a
    coupling strong enough to overflow that norm fails as
    :class:`ShiftExceedsGapError` instead. The gap check does not bound
    the other amplitudes' corrections; where one overflows the
    probability weight, it raises ``OverflowError``.
    """
    _check_inputs(height_nm, alpha, omega, kappa)
    amp, delta, omega_s = _photon(
        a.a1, a.a2, a.a3, a.a4, height_nm, alpha, omega, kappa
    )
    weight = amp * amp
    if not math.isfinite(weight):
        raise OverflowError(f"probability weight overflows: {weight!r} (amplitude {amp!r})")
    return ScatteredPhotonReport(
        amplitude=amp,
        probability_weight=weight,
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
    """``||beta||``, the shift and the emitted frequency, from checked inputs.

    The gap check runs before beta, so a shift past the gap is the error
    wherever beta would also fail; a degenerate difference gap is checked
    first, as :func:`beta_coefficients` checks it.
    """
    _check_mixed_gap(alpha, omega, a2, a4)
    delta = _shift(a1, height_nm, alpha, omega, kappa)
    omega_s = _emitted(omega, delta)
    beta = _betas(a1, a2, a3, a4, height_nm, alpha, omega, kappa)
    return math.hypot(*beta), delta, omega_s
