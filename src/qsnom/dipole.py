"""Tip dipole, dielectric sample, and the induced image dipole.

Energies are in eV, lengths in nm, and hbar = 1 so angular frequencies
are numerically equal to energies. The image of a two-level dipole held
at height R above a dielectric half-space sits at depth R below the
surface with its gap multiplied by the squared response factor of the
interface. Levels count from a ground state at zero energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnsupportedPermittivityError

__all__ = [
    "DielectricSample",
    "TipDipole",
    "ImageDipole",
    "NearFieldReport",
    "derive_image",
    "near_field_check",
]

#: hbar * c in eV nm, fixed by convention for wavelength conversions.
HBAR_C_EV_NM = 197.3269804


def _positive_finite(**values: float) -> None:
    """Raise ``ValueError`` unless each value is positive (nan is not) and finite.

    The values are checked in the order given, and the error names the
    first one that fails.
    """
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
        if value == math.inf:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _alpha(epsilon_d: float) -> float:
    """Electrostatic image response (eps - 1) / (eps + 1)."""
    return (epsilon_d - 1.0) / (epsilon_d + 1.0)


def _epsilon(value: float) -> float:
    """Return ``value`` as a float permittivity whose alpha lies in [0, 1).

    Raises :class:`UnsupportedPermittivityError` for a value below 1, nan,
    inf, or one so large that alpha rounds to 1 (somewhere past 2**53).
    """
    eps = float(value)
    if not eps >= 1.0:
        raise UnsupportedPermittivityError(f"epsilon_d must be >= 1, got {eps!r}")
    if eps == math.inf:
        raise UnsupportedPermittivityError(f"epsilon_d must be finite, got {eps!r}")
    if _alpha(eps) >= 1.0:
        raise UnsupportedPermittivityError(
            "epsilon_d must be small enough that"
            " alpha = (epsilon_d - 1)/(epsilon_d + 1) rounds below 1,"
            f" got {eps!r}"
        )
    return eps


def _image_gap(alpha: float, omega: float) -> float:
    """Image gap: the tip gap scaled by alpha squared."""
    return alpha * alpha * omega


def _near_field_ratio(separation: float, omega: float, omega_image: float) -> float:
    """Separation over the shorter reduced wavelength of the two gaps.

    A zero image gap has no wavelength. A ratio that overflows, or is
    nan because both lengths overflow, raises ``OverflowError``.
    """
    shortest = HBAR_C_EV_NM / omega
    if omega_image > 0 and HBAR_C_EV_NM / omega_image < shortest:
        shortest = HBAR_C_EV_NM / omega_image
    ratio = separation / shortest
    if not ratio < math.inf:
        raise OverflowError(
            f"near-field ratio overflows: separation {separation!r} nm"
            f" over reduced wavelength {shortest!r} nm"
        )
    return ratio


@dataclass(frozen=True)
class DielectricSample:
    """Half-space sample characterized by a real relative permittivity."""

    epsilon_d: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon_d", _epsilon(self.epsilon_d))

    @property
    def alpha(self) -> float:
        """Electrostatic image response (eps - 1) / (eps + 1), in [0, 1)."""
        return _alpha(self.epsilon_d)


@dataclass(frozen=True)
class TipDipole:
    """Two-level dipole at the tip apex, height R above the surface."""

    omega: float
    height_nm: float

    def __post_init__(self) -> None:
        _positive_finite(omega=self.omega, height_nm=self.height_nm)

    @property
    def separation(self) -> float:
        """Distance 2R between the tip dipole and its image."""
        return 2.0 * self.height_nm


@dataclass(frozen=True)
class ImageDipole:
    """Image of the tip dipole inside the sample.

    Its levels are 0 and ``omega_image``; its moment, the tip's times
    alpha, enters through the coupling. A gap of 0 is the vacuum image.
    """

    omega_image: float

    def __post_init__(self) -> None:
        if not self.omega_image >= 0:
            raise ValueError(f"omega_image must be >= 0, got {self.omega_image!r}")
        if self.omega_image == math.inf:
            raise ValueError(f"omega_image must be finite, got {self.omega_image!r}")


@dataclass(frozen=True)
class NearFieldReport:
    """Outcome of the quasi-static validity check."""

    passed: bool
    ratio: float
    factor: float


def derive_image(tip: TipDipole, sample: DielectricSample) -> ImageDipole:
    """Build the image dipole induced by ``tip`` above ``sample``.

    The image gap is the tip gap scaled by alpha squared.
    """
    return ImageDipole(omega_image=_image_gap(sample.alpha, tip.omega))


def near_field_check(
    tip: TipDipole,
    image: ImageDipole,
    factor: float = 0.1,
) -> NearFieldReport:
    """Check that the tip-image separation is deep inside a wavelength.

    The separation 2R is compared against the smallest reduced
    wavelength among the two transition energies; the check passes when
    ``2R < factor * min(c/omega)``. A failed check is advisory: callers
    attach it to run metadata and continue. A ratio that overflows, or
    is nan because both lengths overflow, raises ``OverflowError``.
    """
    _positive_finite(factor=factor)
    ratio = _near_field_ratio(tip.separation, tip.omega, image.omega_image)
    return NearFieldReport(passed=ratio < factor, ratio=ratio, factor=factor)
