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


def _positive_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (nan is not) and finite."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    if value == math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class DielectricSample:
    """Half-space sample characterized by a real relative permittivity."""

    epsilon_d: float

    def __post_init__(self) -> None:
        eps = float(self.epsilon_d)
        if not eps >= 1.0:
            raise UnsupportedPermittivityError(
                f"epsilon_d must be >= 1, got {eps!r}"
            )
        if eps == math.inf:
            raise UnsupportedPermittivityError(f"epsilon_d must be finite, got {eps!r}")
        object.__setattr__(self, "epsilon_d", eps)

    @property
    def alpha(self) -> float:
        """Electrostatic image response (eps - 1) / (eps + 1), in [0, 1)."""
        return (self.epsilon_d - 1.0) / (self.epsilon_d + 1.0)


@dataclass(frozen=True)
class TipDipole:
    """Two-level dipole at the tip apex, height R above the surface."""

    omega: float
    height_nm: float

    def __post_init__(self) -> None:
        for name in ("omega", "height_nm"):
            _positive_finite(name, getattr(self, name))

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
    a = sample.alpha
    return ImageDipole(omega_image=a * a * tip.omega)


def near_field_check(
    tip: TipDipole,
    image: ImageDipole,
    factor: float = 0.1,
) -> NearFieldReport:
    """Check that the tip-image separation is deep inside a wavelength.

    The separation 2R is compared against the smallest reduced
    wavelength among the two transition energies; the check passes when
    ``2R < factor * min(c/omega)``. A failed check is advisory: callers
    attach it to run metadata and continue. A ratio that overflows
    raises ``OverflowError``.
    """
    _positive_finite("factor", factor)
    gaps = [tip.omega]
    if image.omega_image > 0:
        gaps.append(image.omega_image)
    shortest = min(HBAR_C_EV_NM / e for e in gaps)
    ratio = tip.separation / shortest
    if ratio == math.inf:
        raise OverflowError(
            f"near-field ratio overflows: separation {tip.separation!r} nm"
            f" over reduced wavelength {shortest!r} nm"
        )
    return NearFieldReport(passed=ratio < factor, ratio=ratio, factor=factor)
