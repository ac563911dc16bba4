"""Tip dipole, dielectric sample, and the induced image dipole.

Energies are in eV, lengths in nm, and hbar = 1 so angular frequencies
are numerically equal to energies. The image of a two-level dipole held
at height R above a dielectric half-space sits at depth R below the
surface with every energy scale multiplied by the squared response
factor of the interface.
"""

from __future__ import annotations

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
    moment_scale: float = 1.0
    ground_energy: float = 0.0

    def __post_init__(self) -> None:
        if not self.omega > 0:
            raise ValueError(f"omega must be positive, got {self.omega!r}")
        if not self.height_nm > 0:
            raise ValueError(f"height_nm must be positive, got {self.height_nm!r}")
        if not self.moment_scale > 0:
            raise ValueError(
                f"moment_scale must be positive, got {self.moment_scale!r}"
            )

    @property
    def separation(self) -> float:
        """Distance 2R between the tip dipole and its image."""
        return 2.0 * self.height_nm


@dataclass(frozen=True)
class ImageDipole:
    """Image of the tip dipole inside the sample.

    ``energies`` holds the image levels (ground, excited); the gap
    between them is ``omega_image``.
    """

    omega_image: float
    moment_scale_image: float
    energies: tuple[float, float]


@dataclass(frozen=True)
class NearFieldReport:
    """Outcome of the quasi-static validity check."""

    passed: bool
    ratio: float
    factor: float


def derive_image(tip: TipDipole, sample: DielectricSample) -> ImageDipole:
    """Build the image dipole induced by ``tip`` above ``sample``.

    Image energies are the tip energies scaled by alpha squared; the
    image transition moment is the tip moment scaled by alpha.
    """
    a = sample.alpha
    e_ground = a * a * tip.ground_energy
    e_excited = a * a * (tip.ground_energy + tip.omega)
    return ImageDipole(
        omega_image=a * a * tip.omega,
        moment_scale_image=a * tip.moment_scale,
        energies=(e_ground, e_excited),
    )


def near_field_check(
    tip: TipDipole,
    image: ImageDipole,
    factor: float = 0.1,
) -> NearFieldReport:
    """Check that the tip-image separation is deep inside a wavelength.

    The separation 2R is compared against the smallest reduced
    wavelength among the two transition energies; the check passes when
    ``2R < factor * min(c/omega)``. A failed check is advisory: callers
    attach it to run metadata and continue.
    """
    if not factor > 0:
        raise ValueError(f"factor must be positive, got {factor!r}")
    gaps = [tip.omega]
    if image.omega_image > 0:
        gaps.append(image.omega_image)
    shortest = min(HBAR_C_EV_NM / e for e in gaps)
    ratio = tip.separation / shortest
    return NearFieldReport(passed=ratio < factor, ratio=ratio, factor=factor)
