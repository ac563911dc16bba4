"""Hamiltonians for the tip dipole, its image, and one photon mode.

The composite register is (tip, image, photon) with the tip most
significant: basis index ``(i_a * 2 + i_b) * (n_max + 1) + n`` for tip
level ``i_a``, image level ``i_b`` and photon number ``n``; level 0 is
the ground state. The free part is diagonal, with the photon mode
resonant with the tip gap; the dipole-dipole coupling flips both
two-level systems at once and leaves the photon register untouched.
Both terms are built as their nonzero entries, so memory and time grow
linearly with ``n_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dipole import (
    DielectricSample,
    ImageDipole,
    TipDipole,
    _positive_finite,
    derive_image,
)
from .tensor import OperatorMatrix

__all__ = [
    "N_MAX_LIMIT",
    "ModelConfig",
    "HamiltonianPair",
    "basis_index",
    "coupling_constant",
    "build_h0",
    "build_delta_h",
    "build_hamiltonian_pair",
    "regime_warnings",
]

# Highest accepted photon number. A register this size still has a dense
# N x N complex matrix under 1 GiB, for a caller who reads ``.entries``.
N_MAX_LIMIT = 1024


@dataclass(frozen=True)
class ModelConfig:
    """Photon register size and coupling prefactor.

    The photon mode is resonant with the tip gap. ``kappa`` collects the
    product of transition moments, the vacuum permittivity, and the
    fixed tip-image geometry into one scalar with units eV nm^3.
    ``n_max`` lies in ``1..N_MAX_LIMIT``.
    """

    n_max: int = 1
    kappa: float = 0.05

    def __post_init__(self) -> None:
        if int(self.n_max) != self.n_max or not 1 <= self.n_max <= N_MAX_LIMIT:
            raise ValueError(
                f"n_max must be an integer in 1..{N_MAX_LIMIT}, got {self.n_max!r}"
            )
        object.__setattr__(self, "n_max", int(self.n_max))
        _positive_finite("kappa", self.kappa)


@dataclass(frozen=True)
class HamiltonianPair:
    """Free Hamiltonian, coupling term, and the coupling strength."""

    h0: OperatorMatrix
    delta_h: OperatorMatrix
    g: float
    warnings: tuple[str, ...] = field(default=())


def basis_index(i_a: int, i_b: int, n: int, photon_levels: int) -> int:
    """Flat index of |tip level, image level, photon number>."""
    if i_a not in (0, 1) or i_b not in (0, 1):
        raise ValueError(f"dipole levels must be 0 or 1, got ({i_a}, {i_b})")
    if not 0 <= n < photon_levels:
        raise ValueError(f"photon number {n} outside 0..{photon_levels - 1}")
    return (i_a * 2 + i_b) * photon_levels + n


def coupling_constant(
    tip: TipDipole,
    sample: DielectricSample,
    cfg: ModelConfig,
) -> float:
    """Dipole-dipole coupling g = kappa * alpha / (2R)^3 in eV."""
    return cfg.kappa * sample.alpha / tip.separation**3


def _h0_energies(
    tip: TipDipole,
    image: ImageDipole,
    cfg: ModelConfig | None,
) -> np.ndarray:
    n_max = 0 if cfg is None else cfg.n_max
    pairs = [
        i_a * tip.omega + i_b * image.omega_image for i_a in (0, 1) for i_b in (0, 1)
    ]
    # every level is at most the top one, so a finite top leaves numpy
    # nothing to overflow
    if not math.isfinite(pairs[-1] + n_max * tip.omega):
        raise OverflowError(
            "free energy of the top level omega + omega_image + n_max*omega"
            f" is not finite: omega={tip.omega!r},"
            f" omega_image={image.omega_image!r}, n_max={n_max}"
        )
    return (np.array(pairs)[:, None] + np.arange(n_max + 1) * tip.omega).ravel()


def build_h0(
    tip: TipDipole,
    image: ImageDipole,
    cfg: ModelConfig | None,
) -> OperatorMatrix:
    """Diagonal free Hamiltonian of the composite register.

    With ``cfg=None`` the photon register is omitted and the result acts
    on the dipole pair alone (dims ``(2, 2)``).
    """
    energies = _h0_energies(tip, image, cfg)
    dims = (2, 2) if cfg is None else (2, 2, cfg.n_max + 1)
    index = np.flatnonzero(energies)
    return OperatorMatrix._canonical(
        dims, index, index, energies[index].astype(complex)
    )


def build_delta_h(g: float, cfg: ModelConfig | None = None) -> OperatorMatrix:
    """Dipole-dipole coupling term.

    The interaction is ``-g`` times the sum of the four products of
    raising/lowering operators on the two dipoles (both raised, both
    lowered, and the two exchange terms), tensored with the identity on
    the photon register. Its diagonal is zero and it conserves the
    parity of the total dipole excitation number. With ``L`` photon
    levels its only nonzero entries are ``-g`` at row ``p*L + n`` and
    column ``q*L + n`` for (p, q) in {(0,3), (1,2), (2,1), (3,0)} and
    every photon number ``n``.
    """
    levels = 1 if cfg is None else cfg.n_max + 1
    rows = np.arange(4 * levels if g else 0)  # g = 0 leaves no nonzero entry
    # q = 3 - p: the row blocks p = 0..3 in reverse order
    cols = rows.reshape(4, -1)[::-1].ravel()
    dims = (2, 2) if cfg is None else (2, 2, levels)
    return OperatorMatrix._canonical(
        dims, rows, cols, np.full(rows.size, -g, dtype=complex)
    )


def regime_warnings(
    tip: TipDipole,
    image: ImageDipole,
    g: float,
) -> tuple[str, ...]:
    """Advisory check that g is small against the gaps it couples across.

    The coupling links |g,g> to |e,e> across ``omega + omega_img`` and
    |g,e> to |e,g> across ``|omega - omega_img|``, each at one photon
    number; the exchange gap is never the larger. Returns a warning
    when ``g`` exceeds a tenth of it; the build itself never fails on
    this.
    """
    spacing = abs(tip.omega - image.omega_image)
    if g > 0.1 * spacing:
        return (
            f"perturbative regime: g={g:.6g} eV exceeds 0.1 x smallest "
            f"positive level spacing {spacing:.6g} eV",
        )
    return ()


def build_hamiltonian_pair(
    tip: TipDipole,
    sample: DielectricSample,
    cfg: ModelConfig,
) -> HamiltonianPair:
    """Derive the image dipole and assemble (H0, coupling) for it."""
    image = derive_image(tip, sample)
    g = coupling_constant(tip, sample, cfg)
    h0 = build_h0(tip, image, cfg)
    delta_h = build_delta_h(g, cfg)
    warns = regime_warnings(tip, image, g)
    return HamiltonianPair(h0=h0, delta_h=delta_h, g=g, warnings=warns)
