"""Hamiltonians for the tip dipole, its image, and one photon mode.

The dipole-dipole coupling flips both two-level systems at once and
leaves the photon number alone, so the reference level |g, g, 1> mixes
only inside the one-photon sector {|i_a, i_b, 1>}, and the photon mode
is a spectator. The oracle works on that sector: four states with the
tip most significant, basis index ``i_a * 2 + i_b`` for tip level
``i_a`` and image level ``i_b``, level 0 being the ground state. The
free part is diagonal, its energies the pair's plus the one photon's,
which is resonant with the tip gap. Both terms are dense 4 x 4 arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dipole import DielectricSample, TipDipole, _positive_finite, derive_image
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

# Highest photon number ModelConfig accepts; see ModelConfig.
N_MAX_LIMIT = 1024


@dataclass(frozen=True)
class ModelConfig:
    """Coupling prefactor, plus a photon number that sizes nothing.

    ``kappa`` collects the product of transition moments, the vacuum
    permittivity, and the fixed tip-image geometry into one scalar with
    units eV nm^3. ``n_max`` is checked to lie in ``1..N_MAX_LIMIT`` and
    is otherwise unused: the oracle works on the one-photon sector. It
    stays because the benchmark under ``perfbench/`` passes it.
    """

    n_max: int = 1
    kappa: float = 0.05

    def __post_init__(self) -> None:
        if int(self.n_max) != self.n_max or not 1 <= self.n_max <= N_MAX_LIMIT:
            raise ValueError(
                f"n_max must be an integer in 1..{N_MAX_LIMIT}, got {self.n_max!r}"
            )
        object.__setattr__(self, "n_max", int(self.n_max))
        _positive_finite(kappa=self.kappa)


@dataclass(frozen=True)
class HamiltonianPair:
    """Free Hamiltonian, coupling term, and the coupling strength."""

    h0: OperatorMatrix
    delta_h: OperatorMatrix
    g: float
    warnings: tuple[str, ...] = field(default=())


def basis_index(i_a: int, i_b: int, n: int, photon_levels: int) -> int:
    """Index of |tip level, image level, 1> in the one-photon sector.

    The photon arguments are checked and then ignored; they stay
    because the benchmark under ``perfbench/`` passes them.
    """
    if i_a not in (0, 1) or i_b not in (0, 1):
        raise ValueError(f"dipole levels must be 0 or 1, got ({i_a}, {i_b})")
    if not 0 <= n < photon_levels:
        raise ValueError(f"photon number {n} outside 0..{photon_levels - 1}")
    return i_a * 2 + i_b


def coupling_constant(kappa: float, alpha: float, separation: float) -> float:
    """Dipole-dipole coupling g = kappa * alpha / (2R)^3 in eV.

    ``separation`` is the tip-image distance 2R in nm. Its cube raises
    ``OverflowError`` where it overflows.
    """
    return kappa * alpha / separation**3


def build_h0(omega: float, omega_image: float) -> OperatorMatrix:
    """Diagonal free Hamiltonian of the one-photon sector.

    Level ``i_a * 2 + i_b`` has energy
    ``(i_a * omega + i_b * omega_img) + omega``. A negative
    ``omega_image`` raises ``ValueError``.
    """
    # below zero, a level other than the top one can overflow
    if omega_image < 0:
        raise ValueError(f"omega_image must be >= 0, got {omega_image!r}")
    pairs = [i_a * omega + i_b * omega_image for i_a in (0, 1) for i_b in (0, 1)]
    # every level is at most the top one, so a finite top leaves no level
    # to overflow
    if not math.isfinite(pairs[-1] + omega):
        # the wording is the photon register's at n_max = 1, whose top
        # level this is
        raise OverflowError(
            "free energy of the top level omega + omega_image + n_max*omega"
            f" is not finite: omega={omega!r},"
            f" omega_image={omega_image!r}, n_max=1"
        )
    return OperatorMatrix((2, 2), np.diag([p + omega for p in pairs]))


def build_delta_h(g: float) -> OperatorMatrix:
    """Dipole-dipole coupling term.

    The interaction is ``-g`` times the sum of the four products of
    raising/lowering operators on the two dipoles (both raised, both
    lowered, and the two exchange terms). On the sector it is ``-g`` on
    the anti-diagonal: it links |g,g> with |e,e> and |g,e> with |e,g>,
    has a zero diagonal and conserves the parity of the total dipole
    excitation number.
    """
    # an infinite entry would leave nan in the Hermiticity check
    if not math.isfinite(g):
        raise OverflowError(f"coupling g = kappa*alpha/(2R)^3 is not finite: g={g!r}")
    c = -g
    return OperatorMatrix(
        (2, 2),
        [[0.0, 0.0, 0.0, c], [0.0, 0.0, c, 0.0], [0.0, c, 0.0, 0.0], [c, 0.0, 0.0, 0.0]],
    )


def regime_warnings(omega: float, omega_image: float, g: float) -> tuple[str, ...]:
    """Advisory check that g is small against the gaps it couples across.

    The coupling links |g,g> to |e,e> across ``omega + omega_img`` and
    |g,e> to |e,g> across ``|omega - omega_img|``; the exchange gap is
    never the larger. Returns a warning when ``g`` exceeds a tenth of
    it; the build itself never fails on this.
    """
    spacing = abs(omega - omega_image)
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
    omega_image = derive_image(tip, sample).omega_image
    g = coupling_constant(cfg.kappa, sample.alpha, tip.separation)
    return HamiltonianPair(
        h0=build_h0(tip.omega, omega_image),
        delta_h=build_delta_h(g),
        g=g,
        warnings=regime_warnings(tip.omega, omega_image, g),
    )
