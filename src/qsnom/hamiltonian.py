"""Hamiltonians for the tip dipole, its image, and one photon mode.

The composite register is (tip, image, photon) with the tip most
significant: basis index ``(i_a * 2 + i_b) * (n_max + 1) + n`` for tip
level ``i_a``, image level ``i_b`` and photon number ``n``; level 0 is
the ground state. The free part is diagonal; the dipole-dipole coupling
flips both two-level systems at once and leaves the photon register
untouched. Both terms are built as their nonzero entries, so memory and
time grow linearly with ``n_max``.
"""

from __future__ import annotations

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

    ``photon_energy`` of ``None`` means resonant with the tip gap.
    ``kappa`` collects the product of transition moments, the vacuum
    permittivity, and the fixed tip-image geometry into one scalar with
    units eV nm^3. ``n_max`` lies in ``1..N_MAX_LIMIT``.
    """

    n_max: int = 1
    photon_energy: float | None = None
    kappa: float = 0.05

    def __post_init__(self) -> None:
        if int(self.n_max) != self.n_max or not 1 <= self.n_max <= N_MAX_LIMIT:
            raise ValueError(
                f"n_max must be an integer in 1..{N_MAX_LIMIT}, got {self.n_max!r}"
            )
        object.__setattr__(self, "n_max", int(self.n_max))
        if self.photon_energy is not None:
            _positive_finite("photon_energy", self.photon_energy)
        _positive_finite("kappa", self.kappa)

    def resolved_photon_energy(self, tip: TipDipole) -> float:
        return tip.omega if self.photon_energy is None else self.photon_energy


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
    levels = 1 if cfg is None else cfg.n_max + 1
    e_photon = 0.0 if cfg is None else cfg.resolved_photon_energy(tip)
    pairs = np.array(
        [i_a * tip.omega + i_b * image.omega_image for i_a in (0, 1) for i_b in (0, 1)]
    )
    return (pairs[:, None] + np.arange(levels) * e_photon).ravel()


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


def _smallest_spacing(
    tip: TipDipole,
    image: ImageDipole,
    cfg: ModelConfig | None,
) -> float:
    """Smallest positive gap between levels of the free spectrum.

    Two levels differ by ``d + m * E`` with ``d`` one of 0, ``omega_img``,
    ``omega``, ``|omega - omega_img|`` and ``omega + omega_img`` up to
    sign, ``E`` the photon energy and ``|m| <= n_max``. For ``d > 0``
    the smallest ``|d - m * E|`` lies at the ``m`` in ``0..n_max``
    nearest ``d / E``; where that is an exact tie, the next best is
    ``E``, the gap at ``d = 0``. The arithmetic runs in integers on the
    binary values of the floats, so levels that are equal in exact
    arithmetic count as one level, and the gap is rounded once.
    """
    n_max = 0 if cfg is None else cfg.n_max
    photon = 0.0 if cfg is None else cfg.resolved_photon_energy(tip)
    # as_integer_ratio raises on inf and nan; each denominator is a
    # power of two, so the largest is a common one
    w, w_den = tip.omega.as_integer_ratio()
    v, v_den = abs(image.omega_image).as_integer_ratio()
    e, e_den = photon.as_integer_ratio()
    den = max(w_den, v_den, e_den)
    w *= den // w_den
    v *= den // v_den
    e *= den // e_den
    best = e if n_max else w  # a gap: d = 0 with m = 1, or d = omega alone
    for d in (v, w, abs(w - v), w + v):
        if n_max:
            m, d = divmod(d, e)  # the nearest photon number is m or m + 1
            if m >= n_max:
                d += (m - n_max) * e
            elif d + d > e:
                d = e - d
        if 0 < d < best:
            best = d
    return best / den


def regime_warnings(
    tip: TipDipole,
    image: ImageDipole,
    cfg: ModelConfig | None,
    g: float,
) -> tuple[str, ...]:
    """Advisory check that g is small against the level spacing.

    Returns a warning when ``g`` exceeds a tenth of the smallest
    positive gap of the free spectrum; the build itself never fails on
    this.
    """
    spacing = _smallest_spacing(tip, image, cfg)
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
    warns = regime_warnings(tip, image, cfg, g)
    return HamiltonianPair(h0=h0, delta_h=delta_h, g=g, warnings=warns)
