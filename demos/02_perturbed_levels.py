"""Energy levels of the coupled tip-image system, perturbatively and exactly.

The tip dipole and its screened image exchange excitations through a
static dipole-dipole term. Second-order perturbation theory gives the
level shifts; exact diagonalization of the same matrix bounds the
error, which shrinks like the fourth power of the coupling.
"""

from __future__ import annotations

from qsnom.dipole import DielectricSample, TipDipole
from qsnom.hamiltonian import ModelConfig, build_hamiltonian_pair
from qsnom.perturbation import rs_pt2, validate_against_exact

sample = DielectricSample(3.0)
tip = TipDipole(omega=1.0, height_nm=0.5)
cfg = ModelConfig(kappa=0.05)
pair = build_hamiltonian_pair(tip, sample, cfg)

print("= register and coupling =")
print(f"  levels              {pair.h0.side} (tip x image, one photon)")
print(f"  coupling strength   {pair.g:.6g} eV")
for warning in pair.warnings:
    print(f"  warning: {warning}")

index = 0  # |g, g, 1>
result = rs_pt2(pair.h0, pair.delta_h, index)
print()
print("= second-order shift of the one-photon ground level =")
print(f"  unperturbed energy  {result.e0:.6f} eV")
print(f"  second-order shift  {result.e2:.6e} eV")
for m, gap in result.gap_report:
    print(f"  couples to level {m} across {gap:+.4f} eV")

comparison = validate_against_exact(pair.h0, pair.delta_h, index)
print()
print("= against exact diagonalization =")
print(f"  perturbative energy {comparison.pt2_energy:.12f} eV")
print(f"  exact energy        {comparison.exact_energy:.12f} eV")
print(f"  residual            {comparison.residual:.3e} eV")
print(f"  state overlap       {comparison.overlap:.6f}")

print()
print("= residual decays like the coupling to the fourth power =")
for kappa in (0.05, 0.025, 0.0125):
    weak = build_hamiltonian_pair(tip, sample, ModelConfig(kappa=kappa))
    res = validate_against_exact(weak.h0, weak.delta_h, index).residual
    print(f"  kappa={kappa:<7g} g={weak.g:.5f} eV  residual={res:.3e} eV")
