"""Dielectric screening of a tip dipole and the near-field condition.

A polarizable sample screens a dipole held above it; the strength of
the screened copy grows with the permittivity and saturates for a
metal. The model is electrostatic, so the tip-image separation must
stay far below the transition wavelength.
"""

from __future__ import annotations

from qsnom.dipole import DielectricSample, TipDipole, derive_image, near_field_check

print("= screening strength versus permittivity =")
for epsilon_d in (1.0, 2.0, 3.0, 11.7, 80.0, 1e6):
    sample = DielectricSample(epsilon_d)
    print(f"  epsilon_d={epsilon_d:>9g}  alpha={sample.alpha:.6f}")

print()
print("= image dipole for silicon-like epsilon_d = 11.7 =")
tip = TipDipole(omega=1.0, height_nm=1.0)
sample = DielectricSample(11.7)
image = derive_image(tip, sample)
print(f"  tip gap energy      {tip.omega:g} eV")
print(f"  image gap energy    {image.omega_image:.6f} eV")
# the image moment is the tip moment times alpha, and its levels are
# counted from a ground state at zero energy
print(f"  image moment scale  {sample.alpha:.6f}")
print(f"  image level pair    {0.0:.6f}, {image.omega_image:.6f} eV")

print()
print("= near-field window at 1 eV (reduced wavelength 197.3 nm) =")
for height in (0.5, 1.0, 5.0, 9.0, 15.0, 50.0):
    probe = TipDipole(omega=1.0, height_nm=height)
    report = near_field_check(probe, derive_image(probe, sample))
    verdict = "ok" if report.passed else "too far"
    print(f"  height={height:>5g} nm  separation/wavelength={report.ratio:.5f}  {verdict}")
