"""Recovering the sample permittivity from a measured photon frequency.

The emitted frequency decreases strictly with the permittivity, so a
single measurement inside the attainable band identifies the sample.
On the closed route (used here) the recovery inverts the shift in
closed form and reports ``iterations=0``; the oracle route brackets the
answer with a root search. Frequencies outside the band are rejected
with the band printed in the error.
"""

from __future__ import annotations

from qsnom.errors import OutOfBracketError
from qsnom.inversion import InversionProblem, forward, invert_permittivity

GEOMETRY = dict(height_nm=0.5, omega=1.0, kappa=1.0)

print("= attainable frequency band for the bracket (1+1e-9, 1e6) =")
top = forward(1.0 + 1e-9, **GEOMETRY).omega_s
bottom = forward(1e6, **GEOMETRY).omega_s
print(f"  highest emitted frequency {top:.9f} eV (vacuum side)")
print(f"  lowest emitted frequency  {bottom:.9f} eV (metallic side)")

print()
print("= round trip: simulate a sample, then recover it =")
for epsilon_d in (2.0, 4.0, 11.7, 80.0):
    observed = forward(epsilon_d, **GEOMETRY).omega_s
    result = invert_permittivity(
        InversionProblem(observed_omega_s=observed, **GEOMETRY)
    )
    print(
        f"  true={epsilon_d:>6g}  observed omega_s={observed:.9f} eV"
        f"  recovered={result.epsilon_d:.9f}"
        f"  iterations={result.iterations}"
    )

print()
print("= a frequency above the band cannot come from this geometry =")
try:
    invert_permittivity(InversionProblem(observed_omega_s=1.2, **GEOMETRY))
except OutOfBracketError as exc:
    print(f"  rejected: {exc}")
