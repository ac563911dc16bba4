"""Quantum model of near-field tip-sample scattering.

A two-level dipole at an AFM tip apex, its image inside a dielectric
sample, and one photon mode: build the coupled Hamiltonians, perturb,
predict the scattered photon, and invert a measured frequency shift
back to the sample permittivity.

The package exports the names of the README's library tour, the sweep
entry points and the model's error classes; everything else is imported
from its submodule.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .closedform import InitialCoefficients, photon_report
from .crosscheck import consistency_report
from .dipole import DielectricSample, TipDipole, derive_image
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    DegenerateGapError,
    NoConvergenceError,
    OutOfBracketError,
    QsnomError,
    ShiftExceedsGapError,
    UnsupportedPermittivityError,
)
from .hamiltonian import ModelConfig, basis_index, build_hamiltonian_pair
from .inversion import (
    InversionProblem,
    SweepSpec,
    forward,
    invert_permittivity,
    run_sweep,
)
from .perturbation import rs_pt2, validate_against_exact

__all__ = [
    "__version__",
    "ConfigError",
    "DegenerateDenominatorError",
    "DegenerateGapError",
    "DielectricSample",
    "InitialCoefficients",
    "InversionProblem",
    "ModelConfig",
    "NoConvergenceError",
    "OutOfBracketError",
    "QsnomError",
    "ShiftExceedsGapError",
    "SweepSpec",
    "TipDipole",
    "UnsupportedPermittivityError",
    "basis_index",
    "build_hamiltonian_pair",
    "consistency_report",
    "derive_image",
    "forward",
    "invert_permittivity",
    "photon_report",
    "rs_pt2",
    "run_sweep",
    "validate_against_exact",
]
