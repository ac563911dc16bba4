"""Forward map and permittivity recovery from the emitted frequency.

The forward map takes a permittivity to the emitted frequency of the
scattered photon; it is strictly decreasing in the permittivity, so a
measured frequency inside the attainable band pins the permittivity
down uniquely. Both routes share one forward body, which checks the
inputs once on the scalars; only the shift and the amplitude depend on
the route. On the closed route the shift has the form
``s = c x / (1 + x)`` with ``x = alpha^2`` and
``c = kappa^2 / ((2R)^3 omega)``, so recovery inverts it in closed form
(``iterations = 0``). The oracle route searches its numeric shift with
a bracketed derivative-free root search. Both routes take the band and
check the answer with their own shift, through the arithmetic the
forward map runs for the emitted frequency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import brentq

from . import closedform
# the value objects, derive_image, near_field_check and
# build_hamiltonian_pair are no longer called here, but perfbench/tracer.py
# wraps these names in this module and fails to start without them
from .dipole import (  # noqa: F401
    DielectricSample,
    TipDipole,
    _alpha,
    _epsilon,
    _image_gap,
    _near_field_ratio,
    _positive_finite,
    derive_image,
    near_field_check,
)
from .errors import NoConvergenceError, OutOfBracketError, QsnomError
from .hamiltonian import (  # noqa: F401
    build_delta_h,
    build_h0,
    build_hamiltonian_pair,
    coupling_constant,
    regime_warnings,
)
from .perturbation import PerturbationResult, rs_pt2

__all__ = [
    "ForwardResult",
    "InversionProblem",
    "InversionResult",
    "SweepSpec",
    "SWEEP_AXES",
    "SWEEP_COUNT_LIMIT",
    "SWEEP_OUTPUTS",
    "forward",
    "invert_permittivity",
    "run_sweep",
]

SWEEP_AXES = ("epsilon_d", "R", "omega", "kappa")

_C_INT_MAX = 2**31 - 1

# Most points a range sweep may ask for. Measured on a 2-core host
# (Python 3.11), a point takes ~5 us with one closed column and ~80 us
# with the default columns, the numeric one included, and ~0.2 to
# ~0.5 KiB of peak traced memory, so a sweep at the limit ends within
# ~1 s and ~5 MiB.
SWEEP_COUNT_LIMIT = 10_000
SWEEP_OUTPUTS = (
    "alpha",
    "g_eV",
    "delta_e_closed_eV",
    "delta_e_oracle_eV",
    "omega_s",
    "amplitude",
    "near_field_ratio",
)


@dataclass(frozen=True, slots=True)
class ForwardResult:
    """Scattered-photon observables at one parameter point.

    ``amplitude`` depends on the route. On the closed route it is the
    Euclidean norm of the corrected coefficients, ``||beta||``. On the
    oracle route it is the real part of the reference level's coefficient
    in the normalized first-order ket.
    """

    epsilon_d: float
    alpha: float
    g: float
    delta_e: float
    omega_s: float
    amplitude: float
    near_field_ratio: float
    near_field_passed: bool
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class InversionProblem:
    """Measured frequency plus the fixed geometry to invert under."""

    observed_omega_s: float
    height_nm: float
    omega: float
    kappa: float
    bracket: tuple[float, float] = (1.0 + 1e-9, 1e6)
    tol_rel: float = 1e-10
    max_iter: int = 200
    method: str = "closed"

    def __post_init__(self) -> None:
        # one pass over the fields in the order below; _positive_finite runs
        # only on a value that fails, to word its error
        lo, hi = self.bracket
        if not (lo > 1.0 and hi > lo):
            raise ValueError(
                f"bracket must satisfy 1 < lo < hi, got ({lo!r}, {hi!r})"
            )
        if hi == math.inf:
            raise ValueError(f"bracket must be finite, got ({lo!r}, {hi!r})")
        tol_rel = self.tol_rel
        if not tol_rel > 0 or tol_rel == math.inf:
            _positive_finite(tol_rel=tol_rel)
        n = self.max_iter
        if type(n) is not int or n < 1:
            if not (n >= 1 and n != math.inf and int(n) == n):
                raise ValueError(f"max_iter must be an integer >= 1, got {n!r}")
            object.__setattr__(self, "max_iter", int(n))
        if self.method != "closed" and self.method != "oracle":
            raise ValueError(f"method must be 'closed' or 'oracle', got {self.method!r}")
        observed = self.observed_omega_s
        if not observed > 0 or observed == math.inf:
            _positive_finite(observed_omega_s=observed)


@dataclass(frozen=True, slots=True)
class InversionResult:
    """Recovered permittivity with the search diagnostics."""

    epsilon_d: float
    iterations: int
    residual: float


def _oracle_pt2(
    height_nm: float, alpha: float, omega: float, kappa: float
) -> PerturbationResult:
    """The numeric route's second-order result for |g, g, 1>, level 0 of
    the one-photon sector, from checked inputs."""
    # g before H0, as build_hamiltonian_pair, so an input that fails both
    # keeps its error class
    g = coupling_constant(kappa, alpha, 2.0 * height_nm)
    h0 = build_h0(omega, _image_gap(alpha, omega))
    return rs_pt2(h0, build_delta_h(g), 0)


def forward(
    epsilon_d: float,
    height_nm: float,
    omega: float,
    kappa: float,
    near_field_factor: float = 0.1,
    method: str = "closed",
) -> ForwardResult:
    """Map a permittivity to the scattered-photon observables.

    ``method`` selects the closed-form route (default) or the numeric
    second-order route for comparison studies. Both routes check the
    inputs once, on the scalars, and derive alpha, the image gap, the
    near-field ratio, ``g`` and the regime warning from them; neither
    builds a value object. Only the shift and the amplitude depend on
    the route: the closed form, or the second-order result on the
    (H0, coupling) matrices built from the same scalars. Regime and
    near-field violations are returned as warnings, never raised.
    """
    if method not in ("closed", "oracle"):
        raise ValueError(f"method must be 'closed' or 'oracle', got {method!r}")
    epsilon_d = _epsilon(epsilon_d)
    _positive_finite(
        omega=omega, height_nm=height_nm, kappa=kappa, factor=near_field_factor
    )
    alpha = _alpha(epsilon_d)
    separation = 2.0 * height_nm
    omega_image = _image_gap(alpha, omega)
    ratio = _near_field_ratio(separation, omega, omega_image)
    g = coupling_constant(kappa, alpha, separation)
    warnings = regime_warnings(omega, omega_image, g)
    if method == "closed":
        # from the ground state |g, g>
        amplitude, delta_e, omega_s = closedform._photon(
            1.0, 0.0, 0.0, 0.0, height_nm, alpha, omega, kappa
        )
    else:
        result = _oracle_pt2(height_nm, alpha, omega, kappa)
        delta_e = result.e2
        omega_s = closedform._emitted(omega, delta_e)
        amplitude = float(np.real(result.normalized_coefficients[0]))

    passed = ratio < near_field_factor
    if not passed:
        warnings += (
            f"near-field check failed: separation/wavelength ratio "
            f"{ratio:.6g} is not below factor {near_field_factor:g}",
        )

    # positional: on the closed route's hot path keywords cost measurably more
    return ForwardResult(
        epsilon_d, alpha, g, delta_e, omega_s, amplitude, ratio, passed, warnings
    )


def _band_edge(
    problem: InversionProblem, top: float, bottom: float
) -> InversionResult | None:
    """Settle a measurement on or outside the band ``[bottom, top]``.

    A measurement within tolerance of a band edge returns that edge's
    bracket end; one further out raises :class:`OutOfBracketError`.
    Returns ``None`` for a measurement strictly inside the band.
    """
    lo, hi = problem.bracket
    observed = problem.observed_omega_s
    tol_abs = problem.tol_rel * problem.omega

    if observed > top:
        if observed - top < tol_abs:
            return InversionResult(epsilon_d=lo, iterations=0, residual=observed - top)
        raise OutOfBracketError(
            f"observed omega_s {observed!r} above attainable band"
            f" [{bottom!r}, {top!r}] on bracket ({lo:g}, {hi:g})"
        )
    if observed < bottom:
        if bottom - observed < tol_abs:
            return InversionResult(
                epsilon_d=hi, iterations=0, residual=bottom - observed
            )
        raise OutOfBracketError(
            f"observed omega_s {observed!r} below attainable band"
            f" [{bottom!r}, {top!r}] on bracket ({lo:g}, {hi:g})"
        )
    # tol_abs underflows to 0 at a tiny omega or tol_rel, and an exact hit
    # on an edge still returns it
    if observed == top:
        return InversionResult(epsilon_d=lo, iterations=0, residual=0.0)
    if observed == bottom:
        return InversionResult(epsilon_d=hi, iterations=0, residual=0.0)
    return None


def _closed_shift(
    epsilon_d: float, height_nm: float, omega: float, kappa: float
) -> float:
    """The closed route's ground-state shift, from checked inputs."""
    return closedform._shift(1.0, height_nm, _alpha(epsilon_d), omega, kappa)


def _oracle_shift(
    epsilon_d: float, height_nm: float, omega: float, kappa: float
) -> float:
    """The oracle route's ground-state shift, the one :func:`forward` takes,
    from checked inputs."""
    return _oracle_pt2(height_nm, _alpha(epsilon_d), omega, kappa).e2


@functools.lru_cache(maxsize=64, typed=True)
def _band(
    lo: float, hi: float, height_nm: float, omega: float, kappa: float, method: str
) -> tuple[float, float, float, float]:
    """``(delta_lo, delta_hi, top, bottom)``: the route's shift at each
    bracket end and the attainable band, from a checked geometry.

    Every pixel of a scan at one geometry shares its band, so it is kept
    for the last 64 geometries and routes. A raised error is not kept.
    """
    shift = _closed_shift if method == "closed" else _oracle_shift
    delta_lo = shift(_epsilon(lo), height_nm, omega, kappa)
    top = closedform._emitted(omega, delta_lo)
    delta_hi = shift(_epsilon(hi), height_nm, omega, kappa)
    # where the shift reaches the gap inside the bracket the band ends at
    # zero frequency, not at the bracket top
    bottom = 0.0 if abs(delta_hi) >= omega else closedform._emitted(omega, delta_hi)
    return delta_lo, delta_hi, top, bottom


def invert_permittivity(problem: InversionProblem) -> InversionResult:
    """Recover the permittivity whose emitted frequency matches.

    Both routes run this procedure on their own ground-state shift
    ``s(epsilon_d)``, the closed form's or the numeric second-order one,
    and call no :func:`forward`. The band runs from the frequency
    ``omega - |s|`` at the bracket top, or zero where the shift reaches
    the gap inside the bracket, to the frequency at the bracket's low
    end. A measurement within ``tol_rel * omega`` of an edge returns
    that edge; one outside raises :class:`OutOfBracketError`. Inside,
    the closed route inverts its shift in closed form
    (``iterations = 0``) and the oracle route searches
    ``omega - |s| - observed`` within ``max_iter`` iterations. The
    emitted frequency at the answer gives the residual;
    :class:`NoConvergenceError` is raised if it is not below
    ``tol_rel * omega`` or the search ran out of its budget.

    The band is computed once per geometry and route and kept in a
    64-entry cache, so later pixels of a scan at one geometry skip its
    two shifts. The search computes each other point's shift once.
    """
    lo, hi = problem.bracket
    height, omega, kappa = problem.height_nm, problem.omega, problem.kappa
    method = problem.method
    # the geometry checks forward makes, in its order, so invalid inputs
    # keep their class
    _positive_finite(omega=omega, height_nm=height, kappa=kappa)
    try:
        delta_lo, delta_hi, top, bottom = _band(lo, hi, height, omega, kappa, method)
    except TypeError:
        # an unhashable input (a 0-d array, say) has no cache entry
        delta_lo, delta_hi, top, bottom = _band.__wrapped__(
            lo, hi, height, omega, kappa, method
        )
    observed = problem.observed_omega_s
    if not bottom < observed < top:
        return _band_edge(problem, top, bottom)

    if method == "closed":
        # invert s = c x / (1 + x), x = alpha^2; kappa**2 alone can overflow
        # where c cannot
        s = omega - observed
        c = kappa * (kappa / ((2.0 * height) ** 3 * omega))
        a = math.sqrt(s / (c - s))
        # a rounds to 1 only for a bracket top next to the metallic limit
        epsilon_d = hi if a >= 1.0 else min(max((1.0 + a) / (1.0 - a), lo), hi)
        iterations, converged, how = 0, True, "closed-form inverse"
        shift = _closed_shift
    else:
        # the band edges are the search's first two steps, and the check at
        # its root repeats a point it took, so each point's shift is
        # computed once
        shifts = {float(lo): delta_lo, float(hi): delta_hi}

        def shift(eps: float, height: float, omega: float, kappa: float) -> float:
            if eps not in shifts:
                shifts[eps] = _oracle_shift(eps, height, omega, kappa)
            return shifts[eps]

        # unlike the emitted frequency, omega - |s| stays defined past the gap
        root, info = brentq(
            lambda eps: omega - abs(shift(eps, height, omega, kappa)) - observed,
            lo,
            hi,
            xtol=1e-12,
            rtol=1e-15,
            # brentq takes its budget as a C int; no search needs more
            maxiter=min(problem.max_iter, _C_INT_MAX),
            full_output=True,
            disp=False,
        )
        epsilon_d, iterations = float(root), int(info.iterations)
        converged = info.converged
        how = f"root search used {iterations} iterations (budget {problem.max_iter}) and"

    delta = shift(epsilon_d, height, omega, kappa)
    # an unconverged search may stop past the gap, where nothing is emitted
    emitted = closedform._emitted(omega, delta) if converged else omega - abs(delta)
    residual = abs(emitted - observed)
    tol_abs = problem.tol_rel * omega
    if not converged or residual >= tol_abs:
        raise NoConvergenceError(
            f"{how} left residual {residual:.3e} eV against tolerance {tol_abs:.3e} eV"
        )
    return InversionResult(epsilon_d, iterations, residual)


@dataclass(frozen=True)
class SweepSpec:
    """One-axis parameter sweep with fixed remaining parameters.

    ``fixed`` must supply exactly the other members of
    {epsilon_d, R, omega, kappa} (R in nm). ``outputs`` selects row
    columns from :data:`SWEEP_OUTPUTS`; the axis value, warnings, and
    error columns are always present.
    """

    axis: str
    values: tuple[float, ...]
    fixed: Mapping[str, float]
    outputs: tuple[str, ...] = SWEEP_OUTPUTS
    near_field_factor: float = 0.1

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        values = tuple(float(v) for v in self.values)
        if len(values) < 2:
            raise ValueError(f"sweep needs at least 2 values, got {len(values)}")
        steps = np.diff(values)
        if not (np.all(steps > 0) or np.all(steps < 0)):
            raise ValueError("sweep values must be strictly monotone")
        object.__setattr__(self, "values", values)
        expected = set(SWEEP_AXES) - {self.axis}
        got = set(self.fixed)
        if got != expected:
            raise ValueError(
                f"fixed parameters must be exactly {sorted(expected)},"
                f" got {sorted(got)}"
            )
        outputs = tuple(self.outputs)
        if not outputs:
            raise ValueError("outputs selection must not be empty")
        unknown = [c for c in outputs if c not in SWEEP_OUTPUTS]
        if unknown:
            raise ValueError(
                f"unknown output column {unknown[0]!r};"
                f" valid columns: {SWEEP_OUTPUTS}"
            )
        object.__setattr__(self, "outputs", outputs)
        _positive_finite(near_field_factor=self.near_field_factor)

    @classmethod
    def from_range(
        cls,
        axis: str,
        start: float,
        stop: float,
        count: int,
        spacing: str = "linear",
        fixed: Mapping[str, float] | None = None,
        outputs: Sequence[str] | None = None,
        near_field_factor: float = 0.1,
    ) -> SweepSpec:
        if spacing not in ("linear", "log"):
            raise ValueError(f"spacing must be 'linear' or 'log', got {spacing!r}")
        if not (2 <= count <= SWEEP_COUNT_LIMIT and int(count) == count):
            raise ValueError(
                f"count must be an integer in 2..{SWEEP_COUNT_LIMIT}, got {count!r}"
            )
        count = int(count)
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(
                f"sweep endpoints must be finite, got ({start!r}, {stop!r})"
            )
        if spacing == "log":
            if start <= 0 or stop <= 0:
                raise ValueError("log spacing needs positive endpoints")
            values = np.geomspace(start, stop, count)
        else:
            values = np.linspace(start, stop, count)
        return cls(
            axis=axis,
            values=tuple(float(v) for v in values),
            fixed=dict(fixed or {}),
            outputs=tuple(outputs) if outputs is not None else SWEEP_OUTPUTS,
            near_field_factor=near_field_factor,
        )


def _sweep_point(spec: SweepSpec, value: float) -> dict[str, object]:
    params = dict(spec.fixed)
    params[spec.axis] = value
    row: dict[str, object] = {"axis_value": value, "warnings": "", "error": ""}
    for name in spec.outputs:
        row[name] = None
    try:
        fr = forward(
            params["epsilon_d"],
            params["R"],
            params["omega"],
            params["kappa"],
            near_field_factor=spec.near_field_factor,
        )
        available: dict[str, object] = {
            "alpha": fr.alpha,
            "g_eV": fr.g,
            "delta_e_closed_eV": fr.delta_e,
            "omega_s": fr.omega_s,
            "amplitude": fr.amplitude,
            "near_field_ratio": fr.near_field_ratio,
        }
        if "delta_e_oracle_eV" in spec.outputs:
            available["delta_e_oracle_eV"] = forward(
                params["epsilon_d"],
                params["R"],
                params["omega"],
                params["kappa"],
                near_field_factor=spec.near_field_factor,
                method="oracle",
            ).delta_e
        for name in spec.outputs:
            row[name] = available[name]
        row["warnings"] = "; ".join(fr.warnings)
    # a model failure at one point (including float overflow or division
    # by zero at extreme axis values) is recorded and the sweep goes on;
    # anything else is a bug and propagates
    except (QsnomError, ValueError, ArithmeticError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(spec: SweepSpec) -> list[dict[str, object]]:
    """Evaluate the forward map on every axis value.

    Each row carries the axis value, the selected outputs, a joined
    warnings string, and an error column. The numeric route runs only
    when ``delta_e_oracle_eV`` is selected. A point that fails with a
    model error (:class:`QsnomError`, ``ValueError`` or
    ``ArithmeticError``) fills the error column and leaves its outputs
    empty instead of aborting the sweep; any other exception propagates.
    """
    return [_sweep_point(spec, v) for v in spec.values]
