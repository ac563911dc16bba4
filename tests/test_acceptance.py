"""Acceptance gate: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import contextlib
import io
import time

import numpy as np
import pytest

from qsnom.cli import main as cli_main
from qsnom.closedform import (
    InitialCoefficients,
    beta_coefficients,
    energy_shift,
)
from qsnom.crosscheck import consistency_report
from qsnom.dipole import DielectricSample, TipDipole, derive_image
from qsnom.errors import DegenerateDenominatorError, DegenerateGapError
from qsnom.hamiltonian import build_delta_h, build_h0
from qsnom.inversion import InversionProblem, forward, invert_permittivity
from qsnom.perturbation import rs_pt2, validate_against_exact
from qsnom.tensor import StateVector, outer, partial_trace

STRONG = dict(height_nm=0.5, omega=1.0, kappa=1.0)


def check(name, body):
    try:
        body()
    except Exception:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def test_c1_vacuum_neutrality():
    def body():
        result = forward(1.0, 0.5, 1.0, 1.0)
        assert abs(result.delta_e) <= 1e-15
        assert abs(result.omega_s - 1.0) <= 1e-15
        assert abs(result.amplitude - 1.0) <= 1e-15
        assert result.g == 0.0

    check("C1 vacuum sample leaves the photon untouched", body)


def test_c2_inverse_cube_scaling():
    def body():
        for alpha in (0.1, 0.5, 0.9):
            near = energy_shift(1.0, 0.5, alpha, 1.0, 1.0)
            far = energy_shift(1.0, 1.0, alpha, 1.0, 1.0)
            assert near / far == pytest.approx(8.0, rel=1e-12)

    check("C2 energy shift follows the inverse cube of the gap distance", body)


def test_c3_second_order_engine():
    def body():
        sample = DielectricSample(3.0)
        tip = TipDipole(omega=1.0, height_nm=0.5)
        h0 = build_h0(tip.omega, derive_image(tip, sample).omega_image)
        result = rs_pt2(h0, build_delta_h(0.01), 0)
        assert result.e2 == pytest.approx(-8e-5, abs=1e-12)
        comparison = validate_against_exact(h0, build_delta_h(0.01), 0)
        assert comparison.residual < 1e-7
        g, previous = 0.01, comparison.residual
        for _ in range(3):
            g /= 2
            current = validate_against_exact(h0, build_delta_h(g), 0).residual
            assert previous / current >= 8.0
            previous = current

    check("C3 second-order engine matches exact diagonalization", body)


def test_c4_strong_coupling_fixture():
    def body():
        result = forward(3.0, **STRONG)
        assert result.delta_e == pytest.approx(-0.2, abs=1e-12)
        assert result.omega_s == pytest.approx(0.8, abs=1e-12)
        assert result.amplitude == pytest.approx(0.92, abs=1e-12)
        beta = beta_coefficients(InitialCoefficients.ground_state(), **STRONG, alpha=0.5)
        assert beta.beta1 == pytest.approx(0.92, abs=1e-12)

    check("C4 strong-coupling fixture reproduces frozen observables", body)


def test_c5_scattered_photon_projector():
    def body():
        beta = beta_coefficients(
            InitialCoefficients(0.5, 0.5, 0.5, 0.5), alpha=0.5, **STRONG
        )
        pair = beta.normalized()
        amplitudes = np.kron(pair, np.array([0.0, 1.0]))
        rho = outer(StateVector((2, 2, 2), amplitudes))
        photon = partial_trace(rho, keep=(2,))
        np.testing.assert_allclose(
            photon.entries, [[0.0, 0.0], [0.0, 1.0]], atol=1e-12
        )

    check("C5 scattered photon reduces to a one-photon projector", body)


def test_c6_round_trip_inversion():
    def body():
        rng = np.random.default_rng(20260816)
        targets = [2.0, 4.0, 11.7] + list(rng.uniform(1.01, 100.0, size=50))
        start = time.perf_counter()
        for eps in targets:
            observed = forward(eps, **STRONG).omega_s
            result = invert_permittivity(
                InversionProblem(observed_omega_s=observed, **STRONG)
            )
            assert result.epsilon_d == pytest.approx(eps, rel=1e-6)
            assert result.iterations <= 200
        assert time.perf_counter() - start < 5.0

    check("C6 permittivity recovery round-trips the forward map", body)


def test_c7_scaling_disagreement_measured():
    def body():
        report = consistency_report(3.0, (0.5, 1.0, 2.0, 4.0), kappa=0.05)
        assert report.closed_height_exponent == pytest.approx(-3.0, abs=1e-9)
        assert report.oracle_height_exponent == pytest.approx(-6.0, abs=0.01)
        assert report.scaling_mismatch is True

    check("C7 closed-form and numeric height scalings are measured apart", body)


def test_c8_metallic_limit_guards():
    def body():
        mixed = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DegenerateDenominatorError):
            beta_coefficients(mixed, 0.5, 1.0 - 1e-13, 1.0, 1.0)
        sample = DielectricSample(2e13)
        tip = TipDipole(omega=1.0, height_nm=0.5)
        h0 = build_h0(tip.omega, derive_image(tip, sample).omega_image)
        with pytest.raises(DegenerateGapError):
            rs_pt2(h0, build_delta_h(1e-4), 1)

    check("C8 metallic limit raises the documented degeneracy guards", body)


def test_c9_cli_determinism_and_exit_codes(tmp_path):
    def body():
        args = [
            "sweep",
            "--set", "sweep_axis=epsilon_d",
            "--set", "sweep_values=1,3,11.7",
            "--set", "kappa=1",
            "--set", "R_nm=0.5",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            assert cli_main(args + ["--out", str(out1)]) == 0
            assert cli_main(args + ["--out", str(out2)]) == 0
            assert out1.read_bytes() == out2.read_bytes()
            assert cli_main(["simulate"]) == 0
            assert cli_main(["simulate", "--set", "R_nm=-1"]) == 2
            assert cli_main(
                ["invert", "--set", "observed_omega_s=1.2",
                 "--set", "kappa=1", "--set", "R_nm=0.5"]
            ) == 3
            assert cli_main(args + ["--out", str(tmp_path / "no" / "x.csv")]) == 4

    check("C9 command line is deterministic with classed exit codes", body)
