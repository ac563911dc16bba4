import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnom import inversion
from qsnom.dipole import DielectricSample, TipDipole
from qsnom.errors import OutOfBracketError, ShiftExceedsGapError
from qsnom.hamiltonian import ModelConfig, build_hamiltonian_pair
from qsnom.inversion import (
    SWEEP_OUTPUTS,
    ForwardResult,
    InversionProblem,
    SweepSpec,
    forward,
    invert_permittivity,
    run_sweep,
)

# epsilon_d = 3, R = 0.5 nm, omega = 1 eV, kappa = 1 eV nm^3
STRONG = dict(height_nm=0.5, omega=1.0, kappa=1.0)


class TestForward:
    def test_fixture_point(self):
        result = forward(3.0, 0.5, 1.0, 1.0)
        assert isinstance(result, ForwardResult)
        assert result.alpha == 0.5
        assert result.g == pytest.approx(0.5, rel=1e-15)
        assert result.delta_e == pytest.approx(-0.2, abs=1e-15)
        assert result.omega_s == pytest.approx(0.8, abs=1e-15)
        assert result.amplitude == pytest.approx(0.92, abs=1e-15)

    def test_vacuum_point(self):
        result = forward(1.0, 0.5, 1.0, 1.0)
        assert result.alpha == 0.0
        assert result.g == 0.0
        assert result.delta_e == 0.0
        assert math.copysign(1.0, result.delta_e) == 1.0
        assert result.omega_s == 1.0
        assert result.amplitude == 1.0
        assert result.warnings == ()

    def test_metallic_limit(self):
        # alpha -> 1 saturates the shift at kappa^2 / (2 omega (2R)^3)
        result = forward(1e8, 0.5, 1.0, 1.0)
        assert result.delta_e == pytest.approx(-0.5, rel=1e-6)

    def test_frequency_strictly_decreasing_in_permittivity(self):
        grid = np.linspace(1.001, 60.0, 40)
        emitted = [forward(eps, 1.0, 1.0, 0.05).omega_s for eps in grid]
        assert all(a > b for a, b in zip(emitted, emitted[1:]))

    def test_oracle_route_matches_closed_at_unit_gap_distance(self):
        closed = forward(3.0, 0.5, 1.0, 0.05)
        oracle = forward(3.0, 0.5, 1.0, 0.05, method="oracle")
        assert oracle.delta_e == pytest.approx(closed.delta_e, rel=1e-12)
        assert oracle.amplitude == pytest.approx(closed.amplitude, abs=1e-7)

    def test_strong_coupling_warning(self):
        result = forward(3.0, 0.5, 1.0, 1.0)
        assert any("perturbative regime" in w for w in result.warnings)

    def test_near_field_warning(self):
        result = forward(3.0, 50.0, 1.0, 0.05)
        assert result.near_field_passed is False
        assert result.near_field_ratio == pytest.approx(100.0 / 197.3269804, rel=1e-12)
        assert any("near-field check failed" in w for w in result.warnings)

    def test_quiet_at_weak_coupling(self):
        result = forward(3.0, 1.0, 1.0, 0.05)
        assert result.warnings == ()
        assert result.near_field_passed is True

    def test_method_validated(self):
        with pytest.raises(ValueError, match="method"):
            forward(3.0, 0.5, 1.0, 1.0, method="exact")

    def test_closed_route_builds_no_hamiltonian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed route built the Hamiltonian pair")

        monkeypatch.setattr(inversion, "build_hamiltonian_pair", refuse)
        result = forward(3.0, 0.5, 1.0, 1.0, n_max=7, photon_energy=0.3)
        assert result.g == pytest.approx(0.5, rel=1e-15)
        assert any("perturbative regime" in w for w in result.warnings)

    @settings(max_examples=200, deadline=None)
    @given(
        epsilon_d=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
        height_nm=st.floats(0.3, 5.0),
        omega=st.floats(0.1, 3.0),
        # kappa below sqrt((2R)^3) * omega keeps the closed-form shift
        # under half the gap, so the forward map always succeeds
        kappa_fraction=st.floats(0.01, 1.0),
        n_max=st.integers(1, 12),
        photon=st.one_of(st.none(), st.floats(0.05, 5.0), st.just("tip")),
    )
    def test_closed_route_g_and_warnings_match_hamiltonian_pair(
        self, epsilon_d, height_nm, omega, kappa_fraction, n_max, photon
    ):
        kappa = kappa_fraction * math.sqrt((2 * height_nm) ** 3) * omega
        photon_energy = omega if photon == "tip" else photon
        result = forward(
            epsilon_d, height_nm, omega, kappa,
            n_max=n_max, photon_energy=photon_energy,
        )
        pair = build_hamiltonian_pair(
            TipDipole(omega=omega, height_nm=height_nm),
            DielectricSample(epsilon_d),
            ModelConfig(n_max=n_max, photon_energy=photon_energy, kappa=kappa),
        )
        assert result.g == pair.g
        extra = () if result.near_field_passed else result.warnings[-1:]
        assert result.warnings == pair.warnings + extra


class TestInversion:
    @pytest.mark.parametrize("eps", [2.0, 4.0, 11.7])
    def test_round_trip(self, eps):
        observed = forward(eps, **STRONG).omega_s
        problem = InversionProblem(observed_omega_s=observed, **STRONG)
        result = invert_permittivity(problem)
        assert result.epsilon_d == pytest.approx(eps, rel=1e-6)
        assert result.iterations <= problem.max_iter
        assert result.residual < 1e-10

    def test_round_trip_oracle_route(self):
        observed = forward(4.0, 0.5, 1.0, 0.2, method="oracle").omega_s
        problem = InversionProblem(
            observed_omega_s=observed,
            height_nm=0.5,
            omega=1.0,
            kappa=0.2,
            method="oracle",
        )
        result = invert_permittivity(problem)
        assert result.epsilon_d == pytest.approx(4.0, rel=1e-6)

    def test_unshifted_frequency_returns_lower_edge(self):
        problem = InversionProblem(observed_omega_s=1.0, **STRONG)
        result = invert_permittivity(problem)
        assert result.epsilon_d == problem.bracket[0]
        assert result.iterations == 0

    def test_clamp_just_above_band(self):
        problem = InversionProblem(observed_omega_s=1.0 + 5e-11, **STRONG)
        result = invert_permittivity(problem)
        assert result.epsilon_d == problem.bracket[0]
        assert result.iterations == 0
        assert result.residual == pytest.approx(5e-11, rel=1e-3)

    def test_clamp_just_below_band(self):
        bottom = forward(1e6, **STRONG).omega_s
        problem = InversionProblem(observed_omega_s=bottom - 5e-11, **STRONG)
        result = invert_permittivity(problem)
        assert result.epsilon_d == problem.bracket[1]
        assert result.iterations == 0

    def test_above_band_rejected(self):
        problem = InversionProblem(observed_omega_s=1.2, **STRONG)
        with pytest.raises(OutOfBracketError, match="attainable band"):
            invert_permittivity(problem)

    def test_below_band_rejected(self):
        problem = InversionProblem(observed_omega_s=0.4, **STRONG)
        with pytest.raises(OutOfBracketError, match="attainable band"):
            invert_permittivity(problem)

    def test_validation(self):
        good = dict(observed_omega_s=0.8, **STRONG)
        with pytest.raises(ValueError, match="bracket"):
            InversionProblem(**good, bracket=(0.5, 10.0))
        with pytest.raises(ValueError, match="bracket"):
            InversionProblem(**good, bracket=(10.0, 2.0))
        with pytest.raises(ValueError, match="tol_rel"):
            InversionProblem(**good, tol_rel=0.0)
        with pytest.raises(ValueError, match="max_iter"):
            InversionProblem(**good, max_iter=0)
        with pytest.raises(ValueError, match="method"):
            InversionProblem(**good, method="numeric")
        with pytest.raises(ValueError, match="observed_omega_s"):
            InversionProblem(observed_omega_s=-0.8, **STRONG)


class TestSweepSpec:
    FIXED = {"R": 0.5, "omega": 1.0, "kappa": 1.0}

    def test_valid_construction(self):
        spec = SweepSpec(axis="epsilon_d", values=(1.0, 2.0), fixed=self.FIXED)
        assert spec.outputs == SWEEP_OUTPUTS

    def test_axis_checked(self):
        with pytest.raises(ValueError, match="axis"):
            SweepSpec(axis="height", values=(1.0, 2.0), fixed=self.FIXED)

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="at least 2"):
            SweepSpec(axis="epsilon_d", values=(1.0,), fixed=self.FIXED)

    def test_monotone_required(self):
        with pytest.raises(ValueError, match="monotone"):
            SweepSpec(axis="epsilon_d", values=(1.0, 3.0, 2.0), fixed=self.FIXED)

    def test_fixed_must_cover_other_axes(self):
        with pytest.raises(ValueError, match="fixed"):
            SweepSpec(axis="epsilon_d", values=(1.0, 2.0), fixed={"R": 0.5})
        extra = dict(self.FIXED, epsilon_d=3.0)
        with pytest.raises(ValueError, match="fixed"):
            SweepSpec(axis="epsilon_d", values=(1.0, 2.0), fixed=extra)

    def test_outputs_checked(self):
        with pytest.raises(ValueError, match="output"):
            SweepSpec(
                axis="epsilon_d",
                values=(1.0, 2.0),
                fixed=self.FIXED,
                outputs=("omega_s", "phase"),
            )
        with pytest.raises(ValueError, match="output"):
            SweepSpec(
                axis="epsilon_d", values=(1.0, 2.0), fixed=self.FIXED, outputs=()
            )

    def test_from_range_linear(self):
        spec = SweepSpec.from_range("epsilon_d", 1.0, 3.0, 5, fixed=self.FIXED)
        np.testing.assert_allclose(spec.values, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_from_range_log(self):
        spec = SweepSpec.from_range(
            "epsilon_d", 1.0, 100.0, 3, spacing="log", fixed=self.FIXED
        )
        np.testing.assert_allclose(spec.values, [1.0, 10.0, 100.0], rtol=1e-12)

    def test_from_range_validation(self):
        with pytest.raises(ValueError, match="spacing"):
            SweepSpec.from_range("epsilon_d", 1.0, 3.0, 5, spacing="geo", fixed=self.FIXED)
        with pytest.raises(ValueError, match="count"):
            SweepSpec.from_range("epsilon_d", 1.0, 3.0, 1, fixed=self.FIXED)
        with pytest.raises(ValueError, match="positive"):
            SweepSpec.from_range(
                "omega", 0.0, 3.0, 4, spacing="log", fixed={"R": 0.5, "epsilon_d": 3.0, "kappa": 1.0}
            )


class TestRunSweep:
    def test_permittivity_column_frozen_values(self):
        spec = SweepSpec(
            axis="epsilon_d",
            values=(1.0, 3.0, 11.7),
            fixed={"R": 0.5, "omega": 1.0, "kappa": 1.0},
        )
        rows = run_sweep(spec)
        assert [row["axis_value"] for row in rows] == [1.0, 3.0, 11.7]
        assert rows[0]["delta_e_closed_eV"] == 0.0
        assert rows[1]["delta_e_closed_eV"] == pytest.approx(-0.2, abs=1e-15)
        assert rows[2]["delta_e_closed_eV"] == pytest.approx(
            -0.4151497570527231, rel=1e-13
        )
        assert all(row["error"] == "" for row in rows)

    def test_failed_point_is_contained(self):
        spec = SweepSpec(
            axis="omega",
            values=(0.3, 1.0),
            fixed={"R": 0.5, "epsilon_d": 3.0, "kappa": 1.0},
        )
        rows = run_sweep(spec)
        assert rows[0]["error"].startswith("ShiftExceedsGapError:")
        assert rows[0]["omega_s"] is None
        assert rows[0]["alpha"] is None
        assert rows[1]["error"] == ""
        assert rows[1]["omega_s"] == pytest.approx(0.8, abs=1e-15)

    def test_error_column_names_the_failure(self):
        # the closed route raises before any output is recorded
        with pytest.raises(ShiftExceedsGapError):
            forward(3.0, 0.5, 0.3, 1.0)

    def test_output_selection(self):
        spec = SweepSpec(
            axis="epsilon_d",
            values=(1.0, 3.0),
            fixed={"R": 0.5, "omega": 1.0, "kappa": 1.0},
            outputs=("omega_s",),
        )
        rows = run_sweep(spec)
        assert set(rows[0]) == {"axis_value", "omega_s", "warnings", "error"}

    def test_closed_outputs_do_not_need_the_oracle_route(self):
        # at R = 0.3 nm only the numeric route's shift reaches the gap
        spec = SweepSpec(
            axis="R",
            values=(0.3, 0.5, 1.0),
            fixed={"epsilon_d": 3.0, "omega": 1.0, "kappa": 1.0},
            outputs=("omega_s",),
        )
        rows = run_sweep(spec)
        assert [row["error"] for row in rows] == ["", "", ""]
        assert rows[0]["omega_s"] == pytest.approx(
            1.0 - 0.25 / (0.6**3 * 1.25), rel=1e-14
        )
        assert rows[0]["omega_s"] == pytest.approx(0.074, abs=5e-4)

    def test_oracle_column_still_reports_oracle_failure(self):
        spec = SweepSpec(
            axis="R",
            values=(0.3, 1.0),
            fixed={"epsilon_d": 3.0, "omega": 1.0, "kappa": 1.0},
            outputs=("omega_s", "delta_e_oracle_eV"),
        )
        rows = run_sweep(spec)
        assert rows[0]["error"].startswith("ShiftExceedsGapError:")
        assert rows[0]["omega_s"] is None
        assert rows[1]["error"] == ""

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the forward map")

        monkeypatch.setattr(inversion, "forward", broken)
        spec = SweepSpec(
            axis="epsilon_d",
            values=(1.0, 3.0),
            fixed={"R": 0.5, "omega": 1.0, "kappa": 1.0},
        )
        with pytest.raises(RuntimeError, match="bug in the forward map"):
            run_sweep(spec)

    def test_float_overflow_is_recorded(self):
        spec = SweepSpec(
            axis="R",
            values=(1.0, 1e200),
            fixed={"epsilon_d": 3.0, "omega": 1.0, "kappa": 0.05},
        )
        rows = run_sweep(spec)
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("OverflowError:")

    def test_warning_column_joined(self):
        spec = SweepSpec(
            axis="epsilon_d",
            values=(1.0, 3.0),
            fixed={"R": 0.5, "omega": 1.0, "kappa": 1.0},
        )
        rows = run_sweep(spec)
        assert rows[0]["warnings"] == ""
        assert "perturbative regime" in rows[1]["warnings"]
