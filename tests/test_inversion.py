import copy
import dataclasses
import inspect
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qsnom import closedform, dipole, hamiltonian, inversion
from qsnom.dipole import DielectricSample, TipDipole, derive_image, near_field_check
from qsnom.errors import (
    NoConvergenceError,
    OutOfBracketError,
    QsnomError,
    ShiftExceedsGapError,
    UnsupportedPermittivityError,
)
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
from qsnom.perturbation import rs_pt2

# epsilon_d = 3, R = 0.5 nm, omega = 1 eV, kappa = 1 eV nm^3
STRONG = dict(height_nm=0.5, omega=1.0, kappa=1.0)


@pytest.fixture
def cold_band():
    """An empty band cache before and after the test, so band values
    computed under a patch neither come from nor reach another test."""
    inversion._band.cache_clear()
    yield
    inversion._band.cache_clear()


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

    def test_takes_no_photon_register_parameters(self):
        assert list(inspect.signature(forward).parameters) == [
            "epsilon_d", "height_nm", "omega", "kappa", "near_field_factor", "method"
        ]
        for name in ("n_max", "photon_energy"):
            with pytest.raises(TypeError, match=name):
                forward(3.0, 0.5, 1.0, 1.0, **{name: 1})

    def test_oracle_coefficient_overflow_is_an_overflow_error(self):
        # g ~ 6e-202 over a gap ~ 1.25e-320: the shift underflows to 0 and
        # the first-order coefficient overflows, on the oracle route only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                forward(3.0, 1.0, 1e-320, 1e-200, method="oracle")
        assert str(info.value) == (
            "first-order coefficient of level 3 in level 0 overflows: (inf+nanj)"
        )
        # the closed route's shift, g^2 / gap ~ 2.5e-82 eV, is past the gap
        with pytest.raises(ShiftExceedsGapError):
            forward(3.0, 1.0, 1e-320, 1e-200)

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_nan_near_field_ratio_is_an_overflow_error(self, method):
        # 2R and hbar*c/omega both overflow, and their ratio is nan
        with pytest.raises(OverflowError, match="^near-field ratio overflows: "):
            forward(3.0, 1e308, 5e-324, 1.0, method=method)

    def test_oracle_infinite_coupling_is_an_overflow_error(self):
        # g = kappa*alpha/(2R)^3 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                forward(3.0, 0.001, 1.0, 1e308, method="oracle")
        assert str(info.value) == "coupling g = kappa*alpha/(2R)^3 is not finite: g=inf"

    def test_cube_that_rounds_to_zero(self):
        # (2R)^3 rounds to 0: the closed shift is past the gap, and on the
        # oracle route g overflows; no ZeroDivisionError on either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShiftExceedsGapError):
                forward(3.0, 1e-300, 1.0, 0.05)
            with pytest.raises(ShiftExceedsGapError):
                invert_permittivity(InversionProblem(0.5, 1e-300, 1.0, 0.05))
            for call in (
                lambda: forward(3.0, 1e-300, 1.0, 0.05, method="oracle"),
                lambda: invert_permittivity(
                    InversionProblem(0.5, 1e-300, 1.0, 0.05, method="oracle")
                ),
            ):
                with pytest.raises(OverflowError, match="^coupling g = "):
                    call()
            # with no coupling there is no shift, on both routes
            for method in ("closed", "oracle"):
                result = forward(1.0, 1e-300, 1.0, 0.05, method=method)
                assert (result.g, result.delta_e, result.omega_s) == (0.0, 0.0, 1.0)

    def test_coupling_that_overflows_where_the_cube_rounds_to_zero(self):
        # (2R)^3 rounds to 0 at R = 1e-110 nm, and omega brings the shift
        # back to ~2.5e28 eV, far below the gap; g ~6e328 eV overflows,
        # and the closed route refuses it as the oracle route does. At
        # R = 1e-105 nm the cube does not round to 0 and g = inf comes
        # back silently (ROADMAP defect 5, whose mend refuses it there too)
        for method in ("closed", "oracle"):
            with pytest.raises(OverflowError) as caught:
                forward(3.0, 1e-110, 1e300, 1.0, method=method)
            assert str(caught.value) == "coupling g = kappa*alpha/(2R)^3 is not finite: g=inf"
        assert closedform.energy_shift(1.0, 1e-110, 0.5, 1e300, 1.0) < 1e29

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_coupling_that_overflows_where_the_cube_is_subnormal(self, method):
        # (2R)^3 = 8e-315 is subnormal, not 0, and g = 0.5 / 8e-315
        # overflows while the shift, ~2.5e13 eV, is far below the 1e300 eV
        # gap; both routes refuse the infinite g
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as caught:
                forward(3.0, 1e-105, 1e300, 1.0, method=method)
        assert str(caught.value) == "coupling g = kappa*alpha/(2R)^3 is not finite: g=inf"

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    @pytest.mark.parametrize("height_nm", [1e100, 1e200, 1e300])
    def test_far_heights_answer(self, height_nm, method):
        # (2R)^3 overflows past R ~ 3e102 nm, where g and the shift are ~0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = forward(3.0, height_nm, 1.0, 0.05, method=method)
        assert 0.0 <= result.g < 1e-300
        assert -1e-300 < result.delta_e <= 0.0
        assert result.omega_s == 1.0
        assert not result.near_field_passed
        assert result.warnings[-1].startswith("near-field check failed")

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_coupling_whose_square_underflows_is_a_shift_past_the_gap(self, method):
        # g = 1e-170 eV squares below the float range, yet g^2 / gap ~ 8e-41
        # eV is far past the 1e-300 eV gap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShiftExceedsGapError):
                forward(3.0, 1.0, 1e-300, 1.6e-169, method=method)
            # the band's top shift is past the gap too, so there is no band
            problem = InversionProblem(5e-301, 1.0, 1e-300, 1.6e-169, method=method)
            with pytest.raises(ShiftExceedsGapError):
                invert_permittivity(problem)

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_difference_gap_underflow_with_a_strong_coupling(self, method):
        # omega (1 - alpha^2) = 5e-324 * 0.19 rounds to 0, and the shift is
        # far past the gap; the gap check runs before ||beta||
        error = ShiftExceedsGapError if method == "closed" else OverflowError
        with pytest.raises(error):
            forward(19.0, 1.0, 5e-324, 1.0, method=method)

    def test_difference_gap_underflow_with_a_tiny_coupling(self):
        # the same zero difference gap: the ground state's zero mixed
        # amplitudes add no correction, so both routes answer
        oracle = forward(19.0, 1.0, 5e-324, 5e-324, method="oracle")
        closed = forward(19.0, 1.0, 5e-324, 5e-324)
        assert (oracle.delta_e, oracle.amplitude) == (0.0, 1.0)
        assert closed.delta_e == 0.0
        assert closed.omega_s == 5e-324
        assert 0.0 < closed.amplitude <= 1.0

    def test_closed_route_builds_no_hamiltonian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed route built the Hamiltonian pair")

        for name in ("build_hamiltonian_pair", "build_h0", "build_delta_h", "rs_pt2"):
            monkeypatch.setattr(inversion, name, refuse)
        result = forward(3.0, 0.5, 1.0, 1.0)
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
    )
    def test_closed_route_g_and_warnings_match_hamiltonian_pair(
        self, epsilon_d, height_nm, omega, kappa_fraction, n_max
    ):
        kappa = kappa_fraction * math.sqrt((2 * height_nm) ** 3) * omega
        result = forward(epsilon_d, height_nm, omega, kappa)
        # the photon register's size moves neither g nor the warnings
        pair = build_hamiltonian_pair(
            TipDipole(omega=omega, height_nm=height_nm),
            DielectricSample(epsilon_d),
            ModelConfig(n_max=n_max, kappa=kappa),
        )
        assert result.g == pair.g
        extra = () if result.near_field_passed else result.warnings[-1:]
        assert result.warnings == pair.warnings + extra


class TestClosedRouteRunsNoNumpy:
    def test_forward_inverse_and_sweep(self, monkeypatch):
        spec = SweepSpec(
            axis="epsilon_d",
            values=(1.0, 3.0, 11.7),
            fixed={"R": 0.5, "omega": 1.0, "kappa": 1.0},
            outputs=tuple(c for c in SWEEP_OUTPUTS if c != "delta_e_oracle_eV"),
        )
        rows = run_sweep(spec)
        observed = forward(11.7, **STRONG).omega_s

        def refuse(*args, **kwargs):
            raise AssertionError("the closed route called numpy")

        monkeypatch.setattr(hamiltonian, "build_h0", refuse)
        monkeypatch.setattr(inversion, "build_h0", refuse)
        monkeypatch.setattr(inversion, "build_delta_h", refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        result = forward(3.0, 0.5, 1.0, 1.0)
        assert result.amplitude == pytest.approx(0.92, abs=1e-15)
        assert any("perturbative regime" in w for w in result.warnings)
        problem = InversionProblem(observed_omega_s=observed, **STRONG)
        assert invert_permittivity(problem).epsilon_d == pytest.approx(11.7, rel=1e-12)
        assert run_sweep(spec) == rows
        assert [row["error"] for row in rows] == ["", "", ""]


class TestClosedRouteFromScalars:
    """Both routes build no value object and check each input once."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = inversion._positive_finite

        def recording(**values):
            calls.append(tuple(values))
            return real(**values)

        def refuse(*args, **kwargs):
            raise AssertionError("forward or the inverse built a value object")

        for module in (inversion, closedform, hamiltonian, dipole):
            monkeypatch.setattr(module, "_positive_finite", recording)
        for name in (
            "DielectricSample",
            "TipDipole",
            "derive_image",
            "near_field_check",
            "build_hamiltonian_pair",
        ):
            monkeypatch.setattr(inversion, name, refuse)
        monkeypatch.setattr(closedform, "photon_report", refuse)
        monkeypatch.setattr(closedform, "scattered_frequency", refuse)
        return calls

    def test_forward(self, checks):
        assert forward(3.0, 0.5, 1.0, 1.0).amplitude == pytest.approx(0.92, abs=1e-15)
        assert checks == [("omega", "height_nm", "kappa", "factor")]

    def test_inverse(self, checks):
        observed = 0.8  # the shift at epsilon_d = 3 is 0.2 eV
        problem = InversionProblem(observed_omega_s=observed, **STRONG)
        checks.clear()  # tol_rel and observed_omega_s, checked at construction
        assert invert_permittivity(problem).epsilon_d == pytest.approx(3.0, rel=1e-12)
        # the inverse's own geometry check; the check at the answer repeats none
        assert checks == [("omega", "height_nm", "kappa")]

    def test_oracle_forward(self, checks):
        result = forward(3.0, 0.5, 1.0, 1.0, method="oracle")
        assert result.delta_e == pytest.approx(-0.2, rel=1e-15)
        assert checks == [("omega", "height_nm", "kappa", "factor")]

    def test_oracle_inverse(self, checks):
        problem = InversionProblem(observed_omega_s=0.8, **STRONG, method="oracle")
        checks.clear()
        result = invert_permittivity(problem)
        assert result.epsilon_d == pytest.approx(3.0, rel=1e-9)
        assert result.iterations > 0
        # one check for the whole root search, none per shift
        assert checks == [("omega", "height_nm", "kappa")]


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

    @pytest.mark.parametrize(
        "method, omega, tol_rel, kappa",
        [
            pytest.param("closed", 1e-320, 1e-10, 5e-324, id="closed-1e-320-1e-10"),
            pytest.param("closed", 1e-5, 1e-320, 1e-200, id="closed-1e-05-1e-320"),
            pytest.param("oracle", 1e-5, 1e-320, 1e-200, id="oracle-1e-05-1e-320"),
        ],
    )
    def test_exact_edge_hit_with_tolerance_underflowing_to_zero(
        self, method, omega, tol_rel, kappa
    ):
        # every shift underflows to 0, so the band is the single point omega
        problem = InversionProblem(omega, 1.0, omega, kappa, tol_rel=tol_rel, method=method)
        assert problem.tol_rel * problem.omega == 0.0
        result = invert_permittivity(problem)
        assert result == inversion.InversionResult(problem.bracket[0], 0, 0.0)

    @pytest.mark.parametrize("epsilon_d", [1.5, 3.0, 100.0, 1e5])
    def test_closed_round_trip_where_the_cube_rounds_to_zero(self, epsilon_d):
        # (2R)^3 omega rounds to 0 at R = 1e-110 nm, yet kappa = 1e-165
        # brings c = kappa^2 / ((2R)^3 omega) back to 0.125: the band is
        # finite and a measurement in it inverts, with no ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            observed = forward(epsilon_d, 1e-110, 1.0, 1e-165).omega_s
            assert 0.9375 < observed < 1.0
            result = invert_permittivity(InversionProblem(observed, 1e-110, 1.0, 1e-165))
        assert result.iterations == 0
        assert result.epsilon_d == pytest.approx(epsilon_d, rel=1e-9)

    def test_closed_inverse_where_c_overflows(self):
        # c = kappa^2 / ((2R)^3 omega) ~ 1.25e310 overflows, while the
        # measurement, which epsilon_d = 1 + 1e-6 emits, lies inside a
        # finite band; c and s = omega - observed are taken exactly
        problem = InversionProblem(9.968750031255127e299, 1e-101, 1e300, 1e154)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = invert_permittivity(problem)
        assert result.iterations == 0
        assert result.epsilon_d == pytest.approx(1.000001, rel=1e-12)
        assert result.residual == 0.0

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_infinite_separation_couples_nothing(self, method):
        # 2R = 2e308 overflows to inf, which no Fraction holds: g and the
        # shifts are 0, so the band is the single point omega
        assert hamiltonian.coupling_constant(1.0, 0.5, math.inf) == 0.0
        problem = InversionProblem(1.0, 1e308, 1.0, 1.0, method=method)
        assert invert_permittivity(problem) == inversion.InversionResult(1.0 + 1e-9, 0, 0.0)
        with pytest.raises(OutOfBracketError) as caught:
            invert_permittivity(dataclasses.replace(problem, observed_omega_s=0.5))
        assert str(caught.value) == (
            "observed omega_s 0.5 below attainable band [1.0, 1.0] on bracket (1, 1e+06)"
        )

    def test_oracle_coupling_fails_before_the_free_hamiltonian(self):
        # (2R)^3 underflows to 0, so g overflows, while omega + omega_img +
        # omega overflows too; g comes first, as in build_hamiltonian_pair
        problem = InversionProblem(0.5, 5e-324, 1e308, 1.0, method="oracle")
        with pytest.raises(OverflowError, match=r"^coupling g = kappa\*alpha/\(2R\)\^3 is not"):
            invert_permittivity(problem)

    @pytest.mark.parametrize("max_iter", [2**31, 1e300])
    def test_oracle_budget_past_a_c_int(self, max_iter):
        # brentq takes its budget as a C int; a search needs far fewer
        observed = forward(3.0, 1.0, 1.0, 0.05, method="oracle").omega_s
        problem = InversionProblem(observed, 1.0, 1.0, 0.05, method="oracle")
        huge = InversionProblem(observed, 1.0, 1.0, 0.05, max_iter=max_iter, method="oracle")
        assert invert_permittivity(huge) == invert_permittivity(problem)

    def test_oracle_search_out_of_budget(self):
        observed = forward(3.0, 1.0, 1.0, 0.05, method="oracle").omega_s
        problem = InversionProblem(observed, 1.0, 1.0, 0.05, method="oracle", max_iter=1)
        with pytest.raises(
            NoConvergenceError, match=r"^root search used 1 iterations \(budget 1\)"
        ):
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


class TestNonFiniteInputs:
    """An infinite input is rejected by the value object that holds it."""

    @pytest.mark.parametrize(
        "name, error",
        [
            ("epsilon_d", UnsupportedPermittivityError),
            ("height_nm", ValueError),
            ("omega", ValueError),
            ("kappa", ValueError),
        ],
    )
    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_forward(self, name, error, method):
        point = dict(epsilon_d=3.0, height_nm=1.0, omega=1.0, kappa=0.05, method=method)
        with pytest.raises(error, match=f"^{name} must be finite, got inf$"):
            forward(**dict(point, **{name: math.inf}))

    @pytest.mark.parametrize(
        "changes, name",
        [
            ({"tol_rel": math.inf}, "tol_rel"),
            ({"observed_omega_s": math.inf}, "observed_omega_s"),
        ],
    )
    def test_inversion_problem(self, changes, name):
        good = dict(observed_omega_s=1.5, height_nm=1.0, omega=1.0, kappa=0.05)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            InversionProblem(**dict(good, **changes))

    def test_bracket(self):
        with pytest.raises(
            ValueError, match=r"^bracket must be finite, got \(2\.0, inf\)$"
        ):
            InversionProblem(0.9, 1.0, 1.0, 0.05, bracket=(2.0, math.inf))

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_infinite_tolerance_returns_no_permittivity(self, method):
        # 1.5 lies above the bare gap, so no permittivity emits it
        with pytest.raises(ValueError, match="tol_rel"):
            invert_permittivity(
                InversionProblem(1.5, 1.0, 1.0, 0.05, tol_rel=math.inf, method=method)
            )
        with pytest.raises(OutOfBracketError):
            invert_permittivity(InversionProblem(1.5, 1.0, 1.0, 0.05, method=method))

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_near_field_factor(self, method):
        with pytest.raises(ValueError, match="^factor must be finite, got inf$"):
            forward(3.0, 1000.0, 1.0, 0.05, near_field_factor=math.inf, method=method)

    @pytest.mark.parametrize("max_iter", [math.inf, math.nan, -math.inf, 2.5, 0])
    def test_max_iter(self, max_iter):
        with pytest.raises(ValueError) as info:
            InversionProblem(0.9, 1.0, 1.0, 0.05, max_iter=max_iter)
        assert str(info.value) == f"max_iter must be an integer >= 1, got {max_iter!r}"

    @pytest.mark.parametrize(
        "start, stop, spacing",
        [
            (1.0, math.inf, "linear"),
            (math.nan, 5.0, "linear"),
            (-math.inf, 5.0, "linear"),
            (1.0, math.inf, "log"),
            (math.nan, 5.0, "log"),
        ],
    )
    def test_sweep_endpoints(self, start, stop, spacing):
        fixed = {"R": 1.0, "omega": 1.0, "kappa": 0.05}
        with pytest.raises(ValueError) as info:
            SweepSpec.from_range("epsilon_d", start, stop, 3, spacing, fixed=fixed)
        assert str(info.value) == (
            f"sweep endpoints must be finite, got ({start!r}, {stop!r})"
        )

    def test_existing_messages_unchanged(self):
        good = dict(observed_omega_s=0.9, height_nm=1.0, omega=1.0, kappa=0.05)
        for changes, text in (
            ({"tol_rel": math.nan}, "tol_rel must be positive, got nan"),
            ({"tol_rel": -math.inf}, "tol_rel must be positive, got -inf"),
            ({"observed_omega_s": 0.0}, "observed_omega_s must be positive, got 0.0"),
            (
                {"bracket": (math.inf, math.inf)},
                "bracket must satisfy 1 < lo < hi, got (inf, inf)",
            ),
        ):
            with pytest.raises(ValueError) as info:
                InversionProblem(**dict(good, **changes))
            assert str(info.value) == text


class TestPermittivityWhoseAlphaRoundsToOne:
    """Both routes refuse an epsilon_d whose alpha rounds to 1, the same way."""

    @pytest.mark.parametrize("eps", [9007263183593752.0, 1e17])
    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_forward(self, method, eps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                UnsupportedPermittivityError, match=r"^epsilon_d must be small enough"
            ) as info:
                forward(eps, 1.0, 1.0, 0.05, method=method)
        assert str(info.value).endswith(f"got {eps!r}")

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_bracket_top(self, method):
        problem = InversionProblem(0.9, 1.0, 1.0, 0.05, bracket=(2.0, 1e17), method=method)
        with pytest.raises(UnsupportedPermittivityError, match=r"got 1e\+17$"):
            invert_permittivity(problem)

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_largest_accepted_permittivity_runs(self, method):
        result = forward(2.0**53, 1.0, 1.0, 0.05, method=method)
        assert result.alpha < 1.0
        assert math.isfinite(result.omega_s)


class TestBandFloorAtTheGap:
    """At R = 0.3 nm and kappa = 1 the shift reaches the gap inside the bracket."""

    NEAR = dict(height_nm=0.3, omega=1.0, kappa=1.0)

    def test_measurement_inverts_and_round_trips(self):
        result = invert_permittivity(InversionProblem(observed_omega_s=0.5, **self.NEAR))
        assert result.epsilon_d == pytest.approx(2.0673, abs=1e-4)
        assert result.iterations == 0
        assert forward(result.epsilon_d, **self.NEAR).omega_s == pytest.approx(
            0.5, abs=1e-10
        )
        assert result.residual < 1e-10

    def test_above_band_reports_floor_zero(self):
        problem = InversionProblem(observed_omega_s=1.2, **self.NEAR)
        with pytest.raises(OutOfBracketError, match=r"above attainable band \[0\.0, 1\.0\]"):
            invert_permittivity(problem)

    def test_oracle_route_floor_is_zero_and_answers(self):
        problem = InversionProblem(observed_omega_s=1.2, method="oracle", **self.NEAR)
        with pytest.raises(OutOfBracketError, match=r"above attainable band \[0\.0, 1\.0\]"):
            invert_permittivity(problem)
        # the shift at the bracket top reaches the gap
        with pytest.raises(ShiftExceedsGapError):
            forward(problem.bracket[1], method="oracle", **self.NEAR)
        problem = InversionProblem(observed_omega_s=0.9, method="oracle", **self.NEAR)
        result = invert_permittivity(problem)
        assert result.iterations > 0
        assert result.residual < problem.tol_rel * problem.omega
        assert forward(result.epsilon_d, method="oracle", **self.NEAR).omega_s == (
            pytest.approx(0.9, abs=1e-10)
        )

    def test_oracle_search_out_of_budget_past_the_gap(self):
        # the search stops where the shift exceeds the gap; the budget failed
        problem = InversionProblem(
            observed_omega_s=0.9, method="oracle", max_iter=1, **self.NEAR
        )
        with pytest.raises(
            NoConvergenceError,
            match=r"^root search used 1 iterations \(budget 1\) and left residual 1\.061e\+01",
        ):
            invert_permittivity(problem)

    @pytest.mark.parametrize("epsilon_d", [1.01, 1.1, 1.5, 2.0, 3.0, 11.7, 30.0, 100.0])
    def test_oracle_round_trip(self, epsilon_d):
        # at this gap the oracle shift stays below it up to epsilon_d = 100
        # and reaches it at the bracket top
        geometry = dict(self.NEAR, omega=3.25)
        with pytest.raises(ShiftExceedsGapError):
            forward(1e6, method="oracle", **geometry)
        observed = forward(epsilon_d, method="oracle", **geometry).omega_s
        problem = InversionProblem(observed_omega_s=observed, method="oracle", **geometry)
        result = invert_permittivity(problem)
        assert result.epsilon_d == pytest.approx(epsilon_d, rel=1e-6)
        assert result.residual < problem.tol_rel * problem.omega


@pytest.mark.usefixtures("cold_band")
class TestClosedFormInverse:
    def test_no_forward_call_and_no_root_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed inverse called forward or the root search")

        observed = forward(11.7, **STRONG).omega_s
        monkeypatch.setattr(inversion, "forward", refuse)
        monkeypatch.setattr(inversion, "brentq", refuse)
        result = invert_permittivity(InversionProblem(observed_omega_s=observed, **STRONG))
        assert result.epsilon_d == pytest.approx(11.7, rel=1e-12)
        assert result.iterations == 0
        assert result.residual < 1e-10

    def test_oracle_inverse_makes_no_forward_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle inverse called forward")

        observed = forward(3.0, 1.0, 1.0, 0.05, method="oracle").omega_s
        monkeypatch.setattr(inversion, "forward", refuse)
        problem = InversionProblem(observed, 1.0, 1.0, 0.05, method="oracle")
        result = invert_permittivity(problem)
        assert result.epsilon_d == pytest.approx(3.0, rel=1e-6)
        assert result.iterations > 0

    def test_residual_check_is_independent(self, monkeypatch):
        real = closedform._emitted

        def off_by_a_micro_ev(omega, delta_e):
            return real(omega, delta_e) + 1e-6

        observed = forward(4.0, **STRONG).omega_s
        # the forward map's scalar code, which both the band edges and the
        # check at the answer run
        monkeypatch.setattr(closedform, "_emitted", off_by_a_micro_ev)
        problem = InversionProblem(observed_omega_s=observed, **STRONG)
        with pytest.raises(NoConvergenceError, match="closed-form inverse left residual"):
            invert_permittivity(problem)

    @staticmethod
    def emitted_at_three(height_nm, omega, kappa):
        alpha = DielectricSample(3.0).alpha
        delta_e = closedform.energy_shift(1.0, height_nm, alpha, omega, kappa)
        return closedform.scattered_frequency(omega, delta_e)

    def test_check_squares_no_gap_above_1e154(self):
        # omega (1 + alpha^2) squared overflows here
        geometry = dict(height_nm=1.0, omega=1e160, kappa=1e153)
        observed = self.emitted_at_three(**geometry)
        result = invert_permittivity(InversionProblem(observed, **geometry))
        assert result == inversion.InversionResult(3.7275712752902006, 0, 0.0)
        # and forward runs at the answer, ||beta|| included
        for method in ("closed", "oracle"):
            at_answer = forward(result.epsilon_d, method=method, **geometry)
            assert all(
                math.isfinite(getattr(at_answer, name))
                for name in ("alpha", "g", "delta_e", "omega_s", "amplitude")
            )
        at_answer = forward(result.epsilon_d, **geometry)
        assert at_answer.omega_s == observed
        assert at_answer.amplitude == pytest.approx(1.0, abs=1e-15)

    def test_check_squares_no_gap_below_1e_162(self):
        # omega (1 +- alpha^2) squared rounds to 0 here, and so does
        # (kappa alpha)^2, while the shift is 0.2 omega
        geometry = dict(height_nm=0.5, omega=1e-170, kappa=1e-170)
        observed = self.emitted_at_three(**geometry)
        result = invert_permittivity(InversionProblem(observed, **geometry))
        assert result == inversion.InversionResult(3.0, 0, 0.0)
        # forward divides by each gap twice, so it reaches its gap check
        with pytest.raises(ShiftExceedsGapError):
            forward(3.0, 0.060494781933080465, 1e-170, 1e-160)


def root_search_reference(problem):
    """The closed route's recovery before it was inverted in closed form.

    Band edges from ``forward`` at both bracket ends, the same edge
    clamps, then ``brentq`` on ``forward``.
    """
    lo, hi = problem.bracket
    observed = problem.observed_omega_s
    tol_abs = problem.tol_rel * problem.omega

    def emitted(eps):
        return forward(eps, problem.height_nm, problem.omega, problem.kappa).omega_s

    top, bottom = emitted(lo), emitted(hi)
    band = f" [{bottom!r}, {top!r}] on bracket ({lo:g}, {hi:g})"
    if observed > top:
        if observed - top < tol_abs:
            return inversion.InversionResult(lo, 0, observed - top)
        raise OutOfBracketError(f"observed omega_s {observed!r} above attainable band" + band)
    if observed < bottom:
        if bottom - observed < tol_abs:
            return inversion.InversionResult(hi, 0, bottom - observed)
        raise OutOfBracketError(f"observed omega_s {observed!r} below attainable band" + band)
    if observed == top:
        return inversion.InversionResult(lo, 0, 0.0)
    if observed == bottom:
        return inversion.InversionResult(hi, 0, 0.0)
    root = brentq(lambda eps: emitted(eps) - observed, lo, hi, xtol=1e-12, rtol=1e-15)
    return inversion.InversionResult(root, -1, abs(emitted(root) - observed))


def outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


# kappa as a fraction of sqrt(2 (2R)^3) omega, where the metallic-limit
# shift equals the gap: above 1 the band floor sits at the gap
GEOMETRY = dict(
    height_nm=st.floats(0.3, 4.0),
    omega=st.floats(0.1, 3.0),
    kappa_fraction=st.floats(0.01, 2.0),
)


def kappa_for(fraction, height_nm, omega):
    return fraction * math.sqrt(2.0 * (2.0 * height_nm) ** 3) * omega


class TestClosedInverseMatchesRootSearch:
    @settings(max_examples=300, deadline=None)
    @given(epsilon_d=st.floats(1.001, 1e4), **GEOMETRY)
    def test_in_band(self, epsilon_d, height_nm, omega, kappa_fraction):
        kappa = kappa_for(kappa_fraction, height_nm, omega)
        try:
            observed = forward(epsilon_d, height_nm, omega, kappa).omega_s
        except ShiftExceedsGapError:
            assume(False)
        problem = InversionProblem(observed, height_nm, omega, kappa)
        result = invert_permittivity(problem)
        assert result.iterations == 0
        assert result.residual < problem.tol_rel * omega
        reference = outcome(lambda: root_search_reference(problem))
        if isinstance(reference, tuple):
            # only the reference's evaluation of the bracket top may fail
            assert reference[0] is ShiftExceedsGapError
            with pytest.raises(ShiftExceedsGapError):
                forward(problem.bracket[1], height_nm, omega, kappa)
        elif epsilon_d <= 100:
            assert result.epsilon_d == pytest.approx(reference.epsilon_d, rel=1e-6)
            assert result.epsilon_d == pytest.approx(epsilon_d, rel=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        where=st.sampled_from(("above", "below", "top", "bottom")),
        offset=st.sampled_from((0.0, 0.5, 2.0, 1e3, 1e8)),
        **GEOMETRY,
    )
    def test_out_of_band_and_edges(self, where, offset, height_nm, omega, kappa_fraction):
        kappa = kappa_for(kappa_fraction, height_nm, omega)
        lo, hi = InversionProblem(1.0, height_nm, omega, kappa).bracket
        try:
            bottom = forward(hi, height_nm, omega, kappa).omega_s
        except ShiftExceedsGapError:
            assume(False)  # the reference raises at its bracket top
        top = forward(lo, height_nm, omega, kappa).omega_s
        step = offset * 1e-10 * omega
        observed = {
            "above": omega * (1.0 + 0.01 * offset),
            "below": bottom * 0.5**offset if offset else bottom * 0.9,
            "top": top + step,
            "bottom": bottom - step,
        }[where]
        assume(observed > 0)
        problem = InversionProblem(observed, height_nm, omega, kappa)
        reference = outcome(lambda: root_search_reference(problem))
        result = outcome(lambda: invert_permittivity(problem))
        if isinstance(reference, tuple) or reference.iterations == 0:
            assert result == reference
        else:
            assert result.residual < problem.tol_rel * omega

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["height_nm", "omega", "kappa"])
    def test_invalid_geometry_raises_what_forward_raises(self, name, bad):
        geometry = dict(STRONG, **{name: bad})
        problem = InversionProblem(observed_omega_s=0.9, **geometry)
        expected = outcome(lambda: forward(problem.bracket[0], **geometry))
        assert isinstance(expected, tuple)
        assert outcome(lambda: invert_permittivity(problem)) == expected


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

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, 1, 10_001])
    def test_from_range_count_must_be_an_integer_in_range(self, count):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                SweepSpec.from_range("epsilon_d", 1.0, 5.0, count, fixed=self.FIXED)
        assert str(info.value) == (
            f"count must be an integer in 2..10000, got {count!r}"
        )

    def test_from_range_takes_an_integral_float_count(self):
        spec = SweepSpec.from_range("epsilon_d", 1.0, 3.0, 3.0, fixed=self.FIXED)
        assert spec.values == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize(
        "factor, message",
        [
            (math.inf, "near_field_factor must be finite, got inf"),
            (0.0, "near_field_factor must be positive, got 0.0"),
            (math.nan, "near_field_factor must be positive, got nan"),
        ],
    )
    def test_near_field_factor_checked_once(self, factor, message):
        with pytest.raises(ValueError) as info:
            SweepSpec("epsilon_d", (1.0, 2.0), self.FIXED, near_field_factor=factor)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            SweepSpec.from_range(
                "epsilon_d", 1.0, 5.0, 4, fixed=self.FIXED, near_field_factor=factor
            )
        assert str(info.value) == message

    def test_from_range_validation(self):
        with pytest.raises(ValueError, match="spacing"):
            SweepSpec.from_range("epsilon_d", 1.0, 3.0, 5, spacing="geo", fixed=self.FIXED)
        for count in (1, inversion.SWEEP_COUNT_LIMIT + 1, 10**18):
            with pytest.raises(ValueError, match="count"):
                SweepSpec.from_range("epsilon_d", 1.0, 3.0, count, fixed=self.FIXED)
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
            values=(1.0, 1e308),
            fixed={"epsilon_d": 3.0, "omega": 1.0, "kappa": 0.05},
        )
        rows = run_sweep(spec)
        assert rows[0]["error"] == ""
        assert rows[1]["error"].startswith("OverflowError: near-field ratio overflows: ")

    def test_warning_column_joined(self):
        spec = SweepSpec(
            axis="epsilon_d",
            values=(1.0, 3.0),
            fixed={"R": 0.5, "omega": 1.0, "kappa": 1.0},
        )
        rows = run_sweep(spec)
        assert rows[0]["warnings"] == ""
        assert "perturbative regime" in rows[1]["warnings"]


def composed_forward(epsilon_d, height_nm, omega, kappa, near_field_factor=0.1):
    """The closed forward map spelled with the public pieces, step by step."""
    sample = DielectricSample(epsilon_d)
    tip = TipDipole(omega=omega, height_nm=height_nm)
    image = derive_image(tip, sample)
    cfg = ModelConfig(kappa=kappa)
    field = near_field_check(tip, image, near_field_factor)
    # the shift before g, so that where (2R)^3 rounds to 0 the shift past
    # the gap names the failure
    report = closedform.photon_report(
        closedform.InitialCoefficients.ground_state(),
        height_nm,
        sample.alpha,
        omega,
        kappa,
    )
    g = hamiltonian.coupling_constant(cfg.kappa, sample.alpha, tip.separation)
    warns = list(hamiltonian.regime_warnings(tip.omega, image.omega_image, g))
    if not field.passed:
        warns.append(
            f"near-field check failed: separation/wavelength ratio "
            f"{field.ratio:.6g} is not below factor {field.factor:g}"
        )
    return ForwardResult(
        epsilon_d=sample.epsilon_d,
        alpha=sample.alpha,
        g=g,
        delta_e=report.delta_e,
        omega_s=report.omega_s,
        amplitude=report.amplitude,
        near_field_ratio=field.ratio,
        near_field_passed=field.passed,
        warnings=tuple(warns),
    )


def composed_oracle_forward(epsilon_d, height_nm, omega, kappa, near_field_factor=0.1):
    """The oracle forward map spelled with the public pieces, step by step."""
    sample = DielectricSample(epsilon_d)
    tip = TipDipole(omega=omega, height_nm=height_nm)
    image = derive_image(tip, sample)
    cfg = ModelConfig(kappa=kappa)
    field = near_field_check(tip, image, near_field_factor)
    pair = build_hamiltonian_pair(tip, sample, cfg)
    result = rs_pt2(pair.h0, pair.delta_h, 0)
    warns = list(pair.warnings)
    if not field.passed:
        warns.append(
            f"near-field check failed: separation/wavelength ratio "
            f"{field.ratio:.6g} is not below factor {field.factor:g}"
        )
    return ForwardResult(
        epsilon_d=sample.epsilon_d,
        alpha=sample.alpha,
        g=pair.g,
        delta_e=result.e2,
        omega_s=closedform.scattered_frequency(omega, result.e2),
        amplitude=float(np.real(result.normalized_coefficients[0])),
        near_field_ratio=field.ratio,
        near_field_passed=field.passed,
        warnings=tuple(warns),
    )


def spelled_band_edge(problem, top, bottom):
    """The band-edge rule spelled out, its error wording included, so that
    the wording the band cache keeps is checked against this one."""
    lo, hi = problem.bracket
    observed = problem.observed_omega_s
    tol_abs = problem.tol_rel * problem.omega
    band = f"attainable band [{bottom!r}, {top!r}] on bracket ({lo:g}, {hi:g})"
    if observed > top:
        if observed - top < tol_abs:
            return inversion.InversionResult(lo, 0, observed - top)
        raise OutOfBracketError(f"observed omega_s {observed!r} above {band}")
    if observed < bottom:
        if bottom - observed < tol_abs:
            return inversion.InversionResult(hi, 0, bottom - observed)
        raise OutOfBracketError(f"observed omega_s {observed!r} below {band}")
    if observed == top:
        return inversion.InversionResult(lo, 0, 0.0)
    if observed == bottom:
        return inversion.InversionResult(hi, 0, 0.0)
    return None


def composed_inverse(problem):
    """The closed inverse spelled with the public pieces, its check included."""
    lo, hi = problem.bracket
    height, omega, kappa = problem.height_nm, problem.omega, problem.kappa
    TipDipole(omega=omega, height_nm=height)
    ModelConfig(kappa=kappa)

    def delta_e(eps):
        alpha = DielectricSample(eps).alpha
        return closedform.energy_shift(1.0, height, alpha, omega, kappa)

    top = closedform.scattered_frequency(omega, delta_e(lo))
    try:
        delta_hi = delta_e(hi)
    except ShiftExceedsGapError:
        # energy_shift refuses an infinite shift, which reaches the gap
        delta_hi = -math.inf
    if abs(delta_hi) >= omega:
        bottom = 0.0
    else:
        bottom = closedform.scattered_frequency(omega, delta_hi)
    edge = spelled_band_edge(problem, top, bottom)
    if edge is not None:
        return edge
    observed = problem.observed_omega_s
    if all(2.0**-64 <= v <= 2.0**64 for v in (height, omega, kappa)):
        shift = omega - observed
        c = kappa * (kappa / ((2.0 * height) ** 3 * omega))
        x = shift / (c - shift)
    else:
        # outside the float box c = kappa^2 / ((2R)^3 omega) and the shift
        # are exact rationals, and x = alpha^2 <= 1 is rounded once
        shift = Fraction(omega) - Fraction(observed)
        c = Fraction(kappa) ** 2 / ((2 * Fraction(height)) ** 3 * Fraction(omega))
        x = float(shift / (c - shift))
    a = math.sqrt(x)
    epsilon_d = hi if a >= 1.0 else min(max((1.0 + a) / (1.0 - a), lo), hi)
    omega_s = closedform.scattered_frequency(omega, delta_e(epsilon_d))
    residual = abs(omega_s - observed)
    tol_abs = problem.tol_rel * omega
    if residual >= tol_abs:
        raise NoConvergenceError(
            f"closed-form inverse left residual {residual:.3e} eV"
            f" against tolerance {tol_abs:.3e} eV"
        )
    return inversion.InversionResult(epsilon_d=epsilon_d, iterations=0, residual=residual)


def strict_outcome(call):
    """``outcome`` with warnings raised as errors; results compare by repr.

    ``repr`` round-trips floats, so equal reprs are equal bits (nan and
    the sign of zero included).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = outcome(call)
    return result if isinstance(result, tuple) else repr(result)


EXTREMES = (0.0, -1.0, 5e-324, 1e-300, 1e-105, 1e300, 1e308, math.inf, -math.inf, math.nan)


def extreme_or(strategy):
    return st.one_of(st.sampled_from(EXTREMES), strategy)


class TestClosedRouteParity:
    """The closed route equals the composition of its public pieces, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(
        epsilon_d=st.one_of(st.just(1.0), st.floats(1.0, 1e4), st.floats(1.0, 1e16)),
        height_nm=st.floats(0.05, 1e4),
        omega=st.floats(1e-3, 10.0),
        kappa=st.floats(1e-4, 10.0),
        near_field_factor=st.floats(1e-3, 10.0),
    )
    def test_forward(self, epsilon_d, height_nm, omega, kappa, near_field_factor):
        args = (epsilon_d, height_nm, omega, kappa, near_field_factor)
        assert strict_outcome(lambda: forward(*args)) == strict_outcome(
            lambda: composed_forward(*args)
        )

    @settings(max_examples=500, deadline=None)
    # (2R)^3 is subnormal and g overflows, while the shift is finite
    @example(epsilon_d=3.0, height_nm=1e-105, omega=1e300, kappa=1.0, near_field_factor=0.1)
    @given(
        epsilon_d=extreme_or(st.floats(1.0, 1e4)),
        height_nm=extreme_or(st.floats(0.05, 10.0)),
        omega=extreme_or(st.floats(1e-3, 10.0)),
        kappa=extreme_or(st.floats(1e-4, 10.0)),
        near_field_factor=extreme_or(st.just(0.1)),
    )
    def test_forward_at_extremes(self, epsilon_d, height_nm, omega, kappa, near_field_factor):
        args = (epsilon_d, height_nm, omega, kappa, near_field_factor)
        assert strict_outcome(lambda: forward(*args)) == strict_outcome(
            lambda: composed_forward(*args)
        )

    @settings(max_examples=500, deadline=None)
    @given(
        epsilon_d=st.floats(1.0, 1e4),
        offset=st.sampled_from((0.0, 1e-12, -1e-12, 1e-3, -1e-3, 0.5)),
        **GEOMETRY,
    )
    def test_inverse(self, epsilon_d, offset, height_nm, omega, kappa_fraction):
        kappa = kappa_for(kappa_fraction, height_nm, omega)
        try:
            observed = forward(epsilon_d, height_nm, omega, kappa).omega_s
        except ShiftExceedsGapError:
            observed = 0.5 * omega
        assume(observed + offset * omega > 0)
        problem = InversionProblem(observed + offset * omega, height_nm, omega, kappa)
        assert strict_outcome(lambda: invert_permittivity(problem)) == strict_outcome(
            lambda: composed_inverse(problem)
        )

    @settings(max_examples=500, deadline=None)
    # kappa*alpha rounds to 0 at the bracket's low end, and the shift at
    # its top is infinite: the band runs from zero frequency to omega
    @example(observed=5e-324, height_nm=5e-324, omega=5e-324, kappa=5e-324, hi=1e6)
    # (2R)^3 omega rounds to 0, yet c = 0.125 and the band is finite
    @example(observed=0.975, height_nm=1e-110, omega=1.0, kappa=1e-165, hi=1e6)
    @given(
        observed=extreme_or(st.floats(1e-3, 2.0)),
        height_nm=extreme_or(st.floats(0.05, 10.0)),
        omega=extreme_or(st.floats(1e-3, 10.0)),
        kappa=extreme_or(st.floats(1e-4, 10.0)),
        hi=st.sampled_from((1e6, 1e16, 1e17, 1e300)),
    )
    def test_inverse_at_extremes(self, observed, height_nm, omega, kappa, hi):
        try:
            problem = InversionProblem(observed, height_nm, omega, kappa, bracket=(1.5, hi))
        except ValueError:
            assume(False)
        assert strict_outcome(lambda: invert_permittivity(problem)) == strict_outcome(
            lambda: composed_inverse(problem)
        )


class TestOracleRouteParity:
    """The oracle route equals the composition of its public pieces, bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(
        epsilon_d=st.one_of(st.just(1.0), st.floats(1.0, 1e4), st.floats(1.0, 1e16)),
        height_nm=st.floats(0.05, 1e4),
        omega=st.floats(1e-3, 10.0),
        kappa=st.floats(1e-4, 10.0),
        near_field_factor=st.floats(1e-3, 10.0),
    )
    def test_forward(self, epsilon_d, height_nm, omega, kappa, near_field_factor):
        args = (epsilon_d, height_nm, omega, kappa, near_field_factor)
        got = strict_outcome(lambda: forward(*args, method="oracle"))
        assert got == strict_outcome(lambda: composed_oracle_forward(*args))

    @settings(max_examples=500, deadline=None)
    @given(
        epsilon_d=extreme_or(st.floats(1.0, 1e4)),
        height_nm=extreme_or(st.floats(0.05, 10.0)),
        omega=extreme_or(st.floats(1e-3, 10.0)),
        kappa=extreme_or(st.floats(1e-4, 10.0)),
        near_field_factor=extreme_or(st.just(0.1)),
    )
    def test_forward_at_extremes(self, epsilon_d, height_nm, omega, kappa, near_field_factor):
        args = (epsilon_d, height_nm, omega, kappa, near_field_factor)
        got = strict_outcome(lambda: forward(*args, method="oracle"))
        assert got == strict_outcome(lambda: composed_oracle_forward(*args))


def uncached_oracle_inverse(problem, shift):
    """The oracle inverse with no memory of its points: the band edges,
    the root search and the check at its root each call ``shift``."""
    lo, hi = problem.bracket
    height, omega, kappa = problem.height_nm, problem.omega, problem.kappa
    top = closedform._emitted(omega, shift(lo, height, omega, kappa))
    delta_hi = shift(hi, height, omega, kappa)
    bottom = 0.0 if abs(delta_hi) >= omega else closedform._emitted(omega, delta_hi)
    edge = spelled_band_edge(problem, top, bottom)
    if edge is not None:
        return edge
    observed = problem.observed_omega_s
    root, info = brentq(
        lambda eps: omega - abs(shift(eps, height, omega, kappa)) - observed,
        lo,
        hi,
        xtol=1e-12,
        rtol=1e-15,
        maxiter=problem.max_iter,
        full_output=True,
        disp=False,
    )
    epsilon_d, iterations = float(root), int(info.iterations)
    delta = shift(epsilon_d, height, omega, kappa)
    emitted = closedform._emitted(omega, delta) if info.converged else omega - abs(delta)
    residual = abs(emitted - observed)
    tol_abs = problem.tol_rel * omega
    if not info.converged or residual >= tol_abs:
        raise NoConvergenceError(
            f"root search used {iterations} iterations (budget {problem.max_iter}) and"
            f" left residual {residual:.3e} eV against tolerance {tol_abs:.3e} eV"
        )
    return inversion.InversionResult(epsilon_d, iterations, residual)


@pytest.mark.usefixtures("cold_band")
class TestEachPointOnce:
    """On a cold band cache the oracle inverse computes each point's shift
    once and the closed inverse computes its three points (two on an edge
    or outside). On a warm cache neither evaluates a band point again."""

    @staticmethod
    def observation(where, truth, height_nm, kappa):
        shift = inversion._oracle_shift
        top = 1.0 - abs(shift(1.0 + 1e-9, height_nm, 1.0, kappa))
        bottom = 1.0 - abs(shift(1e6, height_nm, 1.0, kappa))
        return {
            "answer": 1.0 - abs(shift(truth, height_nm, 1.0, kappa)),
            "top": top,
            "bottom": bottom,
            "above": top + 1e-3,
            "below": bottom - 1e-3,
        }[where]

    @settings(max_examples=150, deadline=None)
    @given(
        truth=st.floats(1.01, 1e4),
        where=st.sampled_from(["answer", "answer", "top", "bottom", "above", "below"]),
        max_iter=st.sampled_from([1, 3, 200]),
        height_nm=st.floats(0.3, 4.0),
        kappa=st.floats(0.05, 2.0),
    )
    def test_oracle_inverse(self, truth, where, max_iter, height_nm, kappa):
        observed = self.observation(where, truth, height_nm, kappa)
        assume(0.0 < observed < math.inf)
        problem = InversionProblem(
            observed, height_nm, 1.0, kappa, max_iter=max_iter, method="oracle"
        )
        real = inversion._oracle_shift
        cold, warm, uncached = [], [], []

        def recorded(log):
            def shift(eps, *geometry):
                log.append(eps)
                return real(eps, *geometry)

            return shift

        inversion._band.cache_clear()  # each example starts cold
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inversion, "_oracle_shift", recorded(cold))
            got = strict_outcome(lambda: invert_permittivity(problem))
            patch.setattr(inversion, "_oracle_shift", recorded(warm))
            again = strict_outcome(lambda: invert_permittivity(problem))
        want = strict_outcome(
            lambda: uncached_oracle_inverse(problem, recorded(uncached))
        )
        assert got == want
        assert again == want
        assert len(cold) == len(set(cold))
        assert set(cold) == set(uncached)
        band = list(problem.bracket)
        assert cold[:2] == band
        assert warm == [eps for eps in cold if eps not in band]

    # inside the band [0.9375..., 1], on its top edge, above and below it
    @pytest.mark.parametrize("observed", [0.96, 0.9999, 1.0, 1.2, 0.5])
    def test_closed_inverse(self, monkeypatch, observed):
        real = inversion._closed_shift
        calls = []

        def recorded(eps, *geometry):
            calls.append(eps)
            return real(eps, *geometry)

        monkeypatch.setattr(inversion, "_closed_shift", recorded)
        problem = InversionProblem(observed, 1.0, 1.0, 1.0)
        result = outcome(lambda: invert_permittivity(problem))
        lo, hi = problem.bracket
        inside = 0.9375001 < observed < 1.0
        assert calls == ([lo, hi, result.epsilon_d] if inside else [lo, hi])
        calls.clear()
        assert outcome(lambda: invert_permittivity(problem)) == result
        assert calls == ([result.epsilon_d] if inside else [])


# One inversion's inputs: plain values, of which up to three at once take
# an extreme value (max_iter's own extremes included), and a route
INVERSION_DRAWS = dict(
    plain=st.fixed_dictionaries(
        {
            # observed = omega (1 - 10**depth), at every depth in the band
            "depth": st.floats(-12.0, -0.1),
            "height_nm": st.floats(0.05, 10.0),
            "omega": st.floats(1e-3, 10.0),
            "kappa": st.floats(1e-4, 10.0),
            "lo": st.sampled_from((1.0 + 1e-9, 1.5, 2)),
            "hi": st.sampled_from((10, 1e6, 1e15)),
            "tol_rel": st.sampled_from((1e-10, 1e-3)),
            "max_iter": st.sampled_from((1, 3, 200, 2.0, True)),
        }
    ),
    extreme=st.dictionaries(
        st.sampled_from(
            ("observed", "height_nm", "omega", "kappa", "lo", "hi", "tol_rel", "max_iter")
        ),
        st.sampled_from(EXTREMES + (1.0, 2.5, 1e17, True, False)),
        max_size=3,
    ),
    method=st.sampled_from(("closed", "oracle")),
)


def drawn_problem(plain, extreme, method):
    v = dict(plain, observed=plain["omega"] * (1.0 - 10.0 ** plain["depth"]))
    v.update(extreme)
    return InversionProblem(
        v["observed"], v["height_nm"], v["omega"], v["kappa"],
        (v["lo"], v["hi"]), v["tol_rel"], v["max_iter"], method,
    )


class TestBandCache:
    """The band is kept per geometry and route; a warm cache changes no
    outcome."""

    @settings(max_examples=300, deadline=None)
    @given(**INVERSION_DRAWS)
    def test_warm_outcome_is_the_cold_one(self, plain, extreme, method):
        try:
            problem = drawn_problem(plain, extreme, method)
        except ValueError:
            assume(False)
        inversion._band.cache_clear()
        cold = strict_outcome(lambda: invert_permittivity(problem))
        event("answer" if isinstance(cold, str) else cold[0].__name__)
        assert strict_outcome(lambda: invert_permittivity(problem)) == cold

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_failing_geometry_raises_on_every_call(self, cold_band, method):
        # the shift at the band top is past the gap: there is no band
        problem = InversionProblem(5e-301, 1.0, 1e-300, 1.6e-169, method=method)
        first = outcome(lambda: invert_permittivity(problem))
        assert first[0] is ShiftExceedsGapError
        assert outcome(lambda: invert_permittivity(problem)) == first
        assert inversion._band.cache_info().currsize == 0

    def test_int_and_float_keys_are_separate_entries(self, cold_band):
        for height_nm in (1, 1.0):
            invert_permittivity(InversionProblem(0.98, height_nm, 1.0, 1.0))
        info = inversion._band.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        invert_permittivity(InversionProblem(0.97, 1, 1.0, 1.0))
        assert inversion._band.cache_info().hits == 1

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_unhashable_input_computes_the_band_uncached(self, cold_band, method):
        # a 0-d array passes every check but cannot key the cache
        plain = InversionProblem(0.995, 1.0, 1.0, 1.0, method=method)
        array = InversionProblem(0.995, np.array(1.0), 1.0, 1.0, method=method)
        assert invert_permittivity(array) == invert_permittivity(plain)
        assert inversion._band.cache_info().currsize == 1

    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_unhashable_input_outside_the_float_box(self, cold_band, method):
        # R = 1e-110 nm and kappa = 1e-165 run on exact rationals, which a
        # 0-d array reaches through its float
        plain = InversionProblem(0.975, 1e-110, 1.0, 1e-165, method=method)
        array = InversionProblem(*map(np.array, (0.975, 1e-110, 1.0, 1e-165)), method=method)
        expected = outcome(lambda: invert_permittivity(plain))
        cached = inversion._band.cache_info().currsize
        assert outcome(lambda: invert_permittivity(array)) == expected
        assert inversion._band.cache_info().currsize == cached


CONTRACT_ERRORS = (ValueError, ArithmeticError, QsnomError)


class TestInversionContract:
    """``InversionProblem`` with ``invert_permittivity``, on both routes,
    returns finite numbers or raises a ``ValueError``, an
    ``ArithmeticError`` other than ``ZeroDivisionError`` or a
    ``QsnomError``, with warnings as errors."""

    @settings(max_examples=500, deadline=None)
    @example(
        plain=dict(
            depth=-3.0, height_nm=1.0, omega=1.0, kappa=1.0,
            lo=1.5, hi=1e6, tol_rel=1e-10, max_iter=200,
        ),
        extreme={"max_iter": 1e300},
        method="oracle",
    )
    @given(**INVERSION_DRAWS)
    def test_finite_answer_or_classed_error(self, plain, extreme, method):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = invert_permittivity(drawn_problem(plain, extreme, method))
            except CONTRACT_ERRORS as exc:
                # a bare division by zero names no quantity
                assert not isinstance(exc, ZeroDivisionError), exc
                event(type(exc).__name__)
                return
        event("answer")
        assert math.isfinite(result.epsilon_d)
        assert math.isfinite(result.residual)
        assert type(result.iterations) is int and result.iterations >= 0


# The band at R = 1 nm, omega = kappa = 1, by route and bracket, as an
# OutOfBracketError words it
BAND_WORDING = {
    ("closed", (1.0 + 1e-9, 1e6)): "[0.937500125, 1.0] on bracket (1, 1e+06)",
    ("closed", (2.0, 50.0)): "[0.9399990003998401, 0.9875] on bracket (2, 50)",
    ("oracle", (1.0 + 1e-9, 1e6)): "[0.992187515625, 1.0] on bracket (1, 1e+06)",
    ("oracle", (2.0, 50.0)): "[0.99249987504998, 0.9984375] on bracket (2, 50)",
}
OUT_OF_BAND = [(1.02, "above"), (0.5, "below")]


@pytest.mark.usefixtures("cold_band")
class TestOutOfBandWording:
    """The band's wording, kept with the band, reads as it did when each
    out-of-band pixel formatted the whole message."""

    @pytest.mark.parametrize("observed, side", OUT_OF_BAND)
    @pytest.mark.parametrize("bracket", [(1.0 + 1e-9, 1e6), (2.0, 50.0)])
    @pytest.mark.parametrize("one", [1, 1.0], ids=["int", "float"])
    @pytest.mark.parametrize("band", ["cold", "warm"])
    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_message(self, method, band, one, bracket, observed, side):
        problem = InversionProblem(observed, one, one, one, bracket=bracket, method=method)
        if band == "warm":
            # another pixel, on the other side, leaves the band in the cache
            other = 0.5 if side == "above" else 1.02
            warm = dataclasses.replace(problem, observed_omega_s=other)
            outcome(lambda: invert_permittivity(warm))
        with pytest.raises(OutOfBracketError) as caught:
            invert_permittivity(problem)
        assert str(caught.value) == (
            f"observed omega_s {observed!r} {side} attainable band"
            f" {BAND_WORDING[method, bracket]}"
        )
        info = inversion._band.cache_info()
        assert (info.hits, info.currsize) == ((1 if band == "warm" else 0), 1)

    @pytest.mark.parametrize("observed, side", OUT_OF_BAND)
    @pytest.mark.parametrize("method", ["closed", "oracle"])
    def test_message_without_a_cache_entry(self, method, observed, side):
        # a 0-d array height keys no entry; on the closed route the edges
        # come out as numpy floats, and the message shows them as such
        problem = InversionProblem(observed, np.array(1.0), 1.0, 1.0, method=method)
        number = np.float64 if method == "closed" else float
        bottom, top = {"closed": (0.937500125, 1.0), "oracle": (0.992187515625, 1.0)}[method]
        for _ in range(2):
            with pytest.raises(OutOfBracketError) as caught:
                invert_permittivity(problem)
            assert str(caught.value) == (
                f"observed omega_s {observed!r} {side} attainable band"
                f" [{number(bottom)!r}, {number(top)!r}] on bracket (1, 1e+06)"
            )
        assert inversion._band.cache_info().currsize == 0


class TestValueObjects:
    """``InversionProblem`` writes out its ``__init__``; it and
    ``InversionResult`` stay frozen, slotted dataclasses with the fields,
    defaults, checks, comparisons and copies a generated one gives."""

    PROBLEM_FIELDS = [
        ("observed_omega_s", dataclasses.MISSING),
        ("height_nm", dataclasses.MISSING),
        ("omega", dataclasses.MISSING),
        ("kappa", dataclasses.MISSING),
        ("bracket", (1.0 + 1e-9, 1e6)),
        ("tol_rel", 1e-10),
        ("max_iter", 200),
        ("method", "closed"),
    ]

    @pytest.mark.parametrize(
        "cls, expected",
        [
            (InversionProblem, PROBLEM_FIELDS),
            (
                inversion.InversionResult,
                [(name, dataclasses.MISSING) for name in ("epsilon_d", "iterations", "residual")],
            ),
        ],
    )
    def test_fields_signature_and_slots(self, cls, expected):
        assert [(f.name, f.default) for f in dataclasses.fields(cls)] == expected
        unset = {dataclasses.MISSING: inspect.Parameter.empty}
        assert [
            (p.name, p.default) for p in inspect.signature(cls).parameters.values()
        ] == [(name, unset.get(default, default)) for name, default in expected]
        assert cls.__match_args__ == tuple(name for name, _ in expected)
        assert cls.__slots__ == tuple(name for name, _ in expected)

    def test_problem_is_frozen(self):
        problem = InversionProblem(0.9, 1.0, 1.0, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            problem.tol_rel = 1e-3
        with pytest.raises(dataclasses.FrozenInstanceError):
            del problem.kappa
        # a name that is no field: a slotted frozen dataclass's generated
        # __setattr__ raises TypeError here on Python 3.10 and 3.11, as
        # ForwardResult's does; it never stores the value
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            problem.extra = 1
        assert not hasattr(problem, "extra")
        assert problem.tol_rel == 1e-10 and problem.kappa == 1.0

    def test_replace_checks_again(self):
        problem = InversionProblem(0.9, 1.0, 1.0, 1.0)
        replaced = dataclasses.replace(problem, max_iter=3.0, method="oracle")
        assert replaced == InversionProblem(0.9, 1.0, 1.0, 1.0, max_iter=3, method="oracle")
        assert type(replaced.max_iter) is int
        for changes, message in [
            ({"bracket": (0.5, 10.0)}, "bracket must satisfy 1 < lo < hi, got (0.5, 10.0)"),
            ({"tol_rel": 0.0}, "tol_rel must be positive, got 0.0"),
            ({"max_iter": 2.5}, "max_iter must be an integer >= 1, got 2.5"),
            ({"method": "numeric"}, "method must be 'closed' or 'oracle', got 'numeric'"),
            ({"observed_omega_s": math.inf}, "observed_omega_s must be finite, got inf"),
        ]:
            with pytest.raises(ValueError) as caught:
                dataclasses.replace(problem, **changes)
            assert str(caught.value) == message

    def test_eq_hash_and_repr(self):
        problem = InversionProblem(0.9, 1.0, 1.0, 1.0, method="oracle")
        same = InversionProblem(
            observed_omega_s=0.9, height_nm=1.0, omega=1.0, kappa=1.0, method="oracle"
        )
        assert problem == same and hash(problem) == hash(same)
        assert hash(problem) == hash((0.9, 1.0, 1.0, 1.0, (1.0 + 1e-9, 1e6), 1e-10, 200, "oracle"))
        assert problem != InversionProblem(0.9, 1.0, 1.0, 1.0)
        assert repr(problem) == (
            "InversionProblem(observed_omega_s=0.9, height_nm=1.0, omega=1.0,"
            " kappa=1.0, bracket=(1.000000001, 1000000.0), tol_rel=1e-10,"
            " max_iter=200, method='oracle')"
        )
        result = inversion.InversionResult(3.0, 0, 0.0)
        assert result == inversion.InversionResult(epsilon_d=3.0, iterations=0, residual=0.0)
        assert hash(result) == hash((3.0, 0, 0.0))
        assert repr(result) == "InversionResult(epsilon_d=3.0, iterations=0, residual=0.0)"

    @pytest.mark.parametrize(
        "value",
        [
            InversionProblem(0.9, 1.0, 1.0, 1.0, (2.0, 50.0), max_iter=7.0, method="oracle"),
            inversion.InversionResult(3.0, 4, 1e-12),
        ],
        ids=["problem", "result"],
    )
    def test_copy_and_pickle_round_trip(self, value):
        copies = [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies:
            assert type(twin) is type(value)
            assert twin == value and repr(twin) == repr(value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(twin, dataclasses.fields(twin)[0].name, 1.0)
