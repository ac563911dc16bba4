import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from qsnom import hamiltonian, inversion
from qsnom.dipole import DielectricSample, TipDipole
from qsnom.errors import (
    NoConvergenceError,
    OutOfBracketError,
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

    def test_takes_no_photon_register_parameters(self):
        assert list(inspect.signature(forward).parameters) == [
            "epsilon_d", "height_nm", "omega", "kappa", "near_field_factor", "method"
        ]
        for name in ("n_max", "photon_energy"):
            with pytest.raises(TypeError, match=name):
                forward(3.0, 0.5, 1.0, 1.0, **{name: 1})

    def test_closed_route_builds_no_hamiltonian(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("closed route built the Hamiltonian pair")

        monkeypatch.setattr(inversion, "build_hamiltonian_pair", refuse)
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

        monkeypatch.setattr(hamiltonian, "_h0_energies", refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        result = forward(3.0, 0.5, 1.0, 1.0)
        assert result.amplitude == pytest.approx(0.92, abs=1e-15)
        assert any("perturbative regime" in w for w in result.warnings)
        problem = InversionProblem(observed_omega_s=observed, **STRONG)
        assert invert_permittivity(problem).epsilon_d == pytest.approx(11.7, rel=1e-12)
        assert run_sweep(spec) == rows
        assert [row["error"] for row in rows] == ["", "", ""]


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

    def test_oracle_route_still_evaluates_the_bracket_top(self):
        problem = InversionProblem(observed_omega_s=0.9, method="oracle", **self.NEAR)
        with pytest.raises(ShiftExceedsGapError):
            invert_permittivity(problem)


class TestClosedFormInverse:
    def test_one_forward_call_and_no_root_search(self, monkeypatch):
        calls = []
        real = inversion.forward

        def counting(*args, **kwargs):
            calls.append(kwargs.get("method", "closed"))
            return real(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("closed route ran the root search")

        observed = forward(11.7, **STRONG).omega_s
        monkeypatch.setattr(inversion, "forward", counting)
        monkeypatch.setattr(inversion, "brentq", refuse)
        result = invert_permittivity(InversionProblem(observed_omega_s=observed, **STRONG))
        assert result.epsilon_d == pytest.approx(11.7, rel=1e-12)
        assert result.iterations == 0
        assert calls == ["closed"]

    def test_residual_check_is_independent(self, monkeypatch):
        real = inversion.forward

        def off_by_a_micro_ev(*args, **kwargs):
            result = real(*args, **kwargs)
            return dataclasses.replace(result, omega_s=result.omega_s + 1e-6)

        observed = forward(4.0, **STRONG).omega_s
        monkeypatch.setattr(inversion, "forward", off_by_a_micro_ev)
        problem = InversionProblem(observed_omega_s=observed, **STRONG)
        with pytest.raises(NoConvergenceError, match="closed-form inverse left residual"):
            invert_permittivity(problem)


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
