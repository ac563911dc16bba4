import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from qsnom.closedform import (
    BetaCoefficients,
    InitialCoefficients,
    beta_coefficients,
    density_matrix,
    energy_shift,
    photon_report,
    scattered_amplitude,
    scattered_frequency,
)
from qsnom.errors import (
    DegenerateDenominatorError,
    NotNormalizedError,
    QsnomError,
    ShiftExceedsGapError,
    ZeroStateError,
)

# ground tip, ground image, photon present; epsilon_d = 3, R = 0.5 nm,
# omega = 1 eV, kappa = 1 eV nm^3
FIXTURE = dict(height_nm=0.5, alpha=0.5, omega=1.0, kappa=1.0)


class TestInitialCoefficients:
    def test_ground_state(self):
        a = InitialCoefficients.ground_state()
        assert a.a1 == 1.0
        np.testing.assert_array_equal(a.as_array(), [1.0, 0.0, 0.0, 0.0])

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            InitialCoefficients(0.9, 0.0, 0.0, 0.0)

    def test_accepts_uniform(self):
        a = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        assert sum(x * x for x in a.as_array()) == pytest.approx(1.0, abs=1e-15)


class TestPerturbedCoefficients:
    def test_ground_state_fixture(self):
        beta = beta_coefficients(InitialCoefficients.ground_state(), **FIXTURE)
        assert beta.beta1 == pytest.approx(0.92, abs=1e-15)
        assert beta.beta2 == 0.0
        assert beta.beta3 == 0.0
        assert beta.beta4 == 0.0

    def test_uniform_superposition_fixture(self):
        a = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        beta = beta_coefficients(a, **FIXTURE)
        # sum-gap channels: 0.5 - 0.25 * 0.25 / 1.5625 * 0.5
        assert beta.beta1 == pytest.approx(0.48, abs=1e-15)
        assert beta.beta3 == pytest.approx(0.48, abs=1e-15)
        # difference-gap channels: 0.5 - 0.25 * 0.25 / 0.5625 * 0.5
        assert beta.beta2 == pytest.approx(4.0 / 9.0, rel=1e-14)
        assert beta.beta4 == pytest.approx(4.0 / 9.0, rel=1e-14)

    def test_vacuum_leaves_state_untouched(self):
        a = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        beta = beta_coefficients(a, height_nm=0.5, alpha=0.0, omega=1.0, kappa=1.0)
        np.testing.assert_array_equal(beta.as_array(), a.as_array())

    def test_metal_limit_degenerate_denominator(self):
        a = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        with pytest.raises(DegenerateDenominatorError):
            beta_coefficients(a, height_nm=0.5, alpha=1.0 - 1e-13, omega=1.0, kappa=1.0)

    def test_metal_limit_ground_state_is_safe(self):
        beta = beta_coefficients(
            InitialCoefficients.ground_state(),
            height_nm=0.5,
            alpha=1.0 - 1e-13,
            omega=1.0,
            kappa=1.0,
        )
        assert 0.0 < beta.beta1 < 1.0

    def test_alpha_domain(self):
        a = InitialCoefficients.ground_state()
        with pytest.raises(ValueError, match="alpha"):
            beta_coefficients(a, height_nm=0.5, alpha=1.0, omega=1.0, kappa=1.0)
        with pytest.raises(ValueError, match="alpha"):
            beta_coefficients(a, height_nm=0.5, alpha=-0.1, omega=1.0, kappa=1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=0.9),
        height=st.floats(min_value=0.3, max_value=10.0),
    )
    def test_correction_only_shrinks_amplitudes(self, alpha, height):
        a = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        beta = beta_coefficients(a, height_nm=height, alpha=alpha, omega=1.0, kappa=0.05)
        for initial, corrected in zip(a.as_array(), beta.as_array()):
            assert corrected <= initial + 1e-15


class TestDensityMatrix:
    def test_fixture_is_pure_projector(self):
        beta = BetaCoefficients(0.92, 0.0, 0.0, 0.0)
        rho = density_matrix(beta)
        assert rho.dims == (2, 2)
        assert rho.trace == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(
            rho.entries @ rho.entries, rho.entries, atol=1e-15
        )
        np.testing.assert_allclose(rho.entries[0, 0], 1.0, atol=1e-15)

    def test_mixed_coefficients(self):
        beta = BetaCoefficients(0.6, 0.8, 0.0, 0.0)
        rho = density_matrix(beta)
        np.testing.assert_allclose(rho.entries[0, 0], 0.36, atol=1e-15)
        np.testing.assert_allclose(rho.entries[1, 1], 0.64, atol=1e-15)
        np.testing.assert_allclose(rho.entries[0, 1], 0.48, atol=1e-15)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroStateError):
            density_matrix(BetaCoefficients(0.0, 0.0, 0.0, 0.0))


class TestScatteredAmplitude:
    def test_fixture(self):
        beta = beta_coefficients(InitialCoefficients.ground_state(), **FIXTURE)
        assert scattered_amplitude(beta) == pytest.approx(0.92, abs=1e-15)

    def test_vacuum_unity(self):
        beta = beta_coefficients(
            InitialCoefficients.ground_state(),
            height_nm=0.5,
            alpha=0.0,
            omega=1.0,
            kappa=1.0,
        )
        assert scattered_amplitude(beta) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=0.9),
        height=st.floats(min_value=0.3, max_value=10.0),
    )
    def test_never_exceeds_unity(self, alpha, height):
        beta = beta_coefficients(
            InitialCoefficients.ground_state(),
            height_nm=height,
            alpha=alpha,
            omega=1.0,
            kappa=0.05,
        )
        assert scattered_amplitude(beta) <= 1.0


class TestEnergyShift:
    def test_fixture(self):
        shift = energy_shift(1.0, **FIXTURE)
        assert shift == pytest.approx(-0.2, abs=1e-15)

    def test_vacuum_exactly_zero(self):
        shift = energy_shift(1.0, height_nm=0.5, alpha=0.0, omega=1.0, kappa=1.0)
        assert shift == 0.0
        assert math.copysign(1.0, shift) == 1.0

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
    def test_inverse_cube_in_gap_distance(self, alpha):
        near = energy_shift(1.0, height_nm=0.5, alpha=alpha, omega=1.0, kappa=1.0)
        far = energy_shift(1.0, height_nm=1.0, alpha=alpha, omega=1.0, kappa=1.0)
        assert near / far == pytest.approx(8.0, rel=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.floats(min_value=0.0, max_value=0.999),
        height=st.floats(min_value=0.1, max_value=100.0),
        a1=st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_never_positive(self, alpha, height, a1):
        assert energy_shift(a1, height_nm=height, alpha=alpha, omega=1.0, kappa=0.05) <= 0.0


    # kappa alpha = 1e-160 or 1e-170: its square is subnormal or zero, while
    # the shift is 0.8 omega and the ground correction 0.32
    UNDERFLOWING_SQUARE = [
        dict(height_nm=0.5e-40, alpha=0.5, omega=1e-100, kappa=2e-160),
        dict(height_nm=0.5e-50, alpha=0.5, omega=1e-95, kappa=2e-170),
    ]

    @pytest.mark.parametrize("point", UNDERFLOWING_SQUARE)
    def test_coupling_whose_square_underflows_keeps_its_shift(self, point):
        shift = energy_shift(1.0, **point)
        assert shift == pytest.approx(-0.8 * point["omega"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("point", UNDERFLOWING_SQUARE)
    def test_correction_whose_square_underflows_is_kept(self, point):
        beta = beta_coefficients(InitialCoefficients.ground_state(), **point)
        assert 1.0 - beta.beta1 == pytest.approx(0.32, rel=1e-12)

    # the prefactor (kappa alpha)^2 / (2 (2R)^3) underflows to 0 (1.25e-341)
    # or to a subnormal (1.25e-321), while the ground correction it makes
    # over the squared sum gap is 0.08
    UNDERFLOWING_PREFACTOR = [
        dict(height_nm=0.5, alpha=0.5, omega=1e-170, kappa=1e-170),
        dict(height_nm=0.5, alpha=0.5, omega=1e-160, kappa=1e-160),
    ]

    @pytest.mark.parametrize("point", UNDERFLOWING_PREFACTOR)
    def test_correction_whose_prefactor_underflows_is_kept(self, point):
        report = photon_report(InitialCoefficients.ground_state(), **point)
        assert report.amplitude == pytest.approx(0.92, rel=1e-12)
        assert report.delta_e == pytest.approx(-0.2 * point["omega"], rel=1e-12)


class TestScatteredFrequency:
    def test_fixture(self):
        assert scattered_frequency(1.0, -0.2) == pytest.approx(0.8, abs=1e-15)

    def test_zero_shift(self):
        assert scattered_frequency(1.0, 0.0) == 1.0

    def test_shift_swallowing_the_gap(self):
        with pytest.raises(ShiftExceedsGapError):
            scattered_frequency(1.0, -1.0)
        with pytest.raises(ShiftExceedsGapError):
            scattered_frequency(1.0, -1.5)

    def test_nan_shift_is_refused(self):
        with pytest.raises(ValueError, match="^delta_e must not be nan$"):
            scattered_frequency(1.0, math.nan)


class TestPhotonReport:
    def test_fixture(self):
        report = photon_report(InitialCoefficients.ground_state(), **FIXTURE)
        assert report.amplitude == pytest.approx(0.92, abs=1e-15)
        assert report.probability_weight == pytest.approx(0.92**2, rel=1e-15)
        assert report.delta_e == pytest.approx(-0.2, abs=1e-15)
        assert report.omega_s == pytest.approx(0.8, abs=1e-15)

    def test_weight_is_square_of_amplitude(self):
        a = InitialCoefficients(0.5, 0.5, 0.5, 0.5)
        report = photon_report(a, height_nm=1.0, alpha=0.5, omega=1.0, kappa=0.05)
        assert report.probability_weight == pytest.approx(
            report.amplitude**2, rel=1e-15
        )

    def test_gap_check_comes_before_the_norm(self):
        # at kappa = 1e150 the corrections are ~1e298 and their squared
        # norm would overflow; the shift past the gap is the error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ShiftExceedsGapError):
                photon_report(
                    InitialCoefficients.ground_state(),
                    height_nm=1.0, alpha=0.5, omega=1.0, kappa=1e150,
                )


class TestDifferenceGapUnderflow:
    """omega (1 - alpha^2) rounds to 0 at alpha = 0.9, omega = 5e-324."""

    POINT = dict(height_nm=1.0, alpha=0.9, omega=5e-324)

    def test_shift_past_the_gap_is_the_error(self):
        with pytest.raises(ShiftExceedsGapError):
            photon_report(InitialCoefficients.ground_state(), **self.POINT, kappa=1.0)

    def test_zero_mixed_amplitudes_take_no_correction(self):
        beta = beta_coefficients(
            InitialCoefficients.ground_state(), **self.POINT, kappa=5e-324
        )
        assert (beta.beta2, beta.beta3, beta.beta4) == (0.0, 0.0, 0.0)
        report = photon_report(
            InitialCoefficients.ground_state(), **self.POINT, kappa=5e-324
        )
        assert report.amplitude == beta.norm
        assert report.delta_e == 0.0

    def test_nonzero_mixed_amplitude_is_a_degenerate_denominator(self):
        a = InitialCoefficients(0.6, 0.8, 0.0, 0.0)
        for fn in (beta_coefficients, photon_report):
            with pytest.raises(DegenerateDenominatorError, match="^difference gap omega"):
                fn(a, **self.POINT, kappa=5e-324)


class TestPastTheFloatRange:
    """A shift or correction that leaves the float range is an error,
    never an infinite number returned."""

    POINT = dict(height_nm=0.5, alpha=0.9, omega=1e-315, kappa=1e-150)

    def test_beta_coefficients_names_the_coefficient(self):
        with pytest.raises(OverflowError, match="^corrected coefficient beta1 overflows: -inf$"):
            beta_coefficients(InitialCoefficients.ground_state(), **self.POINT)

    def test_photon_report_fails_on_the_gap_first(self):
        with pytest.raises(ShiftExceedsGapError):
            photon_report(InitialCoefficients.ground_state(), **self.POINT)

    def test_energy_shift_past_the_float_range_is_past_the_gap(self):
        with pytest.raises(ShiftExceedsGapError) as info:
            energy_shift(1.0, height_nm=1.0, alpha=0.5, omega=5e-324, kappa=1.0)
        with pytest.raises(ShiftExceedsGapError) as composed:
            scattered_frequency(5e-324, -math.inf)
        assert str(info.value) == str(composed.value)

    @pytest.mark.parametrize(
        "alpha, kappa, amplitude",
        [(1e-200, 0.3, "5.624999999999999e+197"), (0.5, 1e-100, "inf")],
    )
    def test_photon_report_mixed_correction_past_the_float_range(self, alpha, kappa, amplitude):
        # a1 = 0 gives no shift, so the gap check passes
        with pytest.raises(OverflowError) as info:
            photon_report(InitialCoefficients(0.0, 1.0, 0.0, 0.0), 1.0, alpha, 1e-300, kappa)
        assert str(info.value) == (
            f"probability weight overflows: inf (amplitude {amplitude})"
        )


class TestNonFiniteInputs:
    """A non-finite input raises a ValueError that names it."""

    FUNCTIONS = [beta_coefficients, energy_shift, photon_report]

    @staticmethod
    def call(fn, **changes):
        point = dict(FIXTURE, **changes)
        if fn is energy_shift:
            return fn(1.0, **point)
        return fn(InitialCoefficients.ground_state(), **point)

    @pytest.mark.parametrize("fn", FUNCTIONS)
    @pytest.mark.parametrize("name", ["height_nm", "omega", "kappa"])
    def test_infinite_value(self, fn, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got inf$"):
            self.call(fn, **{name: math.inf})

    @pytest.mark.parametrize("fn", FUNCTIONS)
    @pytest.mark.parametrize("kappa", [math.nan, -math.inf])
    def test_kappa_nan_or_negative_infinite(self, fn, kappa):
        with pytest.raises(ValueError) as info:
            self.call(fn, kappa=kappa)
        assert str(info.value) == f"kappa must be finite, got {kappa!r}"

    def test_scattered_frequency_infinite_gap(self):
        with pytest.raises(ValueError, match="^omega must be finite, got inf$"):
            scattered_frequency(math.inf, -0.2)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf, math.nan])
    def test_existing_messages_unchanged(self, bad):
        for fn in self.FUNCTIONS:
            for name in ("height_nm", "omega"):
                with pytest.raises(ValueError) as info:
                    self.call(fn, **{name: bad})
                assert str(info.value) == f"{name} must be positive, got {bad!r}"
        with pytest.raises(ValueError) as info:
            scattered_frequency(bad, -0.2)
        assert str(info.value) == f"omega must be positive, got {bad!r}"


class TestNormWithoutNumpy:
    """``BetaCoefficients.norm`` is ``math.hypot``; numpy's norm, the
    square root of a BLAS dot product, was the earlier value."""

    @settings(max_examples=300, deadline=None)
    @given(
        height_nm=st.floats(0.3, 10.0),
        alpha=st.floats(0.0, 0.999),
        omega=st.floats(0.05, 5.0),
        # below sqrt((2R)^3) * omega the shift stays under half the gap
        kappa_fraction=st.floats(0.0, 1.0),
    )
    def test_ground_state_amplitude_is_numpys_bit_for_bit(
        self, height_nm, alpha, omega, kappa_fraction
    ):
        params = dict(
            height_nm=height_nm,
            alpha=alpha,
            omega=omega,
            kappa=kappa_fraction * math.sqrt((2 * height_nm) ** 3) * omega,
        )
        a = InitialCoefficients.ground_state()
        beta = beta_coefficients(a, **params)
        amplitude = photon_report(a, **params).amplitude
        assert amplitude == float(np.linalg.norm(beta.as_array()))

    @settings(max_examples=300, deadline=None)
    @given(
        raw=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        alpha=st.floats(0.0, 0.9),
        kappa=st.floats(0.0, 1.0),
    )
    def test_general_norm_within_one_ulp_of_the_exact_norm(self, raw, alpha, kappa):
        # numpy's norm is no reference here: it lies up to two floats
        # from the exact norm
        size = math.sqrt(sum(x * x for x in raw))
        assume(size > 1e-3)
        a = InitialCoefficients(*(x / size for x in raw))
        beta = beta_coefficients(a, height_nm=1.0, alpha=alpha, omega=1.0, kappa=kappa)
        square = sum(Fraction(b) ** 2 for b in beta.as_array().tolist())
        norm, ulp = Fraction(beta.norm), Fraction(math.ulp(beta.norm))
        assert (norm - ulp) ** 2 <= square <= (norm + ulp) ** 2


CONTRACT_EXTREMES = (
    0.0, -1.0, 5e-324, 1e-320, 1e-315, 1e-310, 1e-300, 1e-200, 1e-150,
    0.9, 1.0 - 2.0**-53, 1.0, 1e300, 1e308, math.inf, -math.inf, math.nan,
)
CONTRACT_COEFFICIENTS = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0, 0.0), (0.6, 0.8, 0.0, 0.0), (0.0, 0.0, 0.6, -0.8),
                     (0.5, 0.5, 0.5, 0.5), (0.0, 1.0, 0.0, 0.0)]),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)
    .filter(lambda raw: math.hypot(*raw) > 1e-3)
    .map(lambda raw: tuple(x / math.hypot(*raw) for x in raw)),
)


class TestContract:
    """``energy_shift``, ``scattered_frequency``, ``beta_coefficients``
    and ``photon_report`` return finite numbers or raise a
    ``ValueError``, a ``QsnomError`` or an ``ArithmeticError`` other than
    ``ZeroDivisionError``, with warnings as errors.

    One ``ZeroDivisionError`` is still allowed, as a known defect: where
    the shift's denominator (2R)^3 omega (1 + alpha^2) rounds to 0. The
    CLI pins it (``simulate --set R_nm=1e-300``); any other is a failure.
    """

    @settings(max_examples=500, deadline=None)
    # the difference gap rounds to 0 under a nonzero mixed amplitude
    @example(
        coefficients=(0.6, 0.8, 0.0, 0.0),
        plain=dict(height_nm=1.0, alpha=0.9, omega=5e-324, kappa=5e-324, delta_e=-0.1),
        extreme={},
    )
    # beta1 overflows to -inf where photon_report fails its gap check first
    @example(
        coefficients=(1.0, 0.0, 0.0, 0.0),
        plain=dict(height_nm=0.5, alpha=0.9, omega=1e-315, kappa=1e-150, delta_e=-0.1),
        extreme={},
    )
    @given(
        coefficients=CONTRACT_COEFFICIENTS,
        plain=st.fixed_dictionaries(
            {
                "height_nm": st.floats(0.05, 10.0),
                "alpha": st.floats(0.0, 0.999),
                "omega": st.floats(1e-3, 10.0),
                "kappa": st.floats(1e-4, 10.0),
                "delta_e": st.floats(-10.0, 0.0),
            }
        ),
        extreme=st.dictionaries(
            st.sampled_from(("height_nm", "alpha", "omega", "kappa", "delta_e")),
            st.sampled_from(CONTRACT_EXTREMES),
            max_size=3,
        ),
    )
    def test_finite_numbers_or_a_classed_error(self, coefficients, plain, extreme):
        a = InitialCoefficients(*coefficients)
        v = dict(plain, **extreme)
        point = (v["height_nm"], v["alpha"], v["omega"], v["kappa"])
        calls = {
            "energy_shift": lambda: (energy_shift(a.a1, *point),),
            "scattered_frequency": lambda: (scattered_frequency(v["omega"], v["delta_e"]),),
            "beta_coefficients": lambda: dataclasses.astuple(beta_coefficients(a, *point)),
            "photon_report": lambda: dataclasses.astuple(photon_report(a, *point)),
        }
        for name, call in calls.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    numbers = call()
                except (ValueError, ArithmeticError, QsnomError) as exc:
                    event(f"{name}: {type(exc).__name__}")
                    if isinstance(exc, ZeroDivisionError):
                        height_nm, alpha, omega, _ = point
                        denominator = (2.0 * height_nm) ** 3 * omega * (1.0 + alpha * alpha)
                        assert denominator == 0.0, (name, exc)
                    continue
            event(f"{name}: answer")
            assert all(math.isfinite(x) for x in numbers), (name, numbers)
