import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
