import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnom import closedform, inversion
from qsnom.dipole import (
    HBAR_C_EV_NM,
    DielectricSample,
    ImageDipole,
    TipDipole,
    _operands,
    _rounded,
    derive_image,
    near_field_check,
)
from qsnom.errors import UnsupportedPermittivityError
from qsnom.hamiltonian import coupling_constant


class TestSampleResponse:
    def test_vacuum_has_no_image(self):
        assert DielectricSample(1.0).alpha == 0.0

    def test_reference_values(self):
        assert DielectricSample(3.0).alpha == pytest.approx(0.5, abs=1e-15)
        assert DielectricSample(11.7).alpha == pytest.approx(
            10.7 / 12.7, abs=1e-15
        )

    def test_large_permittivity_saturates(self):
        assert DielectricSample(1e8).alpha == pytest.approx(1.0, abs=1e-7)
        assert DielectricSample(1e8).alpha < 1.0

    def test_rejects_sub_unit_permittivity(self):
        for eps in (0.99, 0.0, -2.0):
            with pytest.raises(UnsupportedPermittivityError):
                DielectricSample(eps)

    def test_rejects_infinite_permittivity(self):
        with pytest.raises(
            UnsupportedPermittivityError, match=r"^epsilon_d must be finite, got inf$"
        ):
            DielectricSample(math.inf)
        # the messages that reach CSV error cells stay as they were
        for eps, text in ((math.nan, "nan"), (-math.inf, "-inf"), (0.5, "0.5")):
            with pytest.raises(UnsupportedPermittivityError) as info:
                DielectricSample(eps)
            assert str(info.value) == f"epsilon_d must be >= 1, got {text}"

    @pytest.mark.parametrize("eps", [9007263183593752.0, 1.8014398509481984e16, 1e17, 1e300])
    def test_rejects_permittivity_whose_alpha_rounds_to_one(self, eps):
        assert (eps - 1.0) / (eps + 1.0) == 1.0
        with pytest.raises(UnsupportedPermittivityError) as info:
            DielectricSample(eps)
        assert str(info.value) == (
            "epsilon_d must be small enough that alpha = (epsilon_d - 1)/(epsilon_d + 1)"
            f" rounds below 1, got {eps!r}"
        )

    def test_accepts_the_largest_permittivities_below_the_limit(self):
        # between 2**53 and 2**54 alpha rounds to 1 for some values only
        for eps in (2.0**53, 9007199254740994.0, 1.801388259769733e16):
            assert DielectricSample(eps).alpha < 1.0

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=1.0, max_value=1e6),
        st.floats(min_value=1e-9, max_value=1e6),
    )
    def test_monotone_in_permittivity(self, eps, step):
        lo = DielectricSample(eps).alpha
        hi = DielectricSample(eps + step).alpha
        assert 0.0 <= lo < 1.0
        assert hi >= lo


class TestImageDerivation:
    def test_energy_scaling(self):
        tip = TipDipole(omega=2.0, height_nm=1.0)
        image = derive_image(tip, DielectricSample(3.0))
        assert image.omega_image == pytest.approx(0.25 * 2.0, abs=1e-15)
        assert [f.name for f in dataclasses.fields(image)] == ["omega_image"]

    def test_vacuum_image_is_dark(self):
        tip = TipDipole(omega=1.0, height_nm=1.0)
        image = derive_image(tip, DielectricSample(1.0))
        assert image.omega_image == 0.0

    def test_gap_consistency(self):
        tip = TipDipole(omega=1.3, height_nm=0.7)
        sample = DielectricSample(5.0)
        image = derive_image(tip, sample)
        assert image.omega_image == sample.alpha * sample.alpha * tip.omega
        assert 0.0 < image.omega_image < tip.omega

    def test_tip_validation(self):
        with pytest.raises(ValueError, match="omega"):
            TipDipole(omega=0.0, height_nm=1.0)
        with pytest.raises(ValueError, match="height_nm"):
            TipDipole(omega=1.0, height_nm=-1.0)

    @pytest.mark.parametrize("name", ["omega", "height_nm"])
    def test_tip_rejects_infinite_values(self, name):
        values = {"omega": 1.0, "height_nm": 1.0, name: math.inf}
        with pytest.raises(ValueError) as info:
            TipDipole(**values)
        assert str(info.value) == f"{name} must be finite, got inf"
        for bad in (0.0, -math.inf, math.nan):
            with pytest.raises(ValueError) as info:
                TipDipole(**dict(values, **{name: bad}))
            assert str(info.value) == f"{name} must be positive, got {bad!r}"


class TestImageValidation:
    def test_rejects_infinite_gap(self):
        with pytest.raises(ValueError) as info:
            ImageDipole(omega_image=math.inf)
        assert str(info.value) == "omega_image must be finite, got inf"

    @pytest.mark.parametrize("gap", [-0.5, -math.inf, math.nan])
    def test_rejects_gap_below_ground(self, gap):
        with pytest.raises(ValueError) as info:
            ImageDipole(omega_image=gap)
        assert str(info.value) == f"omega_image must be >= 0, got {gap!r}"


class TestNearFieldCheck:
    def test_nanoscale_gap_passes(self):
        # the reduced wavelength is hbar c / omega
        for omega in (1.0, 2.0):
            tip = TipDipole(omega=omega, height_nm=1.0)
            report = near_field_check(tip, derive_image(tip, DielectricSample(1.0)))
            assert report.passed
            assert report.ratio == pytest.approx(2.0 * omega / HBAR_C_EV_NM, rel=1e-12)

    def test_wavelength_scale_gap_fails(self):
        tip = TipDipole(omega=1.0, height_nm=50.0)
        report = near_field_check(tip, derive_image(tip, DielectricSample(3.0)))
        assert not report.passed
        assert report.ratio == pytest.approx(100.0 / HBAR_C_EV_NM, rel=1e-12)

    def test_image_gap_never_tightens_the_bound(self):
        # the image gap is smaller, so its wavelength is longer
        tip = TipDipole(omega=1.0, height_nm=1.0)
        vacuum = near_field_check(tip, derive_image(tip, DielectricSample(1.0)))
        dielectric = near_field_check(tip, derive_image(tip, DielectricSample(11.7)))
        assert dielectric.ratio == pytest.approx(vacuum.ratio, rel=1e-12)

    def test_image_gap_above_the_tip_gap_sets_the_bound(self):
        # derive_image never builds one, but ImageDipole is public
        tip = TipDipole(omega=1.0, height_nm=1.0)
        report = near_field_check(tip, ImageDipole(omega_image=4.0))
        assert report.ratio == 2.0 / (HBAR_C_EV_NM / 4.0)

    # the last pair overflows both lengths, and their ratio is nan
    @pytest.mark.parametrize(
        "omega, height_nm", [(1.0, 1e308), (1e306, 1e5), (5e-324, 1e308)]
    )
    def test_overflowing_ratio_is_an_overflow_error(self, omega, height_nm):
        tip = TipDipole(omega=omega, height_nm=height_nm)
        with pytest.raises(OverflowError, match="^near-field ratio overflows: "):
            near_field_check(tip, derive_image(tip, DielectricSample(3.0)))

    def test_factor_validation(self):
        tip = TipDipole(omega=1.0, height_nm=1.0)
        image = derive_image(tip, DielectricSample(1.0))
        with pytest.raises(ValueError) as info:
            near_field_check(tip, image, factor=math.inf)
        assert str(info.value) == "factor must be finite, got inf"
        # the earlier messages stay as they were
        for bad in (0.0, -1.0, -math.inf, math.nan):
            with pytest.raises(ValueError) as info:
                near_field_check(tip, image, factor=bad)
            assert str(info.value) == f"factor must be positive, got {bad!r}"

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_ratio_scales_with_height(self, height):
        tip = TipDipole(omega=1.0, height_nm=height)
        image = derive_image(tip, DielectricSample(3.0))
        report = near_field_check(tip, image)
        assert report.ratio == pytest.approx(
            2.0 * height / HBAR_C_EV_NM, rel=1e-12
        )
        assert report.passed == (report.ratio < 0.1)


LOW, HIGH = 2.0**-64, 2.0**64
# the box's edges and their neighbours on either side
EDGES = tuple(
    x for edge in (LOW, HIGH) for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
)
TOP_ALPHA = 1.0 - 2.0**-53  # the largest alpha below 1


def box():
    return st.one_of(st.sampled_from(EDGES), st.floats(LOW, HIGH))


def alphas():
    return st.one_of(
        st.sampled_from((0.0, TOP_ALPHA) + EDGES[:3]), st.floats(LOW, TOP_ALPHA)
    )


def amplitudes():
    return st.one_of(st.sampled_from((0.0, -0.0)), box(), box().map(lambda x: -x))


def ulps(value, exact, scale=None):
    """|value - exact| in units in the last place of ``scale`` (of
    ``exact`` rounded, by default)."""
    reference = _rounded(exact if scale is None else scale)
    return abs(Fraction(value) - exact) / Fraction(math.ulp(reference))


class TestFloatBox:
    """Inside [2^-64, 2^64] the closed form runs on floats, each quantity a
    few roundings off its exact value; outside, on exact rationals rounded
    once. Each exact value below is spelled with ``Fraction`` here."""

    def test_operands_inside_the_box_are_the_values(self):
        values = (LOW, HIGH, 0.0, -0.0, -1.0, 3)
        operands = _operands(*values)
        assert all(x is v for x, v in zip(operands, values, strict=True))

    @pytest.mark.parametrize("outside", [EDGES[0], EDGES[-1], -5e-324, 1e300])
    def test_one_operand_outside_makes_all_fractions(self, outside):
        operands = _operands(1.0, outside, 0.0)
        assert all(type(x) is Fraction for x in operands)
        assert operands == (1, Fraction(outside), 0)

    def test_zero_dimensional_array_outside_makes_fractions(self):
        operands = _operands(np.array(1e300), np.float64(2.0))
        assert operands == (Fraction(1e300), 2)
        assert all(type(x) is Fraction for x in operands)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_operands_with_one_not_finite_are_the_values(self, bad):
        # a Fraction holds no inf or nan; float arithmetic takes its limits
        values = (1e300, bad, 1.0)
        operands = _operands(*values)
        assert all(x is v for x, v in zip(operands, values, strict=True))

    def test_rounded(self):
        assert _rounded(Fraction(1, 3)) == 1 / 3
        assert _rounded(Fraction(10) ** 400) == math.inf
        assert _rounded(-(Fraction(10) ** 400)) == -math.inf
        assert _rounded(Fraction(1, 10**400)) == 0.0
        assert _rounded(0.1) == 0.1

    @settings(max_examples=300, deadline=None)
    @given(a1=amplitudes(), height=box(), alpha=alphas(), omega=box(), kappa=box())
    def test_shift(self, a1, height, alpha, omega, kappa):
        exact = -(Fraction(a1) ** 2) * (Fraction(kappa) * Fraction(alpha)) ** 2 / (
            (2 * Fraction(height)) ** 3 * Fraction(omega) * (1 + Fraction(alpha) ** 2)
        )
        shift = closedform._shift(a1, height, alpha, omega, kappa)
        assert math.isfinite(shift)
        if exact == 0:
            assert shift == 0.0 and math.copysign(1.0, shift) == 1.0
        else:
            assert ulps(shift, exact) <= 8

    @settings(max_examples=300, deadline=None)
    @given(
        amps=st.tuples(amplitudes(), amplitudes(), amplitudes(), amplitudes()),
        height=box(),
        alpha=alphas(),
        omega=box(),
        kappa=box(),
    )
    def test_betas(self, amps, height, alpha, omega, kappa):
        beta = closedform._betas(*amps, height, alpha, omega, kappa)
        pref = (Fraction(kappa) * Fraction(alpha)) ** 2 / (2 * (2 * Fraction(height)) ** 3)
        d_sum = Fraction(omega) * (1 + Fraction(alpha) ** 2)
        d_diff = Fraction(omega) * (1 - Fraction(alpha) ** 2)
        for a, gap, value in zip(amps, (d_sum, d_diff, d_sum, d_diff), beta):
            correction = pref * Fraction(a) ** 2 / gap**2
            if a == 0:
                # no correction, and the amplitude's sign is kept
                assert (value, math.copysign(1.0, value)) == (a, math.copysign(1.0, a))
            elif _rounded(Fraction(a) - correction) in (math.inf, -math.inf):
                assert value == _rounded(Fraction(a) - correction)
            else:
                # a - correction can cancel, so the roundings count at the
                # larger of the two; 1 - alpha^2 on floats cancels too, by
                # its condition number alpha^2 / (1 - alpha^2), squared in
                # the correction
                scale = max(abs(Fraction(a)), correction)
                bound = 8 if gap is d_sum else 8 + 4 * alpha**2 / (1 - alpha**2)
                assert ulps(value, Fraction(a) - correction, scale) <= bound

    @settings(max_examples=300, deadline=None)
    @given(kappa=box(), alpha=alphas(), separation=box())
    def test_coupling(self, kappa, alpha, separation):
        exact = Fraction(kappa) * Fraction(alpha) / Fraction(separation) ** 3
        g = coupling_constant(kappa, alpha, separation)
        assert g == 0.0 if exact == 0 else ulps(g, exact) <= 4

    @settings(max_examples=300, deadline=None)
    @given(height=box(), omega=box(), kappa=box())
    def test_closed_inverse_scale(self, height, omega, kappa):
        exact = Fraction(kappa) ** 2 / ((2 * Fraction(height)) ** 3 * Fraction(omega))
        c = inversion._shift_scale(height, omega, kappa)
        assert ulps(_rounded(c), exact) <= 4
        inside = all(LOW <= x <= HIGH for x in (height, omega, kappa))
        assert type(c) is (float if inside else Fraction)

    @pytest.mark.parametrize("height", [0.5, 1e-110])
    def test_negative_zero_amplitude_keeps_its_sign(self, height):
        a = closedform.InitialCoefficients(1.0, -0.0, 0.0, -0.0)
        for beta in (
            closedform._betas(1.0, -0.0, 0.0, -0.0, height, 0.5, 1e300, 1.0),
            closedform.beta_coefficients(a, height, 0.5, 1e300, 1.0).as_array(),
        ):
            assert [math.copysign(1.0, b) for b in beta[1:]] == [-1.0, 1.0, -1.0]
