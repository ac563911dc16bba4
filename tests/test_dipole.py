import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnom.dipole import (
    HBAR_C_EV_NM,
    DielectricSample,
    ImageDipole,
    TipDipole,
    derive_image,
    near_field_check,
)
from qsnom.errors import UnsupportedPermittivityError


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
