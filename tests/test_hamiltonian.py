import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnom import hamiltonian
from qsnom.dipole import DielectricSample, ImageDipole, TipDipole, derive_image
from qsnom.hamiltonian import (
    N_MAX_LIMIT,
    ModelConfig,
    basis_index,
    build_delta_h,
    build_h0,
    build_hamiltonian_pair,
    coupling_constant,
    regime_warnings,
)
from qsnom.tensor import OperatorMatrix, eigh


def make_parts(epsilon_d, omega=1.0, height=0.5, kappa=1.0, n_max=1):
    sample = DielectricSample(epsilon_d)
    tip = TipDipole(omega=omega, height_nm=height)
    image = derive_image(tip, sample)
    cfg = ModelConfig(n_max=n_max, kappa=kappa)
    return sample, tip, image, cfg


class TestCoupling:
    def test_reference_value(self):
        sample, tip, _, cfg = make_parts(3.0, height=0.5, kappa=1.0)
        g = coupling_constant(cfg.kappa, sample.alpha, tip.separation)
        assert g == pytest.approx(0.5, abs=1e-15)

    def test_inverse_cube_in_separation(self):
        for height in (0.3, 0.5, 1.7):
            sample, tip, _, cfg = make_parts(3.0, height=height)
            _, tip2, _, _ = make_parts(3.0, height=2 * height)
            ratio = coupling_constant(
                cfg.kappa, sample.alpha, tip.separation
            ) / coupling_constant(cfg.kappa, sample.alpha, tip2.separation)
            assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_vacuum_decouples(self):
        sample, tip, _, cfg = make_parts(1.0)
        assert coupling_constant(cfg.kappa, sample.alpha, tip.separation) == 0.0


class TestFreeHamiltonian:
    def test_pair_energies_with_image(self):
        # the one-photon sector: the pair's energies plus omega
        _, tip, image, _ = make_parts(3.0, omega=1.0)
        h0 = build_h0(tip.omega, image.omega_image)
        assert h0.dims == (2, 2)
        np.testing.assert_allclose(
            np.diag(h0.entries).real, [1.0, 1.25, 2.0, 2.25], atol=1e-15
        )
        assert np.all(h0.entries == np.diag(np.diag(h0.entries)))

    def test_overflowing_level_is_an_overflow_error(self):
        # the top level omega + omega_img + omega overflows while omega
        # and omega_img are finite
        _, tip, image, _ = make_parts(1e4, omega=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                build_h0(tip.omega, image.omega_image)
        assert str(info.value) == (
            "free energy of the top level omega + omega_image + n_max*omega is not"
            f" finite: omega=1e+308, omega_image={image.omega_image!r}, n_max=1"
        )

    def test_negative_image_gap_is_refused(self):
        # with omega_image < 0 the top level 0 is finite while level 2,
        # omega + omega, overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                build_h0(8.98846567431158e307, -1.7976931348623157e308)
        assert str(info.value) == (
            "omega_image must be >= 0, got -1.7976931348623157e+308"
        )

    def test_top_level_at_the_float_limit_builds(self):
        # 0.5 + 0 + 0.5 stays finite up to the largest float
        _, tip, image, _ = make_parts(1.0, omega=sys.float_info.max / 2)
        h0 = build_h0(tip.omega, image.omega_image)
        assert h0.diagonal().real.max() == sys.float_info.max

    @pytest.mark.parametrize("omega", [1.3, 0.3, 1.7])
    def test_energies_follow_the_level_formula_exactly(self, omega):
        sample = DielectricSample(11.7)
        tip = TipDipole(omega=omega, height_nm=0.7)
        image = derive_image(tip, sample)
        expected = [
            (i_a * tip.omega + i_b * image.omega_image) + tip.omega
            for i_a in (0, 1)
            for i_b in (0, 1)
        ]
        h0 = build_h0(tip.omega, image.omega_image)
        assert h0.diagonal().real.tolist() == expected


# finite values from the smallest subnormal to the largest float
EXTREME_FLOATS = st.one_of(
    st.floats(min_value=0.0, allow_infinity=False),
    st.sampled_from([5e-324, 0.0, sys.float_info.max / 2, sys.float_info.max]),
)


class TestBuildersBitEqual:
    """The builders' entries equal these numpy formulas, bit for bit."""

    # omega > 0 and omega_image = alpha^2 omega >= 0, so no level is above
    # the top one; a negative omega_image is refused
    @settings(max_examples=300, deadline=None)
    @given(
        omega=EXTREME_FLOATS,
        omega_image=st.one_of(EXTREME_FLOATS, EXTREME_FLOATS.map(lambda x: -x)),
    )
    def test_free_hamiltonian(self, omega, omega_image):
        if omega_image < 0:
            with pytest.raises(ValueError, match="^omega_image must be >= 0, got "):
                build_h0(omega, omega_image)
            return
        pairs = [i_a * omega + i_b * omega_image for i_a in (0, 1) for i_b in (0, 1)]
        with np.errstate(all="ignore"):
            want = np.diag(np.array(pairs) + omega).astype(complex)
        try:
            got = build_h0(omega, omega_image)
        except OverflowError:
            assert not np.isfinite(want).all()
            return
        assert got.entries.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(EXTREME_FLOATS, EXTREME_FLOATS.map(lambda x: -x)))
    def test_coupling_term(self, g):
        want = np.diag(np.full(4, -g))[::-1].astype(complex)
        assert build_delta_h(g).entries.tobytes() == want.tobytes()


class TestCouplingTerm:
    def test_pair_block_structure(self):
        dh = build_delta_h(1.0)
        expected = np.zeros((4, 4))
        for i, j in [(0, 3), (3, 0), (1, 2), (2, 1)]:
            expected[i, j] = -1.0
        np.testing.assert_array_equal(dh.entries.real, expected)
        assert np.all(np.diag(dh.entries) == 0)

    def test_hermitian(self):
        assert build_delta_h(0.37).is_hermitian()

    def test_parity_conservation(self):
        dh = build_delta_h(0.2)
        parity = np.array([(-1) ** (i_a + i_b) for i_a in (0, 1) for i_b in (0, 1)])
        even = parity == 1
        odd = parity == -1
        assert np.all(dh.entries[np.ix_(even, odd)] == 0)
        assert np.all(dh.entries[np.ix_(odd, even)] == 0)

    @pytest.mark.parametrize("g", [math.inf, -math.inf, math.nan])
    def test_non_finite_coupling_is_an_overflow_error(self, g):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                build_delta_h(g)
        assert str(info.value) == (
            f"coupling g = kappa*alpha/(2R)^3 is not finite: g={g!r}"
        )

    def test_zero_coupling_is_zero_matrix(self):
        assert np.all(build_delta_h(0.0).entries == 0)

    @pytest.mark.parametrize("g", [0.0, 0.37, 5.0, 1e-300])
    def test_equals_kron_construction(self, g):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        got = build_delta_h(g)
        assert got.dims == (2, 2)
        assert np.array_equal(got.entries, -g * np.kron(flip, flip))


class TestAssembledPair:
    def test_n_max_sizes_nothing(self):
        sample, tip, _, _ = make_parts(3.0)
        small = build_hamiltonian_pair(tip, sample, ModelConfig(n_max=1))
        large = build_hamiltonian_pair(tip, sample, ModelConfig(n_max=N_MAX_LIMIT))
        for a, b in ((small.h0, large.h0), (small.delta_h, large.delta_h)):
            assert a.dims == b.dims == (2, 2)
            assert a.entries.tobytes() == b.entries.tobytes()

    def test_g_matches_constant(self):
        sample, tip, _, cfg = make_parts(3.0, height=0.5, kappa=1.0)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        assert pair.g == coupling_constant(cfg.kappa, sample.alpha, tip.separation)
        assert pair.h0.dims == pair.delta_h.dims == (2, 2)

    def test_perturbed_ground_energy(self):
        """Exact ground state of the assembled model sits a second-order
        shift below the unperturbed ground level, omega = 1."""
        _, tip, image, _ = make_parts(3.0, omega=1.0)
        h0 = build_h0(tip.omega, image.omega_image)
        g = 0.01
        dh = build_delta_h(g)
        total = OperatorMatrix(h0.dims, h0.entries + dh.entries)
        ground = eigh(total)[0][0] - 1.0
        gap = 1.25
        exact = (gap - np.sqrt(gap * gap + 4 * g * g)) / 2
        assert ground == pytest.approx(exact, abs=1e-14)
        assert ground == pytest.approx(-g * g / gap, abs=1e-8)

    def test_regime_warning_when_coupling_large(self):
        sample, tip, _, cfg = make_parts(3.0, height=0.5, kappa=1.0)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        assert pair.warnings
        assert "perturbative regime" in pair.warnings[0]

    def test_no_warning_when_coupling_small(self):
        sample, tip, _, cfg = make_parts(3.0, height=1.0, kappa=0.05)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        assert pair.warnings == ()

    @settings(max_examples=300, deadline=None)
    @given(
        epsilon_d=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
        omega=st.floats(0.05, 5.0),
        g=st.floats(0.0, 2.0),
    )
    def test_regime_warning_matches_all_pairs_reference(self, epsilon_d, omega, g):
        """The spacing is the smallest gap, in exact arithmetic and rounded
        once, over all pairs of levels the coupling term links."""
        tip = TipDipole(omega=omega, height_nm=1.0)
        image = derive_image(tip, DielectricSample(epsilon_d))
        exact = [
            i_a * Fraction(tip.omega) + i_b * Fraction(image.omega_image)
            for i_a in (0, 1)
            for i_b in (0, 1)
        ]
        coupled = np.nonzero(build_delta_h(1.0).entries)
        spacing = float(min(abs(exact[i] - exact[j]) for i, j in zip(*coupled)))
        expected = ()
        if g > 0.1 * spacing:
            expected = (
                f"perturbative regime: g={g:.6g} eV exceeds 0.1 x smallest "
                f"positive level spacing {spacing:.6g} eV",
            )
        assert regime_warnings(tip.omega, image.omega_image, g) == expected

    def test_non_finite_energy_is_a_classed_error(self):
        # every non-finite level is rejected where it enters, so the
        # regime check and the Hamiltonian build only meet finite levels
        with pytest.raises(ValueError, match="omega"):
            TipDipole(omega=math.inf, height_nm=1.0)
        for omega_image in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^omega_image must be"):
                ImageDipole(omega_image=omega_image)

    @settings(max_examples=200, deadline=None)
    @given(
        epsilon_d=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
        omega=st.floats(1e-3, 1e3),
    )
    def test_regime_warnings_at_the_limit_use_no_numpy(self, epsilon_d, omega):
        """The threshold is 0.1 x min(omega + omega_img, |omega - omega_img|),
        pinned on both sides, and the check builds no spectrum."""
        tip = TipDipole(omega=omega, height_nm=1.0)
        image = derive_image(tip, DielectricSample(epsilon_d))
        limit = 0.1 * min(
            tip.omega + image.omega_image, abs(tip.omega - image.omega_image)
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the regime check must not build the spectrum")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hamiltonian, "build_h0", refuse)
            patch.setattr(hamiltonian, "np", None)
            omega, omega_image = tip.omega, image.omega_image
            assert regime_warnings(omega, omega_image, limit) == ()
            above = math.nextafter(limit, math.inf)
            assert regime_warnings(omega, omega_image, above) != ()

    def test_regime_guard_uses_min_positive_gap(self):
        _, tip, image, _ = make_parts(3.0)
        # the coupled gaps are 1 + 0.25 and 1 - 0.25; the 0.25 between
        # (g,g,n) and (g,e,n) is not coupled
        assert regime_warnings(tip.omega, image.omega_image, 0.074) == ()
        assert regime_warnings(tip.omega, image.omega_image, 0.076) == (
            "perturbative regime: g=0.076 eV exceeds 0.1 x smallest "
            "positive level spacing 0.75 eV",
        )

    def test_near_vacuum_sample_warns_nothing(self):
        # at epsilon_d = 1.001 the image gap is 2.5e-7 eV, but no coupled
        # pair of levels is that close
        sample, tip, image, cfg = make_parts(1.001, height=1.0, kappa=0.05)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        assert image.omega_image == pytest.approx(2.4975e-7, rel=1e-4)
        assert pair.g > 0.1 * image.omega_image
        assert pair.warnings == ()


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            ModelConfig(n_max=0)
        with pytest.raises(ValueError, match="kappa"):
            ModelConfig(kappa=0.0)

    @pytest.mark.parametrize("name", ["kappa"])
    def test_rejects_infinite_values(self, name):
        with pytest.raises(ValueError) as info:
            ModelConfig(**{name: math.inf})
        assert str(info.value) == f"{name} must be finite, got inf"
        for bad in (0.0, -math.inf, math.nan):
            with pytest.raises(ValueError) as info:
                ModelConfig(**{name: bad})
            assert str(info.value) == f"{name} must be positive, got {bad!r}"

    def test_n_max_ceiling(self):
        assert ModelConfig(n_max=N_MAX_LIMIT).n_max == N_MAX_LIMIT
        for n_max in (N_MAX_LIMIT + 1, 100_000_000):
            with pytest.raises(ValueError, match=f"1..{N_MAX_LIMIT}"):
                ModelConfig(n_max=n_max)

    def test_resonant_default(self):
        # the photon quantum is the tip gap; it is not a parameter
        _, tip, image, _ = make_parts(3.0, omega=1.7)
        h0 = build_h0(tip.omega, image.omega_image)
        assert h0.diagonal().real[basis_index(0, 0, 1, 2)] == 1.7
        with pytest.raises(TypeError):
            ModelConfig(photon_energy=0.9)

    def test_basis_index_bounds(self):
        # the sector index; the photon arguments are checked only
        assert basis_index(1, 0, 1, 2) == 2
        assert basis_index(1, 1, 1, 1000) == 3
        with pytest.raises(ValueError):
            basis_index(2, 0, 0, 2)
        with pytest.raises(ValueError):
            basis_index(0, 0, 2, 2)
