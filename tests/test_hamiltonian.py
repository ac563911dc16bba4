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
        assert coupling_constant(tip, sample, cfg) == pytest.approx(0.5, abs=1e-15)

    def test_inverse_cube_in_separation(self):
        for height in (0.3, 0.5, 1.7):
            sample, tip, _, cfg = make_parts(3.0, height=height)
            _, tip2, _, _ = make_parts(3.0, height=2 * height)
            ratio = coupling_constant(tip, sample, cfg) / coupling_constant(
                tip2, sample, cfg
            )
            assert ratio == pytest.approx(8.0, rel=1e-12)

    def test_vacuum_decouples(self):
        sample, tip, _, cfg = make_parts(1.0)
        assert coupling_constant(tip, sample, cfg) == 0.0


class TestFreeHamiltonian:
    def test_diagonal_entries_vacuum(self):
        # tip level is the most significant index, photon the least
        _, tip, image, cfg = make_parts(1.0, omega=1.0, n_max=1)
        h0 = build_h0(tip, image, cfg)
        assert h0.dims == (2, 2, 2)
        np.testing.assert_allclose(
            np.diag(h0.entries).real, [0, 1, 0, 1, 1, 2, 1, 2], atol=1e-15
        )
        assert np.all(h0.entries == np.diag(np.diag(h0.entries)))

    def test_pair_energies_with_image(self):
        _, tip, image, _ = make_parts(3.0, omega=1.0)
        h0 = build_h0(tip, image, None)
        assert h0.dims == (2, 2)
        np.testing.assert_allclose(
            np.diag(h0.entries).real, [0.0, 0.25, 1.0, 1.25], atol=1e-15
        )

    def test_entry_formula(self):
        _, tip, image, cfg = make_parts(5.0, omega=1.3, n_max=2)
        h0 = build_h0(tip, image, cfg)
        for i_a in (0, 1):
            for i_b in (0, 1):
                for n in range(3):
                    idx = basis_index(i_a, i_b, n, 3)
                    expected = (
                        i_a * 1.3 + i_b * image.omega_image + n * 1.3
                    )
                    assert h0.entries[idx, idx].real == pytest.approx(
                        expected, abs=1e-15
                    )

    def test_photon_register_size(self):
        _, tip, image, _ = make_parts(3.0)
        cfg = ModelConfig(n_max=3)
        assert build_h0(tip, image, cfg).dims == (2, 2, 4)

    @pytest.mark.parametrize("n_max", [None, 1, 64])
    def test_overflowing_level_is_an_overflow_error(self, n_max):
        # the top level omega + omega_img (+ n_max * omega) overflows
        # while omega and omega_img are finite
        _, tip, image, _ = make_parts(1e4, omega=1e308)
        cfg = None if n_max is None else ModelConfig(n_max=n_max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                build_h0(tip, image, cfg)
        assert str(info.value) == (
            "free energy of the top level omega + omega_image + n_max*omega is not"
            f" finite: omega=1e+308, omega_image={image.omega_image!r},"
            f" n_max={0 if n_max is None else n_max}"
        )

    def test_top_level_at_the_float_limit_builds(self):
        # 0.5 + 0 + n_max * 0.5 stays finite up to the largest float
        _, tip, image, _ = make_parts(1.0, omega=sys.float_info.max / 2)
        h0 = build_h0(tip, image, ModelConfig(n_max=1))
        assert h0.diagonal().real.max() == sys.float_info.max

    @pytest.mark.parametrize("omega", [1.3, 0.3, 1.7])
    def test_energies_follow_the_level_formula_exactly(self, omega):
        sample = DielectricSample(11.7)
        tip = TipDipole(omega=omega, height_nm=0.7)
        image = derive_image(tip, sample)
        cfg = ModelConfig(n_max=60)
        expected = [
            i_a * tip.omega + i_b * image.omega_image + n * tip.omega
            for i_a in (0, 1)
            for i_b in (0, 1)
            for n in range(61)
        ]
        assert build_h0(tip, image, cfg).diagonal().real.tolist() == expected


class TestCouplingTerm:
    def test_pair_block_structure(self):
        dh = build_delta_h(1.0, None)
        expected = np.zeros((4, 4))
        for i, j in [(0, 3), (3, 0), (1, 2), (2, 1)]:
            expected[i, j] = -1.0
        np.testing.assert_array_equal(dh.entries.real, expected)
        assert np.all(np.diag(dh.entries) == 0)

    def test_hermitian(self):
        assert build_delta_h(0.37, ModelConfig()).is_hermitian()

    def test_photon_register_untouched(self):
        cfg = ModelConfig(n_max=2)
        dh = build_delta_h(0.5, cfg)
        levels = 3
        tensor = dh.entries.reshape(4, levels, 4, levels)
        for n in range(levels):
            for m in range(levels):
                if n == m:
                    continue
                assert np.all(tensor[:, n, :, m] == 0)

    def test_parity_conservation(self):
        cfg = ModelConfig(n_max=1)
        dh = build_delta_h(0.2, cfg)
        parity = np.array(
            [
                (-1) ** (i_a + i_b)
                for i_a in (0, 1)
                for i_b in (0, 1)
                for _ in range(2)
            ]
        )
        even = parity == 1
        odd = parity == -1
        assert np.all(dh.entries[np.ix_(even, odd)] == 0)
        assert np.all(dh.entries[np.ix_(odd, even)] == 0)

    def test_zero_coupling_is_zero_matrix(self):
        assert np.all(build_delta_h(0.0, None).entries == 0)

    @pytest.mark.parametrize("g", [0.0, 0.37, 5.0, 1e-300])
    def test_equals_kron_construction(self, g):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        pair = -g * np.kron(flip, flip)
        got = build_delta_h(g, None)
        assert got.dims == (2, 2)
        assert np.array_equal(got.entries, pair)
        for n_max in range(1, 21):
            levels = n_max + 1
            got = build_delta_h(g, ModelConfig(n_max=n_max))
            assert got.dims == (2, 2, levels)
            assert np.array_equal(got.entries, np.kron(pair, np.eye(levels)))


class TestAssembledPair:
    def test_stored_as_nonzeros_at_the_n_max_limit(self):
        sample, tip, _, _ = make_parts(3.0)
        cfg = ModelConfig(n_max=N_MAX_LIMIT)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        side = 4 * (N_MAX_LIMIT + 1)
        assert pair.h0.side == pair.delta_h.side == side
        assert pair.h0.dims == (2, 2, N_MAX_LIMIT + 1)
        # vacuum ground level has energy 0 and is not stored
        assert pair.h0.values.size == side - 1
        assert pair.delta_h.values.size == side
        assert pair.h0._entries is None and pair.delta_h._entries is None

    def test_g_matches_constant(self):
        sample, tip, _, cfg = make_parts(3.0, height=0.5, kappa=1.0)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        assert pair.g == coupling_constant(tip, sample, cfg)
        assert pair.h0.dims == pair.delta_h.dims == (2, 2, 2)

    def test_perturbed_ground_energy(self):
        """Exact ground state of the assembled model sits a second-order
        shift below the unperturbed ground level."""
        _, tip, image, cfg = make_parts(3.0, omega=1.0)
        h0 = build_h0(tip, image, cfg)
        g = 0.01
        dh = build_delta_h(g, cfg)
        total = OperatorMatrix(h0.dims, h0.entries + dh.entries)
        ground = eigh(total)[0][0]
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
        n_max=st.one_of(st.none(), st.integers(1, 16)),
        g=st.floats(0.0, 2.0),
    )
    def test_regime_warning_matches_all_pairs_reference(
        self, epsilon_d, omega, n_max, g
    ):
        """The spacing is the smallest gap, in exact arithmetic and rounded
        once, over all pairs of levels the coupling term links."""
        tip = TipDipole(omega=omega, height_nm=1.0)
        image = derive_image(tip, DielectricSample(epsilon_d))
        cfg = None if n_max is None else ModelConfig(n_max)
        levels = 1 if cfg is None else cfg.n_max + 1
        exact = [
            i_a * Fraction(tip.omega) + i_b * Fraction(image.omega_image)
            + k * Fraction(tip.omega)
            for i_a in (0, 1)
            for i_b in (0, 1)
            for k in range(levels)
        ]
        coupled = build_delta_h(1.0, cfg)
        spacing = float(
            min(abs(exact[i] - exact[j]) for i, j in zip(coupled.rows, coupled.cols))
        )
        expected = ()
        if g > 0.1 * spacing:
            expected = (
                f"perturbative regime: g={g:.6g} eV exceeds 0.1 x smallest "
                f"positive level spacing {spacing:.6g} eV",
            )
        assert regime_warnings(tip, image, g) == expected

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
            patch.setattr(hamiltonian, "_h0_energies", refuse)
            patch.setattr(hamiltonian, "np", None)
            assert regime_warnings(tip, image, limit) == ()
            assert regime_warnings(tip, image, math.nextafter(limit, math.inf)) != ()

    def test_regime_guard_uses_min_positive_gap(self):
        _, tip, image, _ = make_parts(3.0)
        # the coupled gaps are 1 + 0.25 and 1 - 0.25; the 0.25 between
        # (g,g,n) and (g,e,n) is not coupled
        assert regime_warnings(tip, image, 0.074) == ()
        assert regime_warnings(tip, image, 0.076) == (
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
        _, tip, image, cfg = make_parts(3.0, omega=1.7, n_max=3)
        energies = build_h0(tip, image, cfg).diagonal().real
        assert [energies[basis_index(0, 0, n, 4)] for n in range(4)] == [
            n * 1.7 for n in range(4)
        ]
        with pytest.raises(TypeError):
            ModelConfig(photon_energy=0.9)

    def test_basis_index_bounds(self):
        assert basis_index(1, 0, 1, 2) == 5
        assert basis_index(1, 1, 1, 2) == 7
        with pytest.raises(ValueError):
            basis_index(2, 0, 0, 2)
        with pytest.raises(ValueError):
            basis_index(0, 0, 2, 2)
