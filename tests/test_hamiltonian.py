import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsnom import hamiltonian
from qsnom.dipole import DielectricSample, ImageDipole, TipDipole, derive_image
from qsnom.hamiltonian import (
    N_MAX_LIMIT,
    ModelConfig,
    _smallest_spacing,
    basis_index,
    build_delta_h,
    build_h0,
    build_hamiltonian_pair,
    coupling_constant,
    regime_warnings,
)
from qsnom.tensor import OperatorMatrix, eigh


# photon energies that put levels of the free spectrum on top of each
# other, as functions of (omega, omega_img)
TIED_PHOTONS = {
    "omega": lambda w, v: w,
    "omega_img": lambda w, v: v,
    "2 omega_img": lambda w, v: 2 * v,
    "omega + omega_img": lambda w, v: w + v,
    "omega / 3": lambda w, v: w / 3,
}


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
        cfg = ModelConfig(n_max=2, photon_energy=0.9, kappa=cfg.kappa)
        h0 = build_h0(tip, image, cfg)
        for i_a in (0, 1):
            for i_b in (0, 1):
                for n in range(3):
                    idx = basis_index(i_a, i_b, n, 3)
                    expected = (
                        i_a * 1.3 + i_b * image.omega_image + n * 0.9
                    )
                    assert h0.entries[idx, idx].real == pytest.approx(
                        expected, abs=1e-15
                    )

    def test_photon_register_size(self):
        _, tip, image, _ = make_parts(3.0)
        cfg = ModelConfig(n_max=3)
        assert build_h0(tip, image, cfg).dims == (2, 2, 4)


    @pytest.mark.parametrize("photon_energy", [None, 0.3, 1.7])
    def test_energies_follow_the_level_formula_exactly(self, photon_energy):
        sample = DielectricSample(11.7)
        tip = TipDipole(omega=1.3, height_nm=0.7)
        image = derive_image(tip, sample)
        cfg = ModelConfig(n_max=60, photon_energy=photon_energy)
        e_photon = cfg.resolved_photon_energy(tip)
        expected = [
            i_a * tip.omega + i_b * image.omega_image + n * e_photon
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
        photon=st.one_of(
            st.none(), st.floats(0.05, 5.0), st.sampled_from(tuple(TIED_PHOTONS))
        ),
        n_max=st.one_of(st.none(), st.integers(1, 64)),
        g=st.floats(0.0, 2.0),
    )
    def test_regime_warning_matches_all_pairs_reference(
        self, epsilon_d, omega, photon, n_max, g
    ):
        """The spacing is the smallest positive difference of the exact
        levels, rounded once; photon energies that tie levels are drawn
        on purpose."""
        tip = TipDipole(omega=omega, height_nm=1.0)
        image = derive_image(tip, DielectricSample(epsilon_d))
        if photon in TIED_PHOTONS:
            photon = TIED_PHOTONS[photon](omega, image.omega_image)
        assume(photon is None or photon > 0)
        cfg = None if n_max is None else ModelConfig(n_max, photon)
        levels = 1 if cfg is None else cfg.n_max + 1
        e_photon = 0.0 if cfg is None else cfg.resolved_photon_energy(tip)
        exact = sorted(
            {
                i_a * Fraction(tip.omega)
                + i_b * Fraction(image.omega_image)
                + k * Fraction(e_photon)
                for i_a in (0, 1)
                for i_b in (0, 1)
                for k in range(levels)
            }
        )
        spacing = float(min(hi - lo for lo, hi in zip(exact, exact[1:])))
        assert _smallest_spacing(tip, image, cfg) == spacing
        expected = ()
        if g > 0.1 * spacing:
            expected = (
                f"perturbative regime: g={g:.6g} eV exceeds 0.1 x smallest "
                f"positive level spacing {spacing:.6g} eV",
            )
        assert regime_warnings(tip, image, cfg, g) == expected

    def test_levels_tied_in_exact_arithmetic_are_one_level(self):
        # omega + omega_img and omega_img + E_ph are the same level, but
        # the two float sums round apart by one ulp
        _, tip, image, cfg = make_parts(3.0, omega=0.3, height=5.0, kappa=0.001, n_max=2)
        assert image.omega_image == 0.075
        assert _smallest_spacing(tip, image, cfg) == 0.075
        assert regime_warnings(tip, image, cfg, 5e-7) == ()

    def test_non_finite_energy_is_a_classed_error(self):
        # an infinite tip gap or photon energy is rejected where it enters
        with pytest.raises(ValueError, match="omega"):
            TipDipole(omega=math.inf, height_nm=1.0)
        with pytest.raises(ValueError, match="photon_energy"):
            ModelConfig(photon_energy=math.inf)
        # ImageDipole checks nothing, so the regime check still meets
        # non-finite image gaps (nan is the alpha = 0 of an infinite gap)
        tip = TipDipole(omega=1.0, height_nm=1.0)
        for omega_image in (math.inf, math.nan):
            image = ImageDipole(omega_image=omega_image)
            for cfg in (None, ModelConfig()):
                with pytest.raises((ValueError, ArithmeticError)):
                    regime_warnings(tip, image, cfg, 0.01)

    def test_regime_warnings_at_the_limit_use_no_numpy(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the regime check must not build the spectrum")

        monkeypatch.setattr(hamiltonian, "_h0_energies", refuse)
        _, tip, image, _ = make_parts(3.0)
        cfg = ModelConfig(n_max=N_MAX_LIMIT)
        # omega_img = 0.25; the tip level ties with one resonant photon
        assert _smallest_spacing(tip, image, cfg) == 0.25
        assert regime_warnings(tip, image, cfg, 0.026) != ()

    def test_regime_guard_uses_min_positive_gap(self):
        _, tip, image, cfg = make_parts(3.0)
        # smallest positive spacing of the 8-level spectrum is 0.25
        assert regime_warnings(tip, image, cfg, 0.024) == ()
        assert regime_warnings(tip, image, cfg, 0.026) != ()


class TestModelConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            ModelConfig(n_max=0)
        with pytest.raises(ValueError, match="photon_energy"):
            ModelConfig(photon_energy=-1.0)
        with pytest.raises(ValueError, match="kappa"):
            ModelConfig(kappa=0.0)

    @pytest.mark.parametrize("name", ["kappa", "photon_energy"])
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
        tip = TipDipole(omega=1.7, height_nm=1.0)
        assert ModelConfig().resolved_photon_energy(tip) == 1.7
        assert ModelConfig(photon_energy=0.9).resolved_photon_energy(tip) == 0.9

    def test_basis_index_bounds(self):
        assert basis_index(1, 0, 1, 2) == 5
        assert basis_index(1, 1, 1, 2) == 7
        with pytest.raises(ValueError):
            basis_index(2, 0, 0, 2)
        with pytest.raises(ValueError):
            basis_index(0, 0, 2, 2)
