import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsnom.dipole import DielectricSample, TipDipole, derive_image
from qsnom.errors import (
    AmbiguousMatchingError,
    DegenerateGapError,
    NotHermitianError,
)
from qsnom.hamiltonian import (
    ModelConfig,
    basis_index,
    build_delta_h,
    build_h0,
    build_hamiltonian_pair,
)
from qsnom.perturbation import rs_pt2, validate_against_exact
from qsnom.tensor import OperatorMatrix

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])

# closed-form ground energy of [[0, g], [g, 1]] for g = 0.1
TWO_LEVEL_EXACT = (1.0 - math.sqrt(1.0 + 4 * 0.1**2)) / 2.0


def two_level(g=0.1):
    h0 = OperatorMatrix((2,), np.diag([0.0, 1.0]))
    v = OperatorMatrix((2,), g * SIGMA_X)
    return h0, v


def dipole_pair(epsilon_d=3.0, omega=1.0):
    sample = DielectricSample(epsilon_d)
    tip = TipDipole(omega=omega, height_nm=0.5)
    image = derive_image(tip, sample)
    return build_h0(tip, image, None)


class TestSecondOrder:
    def test_two_level_textbook(self):
        h0, v = two_level()
        result = rs_pt2(h0, v, 0)
        assert result.e0 == 0.0
        assert result.e1 == 0.0
        assert result.e2 == pytest.approx(-0.01, abs=1e-15)
        np.testing.assert_allclose(
            result.corrected_coefficients, [1.0, -0.1], atol=1e-15
        )
        assert result.gap_report == ((1, -1.0),)

    def test_dipole_pair_ground(self):
        h0 = dipole_pair()
        v = build_delta_h(0.01, None)
        result = rs_pt2(h0, v, 0)
        assert result.e2 == pytest.approx(-8e-5, abs=1e-12)
        assert result.corrected_coefficients[3] == pytest.approx(0.008, rel=1e-12)
        assert result.corrected_coefficients[1] == 0.0
        assert result.corrected_coefficients[2] == 0.0
        assert result.gap_report == ((3, -1.25),)

    def test_zero_perturbation(self):
        h0 = dipole_pair()
        v = OperatorMatrix((2, 2), np.zeros((4, 4)))
        result = rs_pt2(h0, v, 2)
        assert result.e2 == 0.0
        assert result.gap_report == ()
        np.testing.assert_array_equal(
            result.corrected_coefficients, np.eye(4)[2]
        )

    def test_first_order_shift_recorded(self):
        h0 = OperatorMatrix((2,), np.diag([0.0, 1.0]))
        v = OperatorMatrix((2,), np.array([[0.3, 0.1], [0.1, -0.2]]))
        result = rs_pt2(h0, v, 0)
        assert result.e1 == pytest.approx(0.3, abs=1e-15)

    def test_first_order_ket_identity(self):
        """(E_n - E_m) c_m = <m|V|n> for every coupled level."""
        rng = np.random.default_rng(5)
        h0 = OperatorMatrix((6,), np.diag(np.arange(6.0)))
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        v = OperatorMatrix((6,), (raw + raw.conj().T) / 2)
        result = rs_pt2(h0, v, 2)
        for m, gap in result.gap_report:
            np.testing.assert_allclose(
                gap * result.corrected_coefficients[m],
                v.entries[m, 2],
                rtol=1e-12,
            )

    def test_ground_shift_never_positive(self):
        rng = np.random.default_rng(42)
        h0 = OperatorMatrix((6,), np.diag(np.arange(6.0)))
        for _ in range(1000):
            raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            herm = (raw + raw.conj().T) / 2
            np.fill_diagonal(herm, 0.0)
            assert rs_pt2(h0, OperatorMatrix((6,), herm), 0).e2 <= 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-100.0, max_value=100.0))
    def test_uniform_spectrum_shift_is_irrelevant(self, offset):
        h0, v = two_level()
        shifted = OperatorMatrix((2,), h0.entries + offset * np.eye(2))
        assert rs_pt2(shifted, v, 0).e2 == pytest.approx(
            rs_pt2(h0, v, 0).e2, rel=1e-12
        )


class TestInputChecks:
    def test_h0_must_be_diagonal(self):
        h0 = OperatorMatrix((2,), np.array([[0.0, 0.5], [0.5, 1.0]]))
        v = OperatorMatrix((2,), SIGMA_X)
        with pytest.raises(ValueError, match="diagonal"):
            rs_pt2(h0, v, 0)

    def test_v_must_be_hermitian(self):
        h0 = OperatorMatrix((2,), np.diag([0.0, 1.0]))
        v = OperatorMatrix((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            rs_pt2(h0, v, 0)

    def test_dims_must_match(self):
        h0 = OperatorMatrix((2,), np.diag([0.0, 1.0]))
        v = OperatorMatrix((4,), np.zeros((4, 4)))
        with pytest.raises(ValueError, match="dims"):
            rs_pt2(h0, v, 0)

    def test_state_index_range(self):
        h0, v = two_level()
        with pytest.raises(ValueError, match="state_index"):
            rs_pt2(h0, v, 2)

    def test_degenerate_coupled_gap(self):
        # image gap within rounding of the tip gap: the exchange-coupled
        # mixed states become degenerate
        eps = 2e13
        h0 = dipole_pair(epsilon_d=eps)
        v = build_delta_h(1e-4, None)
        with pytest.raises(DegenerateGapError):
            rs_pt2(h0, v, 1)
        # the ground state couples through the sum gap and stays safe
        assert rs_pt2(h0, v, 0).e2 < 0.0

    def test_non_finite_h0_diagonal_is_not_diagonal(self):
        v = OperatorMatrix((2,), SIGMA_X)
        for bad in (math.nan, math.inf):
            h0 = OperatorMatrix((2,), np.diag([0.0, bad]))
            with pytest.raises(ValueError, match="diagonal"):
                rs_pt2(h0, v, 0)

    def test_complex_h0_diagonal_rejected(self):
        h0 = OperatorMatrix((2,), np.diag([0.0, 1.0 + 1e-6j]))
        with pytest.raises(NotHermitianError, match="real"):
            rs_pt2(h0, OperatorMatrix((2,), SIGMA_X), 0)

    def test_overflowing_shift_raises(self):
        h0, v = two_level(g=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError):
                rs_pt2(h0, v, 0)

    def test_uncoupled_degeneracy_is_fine(self):
        h0 = OperatorMatrix((3,), np.diag([0.0, 0.0, 1.0]))
        v = np.zeros((3, 3), dtype=complex)
        v[0, 2] = v[2, 0] = 0.05
        result = rs_pt2(h0, OperatorMatrix((3,), v), 0)
        assert result.e2 == pytest.approx(-0.0025, rel=1e-12)


class TestExactComparison:
    def test_two_level_residual(self):
        h0, v = two_level()
        comparison = validate_against_exact(h0, v, 0)
        assert comparison.exact_energy == pytest.approx(TWO_LEVEL_EXACT, abs=1e-15)
        assert comparison.pt2_energy == pytest.approx(-0.01, abs=1e-15)
        assert comparison.residual == pytest.approx(
            abs(TWO_LEVEL_EXACT + 0.01), rel=1e-12
        )
        assert comparison.residual == pytest.approx(9.804864072148443e-05, rel=1e-10)
        assert comparison.overlap > 0.99

    def test_dipole_pair_residual_small(self):
        h0 = dipole_pair()
        v = build_delta_h(0.01, None)
        comparison = validate_against_exact(h0, v, 0)
        assert comparison.residual < 1e-7

    def test_residual_quartic_in_coupling(self):
        h0 = dipole_pair()
        g = 0.01
        previous = validate_against_exact(h0, build_delta_h(g, None), 0).residual
        for _ in range(3):
            g /= 2
            current = validate_against_exact(h0, build_delta_h(g, None), 0).residual
            assert previous / current >= 8.0
            previous = current

    def test_matching_survives_level_crossing_order(self):
        # reference level is the highest; exact eigenvalue order differs
        h0, v = two_level()
        comparison = validate_against_exact(h0, v, 1)
        exact_top = (1.0 + math.sqrt(1.04)) / 2.0
        assert comparison.exact_energy == pytest.approx(exact_top, abs=1e-15)

    def test_ambiguous_when_delocalized(self):
        n = 5
        ring = np.zeros((n, n))
        for i in range(n):
            ring[i, (i + 1) % n] = 1.0
            ring[(i + 1) % n, i] = 1.0
        h0 = OperatorMatrix((n,), np.diag(np.arange(n) * 1e-3))
        with pytest.raises(AmbiguousMatchingError):
            validate_against_exact(h0, OperatorMatrix((n,), ring), 0)

    def test_full_model_ground(self):
        sample = DielectricSample(3.0)
        tip = TipDipole(omega=1.0, height_nm=0.5)
        image = derive_image(tip, sample)
        cfg = ModelConfig(n_max=1, kappa=1.0)
        h0 = build_h0(tip, image, cfg)
        v = build_delta_h(0.01, cfg)
        comparison = validate_against_exact(h0, v, 1)
        gap = 1.25
        exact = 1.0 + (gap - math.sqrt(gap * gap + 4 * 0.01**2)) / 2
        assert comparison.exact_energy == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("n_max", [1, 8, 32])
    def test_returns_the_pt2_result_it_compared(self, n_max):
        cfg = ModelConfig(n_max=n_max, kappa=0.05)
        pair = build_hamiltonian_pair(
            TipDipole(omega=1.0, height_nm=0.5), DielectricSample(3.0), cfg
        )
        index = basis_index(0, 0, 1, n_max + 1)
        got = validate_against_exact(pair.h0, pair.delta_h, index).pt2
        want = rs_pt2(pair.h0, pair.delta_h, index)
        assert (got.state_index, got.e0, got.e1, got.e2, got.gap_report) == (
            want.state_index,
            want.e0,
            want.e1,
            want.e2,
            want.gap_report,
        )
        assert np.array_equal(got.corrected_coefficients, want.corrected_coefficients)


def scattered_blocks(sizes, seed, density):
    """Diagonal h0 and a perturbation that is block diagonal up to a
    random permutation of the basis."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    packed = np.zeros((n, n), dtype=complex)
    start = 0
    for size in sizes:
        raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        raw *= rng.random((size, size)) < density
        packed[start:start + size, start:start + size] = (raw + raw.conj().T) / 2
        start += size
    perm = rng.permutation(n)
    v = np.zeros_like(packed)
    v[np.ix_(perm, perm)] = packed
    h0 = np.diag(rng.uniform(-5.0, 5.0, size=n))
    return OperatorMatrix((n,), h0), OperatorMatrix((n,), v)


class TestBlockRestriction:
    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.3, 0.7, 1.0]),
        pick=st.integers(0, 15),
    )
    def test_agrees_with_dense_diagonalization(self, sizes, seed, density, pick):
        h0, v = scattered_blocks(sizes, seed, density)
        index = pick % h0.side
        total = h0.entries + v.entries
        scale = float(np.max(np.abs(total)))
        values, vectors = np.linalg.eigh(total)
        weights = np.abs(vectors[index, :]) ** 2
        best = int(np.argmax(weights))
        # eigenvectors, hence overlaps, are unique only without degeneracy
        assume(np.min(np.diff(values), initial=np.inf) > 1e-6 * scale)
        assume(abs(weights[best] - 0.5) > 1e-6)
        if weights[best] < 0.5:
            with pytest.raises(AmbiguousMatchingError):
                validate_against_exact(h0, v, index)
            return
        comparison = validate_against_exact(h0, v, index)
        assert abs(comparison.exact_energy - values[best]) <= 1e-12 * scale
        assert comparison.overlap == pytest.approx(weights[best], abs=1e-9)
