import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from qsnom.dipole import DielectricSample, TipDipole, derive_image
from qsnom.errors import (
    AmbiguousMatchingError,
    DegenerateGapError,
    NotHermitianError,
)
from qsnom.errors import ShiftExceedsGapError
from qsnom.hamiltonian import (
    ModelConfig,
    basis_index,
    build_delta_h,
    build_h0,
    build_hamiltonian_pair,
    coupling_constant,
)
from qsnom.inversion import forward
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
    return build_h0(tip.omega, image.omega_image)


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
        v = build_delta_h(0.01)
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
        v = build_delta_h(1e-4)
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

    def test_shift_overflowing_in_the_division_raises(self):
        # the square 1e308 is finite; dividing it by the gap is not
        h0 = OperatorMatrix((2,), np.diag([0.0, 1e-3]))
        v = OperatorMatrix((2,), 1e154 * SIGMA_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OverflowError) as info:
                rs_pt2(h0, v, 0)
        assert str(info.value) == "second-order shift of level 0 overflows: -inf"

    def test_coefficient_overflowing_at_a_subnormal_gap_raises(self):
        # the shift underflows to 0, the first-order coefficient overflows
        h0 = OperatorMatrix((2,), np.diag([0.0, 1e-320]))
        v = OperatorMatrix((2,), 1e-200 * SIGMA_X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as info:
                rs_pt2(h0, v, 0)
        assert str(info.value).startswith(
            "first-order coefficient of level 1 in level 0 overflows: (-inf"
        )

    @pytest.mark.parametrize("g", [1e-160, 1e-170])
    def test_coupling_whose_square_underflows_keeps_its_shift(self, g):
        # g^2 is subnormal or zero, g^2 / gap is not
        h0 = OperatorMatrix((2,), np.diag([0.0, 1e-300]))
        v = OperatorMatrix((2,), g * SIGMA_X)
        assert rs_pt2(h0, v, 0).e2 == pytest.approx(-g * (g / 1e-300), rel=1e-15, abs=0.0)

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
        v = build_delta_h(0.01)
        comparison = validate_against_exact(h0, v, 0)
        assert comparison.residual < 1e-7

    def test_residual_quartic_in_coupling(self):
        h0 = dipole_pair()
        g = 0.01
        previous = validate_against_exact(h0, build_delta_h(g), 0).residual
        for _ in range(3):
            g /= 2
            current = validate_against_exact(h0, build_delta_h(g), 0).residual
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
        h0 = build_h0(tip.omega, image.omega_image)
        v = build_delta_h(0.01)
        comparison = validate_against_exact(h0, v, 0)
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


def register_pair(tip, sample, cfg, n_max):
    """(H0, V) on the (tip, image, photon) register at photon numbers
    0..n_max: the pair's energies plus the photon ladder, and the pair's
    coupling tensored with the photon identity."""
    image = derive_image(tip, sample)
    levels = n_max + 1
    pairs = [
        i_a * tip.omega + i_b * image.omega_image for i_a in (0, 1) for i_b in (0, 1)
    ]
    energies = (np.array(pairs)[:, None] + np.arange(levels) * tip.omega).ravel()
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = coupling_constant(cfg.kappa, sample.alpha, tip.separation)
    v = np.kron(-g * np.kron(flip, flip), np.eye(levels))
    dims = (2, 2, levels)
    return OperatorMatrix(dims, np.diag(energies)), OperatorMatrix(dims, v)


class TestSectorAgainstRegister:
    """The one-photon sector gives the register's results bit for bit."""

    @pytest.mark.parametrize("n_max", [1, 8, 64])
    @settings(max_examples=150, deadline=None)
    @given(
        epsilon_d=st.one_of(st.just(1.0), st.floats(1.0, 1e4)),
        height_nm=st.floats(0.2, 10.0),
        omega=st.floats(0.05, 5.0),
        kappa=st.floats(1e-3, 2.0),
    )
    def test_shift_exact_energy_residual_and_amplitude(
        self, epsilon_d, height_nm, omega, kappa, n_max
    ):
        tip = TipDipole(omega=omega, height_nm=height_nm)
        sample = DielectricSample(epsilon_d)
        cfg = ModelConfig(kappa=kappa)
        pair = build_hamiltonian_pair(tip, sample, cfg)
        h0, v = register_pair(tip, sample, cfg, n_max)

        def observables(comparison, index):
            pt2 = comparison.pt2
            amplitude = float(np.real(pt2.normalized_coefficients[index]))
            return repr((pt2.e0, pt2.e2, comparison.exact_energy,
                         comparison.residual, amplitude))

        # |g, g, 1> is level 0 of the sector and level 1 of the register
        got = outcome(lambda: validate_against_exact(pair.h0, pair.delta_h, 0))
        want = outcome(lambda: validate_against_exact(h0, v, 1))
        if isinstance(want, tuple):
            event(f"raises {want[0].__name__}")
            assert isinstance(got, tuple) and got[0] is want[0]
            return
        assert observables(got, 0) == observables(want, 1)
        try:
            forward_result = forward(epsilon_d, height_nm, omega, kappa, method="oracle")
        except ShiftExceedsGapError:
            return
        assert repr(forward_result.amplitude) == repr(
            float(np.real(want.pt2.normalized_coefficients[1]))
        )
        assert repr(forward_result.delta_e) == repr(want.pt2.e2)


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


# Dense reference: the engine as it was written on full N x N matrices,
# before operators were stored as their nonzeros.
def dense_is_hermitian(m, tol=1e-12):
    rows, cols = np.nonzero(m != 0)
    if rows.size == 0:
        return True
    values = m[rows, cols]
    scale = float(np.abs(values).max())
    dev = float(np.abs(values - m[cols, rows].conj()).max())
    return dev <= tol * scale


def dense_eigh(m, tol=1e-12):
    if not dense_is_hermitian(m, tol):
        dev = float(np.max(np.abs(m - m.conj().T)))
        raise NotHermitianError(
            f"operator deviates from Hermiticity by {dev:.3e}"
            f" (tolerance {tol:g} relative)"
        )
    return np.linalg.eigh(m)


def dense_rs_pt2(h0, v, n, degeneracy_tol_scale=1e-12):
    if not 0 <= n < h0.shape[0]:
        raise ValueError(f"state_index {n} outside 0..{h0.shape[0] - 1}")
    diag = np.diag(h0)
    off_diagonal = np.count_nonzero(h0) - np.count_nonzero(diag)
    if off_diagonal or not np.isfinite(diag).all():
        raise ValueError("h0 must be diagonal (engine works in its eigenbasis)")
    if not 2 * np.max(np.abs(diag.imag)) <= 1e-12 * np.max(np.abs(diag)):
        raise NotHermitianError("h0 diagonal must be real")
    if not dense_is_hermitian(v):
        raise NotHermitianError("perturbation v must be Hermitian")
    energies = diag.real
    column = v[:, n]
    coupled = np.flatnonzero(column)
    coupled = coupled[coupled != n]
    tol_deg = degeneracy_tol_scale * float(np.max(np.abs(diag)))
    gaps = []
    for m in coupled.tolist():
        gap = float(energies[n] - energies[m])
        if abs(gap) <= tol_deg:
            raise DegenerateGapError(
                f"level {m} is degenerate with reference level {n}"
                f" (gap {gap:.3e} eV within tolerance {tol_deg:.3e} eV)"
                f" while coupled by v"
            )
        gaps.append((m, gap))
    coeffs = np.zeros(h0.shape[0], dtype=complex)
    coeffs[n] = 1.0
    e2 = 0.0
    for m, gap in gaps:
        e2 += abs(complex(column[m])) ** 2 / gap
        if not math.isfinite(e2):
            raise OverflowError(f"second-order shift of level {n} overflows: {e2!r}")
        coeffs[m] = column[m] / gap
    return (n, float(energies[n]), float(np.real(v[n, n])), e2, coeffs, tuple(gaps))


def dense_validate(h0, v, n, overlap_threshold=0.5):
    result = dense_rs_pt2(h0, v, n)
    seen = np.zeros(v.shape[0], dtype=bool)
    seen[n] = True
    frontier = np.array([n])
    while frontier.size:
        linked = (v[frontier, :] != 0).any(axis=0) | (v[:, frontier] != 0).any(axis=1)
        frontier = np.flatnonzero(linked & ~seen)
        seen[frontier] = True
    block = np.flatnonzero(seen)
    sub = v[np.ix_(block, block)] + np.diag(np.diag(h0)[block])
    values, vectors = dense_eigh(sub)
    local = int(np.searchsorted(block, n))
    weights = np.abs(vectors[local, :]) ** 2
    best = int(np.argmax(weights))
    if weights[best] < overlap_threshold:
        raise AmbiguousMatchingError(
            f"largest overlap {weights[best]:.3f} with basis state"
            f" {n} is below threshold {overlap_threshold}"
        )
    exact = float(values[best])
    pt2 = result[1] + result[2] + result[3]
    return (pt2, exact, abs(exact - pt2), float(weights[best]), result)


def fields_of(result):
    """Every field, with arrays as bytes, so equal means bit-equal."""
    n, e0, e1, e2, coeffs, gaps = result
    return repr((n, e0, e1, e2, gaps)), coeffs.tobytes()


def outcome(call):
    try:
        return call()
    except (ValueError, ArithmeticError, NotHermitianError, DegenerateGapError,
            AmbiguousMatchingError) as exc:
        return (type(exc), str(exc))


class TestAgainstDenseReference:
    """The nonzero-entry engine reproduces the dense one bit for bit."""

    @settings(max_examples=500, deadline=None)
    @given(
        side=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        levels=st.sampled_from([2, 4, 1000]),
        density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
        magnitude=st.sampled_from([1e-3, 1e-2, 0.3, 1e160]),
        nudge=st.sampled_from([0.0, 0.0, 0.5, 2.0, 1e6]),
        special=st.sampled_from(
            [None] * 5 + [np.nan, np.inf, complex(-np.inf, 1.0)]
        ),
        in_h0=st.sampled_from([False, False, False, True]),
        h0_flaw=st.sampled_from([None] * 8 + ["imaginary", "off-diagonal"]),
        pick=st.integers(0, 20),
    )
    def test_bit_equal_results_and_identical_errors(
        self, side, seed, levels, density, magnitude, nudge, special, in_h0,
        h0_flaw, pick,
    ):
        rng = np.random.default_rng(seed)
        # energies drawn from few levels give degenerate pairs
        h0 = np.diag(rng.integers(0, levels, size=side) * 0.25).astype(complex)
        raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        raw *= rng.random((side, side)) < density
        v = magnitude * (raw + raw.conj().T) / 2
        # move some entries off their mirror by about nudge * 1e-12 * max|V|
        moved = rng.random((side, side)) < 0.2
        v[moved] += nudge * 1e-12 * np.max(np.abs(v), initial=1.0) * np.exp(
            2j * np.pi * rng.random(moved.sum())
        )
        r, c = rng.integers(0, side, size=2)
        if h0_flaw == "imaginary":
            h0[r, r] += 1e-9j
        elif h0_flaw == "off-diagonal" and r != c:
            h0[r, c] = 0.5
        if special is not None:
            (h0 if in_h0 else v)[r, c] = special
        index = side if pick == 20 else pick % side  # side is out of range
        h0_op, v_op = OperatorMatrix((side,), h0), OperatorMatrix((side,), v)

        with np.errstate(all="ignore"):
            want = outcome(lambda: dense_rs_pt2(h0, v, index))
            got = outcome(lambda: rs_pt2(h0_op, v_op, index))
            if isinstance(want, tuple) and isinstance(want[0], type):
                assert got == want
            else:
                assert fields_of(
                    (got.state_index, got.e0, got.e1, got.e2,
                     got.corrected_coefficients, got.gap_report)
                ) == fields_of(want)

            want = outcome(lambda: dense_validate(h0, v, index))
            got = outcome(lambda: validate_against_exact(h0_op, v_op, index))
        if isinstance(want, tuple) and isinstance(want[0], type):
            event(f"validate raises {want[0].__name__}")
            assert got == want
            return
        event("validate returns")
        assert repr(
            (got.pt2_energy, got.exact_energy, got.residual, got.overlap)
        ) == repr(want[:4])
        pt2 = got.pt2
        assert fields_of(
            (pt2.state_index, pt2.e0, pt2.e1, pt2.e2,
             pt2.corrected_coefficients, pt2.gap_report)
        ) == fields_of(want[4])
