import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsnom.errors import (
    BadSubsystemIndexError,
    NotHermitianError,
    NotNormalizedError,
)
from qsnom.tensor import (
    _HERMITIAN_TOL,
    OperatorMatrix,
    StateVector,
    eigh,
    outer,
    partial_trace,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (m + m.conj().T) / 2


def random_density(rng, dims):
    side = int(np.prod(dims))
    m = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    rho = m @ m.conj().T
    return OperatorMatrix(dims, rho / np.trace(rho))


class TestContainers:
    def test_state_vector_length_check(self):
        with pytest.raises(ValueError, match="does not match dims"):
            StateVector((2, 2), np.ones(3))

    def test_state_vector_norm(self):
        psi = StateVector((2,), [3.0, 4.0])
        assert psi.norm == pytest.approx(5.0)

    def test_operator_shape_check(self):
        with pytest.raises(ValueError, match="does not match dims"):
            OperatorMatrix((2,), np.ones((3, 3)))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            OperatorMatrix((), np.ones((1, 1)))
        with pytest.raises(ValueError):
            StateVector((0, 2), [])

    def test_entries_frozen(self):
        op = OperatorMatrix((2,), np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0

    def test_read_only(self):
        op = OperatorMatrix((2,), SIGMA_X)
        with pytest.raises(AttributeError):
            op.dims = (3,)
        with pytest.raises(AttributeError):
            op.entries = np.eye(2)
        with pytest.raises(ValueError):
            op.diagonal()[0] = 5.0

    def test_hermitian_predicate(self):
        assert OperatorMatrix((2,), SIGMA_X).is_hermitian()
        assert OperatorMatrix((2,), np.zeros((2, 2))).is_hermitian()
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert not OperatorMatrix((2,), skew).is_hermitian()


class TestDerivedFields:
    def test_side_diagonal_and_trace_come_from_the_entries(self):
        m = np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [1j, 0.0, 3.0]])
        op = OperatorMatrix((3,), m)
        assert op.side == 3
        np.testing.assert_array_equal(op.entries, m)
        np.testing.assert_array_equal(op.diagonal(), [0.0, 0.0, 3.0])
        assert op.trace == 3.0

    def test_pickle_and_copy_round_trip_read_only(self):
        op = OperatorMatrix((2, 2), np.kron(SIGMA_X, SIGMA_X) * (0.3 + 0.1j))
        copies = [
            pickle.loads(pickle.dumps(op, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies + [copy.copy(op), copy.deepcopy(op)]:
            assert twin.dims == op.dims
            np.testing.assert_array_equal(twin.entries, op.entries)
            assert not twin.entries.flags.writeable

    def test_state_vector_pickle_and_copy_round_trip_read_only(self):
        psi = StateVector((2,), [1.0, 0.0])
        copies = [
            pickle.loads(pickle.dumps(psi, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ]
        for twin in copies + [copy.copy(psi), copy.deepcopy(psi)]:
            assert twin.dims == psi.dims
            np.testing.assert_array_equal(twin.amplitudes, psi.amplitudes)
            assert not twin.amplitudes.flags.writeable


def dense_is_hermitian(m, tol):
    """Reference: compare every entry with its mirror."""
    scale = np.max(np.abs(m))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(m - m.conj().T)) <= tol * scale)


class TestIsHermitian:
    @settings(max_examples=400, deadline=None)
    @given(
        side=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        density=st.sampled_from([0.0, 0.1, 0.4, 1.0]),
        nudge=st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0, 1e6]),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf, complex(np.inf, 1.0)]),
        mirrored=st.booleans(),
    )
    def test_agrees_with_dense_reference(
        self, side, seed, density, nudge, special, mirrored
    ):
        tol = _HERMITIAN_TOL
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
        raw *= rng.random((side, side)) < density
        m = (raw + raw.conj().T) / 2
        # move some entries off their mirror by about nudge * tol * max|M|
        scale = np.max(np.abs(m), initial=1.0)
        moved = rng.random((side, side)) < 0.2
        m[moved] += nudge * tol * scale * np.exp(2j * np.pi * rng.random(moved.sum()))
        if special is not None:
            r, c = rng.integers(0, side, size=2)
            m[r, c] = special
            if mirrored:
                m[c, r] = np.conj(special)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = dense_is_hermitian(m, tol)
            assert OperatorMatrix((side,), m).is_hermitian() is expected

    @pytest.mark.parametrize(
        "entries, expected",
        [
            ([[0.0, 1.0], [0.0, 0.0]], False),
            ([[0.0, 1.0], [1.0 + 1e-13, 0.0]], True),
            ([[np.nan, 0.0], [0.0, 1.0]], False),
        ],
    )
    def test_edge_cases(self, entries, expected):
        assert OperatorMatrix((2,), np.array(entries)).is_hermitian() is expected


class TestEigh:
    def test_two_level_flip(self):
        values, _ = eigh(OperatorMatrix((2,), SIGMA_X))
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-15)

    def test_rejects_non_hermitian(self):
        m = OperatorMatrix((2,), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotHermitianError):
            eigh(m)

    def test_reconstruction_on_random_matrices(self):
        """Reconstruction error stays below 1e-10 * max|M| for 1000 draws."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            m = random_hermitian(rng, dim)
            values, vectors = eigh(OperatorMatrix((dim,), m))
            rebuilt = (vectors * values) @ vectors.conj().T
            scale = np.max(np.abs(m))
            assert np.max(np.abs(rebuilt - m)) < 1e-10 * scale
            assert np.all(np.diff(values) >= 0)

    def test_eigenvectors_unitary(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(rng, 8)
        _, vectors = eigh(OperatorMatrix((8,), m))
        gram = vectors.conj().T @ vectors
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-12)


class TestPartialTrace:
    def test_bell_state_reduces_to_maximally_mixed(self):
        psi = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2))
        rho = outer(psi)
        for keep in [(0,), (1,)]:
            reduced = partial_trace(rho, keep)
            np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-15)

    def test_product_state_stays_pure(self):
        a = np.array([1.0, 1.0]) / np.sqrt(2)
        b = np.array([1.0, 0.0])
        psi = StateVector((2, 2), np.kron(a, b))
        reduced = partial_trace(outer(psi), keep=(0,))
        np.testing.assert_allclose(reduced.entries, np.outer(a, a), atol=1e-15)

    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, (2, 3))
        np.testing.assert_allclose(
            partial_trace(rho, keep=(0, 1)).entries, rho.entries, atol=1e-15
        )

    def test_keep_order_controls_output_order(self):
        rng = np.random.default_rng(12)
        rho = random_density(rng, (2, 3))
        swapped = partial_trace(rho, keep=(1, 0))
        assert swapped.dims == (3, 2)
        np.testing.assert_allclose(complex(swapped.trace), 1.0, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        for dims in [(2, 2), (2, 3, 2), (4, 2)]:
            rho = random_density(rng, dims)
            reduced = partial_trace(rho, keep=(0,))
            np.testing.assert_allclose(complex(reduced.trace), 1.0, atol=1e-12)

    def test_photon_register_of_single_photon_state(self):
        """Dipole-pair amplitudes tensored with one photon leave the
        photon register in the pure one-photon state."""
        coeffs = np.array([0.92, 0.7778, 0.92, 0.7778])
        coeffs = coeffs / np.linalg.norm(coeffs)
        amps = np.zeros(8)
        for j in range(4):
            amps[2 * j + 1] = coeffs[j]
        rho = outer(StateVector((2, 2, 2), amps))
        reduced = partial_trace(rho, keep=(2,))
        np.testing.assert_allclose(
            reduced.entries, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-12
        )

    def test_bad_subsystem_selections(self):
        rho = outer(StateVector((2, 2), [1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(BadSubsystemIndexError):
            partial_trace(rho, keep=())
        with pytest.raises(BadSubsystemIndexError):
            partial_trace(rho, keep=(2,))
        with pytest.raises(BadSubsystemIndexError):
            partial_trace(rho, keep=(0, 0))

    def test_more_subsystems_than_labels(self):
        # 27 one-level subsystems need 54 einsum labels; there are 52
        rho = OperatorMatrix((1,) * 27, np.ones((1, 1)))
        with pytest.raises(ValueError, match="^too many subsystems for einsum labels: 27$"):
            partial_trace(rho, keep=(0,))


class TestOuter:
    def test_projector(self):
        psi = StateVector((2,), [1.0, 1.0j])
        rho = outer(StateVector((2,), np.array([1.0, 1.0j]) / np.sqrt(2)))
        np.testing.assert_allclose(rho.entries @ rho.entries, rho.entries, atol=1e-15)
        assert psi.norm == pytest.approx(np.sqrt(2))

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            outer(StateVector((2,), [1.0, 1.0]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unit_trace(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = StateVector((2, 2), raw / np.linalg.norm(raw))
        np.testing.assert_allclose(complex(outer(psi).trace), 1.0, atol=1e-12)
