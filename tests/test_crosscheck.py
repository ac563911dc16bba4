import gc
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsnom.crosscheck
import qsnom.perturbation
from qsnom.closedform import energy_shift
from qsnom.crosscheck import ConsistencyReport, ConsistencyRow, consistency_report
from qsnom.dipole import DielectricSample, TipDipole
from qsnom.errors import QsnomError
from qsnom.hamiltonian import (
    N_MAX_LIMIT,
    ModelConfig,
    build_hamiltonian_pair,
    regime_warnings,
)
from qsnom.perturbation import rs_pt2

HEIGHTS = (0.5, 1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def report():
    return consistency_report(3.0, HEIGHTS, omega=1.0, kappa=0.05)


class TestConsistencyReport:
    def test_row_bookkeeping(self, report):
        assert isinstance(report, ConsistencyReport)
        assert [row.height_nm for row in report.rows] == list(HEIGHTS)
        for row in report.rows:
            assert row.alpha == 0.5
            assert row.g == pytest.approx(
                0.05 * 0.5 / (2 * row.height_nm) ** 3, rel=1e-15
            )

    def test_both_routes_coincide_at_unit_gap_distance(self, report):
        # (2R)^3 = 1 hides the scaling disagreement at R = 0.5
        row = report.rows[0]
        assert row.delta_e_closed == pytest.approx(-0.0005, rel=1e-12)
        assert row.delta_e_oracle == pytest.approx(-0.0005, rel=1e-12)
        assert row.shift_abs_diff == pytest.approx(0.0, abs=1e-15)

    def test_routes_split_once_distance_grows(self, report):
        row = report.rows[1]
        assert row.delta_e_closed == pytest.approx(-6.25e-5, rel=1e-12)
        assert row.delta_e_oracle == pytest.approx(-7.8125e-6, rel=1e-12)
        assert row.shift_rel_diff == pytest.approx(0.875, rel=1e-12)

    def test_height_exponents(self, report):
        assert report.closed_height_exponent == pytest.approx(-3.0, abs=1e-9)
        assert report.oracle_height_exponent == pytest.approx(-6.0, abs=0.01)
        assert report.exact_height_exponent == pytest.approx(-6.0, abs=0.01)

    def test_mismatch_is_flagged(self, report):
        assert report.scaling_mismatch is True
        assert any("height-scaling mismatch" in note for note in report.notes)

    def test_oracle_agrees_with_exact_diagonalization(self, report):
        residuals = [row.pt2_exact_residual for row in report.rows]
        assert all(r < 1e-6 for r in residuals)
        # residual is quartic in the coupling, so it collapses with height
        assert sorted(residuals, reverse=True) == residuals
        for row in report.rows:
            assert row.delta_e_exact == pytest.approx(row.delta_e_oracle, rel=1e-3)

    def test_perturbed_ground_amplitude_routes(self, report):
        row = report.rows[0]
        assert row.beta1_closed == pytest.approx(0.9998, rel=1e-12)
        assert 0.0 < row.beta1_abs_diff < 1e-7
        assert row.beta1_oracle == pytest.approx(row.beta1_closed, abs=1e-7)


class TestWarnings:
    def test_rows_warn_as_the_hamiltonian_build(self):
        # at R = 0.5 nm g exceeds a tenth of |omega - omega_img|; farther
        # out it does not
        report = consistency_report(11.7, HEIGHTS, omega=1.0, kappa=0.05)
        want = [
            build_hamiltonian_pair(
                TipDipole(omega=1.0, height_nm=height),
                DielectricSample(11.7),
                ModelConfig(kappa=0.05),
            ).warnings
            for height in HEIGHTS
        ]
        assert [row.warnings for row in report.rows] == want
        assert want[0] and not want[-1]


class TestEngineCalls:
    def test_rs_pt2_runs_once_per_height(self, monkeypatch):
        calls = []
        real = qsnom.perturbation.rs_pt2

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(qsnom.perturbation, "rs_pt2", counted)
        monkeypatch.setattr(qsnom.crosscheck, "rs_pt2", counted)
        consistency_report(3.0, HEIGHTS, kappa=0.05, n_max=8)
        assert len(calls) == len(HEIGHTS)


class TestEdgeCases:
    def test_vacuum_sample_is_inert(self):
        report = consistency_report(1.0, HEIGHTS)
        for row in report.rows:
            assert row.delta_e_closed == 0.0
            assert row.delta_e_oracle == 0.0
            assert row.shift_abs_diff == 0.0
            # two zero shifts agree; their relative difference is not 0/0
            assert row.shift_rel_diff == 0.0
        assert math.isnan(report.closed_height_exponent)
        assert math.isnan(report.oracle_height_exponent)
        assert report.scaling_mismatch is False
        assert report.notes == ()

    def test_single_height_has_no_exponent(self):
        report = consistency_report(3.0, (1.0,))
        assert len(report.rows) == 1
        assert math.isnan(report.closed_height_exponent)
        assert report.scaling_mismatch is False

    def test_empty_heights_rejected(self):
        with pytest.raises(ValueError, match="height"):
            consistency_report(3.0, ())

    def test_heights_must_be_positive(self):
        with pytest.raises(ValueError, match="height"):
            consistency_report(3.0, (1.0, -2.0))

    def test_infinite_height_rejected(self):
        with pytest.raises(ValueError, match="^height_nm must be finite, got inf$"):
            consistency_report(3.0, (1.0, math.inf))

    def test_exponent_fit_tracks_pure_power_law(self):
        # closed-form shift is exactly cubic in 1/(2R): random heights fit -3
        rng = np.random.default_rng(7)
        heights = tuple(sorted(rng.uniform(0.4, 8.0, size=6)))
        report = consistency_report(3.0, heights, kappa=0.05)
        assert report.closed_height_exponent == pytest.approx(-3.0, abs=1e-9)


def peak_bytes(call):
    call()  # first-call caches are not what is measured
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFootprint:
    # n_max sizes nothing: a report at its limit stays small
    LIMIT = 2 * 2**20

    def test_report_at_the_n_max_limit(self):
        peak = peak_bytes(lambda: consistency_report(3.0, HEIGHTS, n_max=N_MAX_LIMIT))
        assert peak < self.LIMIT

    def test_report_and_rows_have_no_instance_dict(self, report):
        assert not hasattr(report, "__dict__")
        assert not hasattr(report.rows[0], "__dict__")
        assert "shift_abs_diff" not in ConsistencyRow.__slots__

    def test_kept_reports_are_small(self):
        consistency_report(3.0, HEIGHTS, n_max=8)
        tracemalloc.start()
        try:
            kept = [
                consistency_report(1.5 + k / 10, HEIGHTS, n_max=8) for k in range(200)
            ]
            gc.collect()
            per_report = tracemalloc.get_traced_memory()[0] / len(kept)
        finally:
            tracemalloc.stop()
        # with a Python float object per number a report took about 2 KiB,
        # and with its warnings kept, about 0.6 KiB
        assert per_report < 448

    def test_packed_rows_read_back_bit_for_bit(self):
        head = [-3.0, math.nan, -0.0, 1.0, 0.25]
        special = [-0.0, math.inf, math.nan, 5e-324, -1e300, 1.0 / 3.0]
        # alpha and g (the second and third numbers) set the warnings:
        # one row is inside the perturbative regime and one is not
        rows = [[0.5, 0.5, 1e-3, *special], [2.0, 0.9, 1.0, *reversed(special)]]
        numbers = head + [value for row in rows for value in row]
        report = ConsistencyReport(struct.pack(f"{len(numbers)}d", *numbers))
        read = [report.closed_height_exponent, report.oracle_height_exponent,
                report.exact_height_exponent, float(report.scaling_mismatch)]
        read += [getattr(row, name) for row in report.rows
                 for name in qsnom.crosscheck._ROW_NUMBERS]
        assert struct.pack(f"{len(read)}d", *read) == struct.pack(
            f"{len(numbers) - 1}d", *(head[:4] + numbers[5:])
        )
        row_warnings = [row.warnings for row in report.rows]
        assert row_warnings == [
            regime_warnings(0.25, alpha * alpha * 0.25, g) for _, alpha, g, *_ in rows
        ]
        assert row_warnings[0] == () and row_warnings[1] != ()

    def test_derived_fields_follow_the_stored_ones(self, report):
        for row in report.rows:
            assert row.shift_abs_diff == abs(row.delta_e_closed - row.delta_e_oracle)
            assert row.beta1_abs_diff == abs(row.beta1_closed - row.beta1_oracle)
        assert report.notes == (
            "height-scaling mismatch: closed-form exponent "
            f"{report.closed_height_exponent:.6g} vs numeric exponent "
            f"{report.oracle_height_exponent:.6g}",
        )


EXTREME = st.sampled_from(
    [0.0, -1.0, 5e-324, 1e-320, 1e-300, 1e-200, 1e300, 1e308, math.inf, -math.inf, math.nan]
)


def extreme_or(lo, hi):
    return st.one_of(EXTREME, st.floats(lo, hi))


class TestContract:
    """Every input gives finite row numbers or a classed error, and no
    warning."""

    @settings(max_examples=300, deadline=None)
    @given(
        epsilon_d=st.one_of(extreme_or(1.0, 1e4), st.sampled_from([1.0, 1.001, 1e17])),
        heights=st.lists(extreme_or(0.2, 10.0), max_size=5),
        omega=extreme_or(0.05, 5.0),
        kappa=extreme_or(1e-3, 2.0),
        n_max=st.one_of(st.integers(-1, 2000), st.sampled_from([1.5, math.nan, math.inf])),
    )
    def test_finite_rows_or_a_classed_error(self, epsilon_d, heights, omega, kappa, n_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = consistency_report(
                    epsilon_d, heights, omega=omega, kappa=kappa, n_max=n_max
                )
            except (ValueError, ArithmeticError, QsnomError):
                return
            rows = report.rows
            report.notes
        assert len(rows) == len(heights)
        for row in rows:
            numbers = [getattr(row, name) for name in qsnom.crosscheck._ROW_NUMBERS]
            assert all(math.isfinite(x) for x in numbers), row


# R from 0.3 to 7.5 nm, epsilon_d from 1.001 to 1e4, three kappas, three gaps
IDENTITY_GRID = [
    (height, eps, kappa, omega)
    for height in (0.3, 0.5, 1.0, 2.0, 4.0, 7.5)
    for eps in (1.001, 1.1, 2.0, 3.0, 11.7, 50.0, 100.0, 1e3, 1e4)
    for kappa in (0.05, 0.3, 1.0)
    for omega in (0.5, 1.0, 2.0)
]


def oracle_shift(height, eps, kappa, omega):
    """Second-order shift of the reference level |g, g, 1>, sector level 0."""
    tip = TipDipole(omega=omega, height_nm=height)
    sample = DielectricSample(eps)
    pair = build_hamiltonian_pair(tip, sample, ModelConfig(kappa=kappa))
    return rs_pt2(pair.h0, pair.delta_h, 0).e2, pair.g


def worst_relative_error(pairs):
    """Largest |a - b| / |a| over (a, b, point) triples, with its point."""
    return max((abs(a - b) / abs(a), point) for a, b, point in pairs)


class TestRouteIdentities:
    """The two routes differ by an exact factor; pinned at a few ulp.

    These measure the disagreement between the routes, which stays
    reported and is never patched.
    """

    def test_closed_shift_is_oracle_shift_times_separation_cubed(self):
        pairs = []
        for height, eps, kappa, omega in IDENTITY_GRID:
            alpha = DielectricSample(eps).alpha
            closed = energy_shift(1.0, height, alpha, omega, kappa)
            oracle, _ = oracle_shift(height, eps, kappa, omega)
            pairs.append(
                (closed, oracle * (2.0 * height) ** 3, (height, eps, kappa, omega))
            )
        assert len(pairs) == 486
        error, point = worst_relative_error(pairs)
        assert error <= 1e-15, point

    def test_oracle_shift_is_minus_g_squared_over_the_sum_gap(self):
        pairs = []
        for height, eps, kappa, omega in IDENTITY_GRID:
            alpha = DielectricSample(eps).alpha
            oracle, g = oracle_shift(height, eps, kappa, omega)
            pairs.append(
                (oracle, -g * g / (omega * (1.0 + alpha * alpha)), (height, eps, kappa, omega))
            )
        error, point = worst_relative_error(pairs)
        assert error <= 1e-15, point
