import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compwave import (
    ResilienceGrid,
    basis_selection,
    coordinate_descent,
    design_from_lambda,
    design_from_vector,
    design_matrix,
    null_space_basis,
    snr_ratio,
    snr_upper_bound,
)


@pytest.fixture(scope="module")
def basis_16():
    grid = ResilienceGrid.uniform(0.0, 2.0, 15)
    return grid, null_space_basis(design_matrix(grid, 16))


@pytest.mark.parametrize("entry", [
    basis_selection,
    lambda Z: coordinate_descent(Z, restarts=1),
    lambda Z: snr_upper_bound(Z, np.ones(4)),
    lambda Z: design_from_lambda(Z, [1.0], ResilienceGrid.uniform(0.0, 2.0, 3)),
], ids=["basis_selection", "coordinate_descent", "snr_upper_bound", "design_from_lambda"])
@pytest.mark.parametrize("Z", [np.array([1, 2j, -3, 0.5]), np.ones((4, 1, 1))], ids=["1-D", "3-D"])
def test_basis_must_be_two_dimensional(entry, Z):
    # a 1-D basis is not read as one row: that picks an entry, or fails later with another message
    with pytest.raises(ValueError, match=r"basis must be a 2-D \(N, U\) array, got shape"):
        entry(Z)


class TestSnrRatio:
    def test_uniform_reaches_n(self):
        assert snr_ratio(np.ones(12)) == pytest.approx(12.0)

    def test_single_entry_is_one(self):
        assert snr_ratio([0.0, 0.0, 3.0 - 4.0j]) == pytest.approx(1.0)

    def test_hand_value(self):
        # (1+3+3+1)^2 / (1+9+9+1) = 64/20
        assert snr_ratio([1.0, 3.0, 3.0, 1.0]) == pytest.approx(3.2)

    def test_scale_and_phase_invariance(self):
        rng = np.random.default_rng(31)
        w = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert snr_ratio(17.3j * w) == pytest.approx(snr_ratio(w), rel=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            r = snr_ratio(w)
            assert 1.0 - 1e-12 <= r <= n + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            snr_ratio(np.zeros(4))


class TestBasisSelection:
    def test_picks_largest_one_norm(self):
        Z = np.array([[0.6, 0.9], [0.6, 0.6j]])
        assert np.array_equal(basis_selection(Z), Z[:, 1])

    def test_tie_prefers_first(self):
        Z = np.array([[1.0, 0.5], [0.0, 0.5]])
        assert np.array_equal(basis_selection(Z), Z[:, 0])

    def test_single_column(self):
        Z = np.array([[1.0], [2.0]])
        assert np.array_equal(basis_selection(Z), Z[:, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            basis_selection(np.zeros((4, 0)))

    def test_convex_mixture_never_beats_vertex(self, basis_16):
        _, Z = basis_16
        rng = np.random.default_rng(33)
        best = np.abs(Z).sum(axis=0).max()
        for _ in range(30):
            lam = rng.random(Z.shape[1])
            lam /= lam.sum()
            assert np.abs(Z @ lam).sum() <= best + 1e-12


class TestDesignFromLambda:
    def test_unit_vector_matches_single_column(self, basis_16):
        grid, Z = basis_16
        lam = np.zeros(Z.shape[1], dtype=complex)
        lam[0] = 1.0
        a = design_from_lambda(Z, lam, grid)
        b = design_from_vector(Z[:, 0], grid)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.w, b.w)

    def test_ratio_carries_over_to_weights(self, basis_16):
        grid, Z = basis_16
        rng = np.random.default_rng(34)
        lam = rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1])
        design = design_from_lambda(Z, lam, grid)
        v = Z @ lam
        expected = np.abs(v).sum() ** 2 / (np.abs(v) ** 2).sum()
        assert snr_ratio(design.w) == pytest.approx(expected, rel=1e-12)

    def test_combination_stays_suppressed(self, basis_16):
        grid, Z = basis_16
        rng = np.random.default_rng(35)
        lam = rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1])
        design = design_from_lambda(Z, lam, grid)
        assert design.residual <= 1e-10

    def test_zero_combination_rejected(self, basis_16):
        grid, Z = basis_16
        with pytest.raises(ValueError):
            design_from_lambda(Z, np.zeros(Z.shape[1]), grid)

    def test_length_mismatch(self, basis_16):
        grid, Z = basis_16
        with pytest.raises(ValueError):
            design_from_lambda(Z, np.ones(Z.shape[1] + 1), grid)


class TestCoordinateDescent:
    def test_one_dimensional_space_is_flat(self):
        # 8 pulses over a spread grid leave a single direction; the
        # objective cannot depend on lambda there
        grid = ResilienceGrid.uniform(0.0, 2.0, 7)
        Z = null_space_basis(design_matrix(grid, 8))
        assert Z.shape[1] == 1
        report = coordinate_descent(Z, restarts=2, sweeps=3, seed=0)
        assert report.snr == pytest.approx(snr_ratio(Z[:, 0]), rel=1e-12)
        assert report.snr == pytest.approx(5.0949504393349558, rel=1e-9)

    def test_never_below_basis_selection(self, basis_16):
        _, Z = basis_16
        report = coordinate_descent(Z, restarts=3, sweeps=12, seed=3)
        assert report.snr >= snr_ratio(basis_selection(Z)) - 1e-9

    def test_first_restart_starts_at_vertex(self, basis_16):
        _, Z = basis_16
        report = coordinate_descent(Z, restarts=1, sweeps=2, seed=0)
        assert report.traces[0][0] == pytest.approx(1.0 / snr_ratio(basis_selection(Z)), rel=1e-12)

    def test_traces_non_increasing(self, basis_16):
        _, Z = basis_16
        report = coordinate_descent(Z, restarts=3, sweeps=6, seed=5)
        for trace in report.traces:
            assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_winner_consistency(self, basis_16):
        _, Z = basis_16
        report = coordinate_descent(Z, restarts=3, sweeps=6, seed=5)
        assert 0 <= report.winner < report.restarts
        assert report.objective == min(t[-1] for t in report.traces)
        assert report.snr == pytest.approx(1.0 / report.objective, rel=1e-15)

    def test_same_seed_same_answer(self, basis_16):
        _, Z = basis_16
        a = coordinate_descent(Z, restarts=3, sweeps=5, seed=11)
        b = coordinate_descent(Z, restarts=3, sweeps=5, seed=11)
        assert np.array_equal(a.best_lambda, b.best_lambda)
        assert a.traces == b.traces

    def test_invalid_parameters(self, basis_16):
        _, Z = basis_16
        with pytest.raises(ValueError):
            coordinate_descent(Z, restarts=0)
        with pytest.raises(ValueError):
            coordinate_descent(Z, sweeps=0)
        with pytest.raises(ValueError):
            coordinate_descent(np.zeros((5, 0)))

    def test_dependent_columns_rejected(self):
        Z = np.array([[1.0, 2.0], [1j, 2j], [0.5, 1.0]])
        with pytest.raises(ValueError, match="linearly dependent"):
            coordinate_descent(Z)

    def test_report_round_trip(self, tmp_path, basis_16):
        _, Z = basis_16
        report = coordinate_descent(Z, restarts=2, sweeps=3, seed=9)
        path = tmp_path / "optimizer.json"
        report.save(path)
        data = json.loads(path.read_text())
        assert data["restarts"] == 2 and data["sweeps"] == 3 and data["seed"] == 9
        assert data["eps"] == 1e-6
        assert data["winner"] == report.winner
        assert data["objective"] == report.objective
        lam = np.array([complex(re, im) for re, im in data["best_lambda"]])
        assert np.array_equal(lam, report.best_lambda)
        assert data["traces"] == report.traces


def _random_basis(seed, n, width, orthonormal):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    return np.linalg.qr(Z)[0] if orthonormal else Z


basis_draws = st.integers(2, 24).flatmap(
    lambda n: st.tuples(
        st.integers(0, 2**32 - 1), st.just(n), st.integers(1, min(n, 8)), st.booleans()
    )
)


class TestOptimizerProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(basis_draws)
    def test_ascent_invariants(self, draw):
        seed, n, width, orthonormal = draw
        Z = _random_basis(seed, n, width, orthonormal)
        report = coordinate_descent(Z, restarts=3, seed=seed)
        for trace in report.traces:
            assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert snr_ratio(Z @ report.best_lambda) >= snr_ratio(basis_selection(Z))

        # a restart that ends inside its step budget ends at a fixed point
        # of u = phase(Q mu), mu <- Q^H u / ||Q^H u||, Q orthonormal
        if len(report.traces[report.winner]) - 1 < 100 * width:
            Q = np.linalg.qr(Z)[0]
            v = Z @ report.best_lambda
            mu = Q.conj().T @ v
            step = Q.conj().T @ (v / np.abs(v))
            gap = np.linalg.norm(step / np.linalg.norm(step) - mu / np.linalg.norm(mu))
            assert gap <= 1e-6


@functools.cache
def _paper_case(n, hi):
    """(grid, basis, default hcd report, seed 0) of the CLI's N-pulse design on [0, hi]."""
    grid = ResilienceGrid.uniform(0.0, hi, n - 1)
    Z = null_space_basis(design_matrix(grid, n))
    return grid, Z, coordinate_descent(Z, seed=0)


# seed-0 SNR of each paper design under the plain (unaccelerated) lockstep
# iteration, exact floats; SQUAREM must reach at least these
PLAIN_ITERATION_SNR = {
    (32, 2.0): 20.010132573990514,
    (40, 2.0): 28.63122766949946,
    (48, 2.0): 36.70554603328325,
    (64, 2.0): 53.20083693109287,
    (48, math.pi): 29.298871349161974,
}


class TestLockstepOracle:
    @pytest.mark.parametrize("n, hi", list(PLAIN_ITERATION_SNR))
    def test_paper_bases_reach_plain_iteration_snr(self, n, hi):
        grid, Z, report = _paper_case(n, hi)
        v = Z @ report.best_lambda
        assert PLAIN_ITERATION_SNR[n, hi] <= report.snr <= snr_upper_bound(Z, v) * (1 + 1e-13)
        assert report.traces[report.winner][-1] == report.objective == 1.0 / snr_ratio(v)
        for trace in report.traces:
            assert all(b <= a for a, b in zip(trace, trace[1:]))
        design = design_from_lambda(Z, report.best_lambda, grid)
        assert snr_ratio(design.w) == pytest.approx(report.snr, rel=1e-14)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(basis_draws)
    def test_random_bases_between_vertex_and_bound(self, draw):
        # SQUAREM may settle on another fixed point than the plain iteration,
        # lower on some draws, so the vertex and the bound are the oracles here
        seed, n, width, orthonormal = draw
        Z = _random_basis(seed, n, width, orthonormal)
        report = coordinate_descent(Z, restarts=3, seed=seed)
        v = Z @ report.best_lambda
        assert snr_ratio(basis_selection(Z)) <= snr_ratio(v) <= snr_upper_bound(Z, v) * (1 + 1e-13)

    def test_one_dimensional_bases_never_fall_below_vertex(self):
        # at U = 1 every step moves g by rounding only, so steps accepted on
        # Q mu can be lost when lambda is mapped back; such a restart returns its start
        for seed in range(200):
            Z = _random_basis(seed, 2 + seed % 23, 1, False)
            report = coordinate_descent(Z, restarts=3, seed=seed)
            assert snr_ratio(Z @ report.best_lambda) >= snr_ratio(basis_selection(Z))

    @pytest.mark.parametrize("width", [1, 2])
    def test_smallest_budget_runs_one_cycle(self, width):
        # sweeps x U map evaluations at three per cycle, rounded up: floor
        # division would leave U = 1 and U = 2 no cycle at all
        Z = _random_basis(width, 6, width, False)
        report = coordinate_descent(Z, restarts=3, sweeps=1, seed=0)
        assert [len(t) for t in report.traces] == [2, 2, 2]

    def test_budget_counts_map_evaluations(self):
        # U = 13 at sweeps = 1 allows 13 evaluations, rounded up to 5 cycles
        _, Z, _ = _paper_case(48, 2.0)
        report = coordinate_descent(Z, sweeps=1, seed=0)
        assert max(len(t) for t in report.traces) == 6

    def test_acceleration_cuts_map_evaluations(self):
        # the plain iteration's longest restart took 329 steps at N = 48
        # (U = 13); SQUAREM takes 40 cycles of 3 evaluations there
        _, _, report = _paper_case(48, 2.0)
        assert 3 * max(len(t) - 1 for t in report.traces) <= 150

    def test_step_budget_is_not_allocated_up_front(self, basis_16):
        _, Z = basis_16
        report = coordinate_descent(Z, restarts=2, sweeps=10**15, seed=1)
        assert all(len(t) <= 3 for t in report.traces)


class TestSnrUpperBound:
    @pytest.mark.parametrize("n", [8, 16, 24, 32, 40, 48, 64, 96])
    def test_certifies_the_paper_designs(self, n):
        _, Z, report = _paper_case(n, 2.0)
        v = Z @ report.best_lambda
        ratio, bound = snr_ratio(v), snr_upper_bound(Z, v)
        assert bound >= ratio * (1 - 1e-13)
        assert bound - ratio <= 1e-3 * ratio
        if Z.shape[1] == 1:
            assert bound <= ratio * (1 + 1e-13)

    def test_random_combinations_stay_below(self):
        _, Z, report = _paper_case(48, 2.0)
        bound = snr_upper_bound(Z, Z @ report.best_lambda)
        rng = np.random.default_rng(36)
        lam = rng.standard_normal((Z.shape[1], 2000)) + 1j * rng.standard_normal((Z.shape[1], 2000))
        mags = np.abs(Z @ lam)
        assert np.all(mags.sum(axis=0) ** 2 / (mags * mags).sum(axis=0) <= bound)

    def test_invalid_inputs(self, basis_16):
        _, Z = basis_16
        v = Z[:, 0]
        with pytest.raises(ValueError, match="nonzero"):
            snr_upper_bound(Z, np.concatenate([v[:-1], [0.0]]))
        with pytest.raises(ValueError, match="does not match"):
            snr_upper_bound(Z, v[:-1])
        with pytest.raises(ValueError, match="empty"):
            snr_upper_bound(np.zeros((4, 0)), np.ones(4))
