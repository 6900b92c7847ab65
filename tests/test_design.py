import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compwave.design
from compwave import (
    EmptyNullSpaceError,
    ResilienceGrid,
    WaveformDesign,
    cross_channel_nulls,
    design_from_lambda,
    design_from_vector,
    design_matrix,
    discrete_ambiguity,
    evaluation_grid,
    extract_design,
    null_space_basis,
    null_space_design,
    polarimetric_ambiguities,
    slow_time_response,
    snr_ratio,
    snr_upper_bound,
    validate_design,
)
from compwave.design import _blas_thread_setter, _one_blas_thread, _phase_matrix, _phases, _responses


class TestResilienceGrid:
    def test_uniform_endpoints(self):
        grid = ResilienceGrid.uniform(0.0, 2.0, 47)
        assert grid.m == 47
        assert grid.angles[0] == 0.0 and grid.angles[-1] == 2.0
        assert grid.interval == (0.0, 2.0)

    def test_sorted_and_deduplicated(self):
        grid = ResilienceGrid(angles=[1.0, 0.5, 1.0], interval=(0.0, 2.0))
        assert np.array_equal(grid.angles, [0.5, 1.0])

    def test_single_point(self):
        grid = ResilienceGrid.uniform(1.5, 1.5, 5)
        assert grid.m == 1
        assert grid.angles[0] == 1.5

    def test_count_one(self):
        assert ResilienceGrid.uniform(0.3, 2.0, 1).angles.tolist() == [0.3]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            ResilienceGrid.uniform(0.0, 2.0, 0)
        with pytest.raises(ValueError):
            ResilienceGrid.uniform(2.0, 0.0, 5)
        with pytest.raises(ValueError):
            ResilienceGrid(angles=[0.5], kind="azimuth")
        with pytest.raises(ValueError):
            ResilienceGrid(angles=[3.0], interval=(0.0, 2.0))

    def test_kind_label(self):
        assert ResilienceGrid.uniform(0.0, 1.0, 3, kind="delay").kind == "delay"


class TestDesignMatrix:
    def test_single_zero_angle(self):
        E = design_matrix(ResilienceGrid(angles=[0.0]), 2)
        assert np.array_equal(E, [[1.0 + 0.0j, 1.0 + 0.0j]])

    def test_pi_row(self):
        E = design_matrix(ResilienceGrid(angles=[np.pi]), 3)
        assert np.allclose(E, [[1.0, -1.0, 1.0]], atol=1e-12)

    def test_entries_formula(self):
        grid = ResilienceGrid.uniform(0.0, 2.0, 47)
        E = design_matrix(grid, 48)
        assert E.shape == (47, 48)
        m, n = 13, 29
        assert E[m, n] == pytest.approx(np.exp(1j * n * grid.angles[m]), abs=1e-15)

    def test_accepts_bare_angles(self):
        assert design_matrix([0.0, 1.0], 3).shape == (2, 3)

    def test_rejects_single_pulse(self):
        with pytest.raises(ValueError):
            design_matrix(ResilienceGrid(angles=[0.0]), 1)

    @pytest.mark.parametrize("angles, n", [([0.0, 1e308], 8), ([-1e308], 3), ([0.5, np.nan], 3)])
    def test_rejects_overflowing_phase(self, angles, n):
        # n theta overflows to inf (or is nan), and exp would fill E with nan
        with pytest.raises(ValueError, match="phase overflows"):
            design_matrix(angles, n)

    def test_largest_finite_phase_accepted(self):
        assert np.isfinite(design_matrix([1e308 / 7], 8)).all()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 300), angles=st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, np.pi, -np.pi]), st.floats(-1e300, 1e300)), min_size=1, max_size=40))
    def test_phase_bits_match_the_literal_formula(self, n, angles):
        angles = np.array(angles)
        expected = np.exp(1j * np.outer(angles, np.arange(n)))
        assert np.array_equal(_phase_matrix(angles, n).view(np.uint64), expected.view(np.uint64))


def cnormal(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class TestResponses:
    """The slow-time products of ``_responses`` against the whole phase-matrix product."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n=st.integers(2, 300), k=st.integers(1, 5), count=st.sampled_from(["1", "2", "k", "k+1", "k+2"]),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_whole_product(self, n, k, count, seed):
        rows = 4095 // n  # the most rows below 4096 entries, where OpenBLAS threads a gemv
        m = {"1": 1, "2": 2, "k": k * rows, "k+1": k * rows + 1, "k+2": k * rows + 2}[count]
        rng = np.random.default_rng(seed)
        angles = rng.uniform(-np.pi, np.pi, m)
        vectors = [cnormal(rng, n), cnormal(rng, n)]
        whole = _phase_matrix(angles, n)
        for f, v in zip(_responses(angles, *vectors), vectors):
            assert np.array_equal(f.view(float), (whole @ v).view(float))

    @pytest.mark.parametrize("n", [5, 1366, 2048, 5000])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5])
    def test_few_angles_and_wide_trains(self, n, m):
        # no angle, one angle (numpy's 1-row product takes a dot kernel), and two rows past 4096 entries
        v = cnormal(np.random.default_rng(7), n)
        angles = np.linspace(0.0, 1.0, m)
        assert np.array_equal(_responses(angles, v)[0].view(float), (_phase_matrix(angles, n) @ v).view(float))


class TestPhaseMemo:
    """The memo of ``_phases`` behind ``_responses``: keyed on angle bytes and N, read-only, never the public E."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _phases.cache_clear()

    def test_equal_angles_in_different_arrays_share_an_entry(self):
        v = cnormal(np.random.default_rng(3), 8)
        first = _responses(evaluation_grid(0.0, 2.0, 101), v)[0]
        again = _responses(np.linspace(0.0, 2.0, 101).copy(), v)[0]
        assert np.array_equal(first.view(float), again.view(float))
        assert _phases.cache_info()[:2] == (1, 1)  # (hits, misses)
        _responses(evaluation_grid(0.0, 2.0, 101), cnormal(np.random.default_rng(4), 9))
        assert _phases.cache_info()[:2] == (1, 2)  # another N is another entry

    def test_signed_zeros_do_not_share(self):
        v = cnormal(np.random.default_rng(5), 6)
        for angles in (np.array([0.0, 0.5, 1.0]), np.array([-0.0, 0.5, 1.0])):
            got = _responses(angles, v)[0]
            assert np.array_equal(got.view(np.uint64), (_phase_matrix(angles, 6) @ v).view(np.uint64))
        assert _phases.cache_info()[:2] == (0, 2)

    def test_cached_matrix_is_read_only(self):
        angles = evaluation_grid(0.0, 1.0, 5)
        _responses(angles, np.ones(4, dtype=complex))
        phases = _phases(angles.tobytes(), 4)
        assert not phases.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            phases[0, 0] = 0

    def test_design_matrix_is_fresh_and_writable(self):
        angles = evaluation_grid(0.0, 1.0, 5)
        v = np.ones(4, dtype=complex)
        before = _responses(angles, v)[0]
        E = design_matrix(angles, 4)
        assert E.flags.writeable and not np.shares_memory(E, _phases(angles.tobytes(), 4))
        E[:] = 0
        assert np.array_equal(_responses(angles, v)[0], before)

    def test_overflow_raised_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="phase overflows"):
                slow_time_response(np.ones(8), [0.0, 1e308])
        assert _phases.cache_info().currsize == 0

    def test_threads_share_the_memo(self):
        # more threads than cores and more keys than entries, switching often: every response must
        # still be the fresh product, and the memo must stay within its bound
        rng = np.random.default_rng(11)
        grids = [rng.uniform(-np.pi, np.pi, 50 + i) for i in range(6)]
        v = cnormal(rng, 12)
        expected = [(_phase_matrix(a, 12) @ v).tobytes() for a in grids]
        wrong, start = [], threading.Barrier(8)

        def calling(seed):
            start.wait(10)
            order = np.random.default_rng(seed).integers(len(grids), size=300)
            wrong.extend(int(i) for i in order if _responses(grids[i], v)[0].tobytes() != expected[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=calling, args=(seed,)) for seed in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert wrong == [] and _phases.cache_info().currsize <= 4

    def test_holds_a_handful(self):
        v = np.ones(3, dtype=complex)
        for count in range(1, 20):
            _responses(evaluation_grid(0.0, 1.0, count), v)
        assert _phases.cache_info().currsize == compwave.design._PHASE_MEMO == 4


@pytest.mark.parametrize("entry", [
    lambda angles: slow_time_response(np.ones(4), angles),
    lambda angles: design_matrix(angles, 4),
    lambda angles: design_from_vector(np.array([1, -1, 1j, 0.5]), angles),
    lambda angles: cross_channel_nulls([1, -1, 1, 1], [1, 2, 1j, 0.5], angles),
    lambda angles: validate_design(WaveformDesign([1, 1], [1, -1], grid=ResilienceGrid(angles, interval=(0, 2)))),
], ids=["slow_time_response", "design_matrix", "design_from_vector", "cross_channel_nulls", "validate_design"])
def test_two_dimensional_angles_rejected(entry):
    # flattened, a (2, 3) array of angles would pass for six constraint or evaluation angles
    with pytest.raises(ValueError, match=r"angles must be 1-D, got shape \(2, 3\)"):
        entry(np.linspace(0, 2, 6).reshape(2, 3))


@pytest.mark.parametrize("entry, what", [
    (lambda v: slow_time_response(v, [0.0, 1.0]), "coeffs"),
    (lambda v: WaveformDesign([1, -1, 1, 1], v), "weights"),
    (lambda v: discrete_ambiguity(([1, -1], [1, 1]), [1, -1, 1, 1], v, [0.0, 1.0]), "weights"),
    (extract_design, "zhat"),
    (snr_ratio, "weights"),
    (lambda v: design_from_lambda(np.eye(4, dtype=complex), v, ResilienceGrid.uniform(0.0, 2.0, 3)), "lambda"),
    (lambda v: snr_upper_bound(np.eye(4, 2, dtype=complex), v), "v"),
], ids=["slow_time_response", "WaveformDesign", "discrete_ambiguity", "extract_design", "snr_ratio",
        "design_from_lambda", "snr_upper_bound"])
@pytest.mark.parametrize("shape", [(2, 2), (1, 4, 1)], ids=["2-D", "3-D"])
def test_vectors_must_be_one_dimensional(entry, what, shape):
    # flattened, each of these four entries would pass for a 4-entry vector
    with pytest.raises(ValueError, match=rf"{what} must be 1-D, got shape {re.escape(str(shape))}"):
        entry(np.ones(shape))


def test_design_keeps_its_own_weights():
    # a later write to the caller's weights would otherwise reach the frozen design
    w = np.array([1.0, 2.0j, -0.5])
    design = WaveformDesign([1, -1, 1], w)
    w[:] = 9.0
    assert w.flags.writeable and np.array_equal(design.w, [1.0, 2.0j, -0.5])


class TestNullSpaceBasis:
    def test_one_constraint(self):
        Z = null_space_basis(np.array([[1.0, 1.0]], dtype=complex))
        assert Z.shape == (2, 1)
        assert abs(np.linalg.norm(Z[:, 0]) - 1.0) < 1e-12
        # spans [1, -1] direction
        assert abs(Z[0, 0] + Z[1, 0]) < 1e-12

    def test_columns_orthonormal(self):
        E = design_matrix(ResilienceGrid.uniform(0.0, 2.0, 47), 48)
        Z = null_space_basis(E)
        gram = Z.conj().T @ Z
        assert np.allclose(gram, np.eye(Z.shape[1]), atol=1e-10)

    def test_columns_annihilated(self):
        E = design_matrix(ResilienceGrid.uniform(0.0, 2.0, 47), 48)
        Z = null_space_basis(E)
        assert Z.shape[1] >= 1
        for u in range(Z.shape[1]):
            assert np.linalg.norm(E @ Z[:, u]) <= 1e-10

    def test_exact_nullity_on_spread_grid(self):
        # well-separated angles keep the matrix well conditioned, so the
        # numerical nullity equals N - M exactly
        grid = ResilienceGrid.uniform(0.4, 2.8, 4)
        Z = null_space_basis(design_matrix(grid, 8))
        assert Z.shape == (8, 4)

    def test_full_rank_raises(self):
        # four angles spread around the circle, four pulses: full rank
        E = design_matrix(ResilienceGrid(angles=[0.0, np.pi / 2, np.pi, 3 * np.pi / 2]), 4)
        with pytest.raises(EmptyNullSpaceError):
            null_space_basis(E)

    def test_error_is_runtime_error(self):
        assert issubclass(EmptyNullSpaceError, RuntimeError)

    def test_canonical_phase(self):
        E = design_matrix(ResilienceGrid.uniform(0.0, 2.0, 23), 24)
        Z = null_space_basis(E)
        for u in range(Z.shape[1]):
            pivot = Z[np.argmax(np.abs(Z[:, u])), u]
            assert abs(pivot.imag) < 1e-12 and pivot.real > 0

    def test_deterministic(self):
        E = design_matrix(ResilienceGrid.uniform(0.0, 2.0, 47), 48)
        assert np.array_equal(null_space_basis(E), null_space_basis(E))

    # The cut max(M, N) eps sigma_max alone sets U.  Measured (OpenBLAS 0.3.31, numpy 2.4, through
    # the pinned SVD of null_space_basis) sigma / cut for the last kept and the first cut singular value:
    #   N=24 [0,2] U=1 (2.19 / none: U comes from M = N - 1 alone)
    #   N=32 [0,2] U=5 (10.9 / 0.45)      N=40 [0,2] U=9 (7.2 / 0.48)
    #   N=48 [0,2] U=13 (2.60 / 0.22)     N=48 [0,pi] U=6 (7.75 / 0.41)
    #   N=96 [0,2] U=42 (3.47 / 0.57)     N=128 [0,2] U=62 (2.21 / 0.42)
    #   N=128 [0,pi] U=40 (4.81 / 0.84)
    # A LAPACK/BLAS build that moves U, or brings it within these margins, fails here by name.
    @pytest.mark.parametrize("n, hi, width", [
        (24, 2.0, 1), (32, 2.0, 5), (40, 2.0, 9), (48, 2.0, 13), (48, np.pi, 6),
        (96, 2.0, 42), (128, 2.0, 62), (128, np.pi, 40),
    ])
    def test_rank_cut_margins(self, n, hi, width):
        E = design_matrix(ResilienceGrid.uniform(0.0, hi, n - 1), n)
        assert null_space_basis(E).shape[1] == width
        with _one_blas_thread():
            sv = np.linalg.svd(E)[1]
        ratio = sv / (max(E.shape) * np.finfo(float).eps * sv[0])
        kept, cut = ratio[ratio > 1], ratio[ratio <= 1]
        assert kept.size + width == n
        assert kept[-1] >= 2
        if cut.size:
            assert cut[0] <= 0.9


# prints whether the OpenBLAS lookup ran at import, then digests of the N = 96/128 bases and an hcd result
_THREAD_PROBE = """
import hashlib
import numpy as np
import compwave
from compwave import ResilienceGrid, coordinate_descent, design_matrix, null_space_basis
print(compwave.design._blas_thread_setter.cache_info().currsize)
for n in (96, 128):
    Z = null_space_basis(design_matrix(ResilienceGrid.uniform(0.0, 2.0, n - 1), n))
    print(n, hashlib.sha256(Z.tobytes()).hexdigest())
    if n == 96:
        print(hashlib.sha256(coordinate_descent(Z, restarts=3, seed=0).best_lambda.tobytes()).hexdigest())
"""


class TestOneBlasThread:
    @staticmethod
    def count(setter) -> int:
        """The process's OpenBLAS thread count, read through the setter (which returns the previous count)."""
        current = setter(1)
        setter(current)
        return current

    @pytest.fixture
    def setter(self):
        setter = _blas_thread_setter()
        if setter is None:
            pytest.skip("numpy's BLAS is not a bundled OpenBLAS with openblas_set_num_threads_local")
        # a caller count of 2 makes the restore visible on a 1-CPU machine too
        before = setter(2)
        yield setter
        setter(before)

    def test_bits_do_not_depend_on_the_thread_count(self):
        # LAPACK's threaded SVD rounds differently from N = 72 on; pinned, 1 and 2 threads agree
        src = str(Path(compwave.design.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            outs.append(subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True,
                                       text=True, check=True).stdout)
        assert outs[0] == outs[1]
        assert outs[0].splitlines()[0] == "0"  # not looked up at import

    def test_pin_gives_back_the_callers_count(self, setter):
        with _one_blas_thread():
            assert self.count(setter) == 1
        assert self.count(setter) == 2
        with pytest.raises(RuntimeError), _one_blas_thread():
            raise RuntimeError
        assert self.count(setter) == 2

    def test_every_slow_time_product_runs_pinned(self, setter, monkeypatch, pair64, design_02):
        # every phases @ v product of each entry point runs on one thread, and the caller's count comes back;
        # from a cold memo the entry point makes one phase matrix, and an immediate repeat makes none and
        # returns the same bits
        counts = []

        class Recording(np.ndarray):
            def __matmul__(self, other):
                counts.append(TestOneBlasThread.count(setter))
                return np.asarray(self) @ other

        monkeypatch.setattr(compwave.design, "_phases", lambda angles, n: _phases(angles, n).view(Recording))
        p, w, grid, angles = design_02.p, design_02.w, design_02.grid, evaluation_grid(0.0, 2.0, 2001)
        for call, bits in ((lambda: discrete_ambiguity(pair64, p, w, angles), lambda a: a.values.tobytes()),
                           (lambda: polarimetric_ambiguities(pair64, p, w, angles),
                            lambda a: [c.values.tobytes() for c in a.channels.values()]),
                           (lambda: slow_time_response(design_02.z, angles), np.ndarray.tobytes),
                           (lambda: design_from_vector(design_02.z, grid), lambda d: json.dumps(d.to_dict())),
                           (lambda: validate_design(design_02), lambda r: json.dumps(r.to_dict())),
                           (lambda: cross_channel_nulls(p, w, grid), repr)):
            _phases.cache_clear()
            counts.clear()
            cold = bits(call())
            products = len(counts)
            assert products and counts == [1] * products and self.count(setter) == 2
            assert _phases.cache_info().misses == 1
            assert bits(call()) == cold and counts == [1] * 2 * products and self.count(setter) == 2
            assert _phases.cache_info().misses == 1

    def test_overlapping_pins_restore_once(self, setter):
        # the setter acts on the whole process: the first pin out, while another runs, must not restore
        entered, leave = threading.Event(), threading.Event()

        def other():
            with _one_blas_thread():
                entered.set()
                leave.wait(10)

        worker = threading.Thread(target=other)
        with _one_blas_thread():
            worker.start()
            assert entered.wait(10)
        assert self.count(setter) == 1
        leave.set()
        worker.join(10)
        assert not worker.is_alive() and self.count(setter) == 2

    def test_pins_from_many_threads_keep_one_count(self, setter):
        # more threads than cores, switching often: a lost depth update would let a pin run at the
        # caller's count, or leave the process at 1 thread
        seen, start = [], threading.Barrier(8)

        def pinning():
            start.wait(10)
            for _ in range(500):
                with _one_blas_thread():
                    seen.append(self.count(setter))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=pinning) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == [1] * 4000 and self.count(setter) == 2


class TestExtractDesign:
    def test_example(self):
        p, w = extract_design(np.array([0.5, -0.3 + 0.1j]))
        assert np.array_equal(p, [1, -1])
        assert np.allclose(w, [0.5, 0.3 - 0.1j])

    def test_zero_real_part_maps_to_plus(self):
        p, w = extract_design(np.array([1j]))
        assert p[0] == 1 and w[0] == 1j

    def test_product_round_trip(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        p, w = extract_design(z)
        assert np.array_equal(p * w, z)

    def test_magnitudes_preserved(self):
        rng = np.random.default_rng(12)
        z = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        _, w = extract_design(z)
        assert np.array_equal(np.abs(w), np.abs(z))

    def test_weights_have_nonnegative_real(self):
        rng = np.random.default_rng(13)
        z = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        _, w = extract_design(z)
        assert np.all(w.real >= 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            extract_design(np.zeros(4, dtype=complex))


class TestNullSpaceDesign:
    def test_small_design(self):
        design = null_space_design(4, (0.0, 1.0))
        assert design.n_pulses == 4
        assert design.grid.m == 3
        assert design.residual <= 1e-10
        assert np.all(np.isin(design.p, [-1, 1]))

    def test_standard_design(self, design_02):
        assert design_02.grid.m == 47
        assert design_02.grid.interval == (0.0, 2.0)
        assert design_02.residual <= 1e-10
        assert design_02.scheme is None

    def test_mixed_signs_and_uneven_weights(self, design_02):
        # the emitted schedule flips sign along the train and the weight
        # magnitudes are far from uniform
        assert np.any(design_02.p == 1) and np.any(design_02.p == -1)
        mags = np.abs(design_02.w)
        assert mags.max() > 5 * mags.min()

    def test_overconstrained_raises(self):
        with pytest.raises(EmptyNullSpaceError):
            null_space_design(4, (0.0, 1.0), constraints=5)

    def test_delay_axis_same_matrix(self):
        doppler = null_space_design(8, (0.0, 2.0))
        delay = null_space_design(8, (0.0, 2.0), kind="delay")
        assert delay.grid.kind == "delay"
        assert np.array_equal(doppler.p, delay.p)
        assert np.array_equal(doppler.w, delay.w)

    def test_too_few_pulses(self):
        with pytest.raises(ValueError):
            null_space_design(1, (0.0, 1.0))
        with pytest.raises(ValueError):
            null_space_design(4, (0.0, 1.0), constraints=0)


class TestWaveformDesign:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            WaveformDesign(p=[1, 2], w=[1.0, 1.0])
        with pytest.raises(ValueError):
            WaveformDesign(p=[1, -1], w=[1.0])
        with pytest.raises(ValueError):
            WaveformDesign(p=[1, -1], w=[0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WaveformDesign(p=[1, -1], w=[bad, 1.0])

    def test_z_is_elementwise_product(self):
        design = WaveformDesign(p=[1, -1], w=[0.5, 2.0])
        assert np.array_equal(design.z, [0.5, -2.0])

    def test_round_trip(self, tmp_path, design_02):
        path = tmp_path / "design.json"
        design_02.save(path)
        loaded = WaveformDesign.load(path)
        assert np.array_equal(loaded.p, design_02.p)
        assert np.array_equal(loaded.w, design_02.w)
        assert loaded.grid.interval == design_02.grid.interval
        assert loaded.grid.m == design_02.grid.m
        assert loaded.grid.kind == design_02.grid.kind
        assert loaded.residual == design_02.residual

    def test_round_trip_with_scheme(self, tmp_path):
        from compwave import binomial_design

        path = tmp_path / "bd.json"
        bd = binomial_design(6)
        bd.save(path)
        loaded = WaveformDesign.load(path)
        assert loaded.scheme == "bd"
        assert loaded.grid is None
        assert np.array_equal(loaded.w, bd.w)

    def test_json_fields(self, tmp_path, design_02):
        path = tmp_path / "design.json"
        design_02.save(path)
        data = json.loads(path.read_text())
        assert data["N"] == 48
        assert data["kind"] == "doppler"
        assert data["interval"] == [0.0, 2.0]
        assert data["M"] == 47
        assert len(data["p"]) == 48 and set(data["p"]) <= {1, -1}
        assert len(data["w"]) == 48 and len(data["w"][0]) == 2

    def test_uniform_grid_stores_no_angles(self, tmp_path, design_02):
        path = tmp_path / "design.json"
        design_02.save(path)
        assert "angles" not in json.loads(path.read_text())

    def test_round_trip_non_uniform_grid(self, tmp_path):
        grid = ResilienceGrid([0.0, 0.1, 0.2, 1.9, 2.0], interval=(0.0, 2.0), kind="delay")
        design = design_from_vector(null_space_basis(design_matrix(grid, 8))[:, 0], grid)
        path = tmp_path / "design.json"
        design.save(path)
        loaded = WaveformDesign.load(path)
        assert np.array_equal(loaded.grid.angles, grid.angles)
        assert loaded.grid.interval == grid.interval and loaded.grid.kind == "delay"
        assert validate_design(loaded).ok

    def test_reads_files_without_angles(self, tmp_path, design_02):
        data = design_02.to_dict()
        data.pop("angles", None)
        loaded = WaveformDesign.from_dict(data)
        assert np.array_equal(loaded.grid.angles, design_02.grid.angles)

    @pytest.mark.parametrize("fields, message", [
        ({"N": 5}, "N = 5 but p has 2 entries"),
        ({"angles": [0.0, 0.5, 1.0]}, "M = 1 but angles has 3 entries"),
        ({"residual": "tiny"}, "residual must be null or a finite number, got 'tiny'"),
        ({"residual": float("nan")}, "residual must be null or a finite number, got nan"),
        ({"scheme": 7}, "scheme must be null or a string, got 7"),
    ], ids=["N", "M", "residual-text", "residual-nan", "scheme"])
    def test_file_fields_checked_on_load(self, tmp_path, fields, message):
        data = {"N": 2, "interval": [0, 1], "M": 1, "p": [1, -1], "w": [[1, 0], [1, 0]], "residual": 0.5}
        assert WaveformDesign.from_dict(data).residual == 0.5
        path = tmp_path / "design.json"
        path.write_text(json.dumps({**data, **fields}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            WaveformDesign.load(path)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="bad.json"):
            WaveformDesign.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            WaveformDesign.load(tmp_path / "absent.json")


class TestValidateDesign:
    def test_emitted_design_passes(self, design_02):
        report = validate_design(design_02)
        assert report.ok
        assert report.nullspace_residual <= 1e-10
        assert report.mainlobe_residual > 1e-3

    def test_degenerate_weights_flagged(self):
        # put the null vector in w itself with a trivial schedule: E w ~ 0,
        # so the mainlobe response dies along with the sidelobes
        grid = ResilienceGrid.uniform(0.0, 2.0, 7)
        E = design_matrix(grid, 8)
        z = null_space_basis(E)[:, 0]
        bad = WaveformDesign(p=np.ones(8, dtype=int), w=z, grid=grid)
        report = validate_design(bad)
        assert report.nullspace_ok
        assert not report.mainlobe_ok
        assert not report.ok

    def test_report_dict(self, design_02):
        d = validate_design(design_02).to_dict()
        assert d["ok"] is True
        assert set(d) == {
            "nullspace_residual", "mainlobe_residual", "null_tol",
            "mainlobe_tol", "nullspace_ok", "mainlobe_ok", "ok",
        }

    def test_requires_grid_or_matrix(self):
        design = WaveformDesign(p=[1, -1], w=[1.0, 1.0])
        with pytest.raises(ValueError):
            validate_design(design)


class TestSpanMembership:
    def test_null_space_closed_under_combination(self):
        grid = ResilienceGrid.uniform(0.0, 2.0, 23)
        E = design_matrix(grid, 24)
        Z = null_space_basis(E)
        rng = np.random.default_rng(5)
        lam = rng.standard_normal(Z.shape[1]) + 1j * rng.standard_normal(Z.shape[1])
        combo = Z @ lam
        assert np.linalg.norm(E @ combo) <= 1e-10 * np.linalg.norm(combo)

    def test_orthogonal_complement_not_annihilated(self):
        grid = ResilienceGrid.uniform(0.0, 2.0, 23)
        E = design_matrix(grid, 24)
        Z = null_space_basis(E)
        rng = np.random.default_rng(6)
        v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        v -= Z @ (Z.conj().T @ v)
        assert np.linalg.norm(E @ v) > 1e-3 * np.linalg.norm(v)

    def test_design_from_vector_records_residual(self):
        grid = ResilienceGrid.uniform(0.0, 2.0, 7)
        E = design_matrix(grid, 8)
        z = null_space_basis(E)[:, 0]
        design = design_from_vector(z, grid)
        assert design.residual == pytest.approx(
            np.linalg.norm(E @ design.z) / np.linalg.norm(design.w)
        )
