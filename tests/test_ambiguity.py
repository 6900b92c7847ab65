import inspect
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compwave import (
    AmbiguityMap,
    ResilienceGrid,
    basis_selection,
    binomial_design,
    closed_form_ambiguity,
    delay_ambiguity,
    design_from_vector,
    design_matrix,
    discrete_ambiguity,
    evaluation_grid,
    as_biphase,
    generate_golay_pair,
    is_golay_pair,
    null_space_basis,
    null_space_design,
    polarimetric_ambiguities,
    sidelobe_metrics,
    slow_time_response,
    write_columns_csv,
    write_two_column_csv,
)
from compwave import ambiguity
from compwave.ambiguity import _BLOCK
from compwave.cli import main
from compwave.design import _phase_matrix


def per_pulse_oracle(x, y, p, w, angles):
    """Independent construction: each pulse contributes its own sequence's
    autocorrelation, scaled by w_n e^{j n theta}."""
    x, y = np.asarray(x), np.asarray(y)
    cx = np.correlate(x, x, "full").astype(float)
    cy = np.correlate(y, y, "full").astype(float)
    out = np.zeros((2 * x.size - 1, len(angles)), dtype=complex)
    for j, theta in enumerate(angles):
        for n in range(len(p)):
            c = cx if p[n] == 1 else cy
            out[:, j] += w[n] * np.exp(1j * n * theta) * c
    return out


class TestSlowTimeResponse:
    def test_zero_coeffs(self):
        assert np.all(slow_time_response([0.0, 0.0], [0.3, 1.0]) == 0)

    def test_first_unit_vector_is_constant(self):
        vals = slow_time_response([1.0, 0.0, 0.0], [0.0, 0.7, 2.0])
        assert np.allclose(vals, 1.0)

    def test_single_harmonic(self):
        angles = np.array([0.0, 0.5, 1.2])
        assert np.allclose(slow_time_response([0.0, 1.0], angles), np.exp(1j * angles))

    def test_linearity(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        angles = rng.uniform(0, np.pi, 5)
        assert np.allclose(
            slow_time_response(a + b, angles),
            slow_time_response(a, angles) + slow_time_response(b, angles),
        )


class TestEvaluationGrid:
    def test_default_like(self):
        grid = evaluation_grid(0.0, 2.0, 2001)
        assert grid.size == 2001 and grid[0] == 0.0 and grid[-1] == 2.0

    def test_single_point(self):
        assert evaluation_grid(0.4, 9.9, 1).tolist() == evaluation_grid(0.4, 9.9, 1.0).tolist() == [0.4]

    def test_rejects_empty(self):
        # a count below 1, and a count or constraint number that is not an integer (refused, not truncated)
        for build in (lambda: evaluation_grid(0.0, 1.0, 0),
                      lambda: evaluation_grid(0.0, 1.0, 2.5),
                      lambda: evaluation_grid(0.0, 1.0, float("nan")),
                      lambda: evaluation_grid(0.0, 1.0, float("inf")),
                      lambda: ResilienceGrid.uniform(0.0, 2.0, 3.7),
                      lambda: null_space_design(8, (0.0, 2.0), constraints=3.9)):
            with pytest.raises(ValueError, match="count must be at least 1|is not an integer"):
                build()

    @pytest.mark.parametrize("lo, hi, count", [(2, 0, 5), (2, 0, 1), (0, float("nan"), 5)])
    def test_rejects_reversed_endpoints(self, lo, hi, count):
        with pytest.raises(ValueError, match="out of order"):
            evaluation_grid(lo, hi, count)

    # the last pair's width hi - lo overflows, and linspace would fill the grid with nan
    @pytest.mark.parametrize("lo, hi", [(0, float("inf")), (-float("inf"), 0), (-float("inf"), float("inf")),
                                        (-1e308, 1e308)])
    def test_rejects_infinite_endpoints(self, lo, hi):
        # a constraint grid's interval, stated or taken from its angles, too
        for build in (lambda: evaluation_grid(lo, hi, 3), lambda: ResilienceGrid(angles=[0.0], interval=(lo, hi)),
                      lambda: ResilienceGrid(angles=[lo, hi])):
            with pytest.raises(ValueError, match="must be finite"):
                build()


class TestDiscreteAmbiguity:
    def test_matches_per_pulse_oracle(self):
        rng = np.random.default_rng(22)
        pair = generate_golay_pair(3)
        p = rng.choice([-1, 1], size=5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        angles = rng.uniform(0, 2 * np.pi, 7)
        amap = discrete_ambiguity(pair, p, w, angles)
        assert np.allclose(amap.values, per_pulse_oracle(pair.x, pair.y, p, w, angles), atol=1e-12)

    def test_uniform_weights_peak(self, pair64):
        amap = discrete_ambiguity(pair64, np.ones(10, dtype=int), np.ones(10), [0.0])
        assert amap.values[63, 0] == pytest.approx(64 * 10)

    def test_mainlobe_row_is_weight_response(self, pair64):
        rng = np.random.default_rng(23)
        p = rng.choice([-1, 1], size=8)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        angles = np.linspace(0, np.pi, 11)
        amap = discrete_ambiguity(pair64, p, w, angles)
        assert np.allclose(amap.mainlobe, 64 * slow_time_response(w, angles), rtol=1e-12)

    def test_suppressed_at_grid_angles(self, pair64, design_02):
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, design_02.grid.angles)
        assert amap.sidelobe_peaks().max() <= 1e-9 * amap.peak

    def test_dimension_mismatch(self, pair64):
        with pytest.raises(ValueError):
            discrete_ambiguity(pair64, [1, -1], [1.0], [0.0])
        with pytest.raises(ValueError):
            discrete_ambiguity(([1, 1], [1, -1, 1]), [1], [1.0], [0.0])


@pytest.mark.parametrize("entry", [discrete_ambiguity, closed_form_ambiguity, delay_ambiguity,
                                   polarimetric_ambiguities])
def test_two_dimensional_angles_rejected(pair64, design_02, entry):
    # a 2-D angle axis would reach the CSV writers and angle_index as a map that cannot be read
    with pytest.raises(ValueError, match=r"angles must be 1-D, got shape \(2, 3\)"):
        entry(pair64, design_02.p, design_02.w, np.linspace(0, 2, 6).reshape(2, 3))


class TestClosedForm:
    @pytest.mark.parametrize("log2_length,n_pulses", [(1, 3), (3, 8), (5, 12)])
    def test_agrees_with_direct(self, log2_length, n_pulses):
        rng = np.random.default_rng(24 + log2_length)
        pair = generate_golay_pair(log2_length)
        p = rng.choice([-1, 1], size=n_pulses)
        w = rng.standard_normal(n_pulses) + 1j * rng.standard_normal(n_pulses)
        angles = rng.uniform(0, 2 * np.pi, 9)
        direct = discrete_ambiguity(pair, p, w, angles)
        closed = closed_form_ambiguity(pair, p, w, angles)
        scale = np.abs(closed.values).max()
        assert np.abs(direct.values - closed.values).max() <= 1e-12 * scale

    def test_zero_lag_row_ignores_schedule(self, pair64):
        rng = np.random.default_rng(25)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        angles = np.linspace(0, 2, 7)
        a = closed_form_ambiguity(pair64, np.array([1, 1, 1, -1, -1, 1]), w, angles)
        b = closed_form_ambiguity(pair64, np.array([-1, 1, -1, 1, -1, 1]), w, angles)
        assert np.array_equal(a.mainlobe, b.mainlobe)

    def test_rejects_non_complementary_pair(self):
        with pytest.raises(ValueError):
            closed_form_ambiguity(([1, 1], [1, 1]), [1, -1], [1.0, 1.0], [0.0])

    def test_nonzero_lag_bound(self):
        # |A(k != 0, theta)| <= L |f_z(theta)| for complementary pairs
        rng = np.random.default_rng(26)
        for _ in range(20):
            pair = generate_golay_pair(int(rng.integers(1, 5)))
            n = int(rng.integers(2, 9))
            p = rng.choice([-1, 1], size=n)
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            angles = rng.uniform(0, 2 * np.pi, 5)
            amap = discrete_ambiguity(pair, p, w, angles)
            fz = np.abs(slow_time_response(p * w, angles))
            bound = pair.length * fz + 1e-9
            side = np.delete(np.abs(amap.values), pair.length - 1, axis=0)
            assert np.all(side <= bound[None, :])


class TestDelayAxis:
    def test_identical_algebra(self, pair64, design_02):
        angles = np.linspace(0, 2, 31)
        doppler = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        delay = delay_ambiguity(pair64, design_02.p, design_02.w, angles)
        assert np.array_equal(doppler.values, delay.values)
        assert delay.kind == "delay"

    def test_zero_mismatch_column(self, pair64):
        rng = np.random.default_rng(27)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        bmap = delay_ambiguity(pair64, np.ones(5, dtype=int), w, [0.0])
        assert bmap.values[63, 0] == pytest.approx(64 * w.sum(), rel=1e-12)


class TestAmbiguityMap:
    def _small_map(self):
        values = np.array([[1.0, 0.5], [4.0, 2.0], [0.25, 1.0]], dtype=complex)
        return AmbiguityMap(values=values, angles=[0.0, 1.0], n_pulses=2)

    def test_axes(self):
        amap = self._small_map()
        assert amap.sequence_length == 2
        assert np.array_equal(amap.lags, [-1, 0, 1])
        assert amap.peak == 4.0

    def test_peak_is_computed_once(self, pair64, design_02):
        angles = np.linspace(0.0, 2.0, 11)
        amb = polarimetric_ambiguities(pair64, design_02.p, design_02.w, angles)
        maps = {"built": discrete_ambiguity(pair64, design_02.p, design_02.w, angles), "mirrored": amb.hv,
                "cross": amb.vh, "dense": self._small_map()}
        for label, amap in maps.items():
            assert "peak" not in vars(amap), label
            assert amap.peak == np.abs(amap.values).max(), label
            assert vars(amap)["peak"] is amap.peak, label  # kept: the rows it reads are read-only

    def test_db_normalization(self):
        db = self._small_map().db
        assert db.max() == 0.0
        assert db[0, 0] == pytest.approx(20 * np.log10(1.0 / 4.0))

    def test_db_of_zero_cell_is_minus_inf(self):
        amap = AmbiguityMap(values=np.array([[0.0], [1.0], [0.0]]), angles=[0.0])
        assert np.isneginf(amap.db[0, 0])

    def test_all_zero_map_rejected_by_db(self):
        amap = AmbiguityMap(values=np.zeros((3, 2)), angles=[0.0, 1.0])
        with pytest.raises(ValueError):
            amap.db
        with pytest.raises(ValueError):
            sidelobe_metrics(amap)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_peak_rejected_by_db(self, tmp_path, bad):
        amap = AmbiguityMap(values=np.array([[1.0, bad], [2.0, 0.5], [1.0, 0.0]]), angles=[0.0, 1.0])
        with pytest.raises(ValueError):
            amap.db
        with pytest.raises(ValueError):
            amap.db_to_csv(tmp_path / "db.csv")
        assert not (tmp_path / "db.csv").exists()

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            AmbiguityMap(values=np.zeros((4, 2)), angles=[0.0, 1.0])
        with pytest.raises(ValueError):
            AmbiguityMap(values=np.zeros((3, 2)), angles=[0.0])
        with pytest.raises(ValueError, match=r"angles must be 1-D, got shape \(1, 2\)"):
            AmbiguityMap(values=np.zeros((3, 2)), angles=[[0.0, 1.0]])

    def test_caller_values_and_index_stay_the_callers(self):
        # the map keeps a read-only copy: the caller's array stays writable, and writing it leaves the map as it was
        dense = np.array([[1.0, 0.5], [4.0, 2.0], [0.25, 1.0]], dtype=complex)
        wrapped = AmbiguityMap(values=dense, angles=[0.0, 1.0])
        assert dense.flags.writeable
        dense[:] = 0.0
        assert np.array_equal(wrapped.values, [[1.0, 0.5], [4.0, 2.0], [0.25, 1.0]]) and wrapped.peak == 4.0
        assert not wrapped.values.flags.writeable
        assert np.array_equal(wrapped.lags, [-1, 0, 1]) and np.array_equal(wrapped.mainlobe, [4.0, 2.0])

    def test_public_constructor_takes_no_row_index(self):
        # only the library's builders store a map factored; the public map wraps a dense array
        with pytest.raises(TypeError):
            AmbiguityMap(values=[[1.0], [5.0]], angles=[0.0], index=[0, 1, 0])

    def test_caller_angles_stay_the_callers(self, pair64, design_02):
        angles = np.linspace(0.0, 2.0, 11)
        maps = [discrete_ambiguity(pair64, design_02.p, design_02.w, angles),
                closed_form_ambiguity(pair64, design_02.p, design_02.w, angles),
                delay_ambiguity(pair64, design_02.p, design_02.w, angles),
                *polarimetric_ambiguities(pair64, design_02.p, design_02.w, angles).channels.values(),
                AmbiguityMap(values=np.ones((3, 11)), angles=angles)]
        assert angles.flags.writeable
        angles[:] = -1.0
        for amap in maps:
            assert amap.angles is not angles and not amap.angles.flags.writeable
            assert np.array_equal(amap.angles, np.linspace(0.0, 2.0, 11))

    def test_index_lookup(self):
        amap = self._small_map()
        assert amap.lag_index(0) == 1
        assert amap.angle_index(1.0) == 1
        with pytest.raises(ValueError):
            amap.lag_index(5)
        with pytest.raises(ValueError):
            amap.angle_index(0.37)


class TestSidelobeMetrics:
    def test_full_interval_suppression(self, pair64, design_0pi):
        angles = evaluation_grid(0.0, np.pi, 2001)
        metrics = sidelobe_metrics(discrete_ambiguity(pair64, design_0pi.p, design_0pi.w, angles))
        assert metrics.prsl_db.max() <= -80.0

    def test_single_pulse_constant(self, pair64):
        # one pulse: the map is C_x w_0, so the sidelobe ratio is fixed by
        # the sequence alone
        angles = np.linspace(0, np.pi, 9)
        metrics = sidelobe_metrics(discrete_ambiguity(pair64, [1], [1.0], angles))
        expected = 20 * np.log10(13 / 64)
        assert np.allclose(metrics.prsl_db, expected)

    def test_reference_peak_shifts_scale(self, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 101)
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        own = sidelobe_metrics(amap)
        halved = sidelobe_metrics(amap, reference_peak=own.reference_peak / 2)
        assert np.allclose(halved.prsl_db - own.prsl_db, 20 * np.log10(2))

    @pytest.mark.parametrize("reference", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_unusable_reference_peak(self, pair64, design_02, reference):
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, evaluation_grid(0.0, 2.0, 11))
        with pytest.raises(ValueError, match="reference peak must be finite and positive"):
            sidelobe_metrics(amap, reference_peak=reference)

    def test_profile_magnitudes(self, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 51)
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        metrics = sidelobe_metrics(amap)
        assert np.array_equal(metrics.profile, np.abs(amap.mainlobe))

    def test_length_one_pair_has_no_sidelobes(self):
        amap = discrete_ambiguity(([1], [1]), [1, -1], [1.0, 1.0], [0.0, 1.0])
        for summary in (amap.sidelobe_peaks, lambda: sidelobe_metrics(amap)):
            with pytest.raises(ValueError, match="length-1 pair has no sidelobes"):
                summary()


class TestExports:
    def test_map_csv_round_trip(self, tmp_path, pair64):
        rng = np.random.default_rng(28)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        angles = np.linspace(0, 2, 5)
        amap = discrete_ambiguity(pair64, [1, -1, 1, 1], w, angles)
        path = tmp_path / "map.csv"
        amap.to_csv(path)
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "lag"
        assert [float(tok) for tok in header[1:]] == pytest.approx(angles.tolist())
        assert len(lines) == 1 + 127
        row = lines[amap.lag_index(0) + 1].split(",")
        assert int(row[0]) == 0
        parsed = np.array([complex(tok) for tok in row[1:]])
        assert np.array_equal(parsed, amap.values[amap.lag_index(0)])

    def test_db_csv(self, tmp_path):
        amap = AmbiguityMap(values=np.array([[1.0], [2.0], [0.5]]), angles=[0.3])
        path = tmp_path / "db.csv"
        amap.db_to_csv(path)
        rows = path.read_text().strip().split("\n")
        assert float(rows[2].split(",")[1]) == 0.0

    def test_db_csv_external_reference(self, tmp_path):
        amap = AmbiguityMap(values=np.array([[1.0], [2.0], [0.5]]), angles=[0.3])
        path = tmp_path / "db.csv"
        amap.db_to_csv(path, reference=4.0)
        rows = path.read_text().strip().split("\n")
        assert float(rows[2].split(",")[1]) == pytest.approx(20 * np.log10(0.5))
        for bad in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError):
                amap.db_to_csv(tmp_path / "bad.csv", reference=bad)
        assert not (tmp_path / "bad.csv").exists()

    def test_metadata_sidecar(self, tmp_path, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 11)
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        path = tmp_path / "meta.json"
        amap.save_metadata(path)
        meta = json.loads(path.read_text())
        assert meta["L"] == 64 and meta["N"] == 48
        assert meta["kind"] == "doppler"
        assert meta["interval"] == [0.0, 2.0]
        assert meta["normalization_peak"] == amap.peak

    def test_metrics_csv(self, tmp_path, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 7)
        metrics = sidelobe_metrics(discrete_ambiguity(pair64, design_02.p, design_02.w, angles))
        ppath, spath = tmp_path / "profile.csv", tmp_path / "prsl.csv"
        metrics.profile_to_csv(ppath)
        metrics.prsl_to_csv(spath)
        assert ppath.read_text().splitlines()[0] == "angle,mainlobe_magnitude"
        rows = spath.read_text().splitlines()
        assert rows[0] == "angle,prsl_db"
        assert len(rows) == 8
        assert float(rows[1].split(",")[1]) == metrics.prsl_db[0]

    def test_seventeen_digit_cells(self, tmp_path):
        path = tmp_path / "cols.csv"
        value = 0.1234567890123456789
        write_two_column_csv(path, [value], [value])
        token = path.read_text().splitlines()[1].split(",")[0]
        assert float(token) == value

    def test_two_column_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_two_column_csv(tmp_path / "x.csv", [1.0], [1.0, 2.0])

    def test_columns_csv_label_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_columns_csv(tmp_path / "x.csv", ["a", "b"], [[1.0]])


# Byte-exact oracle for the CSV writers: the per-cell formatters below are
# the file format's definition, applied one cell at a time.
def ref_float(v) -> str:
    return format(float(v), ".17g")


def ref_complex(c) -> str:
    c = complex(c)
    return f"{c.real:.17g}{c.imag:+.17g}j"


def ref_map_csv(angles, values, cell) -> str:
    L = (len(values) + 1) // 2
    lines = ["lag," + ",".join(ref_float(a) for a in angles)]
    for lag, row in zip(range(-(L - 1), L), values):
        lines.append(f"{lag}," + ",".join(cell(v) for v in row))
    return "\n".join(lines) + "\n"


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.0, -0.1, 1e300]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))


def _negate_zeros(a):
    return np.where(a == 0, -a, a)


@st.composite
def repeated_row_maps(draw):
    """Maps whose rows repeat, including a pair of rows that differ only in
    the sign of a zero; cells mix +-0, +-inf, nan and subnormals."""
    L = draw(st.integers(2, 4))
    cols = draw(st.integers(1, 4))
    cells = st.lists(floats, min_size=2 * cols, max_size=2 * cols)
    distinct = [np.array(draw(cells)) for _ in range(draw(st.integers(1, 3)))]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=2 * L - 1, max_size=2 * L - 1))
    rows = [distinct[i] for i in picks]
    rows[0] = np.concatenate([[0.0], rows[0][1:]])
    rows[1] = _negate_zeros(rows[0])
    rows[-1] = rows[0]
    values = np.array(rows).view(complex)
    angles = np.array(draw(st.lists(floats, min_size=cols, max_size=cols)))
    return AmbiguityMap(values=values, angles=angles)


# Cells for the block formatter's digits, |v| in [1e-28, 1e17): powers of ten and their neighbouring
# doubles (the notation switches at 1e-5/1e-4 and 1e16 among them), exact 18-digit ties (odd m / 4
# or 8 near 2^50, small m 2^-24), +-0 and +-inf; and, at most one per row, a cell outside that range
# (1e17, 3-digit exponents, -nan), which sends its row to the % template.
POWERS = np.array([float(f"1e{x}") for x in range(-30, 21)])
NEAR_POWERS = np.concatenate([POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, np.inf)])
INSIDE = NEAR_POWERS[(NEAR_POWERS >= 1e-28) & (NEAR_POWERS < 1e17)]
INSIDE = np.concatenate([INSIDE, -INSIDE, [0.0, -0.0, np.inf, -np.inf]])
OUTSIDE = np.concatenate([NEAR_POWERS[(NEAR_POWERS < 1e-28) | (NEAR_POWERS >= 1e17)],
                          [1.5e-100, -2.5e123, 7e-101, -np.nan]])
fast_cells = st.one_of(
    st.sampled_from(INSIDE.tolist()),
    st.tuples(st.floats(1.0, 10.0), st.integers(-28, 16), st.sampled_from([1.0, -1.0])).map(
        lambda t: t[2] * t[0] * 10.0 ** t[1]),
    st.tuples(st.integers(2 ** 49, 2 ** 52 - 1), st.sampled_from([4.0, 8.0])).map(lambda t: (2 * t[0] + 1) / t[1]),
    st.integers(1, 64).map(lambda m: m * 2.0 ** -24),
)


@st.composite
def fast_path_rows(draw):
    """Three rows of an even number of cells, some rows longer than one formatting block."""
    width = 2 * draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(st.lists(fast_cells, min_size=width, max_size=width), min_size=3, max_size=3)))
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, 2)), draw(st.integers(0, width - 1))] = draw(st.sampled_from(OUTSIDE.tolist()))
    if draw(st.booleans()):
        rows = np.tile(rows, _BLOCK // width + 1)
    return rows


EDGE_MAP = AmbiguityMap(
    values=np.array([[0.0, complex(-0.0, 5e-324)],
                     [complex(np.inf, -0.0), complex(np.nan, 1.0)],
                     [complex(-0.0, 0.0), complex(-0.0, 5e-324)]]),
    angles=[-0.0, 2.2250738585072014e-308],
)


def sharing_one_memo(maps) -> tuple:
    """(copies of ``maps`` that share one row-text memo, as the maps of one builder call do; the memo)."""
    texts = {}
    return [AmbiguityMap._built(m._rows, m.angles, m.kind, m.n_pulses, m._index, texts) for m in maps], texts


class TestCsvOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(amap=repeated_row_maps(), reference=st.floats(min_value=5e-324, max_value=1e308))
    @example(amap=EDGE_MAP, reference=1.0)
    def test_map_writers_match_per_cell_reference(self, tmp_path_factory, amap, reference):
        out = tmp_path_factory.mktemp("oracle")
        amap.to_csv(out / "map.csv")
        assert (out / "map.csv").read_text() == ref_map_csv(amap.angles, amap.values, ref_complex)
        mag = np.abs(amap.values)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            amap.db_to_csv(out / "ref.csv", reference=reference)
            expected = ref_map_csv(amap.angles, 20.0 * np.log10(mag / reference), ref_float)
            assert (out / "ref.csv").read_text() == expected
            if not (np.isfinite(mag.max()) and mag.max() > 0):
                with pytest.raises(ValueError):
                    amap.db_to_csv(out / "db.csv")
                return
            amap.db_to_csv(out / "db.csv")
            expected = ref_map_csv(amap.angles, 20.0 * np.log10(mag / mag.max()), ref_float)
        assert (out / "db.csv").read_text() == expected

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(maps=st.lists(repeated_row_maps(), min_size=1, max_size=3),
           reference=st.floats(min_value=5e-324, max_value=1e308))
    def test_shared_memo_matches_per_cell_reference(self, tmp_path_factory, maps, reference):
        # each map also comes with a twin that differs only in the sign of its zeros
        twins = [AmbiguityMap(values=_negate_zeros(m.values.view(float)).view(complex),
                              angles=_negate_zeros(m.angles)) for m in maps]
        out = tmp_path_factory.mktemp("memo")
        everything = maps + [EDGE_MAP] + twins
        for order in (everything, everything[::-1]):
            for amap in sharing_one_memo(order)[0]:
                amap.to_csv(out / "map.csv")
                assert (out / "map.csv").read_text() == ref_map_csv(amap.angles, amap.values, ref_complex)
                mag = np.abs(amap.values)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    amap.db_to_csv(out / "ref.csv", reference=reference)
                    expected = ref_map_csv(amap.angles, 20.0 * np.log10(mag / reference), ref_float)
                    assert (out / "ref.csv").read_text() == expected
                    if np.isfinite(mag.max()) and mag.max() > 0:
                        amap.db_to_csv(out / "db.csv")
                        expected = ref_map_csv(amap.angles, 20.0 * np.log10(mag / mag.max()), ref_float)
                        assert (out / "db.csv").read_text() == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=fast_path_rows())
    def test_block_formatter_matches_per_cell_reference(self, tmp_path_factory, rows):
        out = tmp_path_factory.mktemp("block")
        labels = [f"c{i}" for i in range(rows.shape[1])]
        write_columns_csv(out / "cols.csv", labels, rows.T)
        expected = [",".join(labels)] + [",".join(ref_float(v) for v in row) for row in rows]
        assert (out / "cols.csv").read_text() == "\n".join(expected) + "\n"
        amap = AmbiguityMap(values=rows.view(complex), angles=rows[0, ::2])
        amap.to_csv(out / "map.csv")
        assert (out / "map.csv").read_text() == ref_map_csv(amap.angles, amap.values, ref_complex)

    @pytest.mark.parametrize("shift", [-0.5, 0.5])
    def test_exponent_does_not_rest_on_log10(self, tmp_path, monkeypatch, shift):
        # the exponent must not rest on log10's accuracy (it is read from the binary exponent): a log10
        # off by half a decade, either way, changes no cell
        cells = np.concatenate([INSIDE, 10.0 ** np.linspace(-28, 16.9, 301)])
        log10 = np.log10
        monkeypatch.setattr(ambiguity.np, "log10", lambda x: log10(x) + shift)
        write_columns_csv(tmp_path / "cols.csv", ["v"], [cells])
        monkeypatch.undo()
        assert (tmp_path / "cols.csv").read_text() == "v\n" + "".join(ref_float(v) + "\n" for v in cells)

    def test_near_ties_of_inexact_products_go_to_the_template(self, tmp_path, monkeypatch):
        # doubles a with a 10^k within 2^-52 of a half-integer, k > 22: m 5^k = 2^(s-1) + d (mod 2^s)
        cells = []
        for k in (23, 24, 26, 30, 36, 44):
            for s in (52, 53):
                for d in (1, -1, 3, -3, 7):
                    m = (2 ** (s - 1) + d) * pow(5 ** k, -1, 2 ** s) % 2 ** s
                    if m < 2 ** 53 and 10 ** 16 <= m * 5 ** k / 2 ** s < 10 ** 17:
                        cells.append(m * 2.0 ** -(s + k))
        assert len(cells) >= 5
        printed = []
        printf_row = ambiguity._printf_row

        def counted(row, cell_fmt):
            printed.append(row)
            return printf_row(row, cell_fmt)

        monkeypatch.setattr(ambiguity, "_printf_row", counted)
        write_columns_csv(tmp_path / "cols.csv", ["v"], [cells])
        assert (tmp_path / "cols.csv").read_text() == "v\n" + "".join(ref_float(v) + "\n" for v in cells)
        assert len(printed) == len(cells)

    def test_paper_scale_maps_never_take_the_printf_path(self, tmp_path, monkeypatch, pair64, design_02, design_0pi):
        def refuse(row, cell_fmt):
            raise AssertionError(f"a row left to the % template: {row[:4]}")

        grid = ResilienceGrid.uniform(0.0, 2.0, 47)
        bs = design_from_vector(basis_selection(null_space_basis(design_matrix(grid, 48))), grid)
        designs = [(design_02, 2.0), (design_0pi, np.pi), (bs, 2.0), (binomial_design(48), np.pi)]
        monkeypatch.setattr(ambiguity, "_printf_row", refuse)
        for pair in (pair64, generate_golay_pair(8)):
            for design, hi in designs:
                amap = discrete_ambiguity(pair, design.p, design.w, evaluation_grid(0.0, hi, 2001))
                amap.to_csv(tmp_path / "map.csv")
                amap.db_to_csv(tmp_path / "db.csv")

    def test_shared_memo_keys_on_the_cell_format(self, tmp_path):
        # a dB map over 2A angles whose rows have the bytes of a complex map's rows over A angles
        real = AmbiguityMap(values=np.random.default_rng(11).standard_normal((3, 4)), angles=np.arange(4.0))
        complex_map = AmbiguityMap(values=np.ascontiguousarray(real.db).view(complex), angles=[0.5, 1.5])
        assert [row.tobytes() for row in real.db] == [row.tobytes() for row in complex_map.values]
        for db_first in (True, False):
            (real_shared, complex_shared), texts = sharing_one_memo([real, complex_map])
            writes = [real_shared.db_to_csv, complex_shared.to_csv]
            for write in writes if db_first else writes[::-1]:
                write(tmp_path / f"{write.__name__}.csv")
            assert (tmp_path / "db_to_csv.csv").read_text() == ref_map_csv(real.angles, real.db, ref_float)
            assert (tmp_path / "to_csv.csv").read_text() == ref_map_csv(
                complex_map.angles, complex_map.values, ref_complex)
            assert len(texts) == 3 + 3 + 2  # rows under each format, and two headers

    def test_shared_memo_formats_each_distinct_row_once(self, tmp_path, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 41)
        amb = polarimetric_ambiguities(pair64, design_02.p, design_02.w, angles)
        texts = amb.vv._texts
        assert all(amap._texts is texts for amap in amb.channels.values())
        distinct = {("float", angles.tobytes())}
        separately = 0  # rows formatted when each file has its own memo
        for name, amap in amb.channels.items():
            amap.to_csv(tmp_path / f"{name}.csv")
            amap.db_to_csv(tmp_path / f"{name}_db.csv")
            complex_rows = {("complex", row.tobytes()) for row in amap.values}
            db_rows = {("float", row.tobytes()) for row in amap.db}
            distinct |= complex_rows | db_rows
            separately += len(complex_rows) + len(db_rows)
            assert (tmp_path / f"{name}.csv").read_text() == ref_map_csv(angles, amap.values, ref_complex)
        assert len(texts) == len(distinct)
        assert len(texts) - 1 < separately  # the channels share rows

    def test_sign_opposite_rows_share_one_db_text(self, tmp_path, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 2001)
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        rows = {row.tobytes() for row in amap.values}
        magnitudes = {np.abs(row).tobytes() for row in amap.values}
        amap.db_to_csv(tmp_path / "db.csv")
        assert (len(rows), len(magnitudes)) == (12, 8)
        assert len(amap._texts) == 1 + len(magnitudes)  # the angle header, then one text per |row|

    def test_each_builder_call_and_each_public_map_has_its_own_memo(self, tmp_path, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 21)
        args = (pair64, design_02.p, design_02.w, angles)
        maps = [discrete_ambiguity(*args), discrete_ambiguity(*args), closed_form_ambiguity(*args),
                delay_ambiguity(*args), polarimetric_ambiguities(*args).vv, polarimetric_ambiguities(*args).vv]
        maps += [AmbiguityMap(values=m.values, angles=angles) for m in maps[:2]]
        assert len({id(m._texts) for m in maps}) == len(maps)
        maps[0].to_csv(tmp_path / "map.csv")
        assert maps[0]._texts and not any(m._texts for m in maps[1:])

    def test_a_written_map_keeps_its_row_texts(self, tmp_path, monkeypatch, pair64, design_02):
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, evaluation_grid(0.0, 2.0, 41))
        formatted = []
        unsigned_block = ambiguity._unsigned_block

        def counted(a, *rest):
            formatted.append(len(a))
            return unsigned_block(a, *rest)

        monkeypatch.setattr(ambiguity, "_unsigned_block", counted)
        for _ in range(2):
            amap.to_csv(tmp_path / "map.csv")
            amap.db_to_csv(tmp_path / "db.csv")
            assert len(amap._texts) == 1 + 12 + 8  # the header, complex rows, one per |row|
            assert sum(formatted) == 1 + 8 + 8  # the 12 complex rows have 8 magnitudes: one digit pass each

    def test_writers_take_no_memo(self):
        assert list(inspect.signature(AmbiguityMap.to_csv).parameters) == ["self", "path"]
        assert list(inspect.signature(AmbiguityMap.db_to_csv).parameters) == ["self", "path", "reference"]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda k: st.lists(
        st.lists(st.sampled_from(SPECIAL), min_size=k, max_size=k), min_size=1, max_size=6)))
    def test_column_writer_matches_per_cell_reference(self, tmp_path_factory, rows):
        rows.append([-v if v == 0 else v for v in rows[0]])
        cols = list(zip(*rows))
        labels = [f"c{i}" for i in range(len(cols))]
        path = tmp_path_factory.mktemp("oracle") / "cols.csv"
        write_columns_csv(path, labels, cols)
        expected = [",".join(labels)] + [",".join(ref_float(v) for v in row) for row in rows]
        assert path.read_text() == "\n".join(expected) + "\n"


class TestExponentEstimate:
    def test_every_binade_and_decade_edge_matches_per_cell_reference(self, tmp_path):
        # the estimate floor((e - 1) log10 2) of a cell in [2^(e-1), 2^e) is X or X - 1 and one check
        # corrects it: the cells where it is X - 1, or would be off by more, sit at these edges
        edges = np.concatenate([np.ldexp(1.0, np.arange(-94, 57)), [float(f"1e{x}") for x in range(-28, 18)]])
        cells = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
        cells = cells[(cells >= 1e-28) & (cells < 1e17)]
        cells = np.concatenate([cells, -cells])
        write_columns_csv(tmp_path / "cols.csv", ["v"], [cells])
        assert (tmp_path / "cols.csv").read_text() == "v\n" + "".join(ref_float(v) + "\n" for v in cells)
        values = np.stack([cells, cells[::-1]], 1).ravel().view(complex)[None]  # every cell as real and imag
        amap = AmbiguityMap(values=values, angles=np.arange(float(values.size)))
        amap.to_csv(tmp_path / "map.csv")
        assert (tmp_path / "map.csv").read_text() == ref_map_csv(amap.angles, values, ref_complex)


def short_writes(monkeypatch, limit):
    """Make every ``os.writev`` write at most ``limit`` bytes; returns the list of the buffer counts it was given."""
    calls, write = [], os.write

    def writev(fd, buffers):
        calls.append(len(buffers))
        return write(fd, b"".join(buffers)[:limit])

    monkeypatch.setattr(os, "writev", writev)
    return calls


def every_writer(amap, out) -> dict:
    """The bytes of each file the map's writers and the column writer write into ``out``."""
    amap.to_csv(out / "map.csv")
    amap.db_to_csv(out / "db.csv")
    write_columns_csv(out / "cols.csv", ["angle", "re", "im"], [amap.angles, amap.mainlobe.real, amap.mainlobe.imag])
    return {name: (out / name).read_bytes() for name in ("map.csv", "db.csv", "cols.csv")}


class TestVectoredWriter:
    def test_short_writes_resume_at_the_exact_byte(self, tmp_path, monkeypatch, design_02):
        amap = discrete_ambiguity(generate_golay_pair(3), design_02.p, design_02.w, evaluation_grid(0.0, 2.0, 5))
        (tmp_path / "whole").mkdir()
        (tmp_path / "short").mkdir()
        whole = every_writer(amap, tmp_path / "whole")
        assert whole["map.csv"].decode() == ref_map_csv(amap.angles, amap.values, ref_complex)
        calls = short_writes(monkeypatch, 7)
        assert every_writer(amap, tmp_path / "short") == whole
        assert len(calls) >= sum(map(len, whole.values())) // 7
        ambiguity._write_parts(tmp_path / "parts", [b"", b"abc", b"", b"defghijklmnop", b"", b"q", b""])
        assert (tmp_path / "parts").read_bytes() == b"abcdefghijklmnopq"

    def test_more_parts_than_one_call_takes(self, tmp_path, monkeypatch, design_02):
        amap = discrete_ambiguity(generate_golay_pair(12), design_02.p, design_02.w, evaluation_grid(0.0, 2.0, 3))
        limit = os.sysconf("SC_IOV_MAX")
        assert 2 * len(amap.lags) + 2 > limit
        calls = short_writes(monkeypatch, 2 ** 62)
        amap.to_csv(tmp_path / "map.csv")
        assert len(calls) > 1 and max(calls) <= limit
        assert (tmp_path / "map.csv").read_text() == ref_map_csv(amap.angles, amap.values, ref_complex)

    def test_without_writev_the_same_bytes(self, tmp_path, monkeypatch, design_02):
        amap = discrete_ambiguity(generate_golay_pair(5), design_02.p, design_02.w, evaluation_grid(0.0, 2.0, 9))
        (tmp_path / "vectored").mkdir()
        (tmp_path / "plain").mkdir()
        vectored = every_writer(amap, tmp_path / "vectored")
        monkeypatch.delattr(os, "writev")
        assert every_writer(amap, tmp_path / "plain") == vectored

    @pytest.mark.parametrize("vectored", [True, False])
    def test_a_full_device_raises(self, monkeypatch, pair64, design_02, vectored):
        if not vectored:
            monkeypatch.delattr(os, "writev")
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, evaluation_grid(0.0, 2.0, 5))
        for write in (amap.to_csv, amap.db_to_csv, lambda path: write_two_column_csv(path, [1.0], [2.0])):
            with pytest.raises(OSError):
                write("/dev/full")

    def test_cli_exits_3_on_a_full_device(self, tmp_path, monkeypatch, capsys, design_02):
        # every writev goes to /dev/full instead: the kernel's own "no space left on device"
        design_02.save(tmp_path / "d.json")
        full, writev = os.open("/dev/full", os.O_WRONLY), os.writev
        monkeypatch.setattr(os, "writev", lambda fd, buffers: writev(full, buffers))
        try:
            code = main(["evaluate", "--design", str(tmp_path / "d.json"), "--points", "5", "--out-dir", str(tmp_path)])
        finally:
            os.close(full)
        assert code == 3
        assert "No space left on device" in capsys.readouterr().err


# Dense oracle for the factored maps: every lag row as its own outer
# product, the evaluation the library used before it stored distinct rows.
# f_w and f_z come from the whole phase matrix, not the library's blocked products.
def dense_maps(pair, p, w, angles):
    x, y = (as_biphase(s) for s in pair)
    w = np.asarray(w, dtype=complex)
    phases = _phase_matrix(np.asarray(angles, dtype=float), w.size)
    fw = phases @ w
    fz = phases @ (as_biphase(p) * w)
    cx, cy = np.correlate(x, x, "full"), np.correlate(y, y, "full")
    even = 0.5 * np.outer(cx + cy, fw)
    odd = 0.5 * np.outer(cx - cy, fz)
    closed = odd.copy()
    closed[x.size - 1, :] = x.size * fw
    return {
        "discrete": even + odd,
        "closed": closed,
        "vv": even + odd,
        "hh": even - odd,
        "vh": np.outer(np.correlate(x, y, "full"), fz),
        "hv": np.outer(np.correlate(y, x, "full"), fz),
    }


def dense_quantities(values) -> dict:
    """Each public map quantity, computed on the dense array."""
    L = (values.shape[0] + 1) // 2
    mag = np.abs(values)

    def db():
        peak = mag.max()
        if not (np.isfinite(peak) and peak > 0):
            raise ValueError("no dB normalization")
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(mag / peak)

    def side():
        return np.delete(mag, L - 1, axis=0).max(axis=0)

    def metrics():
        if not mag.any():
            raise ValueError("all-zero map")
        profile, peaks = mag[L - 1], side()
        ref = profile.max()
        with np.errstate(divide="ignore", invalid="ignore"):
            return profile, 20.0 * np.log10(peaks / ref), np.float64(ref)

    return {"values": lambda: values, "db": db, "peak": lambda: mag.max(),
            "mainlobe": lambda: values[L - 1], "sidelobe_peaks": side, "sidelobe_metrics": metrics}


def map_quantities(amap) -> dict:
    def metrics():
        m = sidelobe_metrics(amap)
        return m.profile, m.prsl_db, np.float64(m.reference_peak)

    return {"values": lambda: amap.values, "db": lambda: amap.db,
            "peak": lambda: np.float64(amap.peak), "mainlobe": lambda: amap.mainlobe,
            "sidelobe_peaks": amap.sidelobe_peaks, "sidelobe_metrics": metrics}


def outcome(fn):
    """``fn()``'s arrays as (dtype, shape, bytes) triples, or ValueError when it raises one.

    The bytes are exact, signed zeros included, except that every nan
    part reads as one nan: the sign of a nan made by inf * 0 depends on
    the array loop numpy picks for a shape, so the dense evaluation does
    not fix it either (its in-place and out-of-place sums differ there).
    """
    try:
        result = fn()
    except ValueError:
        return ValueError
    out = []
    for a in map(np.asarray, result if isinstance(result, tuple) else (result,)):
        parts = np.ascontiguousarray(a).view(float) if a.dtype == complex else a
        out.append((a.dtype, a.shape, np.where(np.isnan(parts), np.nan, parts).tobytes()))
    return out


def assert_matches_dense(amap, values):
    """Every public quantity of ``amap`` is bit-identical to the dense oracle's (or both raise)."""
    expected = dense_quantities(values)
    for name, fn in map_quantities(amap).items():
        assert outcome(fn) == outcome(expected[name]), name


def library_maps(pair, p, w, angles) -> dict:
    amb = polarimetric_ambiguities(pair, p, w, angles)
    maps = {"discrete": discrete_ambiguity(pair, p, w, angles), **amb.channels}
    if is_golay_pair(*pair):
        maps["closed"] = closed_form_ambiguity(pair, p, w, angles)
    return maps


@st.composite
def complementary_pairs(draw):
    """Golay pairs of length 1..16 under the transforms that keep them complementary."""
    pair = generate_golay_pair(draw(st.integers(0, 4)))
    x, y = np.asarray(pair.x), np.asarray(pair.y)
    if draw(st.booleans()):
        x, y = y, x
    if draw(st.booleans()):
        x = x[::-1]
    if draw(st.booleans()):
        y = -y
    if draw(st.booleans()):
        alternate = (-1) ** np.arange(x.size)
        x, y = x * alternate, y * alternate
    return x, y


def biphase(size):
    return st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size).map(np.array)


@st.composite
def map_cases(draw):
    """A complementary or arbitrary pair, a schedule, weights (some parts zero) and angles."""
    arbitrary = st.integers(1, 12).flatmap(lambda L: st.tuples(biphase(L), biphase(L)))
    pair = draw(st.one_of(complementary_pairs(), arbitrary))
    n = draw(st.integers(1, 8))
    part = st.one_of(st.just(0.0), st.floats(-1e3, 1e3, allow_subnormal=False))
    w = np.array(draw(st.lists(st.builds(complex, part, part), min_size=n, max_size=n)))
    angles = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=5)))
    return pair, draw(biphase(n)), w, angles


class TestFactoredMaps:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=map_cases())
    def test_every_quantity_matches_dense_oracle(self, case):
        pair, p, w, angles = case
        dense = dense_maps(pair, p, w, angles)
        maps = {**library_maps(pair, p, w, angles), "delay": delay_ambiguity(pair, p, w, angles)}
        dense["delay"] = dense["discrete"]
        for name, amap in maps.items():
            assert_matches_dense(amap, dense[name])
        if not is_golay_pair(*pair):
            with pytest.raises(ValueError, match="^closed form requires a complementary pair$"):
                closed_form_ambiguity(pair, p, w, angles)

    def test_zero_lag_row_shared_by_sidelobes(self):
        # C_xy = [1, 0, 1, 0, 1]: the zero-lag value is also the value at
        # lags +-2, where it is the sidelobe peak of the cross-polar maps
        pair, p, w = ([1, -1, 1], [1, 1, 1]), [1, -1, 1], [1.0, 0.5j, -2.0]
        angles = np.linspace(0.0, 2.0, 7)
        amb = polarimetric_ambiguities(pair, p, w, angles)
        fz = np.abs(slow_time_response(np.array(p) * np.array(w), angles))
        assert np.array_equal(amb.vh.sidelobe_peaks(), fz)
        assert np.array_equal(sidelobe_metrics(amb.vh).profile, fz)
        assert_matches_dense(amb.vh, dense_maps(pair, p, w, angles)["vh"])

    def test_closed_form_zero_lag_override(self, pair64):
        # C_x - C_y is 0 at the zero lag and wherever C_x vanishes, so the
        # zero lag's odd term is shared; only the zero lag carries L f_w
        rng = np.random.default_rng(29)
        p = rng.choice([-1, 1], size=6)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        angles = np.linspace(0.0, 2.0, 5)
        amap = closed_form_ambiguity(pair64, p, w, angles)
        cx = np.correlate(np.asarray(pair64.x), np.asarray(pair64.x), "full")
        shared = np.flatnonzero(cx == 0)
        assert shared.size > 0 and np.all(amap.values[shared] == 0)
        assert np.array_equal(amap.mainlobe, 64 * slow_time_response(w, angles))
        assert_matches_dense(amap, dense_maps(pair64, p, w, angles)["closed"])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_cells(self, tmp_path, bad):
        pair, p, w = generate_golay_pair(2), [1, -1, 1], [1.0, bad, 0.5j]
        angles = np.array([0.0, 0.4, 1.3])
        dense = dense_maps(pair, p, w, angles)
        for name, amap in library_maps(pair, p, w, angles).items():
            assert not np.all(np.isfinite(amap.values))
            assert_matches_dense(amap, dense[name])
            with pytest.raises(ValueError, match="finite and positive"):
                amap.db
            with pytest.raises(ValueError, match="finite and positive"):
                amap.db_to_csv(tmp_path / f"{name}.csv")
            assert not (tmp_path / f"{name}.csv").exists()

    def test_csv_matches_per_cell_reference(self, tmp_path, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 5)
        amb = polarimetric_ambiguities(pair64, design_02.p, design_02.w, angles)
        for name, amap in amb.channels.items():
            amap.to_csv(tmp_path / "map.csv")
            amap.db_to_csv(tmp_path / "db.csv", reference=float(np.abs(amb.vv.mainlobe).max()))
            assert (tmp_path / "map.csv").read_text() == ref_map_csv(angles, amap.values, ref_complex)
            with np.errstate(divide="ignore"):
                db = 20.0 * np.log10(np.abs(amap.values) / np.abs(amb.vv.mainlobe).max())
            assert (tmp_path / "db.csv").read_text() == ref_map_csv(angles, db, ref_float)

    def test_summaries_allocate_far_less_than_a_dense_map(self, tmp_path):
        pair = generate_golay_pair(10)
        rng = np.random.default_rng(30)
        p = rng.choice([-1, 1], size=16)
        w = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        angles = evaluation_grid(0.0, 2.0, 257)
        dense_bytes = (2 * pair.length - 1) * angles.size * 16
        # a small run first: numpy's lazy imports are not part of the maps
        sidelobe_metrics(polarimetric_ambiguities(generate_golay_pair(2), p, w, angles[:3]).vv)
        tracemalloc.start()
        try:
            amb = polarimetric_ambiguities(pair, p, w, angles)
            for name, amap in amb.channels.items():
                sidelobe_metrics(amap)
                amap.db_to_csv(tmp_path / f"{name}_db.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the four channels' rows alone are ~1/7 of one dense map here
        assert peak < dense_bytes / 3
