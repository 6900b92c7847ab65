import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compwave import (
    AmbiguityMap,
    closed_form_ambiguity,
    delay_ambiguity,
    discrete_ambiguity,
    evaluation_grid,
    generate_golay_pair,
    sidelobe_metrics,
    slow_time_response,
    write_columns_csv,
    write_two_column_csv,
)


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
        assert evaluation_grid(0.4, 9.9, 1).tolist() == [0.4]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluation_grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("lo, hi, count", [(2, 0, 5), (2, 0, 1), (0, float("nan"), 5)])
    def test_rejects_reversed_endpoints(self, lo, hi, count):
        with pytest.raises(ValueError, match="out of order"):
            evaluation_grid(lo, hi, count)


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
        assert np.allclose(metrics.relative_prsl_db, expected)

    def test_reference_peak_shifts_scale(self, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 101)
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        own = sidelobe_metrics(amap)
        halved = sidelobe_metrics(amap, reference_peak=own.reference_peak / 2)
        assert np.allclose(halved.prsl_db - own.prsl_db, 20 * np.log10(2))

    def test_vanishing_mainlobe_gives_inf(self):
        # w sums to zero, so A(0, 0) cancels exactly while f_z(0) does not
        metrics = sidelobe_metrics(
            discrete_ambiguity(([1, 1], [1, -1]), [1, -1], [1.0, -1.0], [0.0])
        )
        assert np.isposinf(metrics.relative_prsl_db[0])

    def test_profile_magnitudes(self, pair64, design_02):
        angles = evaluation_grid(0.0, 2.0, 51)
        amap = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        metrics = sidelobe_metrics(amap)
        assert np.array_equal(metrics.profile, np.abs(amap.mainlobe))


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


EDGE_MAP = AmbiguityMap(
    values=np.array([[0.0, complex(-0.0, 5e-324)],
                     [complex(np.inf, -0.0), complex(np.nan, 1.0)],
                     [complex(-0.0, 0.0), complex(-0.0, 5e-324)]]),
    angles=[-0.0, 2.2250738585072014e-308],
)


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
