import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compwave import (
    ScatteringMatrix,
    binomial_design,
    cross_channel_nulls,
    discrete_ambiguity,
    generate_golay_pair,
    output_matrix,
    polarimetric_ambiguities,
    slow_time_response,
)


def per_pulse_channels(x, y, p, w, angles):
    """Independent per-pulse construction of all four channels.

    On the V port pulse n carries x when p_n = +1 and y otherwise; the H
    port carries the reversed partner, which contributes the reversal
    correlation with a sign flip on the off-diagonal channels.
    """
    x, y = np.asarray(x), np.asarray(y)
    cx = np.correlate(x, x, "full").astype(float)
    cy = np.correlate(y, y, "full").astype(float)
    cxy = np.correlate(x, y, "full").astype(float)
    cyx = np.correlate(y, x, "full").astype(float)
    c_yr_xr = np.correlate(y[::-1], x[::-1], "full").astype(float)
    c_xr_yr = np.correlate(x[::-1], y[::-1], "full").astype(float)
    shape = (2 * x.size - 1, len(angles))
    vv, hh = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    vh, hv = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for j, theta in enumerate(angles):
        for n in range(len(p)):
            c = w[n] * np.exp(1j * n * theta)
            if p[n] == 1:
                vv[:, j] += c * cx
                hh[:, j] += c * cy
                vh[:, j] += c * cxy
                hv[:, j] += c * cyx
            else:
                vv[:, j] += c * cy
                hh[:, j] += c * cx
                vh[:, j] -= c * c_yr_xr
                hv[:, j] -= c * c_xr_yr
    return vv, hh, vh, hv


def biphase(size):
    return st.lists(st.sampled_from([-1, 1]), min_size=size, max_size=size).map(np.array)


# equal-length pairs, complementary or not
pairs = st.integers(1, 16).flatmap(lambda L: st.tuples(biphase(L), biphase(L)))


@st.composite
def channel_cases(draw):
    """A pair, a schedule, complex weights and evaluation angles."""
    n = draw(st.integers(1, 8))
    part = st.floats(-1e3, 1e3, allow_subnormal=False)
    w = np.array(draw(st.lists(st.builds(complex, part, part), min_size=n, max_size=n)))
    angles = np.array(draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=5)))
    return draw(pairs), draw(biphase(n)), w, angles


def seed41_case():
    rng = np.random.default_rng(41)
    pair = generate_golay_pair(3)
    p = rng.choice([-1, 1], size=6)
    w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    angles = rng.uniform(0, 2 * np.pi, 5)
    return (pair.x, pair.y), p, w, angles


@pytest.fixture(scope="module")
def channels_02(pair64, design_02):
    angles = np.linspace(0.0, 2.0, 21)
    return angles, polarimetric_ambiguities(pair64, design_02.p, design_02.w, angles)


class TestChannelMaps:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=pairs)
    def test_reversal_identities_exact(self, pair):
        # the identities that reduce the cross-polar channels to C_xy f_z and C_yx f_z
        for dtype in (np.int64, np.float64):
            x, y = (np.asarray(s, dtype=dtype) for s in pair)
            assert np.array_equal(np.correlate(y[::-1], x[::-1], "full"), np.correlate(x, y, "full"))
            assert np.array_equal(np.correlate(x[::-1], y[::-1], "full"), np.correlate(y, x, "full"))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=channel_cases())
    @example(case=seed41_case())
    @example(case=(([1], [1]), np.array([1, -1]), np.array([1, -np.exp(-0.7j)]), np.array([0.7])))
    def test_matches_per_pulse_oracle(self, case):
        (x, y), p, w, angles = case
        amb = polarimetric_ambiguities((x, y), p, w, angles)
        vv, hh, vh, hv = per_pulse_channels(x, y, p, w, angles)
        # every cell is a sum of terms bounded by L |w_n|; |vv| alone is no
        # scale, since f_w can vanish (second example: vv is 0 in the oracle)
        tol = 1e-12 * len(x) * np.abs(w).sum()
        assert np.abs(amb.vv.values - vv).max() <= tol
        assert np.abs(amb.hh.values - hh).max() <= tol
        assert np.abs(amb.vh.values - vh).max() <= tol
        assert np.abs(amb.hv.values - hv).max() <= tol

    def test_vv_equals_single_antenna_map(self, pair64, design_02):
        angles = np.linspace(0.0, 2.0, 9)
        amb = polarimetric_ambiguities(pair64, design_02.p, design_02.w, angles)
        single = discrete_ambiguity(pair64, design_02.p, design_02.w, angles)
        assert np.array_equal(amb.vv.values, single.values)

    def test_cross_channels_factor(self, pair64):
        rng = np.random.default_rng(42)
        p = rng.choice([-1, 1], size=7)
        w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        angles = rng.uniform(0, 2 * np.pi, 6)
        amb = polarimetric_ambiguities(pair64, p, w, angles)
        cxy = np.correlate(np.asarray(pair64.x), np.asarray(pair64.y), "full")
        cyx = np.correlate(np.asarray(pair64.y), np.asarray(pair64.x), "full")
        fz = slow_time_response(p * w, angles)
        assert np.allclose(amb.vh.values, np.outer(cxy, fz), rtol=0, atol=1e-12 * np.abs(fz).max() * 64)
        assert np.allclose(amb.hv.values, np.outer(cyx, fz), rtol=0, atol=1e-12 * np.abs(fz).max() * 64)

    def test_co_polar_sidelobes_cancel_exactly(self, channels_02, pair64):
        angles, amb = channels_02
        total = amb.vv.values + amb.hh.values
        side = np.delete(total, pair64.length - 1, axis=0)
        assert np.all(side == 0)

    def test_co_polar_mainlobes_agree(self, channels_02):
        _, amb = channels_02
        assert np.array_equal(amb.vv.mainlobe, amb.hh.mainlobe)

    def test_schedule_sign_flip_swaps_co_polar(self, pair64):
        rng = np.random.default_rng(43)
        p = rng.choice([-1, 1], size=5)
        w = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        angles = np.linspace(0.3, 1.9, 4)
        a = polarimetric_ambiguities(pair64, p, w, angles)
        b = polarimetric_ambiguities(pair64, -p, w, angles)
        assert np.array_equal(a.vv.values, b.hh.values)
        assert np.array_equal(a.hh.values, b.vv.values)

    def test_alternating_schedule_kills_cross_at_zero(self, pair64):
        p = np.array([1, -1, 1, -1, 1, -1])
        amb = polarimetric_ambiguities(pair64, p, np.ones(6), [0.0])
        assert np.all(amb.vh.values == 0)
        assert np.all(amb.hv.values == 0)

    def test_cross_ratio_is_schedule_free(self, pair64):
        rng = np.random.default_rng(44)
        p = rng.choice([-1, 1], size=6)
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        amb = polarimetric_ambiguities(pair64, p, w, [0.7])
        cxy = np.correlate(np.asarray(pair64.x), np.asarray(pair64.y), "full")
        cyx = np.correlate(np.asarray(pair64.y), np.asarray(pair64.x), "full")
        mask = (cyx != 0) & (np.abs(amb.hv.values[:, 0]) > 1e-9)
        ratio = amb.vh.values[mask, 0] / amb.hv.values[mask, 0]
        assert np.allclose(ratio, cxy[mask] / cyx[mask])

    def test_kind_label_passes_through(self, pair64):
        amb = polarimetric_ambiguities(pair64, [1, -1], [1.0, 1.0], [0.5], kind="delay")
        assert all(m.kind == "delay" for m in amb.channels.values())

    def test_channels_dict(self, channels_02):
        _, amb = channels_02
        assert set(amb.channels) == {"vv", "hh", "vh", "hv"}
        assert amb.channels["vh"] is amb.vh

    def test_length_mismatches(self, pair64):
        with pytest.raises(ValueError):
            polarimetric_ambiguities(pair64, [1, -1], [1.0], [0.0])
        with pytest.raises(ValueError):
            polarimetric_ambiguities(([1, 1], [1, -1, 1]), [1], [1.0], [0.0])


class TestScatteringMatrix:
    def test_round_trip(self):
        mat = np.array([[1.0, 2.0j], [0.5 - 1j, -3.0]])
        assert np.array_equal(ScatteringMatrix.from_matrix(mat).matrix, mat)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            ScatteringMatrix.from_matrix(np.zeros((2, 3)))


class TestOutputMatrix:
    def test_identity_target_at_origin(self, channels_02, pair64, design_02):
        angles, amb = channels_02
        u = output_matrix(ScatteringMatrix(1, 0, 0, 1), amb, 0, angles[0])
        gain = 64 * slow_time_response(design_02.w, [angles[0]])[0]
        assert u[0, 0] == pytest.approx(gain, rel=1e-12)
        assert u[1, 1] == pytest.approx(gain, rel=1e-12)
        # the fixture's sequences are uncorrelated at zero lag, so the
        # off-diagonal terms vanish exactly
        assert u[0, 1] == 0 and u[1, 0] == 0

    def test_zero_target(self, channels_02):
        angles, amb = channels_02
        u = output_matrix(ScatteringMatrix(0.0, 0.0, 0.0, 0.0), amb, 5, angles[2])
        assert np.all(u == 0)

    def test_mixing_rows(self, channels_02):
        angles, amb = channels_02
        scattering = ScatteringMatrix(2.0, 0.0, 0.0, 0.5j)
        u = output_matrix(scattering, amb, -3, angles[1])
        i, j = amb.vv.lag_index(-3), 1
        assert u[0, 0] == pytest.approx(2.0 * amb.vv.values[i, j], rel=1e-12, abs=1e-12)
        assert u[1, 1] == pytest.approx(0.5j * amb.hh.values[i, j], rel=1e-12, abs=1e-12)

    def test_off_grid_points_rejected(self, channels_02):
        angles, amb = channels_02
        with pytest.raises(ValueError):
            output_matrix(ScatteringMatrix(1, 0, 0, 1), amb, 64, angles[0])
        with pytest.raises(ValueError):
            output_matrix(ScatteringMatrix(1, 0, 0, 1), amb, 0, -5.0)

    def test_non_integer_lag_rejected(self, channels_02):
        # a fractional lag is not rounded or truncated onto a neighbouring row
        angles, amb = channels_02
        identity = ScatteringMatrix(1, 0, 0, 1)
        for lag in (2.5, -0.5, math.nan):
            with pytest.raises(ValueError, match="is not an integer"):
                output_matrix(identity, amb, lag, angles[0])
        assert np.array_equal(output_matrix(identity, amb, 2.0, angles[0]), output_matrix(identity, amb, 2, angles[0]))


class TestCrossChannelNulls:
    def test_designed_schedule_passes(self, design_02):
        ok, residual = cross_channel_nulls(design_02.p, design_02.w, design_02.grid)
        assert ok and residual <= 1e-10

    def test_uniform_schedule_fails_at_zero(self):
        ok, residual = cross_channel_nulls(np.ones(9, dtype=int), np.ones(9), [0.0])
        assert not ok
        assert residual == pytest.approx(3.0)

    def test_binomial_null_at_zero_is_exact(self):
        design = binomial_design(10)
        ok, residual = cross_channel_nulls(design.p, design.w, [0.0])
        assert ok and residual == 0.0

    def test_accepts_bare_angle_list(self, design_02):
        ok_grid, res_grid = cross_channel_nulls(design_02.p, design_02.w, design_02.grid)
        ok_list, res_list = cross_channel_nulls(design_02.p, design_02.w, design_02.grid.angles)
        assert ok_grid == ok_list and res_grid == res_list

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_channel_nulls([1, -1], [1.0], [0.0])

    # the relative residual max|f_z| / ||p*w|| would be 0/0, or nan
    @pytest.mark.parametrize("w, message", [(np.zeros(3), "all-zero weight vector"),
                                            ([1.0, np.nan, 1.0], "weights must be finite"),
                                            ([1.0, np.inf, 1.0], "weights must be finite")])
    def test_unusable_weights(self, w, message):
        with pytest.raises(ValueError, match=message):
            cross_channel_nulls([1, -1, 1], w, [0.0, 1.0])
