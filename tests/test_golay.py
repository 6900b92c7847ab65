import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from compwave import (
    CorrelationProfile,
    GolayPair,
    as_biphase,
    autocorrelation,
    cross_correlation,
    generate_golay_pair,
    is_golay_pair,
    length64_pair,
    load_sequence,
    reverse,
    save_sequence,
)
from compwave.golay import _correlate


def brute_correlation(a, b):
    """O(L^2) reference: C_ab[k] = sum_l a[l+k] b[l], k = -(L-1)..L-1."""
    L = len(a)
    out = []
    for k in range(-(L - 1), L):
        out.append(sum(int(a[l + k]) * int(b[l]) for l in range(max(0, -k), min(L, L - k))))
    return np.array(out, dtype=np.int64)


class TestAsBiphase:
    def test_accepts_ints_and_floats(self):
        assert as_biphase([1, -1, 1]).dtype == np.int64
        assert np.array_equal(as_biphase([1.0, -1.0]), [1, -1])

    @pytest.mark.parametrize("bad", [[0], [2], [1, 0, -1], [1.5], [], [[1, -1]]])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            as_biphase(bad)


class TestCorrelations:
    def test_autocorrelation_small(self):
        prof = autocorrelation([1, 1])
        assert np.array_equal(prof.values, [1, 2, 1])
        assert np.array_equal(prof.lags, [-1, 0, 1])

    def test_cross_correlation_example(self):
        prof = cross_correlation([1, 1], [1, -1])
        assert prof.values.tolist() == [-1, 0, 1]  # lags -1, 0, 1

    def test_cross_reduces_to_auto(self):
        s = [1, -1, -1, 1, 1]
        assert np.array_equal(cross_correlation(s, s).values, autocorrelation(s).values)

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 13])
    def test_matches_brute_force(self, length):
        rng = np.random.default_rng(100 + length)
        a = rng.choice([-1, 1], size=length)
        b = rng.choice([-1, 1], size=length)
        assert np.array_equal(cross_correlation(a, b).values, brute_correlation(a, b))
        assert np.array_equal(autocorrelation(a).values, brute_correlation(a, a))

    def test_fixture_against_brute_force(self, pair64):
        x, y = pair64
        assert np.array_equal(cross_correlation(x, y).values, brute_correlation(x, y))

    def test_zero_lag_is_length(self, pair64):
        for s in (*pair64, [1, 1, -1]):
            prof = autocorrelation(s)
            assert prof.values[prof.length - 1] == prof.length == len(s)

    def test_transpose_symmetry(self):
        # real sequences: C_ab[k] = C_ba[-k]
        rng = np.random.default_rng(7)
        a = rng.choice([-1, 1], size=9)
        b = rng.choice([-1, 1], size=9)
        assert np.array_equal(cross_correlation(a, b).values, cross_correlation(b, a).values[::-1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlation([1, 1], [1, -1, 1])

    def test_profile_rejects_even_length(self):
        with pytest.raises(ValueError):
            CorrelationProfile(np.array([1, 2, 3, 4]))


def biphase_array(n):
    return arrays(np.int64, n, elements=st.sampled_from([-1, 1]))


@st.composite
def correlation_pairs(draw):
    """(a, b): arbitrary biphase arrays of equal or unequal length, or a complementary pair."""
    shape = draw(st.sampled_from(["equal", "unequal", "complementary"]))
    if shape != "complementary":
        n = draw(st.integers(1, 512))
        m = n if shape == "equal" else draw(st.integers(1, 512))
        return draw(biphase_array(n)), draw(biphase_array(m))
    # negation, reversal and swapping keep a doubling pair complementary
    x, y = (np.array(s) for s in generate_golay_pair(draw(st.integers(0, 9))))
    x, y = draw(st.sampled_from([1, -1])) * x, draw(st.sampled_from([1, -1])) * y
    if draw(st.booleans()):
        x, y = x[::-1].copy(), y[::-1].copy()
    return (y, x) if draw(st.booleans()) else (x, y)


class TestCorrelateHelper:
    """The float64 correlation helper against numpy's int64 correlation."""

    @staticmethod
    def assert_exact(a, b):
        got = _correlate(a, b)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.correlate(a, b, "full"))

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(pair=correlation_pairs())
    @example(pair=(np.ones(512, dtype=np.int64), np.ones(512, dtype=np.int64)))
    @example(pair=(np.ones(512, dtype=np.int64), -np.ones(1, dtype=np.int64)))
    def test_matches_int64_correlate(self, pair):
        a, b = pair
        for u, v in ((a, b), (b, a), (a, a), (b, b)):
            self.assert_exact(u, v)

    def test_doubling_pair_at_8192(self):
        x, y = generate_golay_pair(13)
        # all ones: the correlation takes every integer 1..8192, past float16's exact range (2048)
        ones = np.ones(x.size, dtype=np.int64)
        for u, v in ((x, x), (y, y), (x, y), (y, x), (ones, ones)):
            self.assert_exact(u, v)


class TestGolayPairs:
    def test_smallest_pair(self):
        assert is_golay_pair([1, 1], [1, -1])

    def test_not_complementary(self):
        assert not is_golay_pair([1, 1], [1, 1])

    def test_fixture_is_complementary(self, pair64):
        assert is_golay_pair(pair64.x, pair64.y)

    def test_complementarity_is_exact(self, pair64):
        total = autocorrelation(pair64.x).values + autocorrelation(pair64.y).values
        expected = np.zeros(127, dtype=np.int64)
        expected[63] = 128
        assert np.array_equal(total, expected)

    @pytest.mark.parametrize("log2_length", range(8))
    def test_generated_pairs(self, log2_length):
        pair = generate_golay_pair(log2_length)
        assert pair.length == 2**log2_length
        assert is_golay_pair(pair.x, pair.y)

    def test_generation_seed_and_first_step(self):
        assert np.array_equal(generate_golay_pair(0).x, [1])
        assert np.array_equal(generate_golay_pair(0).y, [1])
        pair = generate_golay_pair(1)
        assert np.array_equal(pair.x, [1, 1])
        assert np.array_equal(pair.y, [1, -1])

    def test_doubling_structure(self):
        small, big = generate_golay_pair(3), generate_golay_pair(4)
        assert np.array_equal(big.x, np.concatenate([small.x, small.y]))
        assert np.array_equal(big.y, np.concatenate([small.x, -small.y]))

    def test_negative_log2_rejected(self):
        with pytest.raises(ValueError):
            generate_golay_pair(-1)

    def test_pair_unpacks(self, pair64):
        x, y = pair64
        assert np.array_equal(x, pair64.x)
        assert np.array_equal(y, pair64.y)

    def test_pair_rejects_non_complementary(self):
        with pytest.raises(ValueError):
            GolayPair(x=[1, 1], y=[1, 1])

    def test_pair_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GolayPair(x=[1, 1], y=[1])

    def test_pair_arrays_read_only(self, pair64):
        with pytest.raises(ValueError):
            pair64.x[0] = -1


class TestReverse:
    def test_small(self):
        assert np.array_equal(reverse([1, -1, -1]), [-1, -1, 1])

    def test_involution(self):
        rng = np.random.default_rng(3)
        s = rng.choice([-1, 1], size=11)
        assert np.array_equal(reverse(reverse(s)), s)

    def test_autocorrelation_invariant(self):
        rng = np.random.default_rng(4)
        s = rng.choice([-1, 1], size=10)
        assert np.array_equal(autocorrelation(reverse(s)).values, autocorrelation(s).values)

    def test_reversal_preserves_complementarity(self, pair64):
        assert is_golay_pair(reverse(pair64.x), reverse(pair64.y))


class TestSerialization:
    def test_sequence_round_trip(self, tmp_path):
        path = tmp_path / "seq.json"
        s = [1, -1, -1, 1]
        save_sequence(path, s)
        assert np.array_equal(load_sequence(path), s)
        assert json.loads(path.read_text()) == s

    def test_load_sequence_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ValueError):
            load_sequence(path)

    def test_load_sequence_invalid_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 0, -1]")
        with pytest.raises(ValueError):
            load_sequence(path)

    @pytest.mark.parametrize("text", ["[1, 0, -1]", "[[1, -1]]", "[]"])
    def test_load_sequence_error_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_sequence(path)

    def test_pair_round_trip(self, tmp_path, pair64):
        path = tmp_path / "pair.json"
        pair64.save(path)
        loaded = GolayPair.load(path)
        assert np.array_equal(loaded.x, pair64.x)
        assert np.array_equal(loaded.y, pair64.y)

    def test_pair_missing_key(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"x": [1, 1]}))
        with pytest.raises(ValueError):
            GolayPair.load(path)

    @pytest.mark.parametrize("content", [
        "not json",
        json.dumps({"x": [1, 1]}),
        json.dumps({"x": [1, 0], "y": [1, -1]}),
        json.dumps({"x": [1, 1], "y": [1, 1]}),
    ], ids=["not-json", "missing-key", "not-biphase", "not-complementary"])
    def test_pair_load_errors_name_the_file(self, tmp_path, content):
        path = tmp_path / "pair.json"
        path.write_text(content)
        with pytest.raises(ValueError) as info:
            GolayPair.load(path)
        assert str(path) in str(info.value)

    def test_bundled_fixture_loads(self):
        pair = length64_pair()
        assert pair.length == 64
