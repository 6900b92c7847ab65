import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import compwave.golay
from compwave import (
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
from compwave.golay import _correlate, _correlation

ROOT = Path(__file__).resolve().parent.parent


def capped_python(code: str, cwd):
    """``code`` run by a child Python that imports compwave from ``src``, with its address space capped at
    2 GiB: a call that allocates without bound ends there in MemoryError instead of taking the machine's memory."""
    cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({2 ** 31}, {2 ** 31}))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", cap + code], cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


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


def biphase_array(n):
    return arrays(np.int64, n, elements=st.sampled_from([-1, 1]))


@st.composite
def correlation_pairs(draw, equal=False):
    """(a, b): arbitrary biphase arrays of equal or (unless ``equal``) unequal length, or a complementary pair."""
    shape = draw(st.sampled_from(["equal", "complementary"] if equal else ["equal", "unequal", "complementary"]))
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


class TestCorrelations:
    def test_autocorrelation_small(self):
        c = autocorrelation([1, 1])
        assert c.dtype == np.int64 and c.tolist() == [1, 2, 1]  # lags -1, 0, 1

    def test_cross_correlation_example(self):
        c = cross_correlation([1, 1], [1, -1])
        assert c.dtype == np.int64 and c.tolist() == [-1, 0, 1]  # lags -1, 0, 1

    def test_cross_reduces_to_auto(self):
        s = [1, -1, -1, 1, 1]
        assert np.array_equal(cross_correlation(s, s), autocorrelation(s))

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 13])
    def test_matches_brute_force(self, length):
        rng = np.random.default_rng(100 + length)
        a = rng.choice([-1, 1], size=length)
        b = rng.choice([-1, 1], size=length)
        assert np.array_equal(cross_correlation(a, b), brute_correlation(a, b))
        assert np.array_equal(autocorrelation(a), brute_correlation(a, a))

    def test_fixture_against_brute_force(self, pair64):
        x, y = pair64
        assert np.array_equal(cross_correlation(x, y), brute_correlation(x, y))

    def test_zero_lag_is_length(self, pair64):
        for s in (*pair64, [1, 1, -1]):
            c = autocorrelation(s)
            assert c.size == 2 * len(s) - 1 and c[len(s) - 1] == len(s)

    def test_transpose_symmetry(self):
        # real sequences: C_ab[k] = C_ba[-k]
        rng = np.random.default_rng(7)
        a = rng.choice([-1, 1], size=9)
        b = rng.choice([-1, 1], size=9)
        assert np.array_equal(cross_correlation(a, b), cross_correlation(b, a)[::-1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlation([1, 1], [1, -1, 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=correlation_pairs(equal=True))
    def test_callers_own_the_exact_correlation(self, pair):
        a, b = pair
        for got, u, v in ((cross_correlation(a, b), a, b), (autocorrelation(a), a, a)):
            assert got.dtype == np.int64 and got.flags.writeable
            assert np.array_equal(got, np.correlate(u, v, "full"))
            assert not np.shares_memory(got, _correlate(u, v))


class TestCorrelateHelper:
    """The FFT correlation helper against numpy's int64 correlation."""

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

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(a=st.integers(1, 4).flatmap(biphase_array), b=st.integers(1, 4).flatmap(biphase_array))
    @example(a=np.ones(1, dtype=np.int64), b=np.array([1, -1]))
    @example(a=np.array([-1]), b=np.array([1]))
    def test_short_sequences_of_any_two_lengths(self, a, b):
        # the FFT length and the slice are set by La + Lb - 1, down to a single lag
        self.assert_exact(a, b)
        self.assert_exact(b, a)

    def test_doubling_pair_at_8192(self):
        x, y = generate_golay_pair(13)
        # all ones: the correlation takes every integer 1..8192, past float16's exact range (2048)
        ones = np.ones(x.size, dtype=np.int64)
        for u, v in ((x, x), (y, y), (x, y), (y, x), (ones, ones)):
            self.assert_exact(u, v)

    def test_doubling_pair_at_16384(self):
        x, y = generate_golay_pair(14)
        for u, v in ((x, x), (y, y), (x, y)):
            self.assert_exact(u, v)

    def test_all_ones_at_the_length_bound(self):
        # the largest magnitudes a +-1 correlation of the longest generated length reaches: every integer 1..2^16
        L = 2 ** 16
        ones = np.ones(L, dtype=np.int64)
        got = _correlate(ones, ones)
        assert got.dtype == np.int64 and np.array_equal(got, L - np.abs(np.arange(-(L - 1), L)))


class TestCorrelationMemo:
    """The memo of ``_correlation`` behind ``_correlate``: keyed on sequence bytes, read-only int64."""

    @pytest.fixture(autouse=True)
    def cold(self):
        _correlation.cache_clear()

    @pytest.mark.parametrize("length", [1, 2, 3, 64, 255, 1024, 4096])
    def test_cold_and_warm_match_int64_correlate(self, length):
        rng = np.random.default_rng(length)
        a, b = (rng.choice(np.array([-1, 1]), length) for _ in range(2))
        for u, v in ((a, b), (b, a), (a, a)):
            expected = np.correlate(u, v, "full")
            cold, warm = _correlate(u, v), _correlate(u.copy(), v.copy())
            assert warm is cold and cold.dtype == np.int64 and np.array_equal(cold, expected)
        assert _correlation.cache_info()[:2] == (3, 3)  # (hits, misses)

    def test_result_is_read_only(self, pair64):
        values = _correlate(pair64.x, pair64.y)
        assert not values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0

    def test_callers_get_their_own_arrays(self, pair64):
        c = autocorrelation(pair64.x)
        assert not np.shares_memory(c, _correlate(pair64.x, pair64.x))
        c[:] = 0  # the caller's own array: writing it reaches no other caller
        assert is_golay_pair(*pair64) and is_golay_pair(*pair64)
        assert np.array_equal(autocorrelation(pair64.x), cross_correlation(pair64.x, pair64.x))
        assert autocorrelation(pair64.x)[63] == 64


class TestGolayPairs:
    def test_smallest_pair(self):
        assert is_golay_pair([1, 1], [1, -1])

    def test_not_complementary(self):
        assert not is_golay_pair([1, 1], [1, 1])

    def test_fixture_is_complementary(self, pair64):
        assert is_golay_pair(pair64.x, pair64.y)

    def test_complementarity_is_exact(self, pair64):
        total = autocorrelation(pair64.x) + autocorrelation(pair64.y)
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

    @pytest.mark.parametrize("log2_length", [17, 2.5, float("inf"), float("nan")])
    def test_log2_outside_the_bound_rejected(self, log2_length):
        with pytest.raises(ValueError, match=r"^log2_length must be an integer in \[0, 16\], got "):
            generate_golay_pair(log2_length)

    def test_a_length_passed_as_its_log2_fails_before_any_work(self, tmp_path):
        # 64 is a pair length: without the bound the pair doubled until the process was killed
        result = capped_python("from compwave import generate_golay_pair\ngenerate_golay_pair(64)", tmp_path)
        assert "ValueError: log2_length must be an integer in [0, 16], got 64" in result.stderr

    @pytest.mark.parametrize("argv", [["golay-gen", "--log2-length", "64"],
                                      ["evaluate", "--design", "d.json", "--pair", str(2 ** 64)]],
                             ids=["golay-gen", "evaluate"])
    def test_cli_rejects_lengths_past_the_bound_before_any_file(self, tmp_path, design_02, argv):
        design_02.save(tmp_path / "d.json")
        code = f"import sys\nfrom compwave.cli import main\nsys.exit(main({argv + ['--out-dir', 'out']!r}))"
        result = capped_python(code, tmp_path)
        assert result.returncode == 1, result.stderr
        assert result.stderr == "error: log2_length must be an integer in [0, 16], got 64\n"
        assert not (tmp_path / "out").exists()

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

    def test_pair_validates_each_sequence_once(self, monkeypatch):
        calls = []
        check = compwave.golay.as_biphase
        monkeypatch.setattr(compwave.golay, "as_biphase", lambda s: calls.append(s) or check(s))
        GolayPair(x=[1, 1], y=[1, -1])
        assert calls == [[1, 1], [1, -1]]


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
        assert np.array_equal(autocorrelation(reverse(s)), autocorrelation(s))

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

    def test_bundled_fixture_loads(self, monkeypatch):
        reads = []
        read = compwave.golay._read_json
        monkeypatch.setattr(compwave.golay, "_read_json",
                            lambda path, what, build: reads.append((Path(path).name, what)) or read(path, what, build))
        pair = length64_pair()
        assert pair.length == 64 and is_golay_pair(*pair)
        assert reads == [("length64_pair.json", "pair")]  # through the one JSON reader, like any pair file
