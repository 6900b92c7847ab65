"""Golay complementary pair primitives.

Biphase (+1/-1) sequences, their aperiodic correlations, and the classic
recursive doubling construction.  A pair (x, y) of equal length L is
complementary when the autocorrelations cancel at every nonzero lag:

    C_x[k] + C_y[k] = 2 L delta_k.

Correlations of biphase inputs are float64 dot products, which are exact:
every product is +-1 and every partial sum an integer of magnitude at most
L < 2**53, so no operation rounds.  The results are returned as int64, and
complementarity is checked exactly rather than to a tolerance.
The correlation convention throughout is the matched-filter one,

    C_ab[k] = sum_l a[l + k] conj(b[l]),   k = -(L-1) .. L-1,

which is precisely numpy's ``correlate`` in ``"full"`` mode with lags ascending.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "CorrelationProfile",
    "GolayPair",
    "as_biphase",
    "autocorrelation",
    "cross_correlation",
    "is_golay_pair",
    "generate_golay_pair",
    "reverse",
    "length64_pair",
    "save_sequence",
    "load_sequence",
]


def as_biphase(seq) -> np.ndarray:
    """Validate a +1/-1 sequence and return it as an int64 array.

    Accepts any array-like whose entries compare equal to +1 or -1
    (ints, floats, a pre-built array).  Anything else is rejected.
    """
    arr = np.asarray(seq)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D sequence, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty sequence is not a valid biphase sequence")
    if not np.all((arr == 1) | (arr == -1)):
        raise ValueError("biphase sequences must contain only +1 and -1 entries")
    if np.iscomplexobj(arr):
        arr = arr.real
    return arr.astype(np.int64)


@dataclass(frozen=True)
class CorrelationProfile:
    """Aperiodic correlation values indexed by lag.

    ``values[i]`` holds the correlation at lag ``lags[i]``; lags run
    -(L-1) .. L-1 in ascending order.
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.size % 2 == 0:
            raise ValueError("correlation profile must have odd length 2L-1")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def length(self) -> int:
        """Length L of the underlying sequences."""
        return (self.values.size + 1) // 2

    @property
    def lags(self) -> np.ndarray:
        L = self.length
        return np.arange(-(L - 1), L)


def _biphase_pair(a, b):
    """(a, b) as validated biphase arrays; ValueError unless their lengths match."""
    aa, bb = as_biphase(a), as_biphase(b)
    if aa.size != bb.size:
        raise ValueError(f"length mismatch: {aa.size} vs {bb.size}")
    return aa, bb


def _correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full aperiodic correlation of two validated biphase arrays, as exact int64.

    Computed on float64 copies, where numpy has a vectorised dot product
    (several times faster than its int64 loop at L in the thousands).  The
    result is exact, with no error bound to state: every product is +-1
    and every partial sum an integer of magnitude at most min(len(a),
    len(b)) < 2**53, so each float64 operation is exact in any summation
    order, whatever the BLAS or FMA.
    """
    return np.correlate(a.astype(float), b.astype(float), "full").astype(np.int64)


def autocorrelation(s) -> CorrelationProfile:
    """Aperiodic autocorrelation of a biphase sequence, exact in int64."""
    arr = as_biphase(s)
    return CorrelationProfile(_correlate(arr, arr))


def cross_correlation(a, b) -> CorrelationProfile:
    """Aperiodic cross-correlation C_ab[k] = sum_l a[l+k] b[l].

    Both sequences must be biphase and of equal length.  Reduces to
    :func:`autocorrelation` when ``a`` and ``b`` coincide.
    """
    return CorrelationProfile(_correlate(*_biphase_pair(a, b)))


def is_golay_pair(x, y) -> bool:
    """True when the autocorrelations cancel exactly at every nonzero lag."""
    xx, yy = _biphase_pair(x, y)
    total = _correlate(xx, xx) + _correlate(yy, yy)
    expected = np.zeros_like(total)
    expected[xx.size - 1] = 2 * xx.size
    return bool(np.array_equal(total, expected))


@dataclass(frozen=True)
class GolayPair:
    """A validated complementary pair of biphase sequences.

    Construction checks complementarity exactly and raises ``ValueError``
    otherwise.  Unpacks like a tuple: ``x, y = pair``.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        xx, yy = as_biphase(self.x), as_biphase(self.y)
        if not is_golay_pair(xx, yy):
            raise ValueError("sequences are not a complementary pair")
        xx.setflags(write=False)
        yy.setflags(write=False)
        object.__setattr__(self, "x", xx)
        object.__setattr__(self, "y", yy)

    @property
    def length(self) -> int:
        return int(self.x.size)

    def __iter__(self):
        return iter((self.x, self.y))

    def save(self, path) -> None:
        _write_json(path, {"x": self.x.tolist(), "y": self.y.tolist()}, indent=None)

    @classmethod
    def load(cls, path) -> "GolayPair":
        return _read_json(path, "pair", lambda data: cls(x=data["x"], y=data["y"]))


def generate_golay_pair(log2_length: int) -> GolayPair:
    """Complementary pair of length 2**log2_length by recursive doubling.

    Starting from the seed pair ([1], [1]), each step maps (x, y) to
    (x || y, x || -y), which preserves complementarity while doubling
    the length.
    """
    if log2_length < 0 or int(log2_length) != log2_length:
        raise ValueError("log2_length must be a nonnegative integer")
    x = np.array([1], dtype=np.int64)
    y = np.array([1], dtype=np.int64)
    for _ in range(int(log2_length)):
        x, y = np.concatenate([x, y]), np.concatenate([x, -y])
    return GolayPair(x=x, y=y)


def reverse(s) -> np.ndarray:
    """Time-reversed copy of a biphase sequence."""
    return as_biphase(s)[::-1].copy()


def length64_pair() -> GolayPair:
    """The bundled length-64 complementary pair used by the experiments."""
    text = resources.files("compwave").joinpath("data/length64_pair.json").read_text()
    data = json.loads(text)
    return GolayPair(x=data["x"], y=data["y"])


def save_sequence(path, s) -> None:
    """Write a biphase sequence as a JSON array of +1/-1 integers."""
    _write_json(path, as_biphase(s).tolist(), indent=None)


def load_sequence(path) -> np.ndarray:
    """Read a JSON array of +1/-1 integers back into an int64 array."""
    return _read_json(path, "sequence", as_biphase)


def _write_json(path, data, indent=2) -> None:
    """Write ``data`` as JSON (``indent=None``: on one line) and a final newline: every JSON file the package writes."""
    Path(path).write_text(json.dumps(data, indent=indent) + "\n")


def _read_json(path, what: str, build):
    """``build(data)`` of the JSON ``data`` in ``path``: every JSON file the package reads.

    ValueError naming the file: ``malformed {what} file {path}: ...`` when
    it is not UTF-8 JSON or ``build`` finds a key or type missing
    (KeyError, TypeError), ``{path}: ...`` for any other ValueError of
    ``build`` (content it rejects).
    """
    try:
        return build(json.loads(Path(path).read_text()))
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed {what} file {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
