"""Golay complementary pair primitives.

Biphase (+1/-1) sequences, their aperiodic correlations, and the classic
recursive doubling construction.  A pair (x, y) of equal length L is
complementary when the autocorrelations cancel at every nonzero lag:

    C_x[k] + C_y[k] = 2 L delta_k.

Correlations of biphase inputs are computed by FFT and rounded to the
nearest integer, which is exact for any input up to about 2^28 long, loaded
or generated: the FFT's rounding error stays below 1/2 there (see
``_correlation``), and at that length its two transforms alone take 8 GB.
They are returned as new int64 arrays,
entry ``i`` at lag ``i - (L - 1)``, and complementarity is checked exactly.
The correlation convention throughout is the matched-filter one,

    C_ab[k] = sum_l a[l + k] conj(b[l]),   k = -(L-1) .. L-1,

which is precisely numpy's ``correlate`` in ``"full"`` mode with lags ascending.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
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


def _biphase_pair(a, b):
    """(a, b) as validated biphase arrays; ValueError unless their lengths match."""
    aa, bb = as_biphase(a), as_biphase(b)
    if aa.size != bb.size:
        raise ValueError(f"length mismatch: {aa.size} vs {bb.size}")
    return aa, bb


_CORRELATION_MEMO = 8  # correlations _correlation keeps
_MAX_LOG2_LENGTH = 16  # longest generated pair: 2^16


def _correlate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full aperiodic correlation of two validated biphase arrays, as exact, read-only int64.

    Taken from the memo of :func:`_correlation`, keyed on the int64 bytes
    of ``a`` and ``b``; callers copy or combine the result, never write it.
    """
    return _correlation(np.asarray(a, dtype=np.int64).tobytes(), np.asarray(b, dtype=np.int64).tobytes())


@functools.lru_cache(maxsize=_CORRELATION_MEMO)
def _correlation(a: bytes, b: bytes) -> np.ndarray:
    """The read-only correlation of the int64 sequences in ``a`` and ``b``; a memo of the last 8 pairs.

    It keeps at most 8 correlations with their keys (at L = 4096, 64 KB
    each plus 64 KB of key).  One FFT path serves any two lengths La, Lb:
    real FFTs of length n = 2^t >= La + Lb - 1 of a and of b reversed,
    multiplied and transformed back, in O(n log n), then ``np.rint``.
    Rounding gives the exact integers: each transform errs by at most
    t * eta in relative 2-norm, eta ~ 6.7 u (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., Thm 24.2), so an entry errs by at most
    about (3 t eta + 3 u) L^1.5 for +-1 inputs at most L long, whatever
    their source.  That stays below 1/2 up to L = 2^28 (t = 29: 0.29) and
    passes it at 2^29 (0.84); at 2^16 it is 6.4e-7.  Measured: at most
    2.7e-13 for the generated pairs at L = 4096, 3.9e-12 at 2^16, 2.9e-11
    for all ones at 2^16.
    """
    x, y = (np.frombuffer(s, dtype=np.int64).astype(float) for s in (a, b))
    size = x.size + y.size - 1
    n = 1 << (size - 1).bit_length()
    c = np.rint(np.fft.irfft(np.fft.rfft(x, n) * np.fft.rfft(y[::-1], n), n)[:size]).astype(np.int64)
    c.setflags(write=False)
    return c


def autocorrelation(s) -> np.ndarray:
    """Aperiodic autocorrelation C_s of a biphase sequence: the caller's own exact int64 array.

    Entry ``i`` is lag ``i - (L - 1)``, so ``np.arange(-(L - 1), L)`` is its
    lag axis and ``L - 1`` its zero lag.
    """
    arr = as_biphase(s)
    return _correlate(arr, arr).copy()


def cross_correlation(a, b) -> np.ndarray:
    """Aperiodic cross-correlation C_ab[k] = sum_l a[l+k] b[l], laid out like :func:`autocorrelation`.

    Both sequences must be biphase and of equal length.  Reduces to
    :func:`autocorrelation` when ``a`` and ``b`` coincide.
    """
    return _correlate(*_biphase_pair(a, b)).copy()


def is_golay_pair(x, y) -> bool:
    """True when the autocorrelations cancel exactly at every nonzero lag."""
    return _complementary(*_biphase_pair(x, y))


def _complementary(x: np.ndarray, y: np.ndarray) -> bool:
    """:func:`is_golay_pair` of two validated biphase arrays of one length."""
    total = _correlate(x, x) + _correlate(y, y)
    expected = np.zeros_like(total)
    expected[x.size - 1] = 2 * x.size
    return bool(np.array_equal(total, expected))


@dataclass(frozen=True)
class GolayPair:
    """A validated complementary pair of biphase sequences.

    Construction validates each sequence once, checks complementarity
    exactly and raises ``ValueError`` otherwise.  Unpacks like a tuple:
    ``x, y = pair``.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        xx, yy = _biphase_pair(self.x, self.y)
        if not _complementary(xx, yy):
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
    the length.  ``log2_length`` must be an integer in [0, 16], checked before any work.  The
    complementarity check rounds FFT correlations, exact far past 2^16 (see :func:`_correlation`).
    """
    if not 0 <= log2_length <= _MAX_LOG2_LENGTH or int(log2_length) != log2_length:
        raise ValueError(f"log2_length must be an integer in [0, {_MAX_LOG2_LENGTH}], got {log2_length}")
    x = np.array([1], dtype=np.int64)
    y = np.array([1], dtype=np.int64)
    for _ in range(int(log2_length)):
        x, y = np.concatenate([x, y]), np.concatenate([x, -y])
    return GolayPair(x=x, y=y)


def reverse(s) -> np.ndarray:
    """Time-reversed copy of a biphase sequence."""
    return as_biphase(s)[::-1].copy()


def length64_pair() -> GolayPair:
    """The bundled length-64 complementary pair used by the experiments, read by :meth:`GolayPair.load`."""
    return GolayPair.load(resources.files("compwave") / "data" / "length64_pair.json")


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
