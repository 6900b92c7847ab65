"""Discrete cross-ambiguity maps of weighted complementary pulse trains.

For a pair (x, y) transmitted under a +/-1 schedule p and received with
complex weights w, the composite ambiguity at lag k and slow-time angle
theta splits into two terms,

    A(k, theta) = 1/2 (C_x[k] + C_y[k]) f_w(theta)
                + 1/2 (C_x[k] - C_y[k]) f_z(theta),

where z = p * w and f_v(theta) = sum_n v_n exp(j n theta) is the
slow-time response of a coefficient vector v.  For a complementary pair
the first term is exactly 2 L delta_k f_w, so every nonzero lag is
controlled by f_z alone and the zero lag carries L f_w.  The delay axis
obeys the same algebra with delay angles in place of Doppler angles.

A map therefore depends on the lag only through the integer pair
((C_x + C_y)[k], (C_x - C_y)[k]).  The builders here store one row per
distinct pair plus each lag's index into those rows (at L = 4096, 134
rows serve 8191 lags); peaks, sidelobe metrics and the CSV writers read
the rows.  The dense lag x angle array, (2L-1) x angles complex cells,
is built only when ``values`` or ``db`` is read, bit-identical to a
dense evaluation.  :class:`AmbiguityMap` itself wraps a dense array.

Angles are dimensionless phase increments per pulse (radians).
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .design import _integer, _responses, _schedule_weights, _vector, evaluation_grid
from .golay import _biphase_pair, _correlate, _write_json

__all__ = [
    "slow_time_response",
    "evaluation_grid",
    "AmbiguityMap",
    "discrete_ambiguity",
    "closed_form_ambiguity",
    "delay_ambiguity",
    "SidelobeMetrics",
    "sidelobe_metrics",
    "write_columns_csv",
    "write_two_column_csv",
]


_CELL = "%.17g"  # float CSV cell: 17 significant digits, an exact float64 round trip
_COMPLEX_CELL = _CELL + "%+.17gj"  # re+imj, signed imaginary part; parseable by complex()
_VARIANTS = {_CELL: [0], _COMPLEX_CELL: [1, 2]}  # the class of each float in a cell: plain, real, imaginary
_BLOCK = 4096  # floats per formatting block: bounds the working set
_IOV_MAX = max(16, os.sysconf("SC_IOV_MAX")) if hasattr(os, "writev") else 0  # buffers per writev call

# 10^k = hi + lo exactly for k = 0..44 (5^44 < 2^106), hi's Veltkamp halves, and the least double >= 10^x
_P10_HI = np.array([float(10 ** k) for k in range(45)])
_P10_LO = np.array([float(10 ** k - int(float(10 ** k))) for k in range(45)])
_P10_HH = _P10_HI * 134217729.0 - (_P10_HI * 134217729.0 - _P10_HI)
_P10_HL = _P10_HI - _P10_HH
_LEAST = np.array([np.nextafter(t, np.inf) if f"{t:.40e}"[0] == "9" else t  # t, the nearest double, is under 10^x
                   for t in (float(f"1e{x}") for x in range(-28, 18))])


def _cell_tables():
    """The slot templates and digit words of :func:`_unsigned_block`.

    A cell shape is (k = 16 - X, or 45 for 0, 46 for inf; n digits; class v); its 48 byte slots, at row
    (17 k + n - 1) 3 + v, are 0 sign ("+" of an imaginary part) | 1-5 "0.000" | 6 + 2i digit i, 7 + 2i a "."
    after it | 40-43 "e-XX" or "inf" | 44-45 separator, each holding its character, 0xFF for a digit, or 0.
    """
    k, n, v = (a.ravel() for a in np.meshgrid(np.arange(47), np.arange(1, 18), np.arange(3), indexing="ij"))
    x, chars = 16 - k, lambda text: np.frombuffer(text, np.uint8)
    fixed, sci = (k < 45) & (x >= -4), (k < 45) & (x < -4)
    whole = fixed & (x >= 0)  # integer digits are printed even when zero
    shown = np.where(k == 45, 1, np.where(whole, np.maximum(n, x + 1), n) * (k < 45))
    dot = np.where(whole & (n > x + 1), x, np.where(sci & (n > 1), 0, -1))
    s = np.zeros((k.size, 48), np.uint8)
    s[:, 0] = (v == 2) * np.uint8(ord("+"))
    s[:, 1:6] = np.where(fixed[:, None] & (x[:, None] < 0) & (np.arange(5) < 1 - x[:, None]), chars(b"0.000"), 0)
    s[:, 6:40:2] = (np.arange(17) < shown[:, None]) * np.uint8(0xFF)
    s[:, 7:41:2] = (np.arange(17) == dot[:, None]) * np.uint8(ord("."))
    exponent = np.stack([np.full_like(x, ord("e")), np.full_like(x, ord("-")), 48 + -x // 10, 48 + -x % 10], 1)
    s[:, 40:44] = np.where(sci[:, None], exponent, np.where((k == 46)[:, None], chars(b"inf\0"), 0))
    s[:, 44:46] = chars(b",\0\0\0j,").reshape(3, 2)[v]
    q = np.arange(10000, dtype=np.uint16)
    quads = np.repeat(q[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48, 2, 1)  # in even bytes of 8
    quads = np.where(np.arange(8) % 2, 0xFF, quads).astype(np.uint8).view(np.uint64).ravel()
    first = (np.uint64(2 ** 64 - 1) & ~np.uint64(0xFF << 48)) | (np.arange(10, dtype=np.uint64) + 48 << np.uint64(48))
    zeros = np.sum([q % 10 ** j == 0 for j in (1, 2, 3)], axis=0)  # trailing zeros of a group of 4
    # significant digits of D when group c is its last nonzero one (1 for a zero group)
    significant = [np.where(q == 0, 1, 4 * c + 5 - zeros).astype(np.uint8) for c in range(4)]
    return s.view(np.uint64), (s != 0).sum(1), quads, first, significant


_SLOTS, _LENGTHS, _QUADS, _FIRST, _SIGNIFICANT = _cell_tables()


def _unsigned_block(a: np.ndarray, variants: np.ndarray, last: bool):
    """(byte slots, text length per row, rows left to the % template) of the 2-D block ``a`` of float64 |cells|.

    A cell's 48 slots hold ``%.17g`` of its magnitude and its column's variant ("+" and "j" of an imaginary part,
    separator), zeros between; slot 0 alone takes a sign.  A ``last`` block ends its rows with "\n".  For a in
    [1e-28, 1e17), D = round(a 10^k) with k = 16 - X exact: the binary exponent e gives X or X - 1 (no nonzero
    (e - 1) log10 2 in range is within 0.004 of an integer), the least double >= 10^(X+1) settles which.  The product
    is exact for k <= 22, so ties go half-even as in Gay's dtoa, and within 1e-14 for k > 22, so a fraction that
    close to 1/2 is left to the template.  So are nan and other cells out of range but 0, inf.
    """
    shape, a = a.shape, a.ravel()
    c = np.fmin(np.fmax(a, _LEAST[0]), np.nextafter(_LEAST[-1], 0))
    special = np.flatnonzero(a != c)
    a = a[special]
    i = np.maximum((np.frexp(c)[1] - 1) * 78913 >> 18, -28) + 28  # 78913 / 2^18 = log10 2 - 8e-7
    k = 44 - i - (c >= _LEAST.take(i + 1))
    p = c * _P10_HI.take(k)  # p + e = c hi exactly (Dekker)
    ch = c * 134217729.0
    ch -= ch - c  # Veltkamp split: c = ch + cl, each half fits 26 bits
    cl = c - ch
    hh, hl = _P10_HH.take(k), _P10_HL.take(k)
    e = ch * hh - p + ch * hl + cl * hh + cl * hl + c * _P10_LO.take(k)  # in Dekker's order; exact but for c lo
    r = np.rint(e)
    unsure = (np.abs(e - r) > 0.5 - 1e-14) & (k > 22)
    D = p.astype(np.int64) + r.astype(np.int64)  # p >= 2^53 is even: half-even on e is half-even on D
    del c, i, p, ch, cl, hh, hl, e, r
    top = np.flatnonzero(D == 10 ** 17)
    D[top], k[top] = 10 ** 16, k[top] - 1
    if special.size:
        D[special], k[special] = 0, np.where(a == 0, 45, 46)
        unsure[special] = (a != 0) & (a != np.inf)
    quads = []  # the last 16 digits in groups of 4, first group first; D keeps the first digit
    for _ in range(4):  # a division by the scalar and a multiply-subtract: faster than np.divmod
        D, whole = D // 10 ** 4, D
        quads.insert(0, whole - D * 10 ** 4)
    n = np.maximum.reduce([table.take(q) for table, q in zip(_SIGNIFICANT, quads)])
    key = (k * 51 + n * 3).reshape(shape) + (variants - 3)
    slots = _SLOTS.take(key.ravel(), axis=0)
    slots[:, 0] &= _FIRST.take(D)
    for j, q in enumerate(quads, 1):
        slots[:, j] &= _QUADS.take(q)
    del k, n, quads, D
    slots = slots.view(np.uint8).reshape(*shape, 48)
    if last:
        slots[:, -1, 44 + (variants[-1] == 2)] = ord("\n")
    return slots, _LENGTHS.take(key).sum(1), unsure.reshape(shape).any(1)


def _printf_row(row: np.ndarray, cell_fmt: str) -> bytes:
    """The float64 ``row`` printed by ``%`` with ``cell_fmt`` repeated across it, then "\n": the cells' definition."""
    return (",".join([cell_fmt] * (row.size // cell_fmt.count("%"))) % tuple(row.tolist()) + "\n").encode()


def _row_texts(rows: np.ndarray, cell_fmt: str) -> list:
    """Each row of the 2-D float64 array ``rows`` printed with ``cell_fmt`` repeated across it, as bytes ending in "\n".

    Blocks of whole rows (of row pieces, for rows longer than a block) go through :func:`_unsigned_block`, then
    each negative cell gets its "-".  Complex rows equal up to signs, as the rows at lags +-d are up to the signs
    of zeros, share that pass; float rows are not grouped: hashing a column file's rows costs more than it saves.
    """
    width = rows.shape[1]
    if not width:
        return [b"\n"] * len(rows)
    span = min(width, _BLOCK)
    step = _BLOCK // span
    variants = np.tile(np.array(_VARIANTS[cell_fmt], dtype=np.intp), width // len(_VARIANTS[cell_fmt]))
    group = heads = np.arange(len(rows))  # row -> its magnitude's group (in order of first use); group -> first row
    if cell_fmt == _COMPLEX_CELL:
        shared = {}
        group = np.array([shared.setdefault(np.abs(row).tobytes(), len(shared)) for row in rows])
        heads = np.unique(group, return_index=True)[1]
    out, unsure = np.empty(len(rows), object), np.zeros(len(rows), bool)
    for g0 in range(0, len(heads), step):
        members = np.flatnonzero((group >= g0) & (group < g0 + step))
        local, parts = group[members] - g0, []
        for c0 in range(0, width, span):
            cols = slice(c0, c0 + span)
            slots, lengths, bad = _unsigned_block(np.abs(rows[heads[g0:g0 + step], cols]), variants[cols],
                                                  c0 + span >= width)
            if members.size > len(slots):  # some rows share a magnitude: each takes a copy of its slots
                slots = slots.take(local, axis=0)
            negative = np.signbit(rows[members, cols])  # a "-" adds a byte, or replaces an imaginary part's "+"
            np.copyto(slots[..., 0], ord("-"), where=negative)
            ends = np.cumsum(lengths[local] + (negative & (variants[cols] != 2)).sum(1)).tolist()
            text = slots.tobytes().translate(None, b"\0")
            del slots  # before the next block's: bounds the working set
            parts.append([text[start:end] for start, end in zip([0] + ends, ends)])
            unsure[members] |= bad[local]
        out[members] = parts[0] if len(parts) == 1 else list(map(b"".join, zip(*parts)))
    for i in np.flatnonzero(unsure):
        out[i] = _printf_row(rows[i], cell_fmt)
    return out.tolist()


def slow_time_response(coeffs, angles) -> np.ndarray:
    """f_v(theta) = sum_n v_n exp(j n theta) of the 1-D ``coeffs``, at each of the 1-D ``angles`` (one :func:`_responses` pass)."""
    return _responses(_vector(angles, "angles", float), _vector(coeffs, "coeffs"))[0]


def _grid_index(angles: np.ndarray, angle: float) -> int:
    """Index of ``angle`` on an evaluation grid; ValueError when it is off the grid."""
    idx = int(np.argmin(np.abs(angles - angle)))
    span = max(1.0, float(angles.max() - angles.min()))
    if not abs(angles[idx] - angle) <= 1e-9 * span:  # also rejects nan
        raise ValueError(f"angle {angle} not on the evaluation grid")
    return idx


def _lag_position(length: int, lag) -> int:
    """Row position of ``lag`` on the axis -(L-1)..L-1; ValueError unless an integer (3.0 is one) on it."""
    k = _integer(lag, "lag")
    if not -(length - 1) <= k <= length - 1:
        raise ValueError(f"lag {lag} outside [-{length - 1}, {length - 1}]")
    return k + length - 1


def _db_peak(ref, source: str = "reference peak") -> float:
    """``ref`` as the float a dB normalization divides by; ValueError unless finite and positive."""
    ref = float(ref)
    if not (np.isfinite(ref) and ref > 0):
        raise ValueError(f"{source} must be finite and positive for a dB normalization, got {ref}")
    return ref


def _lag_rows(*columns):
    """(the distinct rows of the int64 per-lag coefficient ``columns``, index): lag k uses row ``index[k]``."""
    coef = np.column_stack(columns)
    span = 2 * int(np.abs(coef).max()) + 1
    keys = np.zeros(len(coef), dtype=np.int64)
    for col in coef.T:  # balanced base-span digits: one key per distinct row
        keys = keys * span + col
    _, first, index = np.unique(keys, return_index=True, return_inverse=True)
    return coef[first], index.ravel()


class AmbiguityMap:
    """Sampled map A(k, theta): rows are lags -(L-1)..L-1, columns angles.

    ``AmbiguityMap(values=..., angles=...)`` wraps a dense lag x angle
    array, each row its own lag; it keeps read-only copies of ``values``
    and ``angles``, so the caller's arrays stay writable and later writes
    to them do not reach the map.  The library's builders store a map
    factored instead: the distinct lag rows and, for every lag k, the
    index of its row (see the module docstring).  ``peak``, ``mainlobe``,
    the sidelobe quantities, :meth:`metadata` and the CSV writers work on
    the rows.  ``values`` gathers the dense array on first read and keeps
    it; ``db`` gathers a new one on each read.  The CSV writers format
    through the map's row-text memo (:meth:`to_csv`): its own, or the one
    its builder call shares.
    """

    def __init__(self, values, angles, kind: str = "doppler", n_pulses: int = None):
        rows = np.array(values, dtype=complex, ndmin=2)
        ang = _vector(angles, "angles", float)
        if len(rows) % 2 == 0:
            raise ValueError("lag axis must have odd length 2L-1")
        if rows.shape[1] != ang.size:
            raise ValueError("angle axis does not match the number of columns")
        self._adopt(rows, ang, kind, n_pulses, np.arange(len(rows)), {})
        self._values = rows

    @classmethod
    def _built(cls, rows, angles, kind, n_pulses, index, texts: dict, mirror=None) -> "AmbiguityMap":
        """A map over arrays the library has just built and hands over, unchecked and uncopied; ``texts``: its row-text memo."""
        amap = cls.__new__(cls)
        amap._adopt(rows, angles, kind, n_pulses, index, texts, mirror)
        return amap

    def _adopt(self, rows, angles, kind, n_pulses, index, texts, mirror=None) -> None:
        """Keep the arrays as the map's own, read-only.  ``mirror``: the map whose lag axis this one reverses."""
        for array in (rows, angles, index):
            array.setflags(write=False)
        self._rows, self._index, self._values, self._mirror, self._texts = rows, index, None, mirror, texts
        self.angles, self.kind, self.n_pulses = angles, kind, n_pulses

    @property
    def values(self) -> np.ndarray:
        """The dense complex map, gathered from the distinct rows on first use (read-only).

        A mirror map (HV of :func:`~compwave.polarimetric.polarimetric_ambiguities`,
        VH's lags reversed over VH's rows) gathers nothing of its own: its
        ``values`` is VH's dense array reversed along the lag axis, a
        read-only view of the same memory that is not C-contiguous.  The
        array is gathered once, by whichever of the two is read first.
        """
        if self._values is None:
            if self._mirror is None:
                self._values = self._rows[self._index]
                self._values.setflags(write=False)
            else:
                self._values = self._mirror.values[::-1]
        return self._values

    @property
    def sequence_length(self) -> int:
        return (self._index.size + 1) // 2

    @property
    def lags(self) -> np.ndarray:
        L = self.sequence_length
        return np.arange(-(L - 1), L)

    @functools.cached_property
    def peak(self) -> float:
        """max |A| over the map, computed once: the rows are read-only."""
        return float(np.abs(self._rows).max())

    def _row(self, i: int) -> np.ndarray:
        """The row at lag position ``i`` (lag ``i - (L-1)``)."""
        return self._rows[self._index[i]]

    @property
    def mainlobe(self) -> np.ndarray:
        """The zero-lag row A(0, theta)."""
        return self._row(self.sequence_length - 1)

    def sidelobe_peaks(self) -> np.ndarray:
        """max_{k != 0} |A(k, theta)| per angle.

        The zero lag is left out by position: its row may also serve
        nonzero lags, and then it counts for them.  A length-1 pair's map
        has no nonzero lag: ``ValueError``.
        """
        if self.sequence_length == 1:
            raise ValueError("a length-1 pair has no sidelobes: its map has no nonzero lag")
        return np.abs(self._rows[np.unique(np.delete(self._index, self.sequence_length - 1))]).max(axis=0)

    def _db_reference(self, reference: float = None) -> float:
        """The dB normalization: ``reference``, else the map's own peak; ValueError unless finite and positive."""
        return _db_peak(self.peak, "map peak") if reference is None else _db_peak(reference)

    def _db_rows(self, reference: float = None) -> np.ndarray:
        """20 log10(|row| / reference) per distinct row; the map's own peak by default."""
        ref = self._db_reference(reference)
        # rows with negated coefficients differ only in sign: negation is exact up to
        # the sign of a zero and abs drops that sign, so their dB rows are
        # bit-identical and share one row-text memo key
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.abs(self._rows) / ref)

    @property
    def db(self) -> np.ndarray:
        """20 log10 of the magnitude, normalized so the global peak is 0 dB.

        A zero, nan or infinite peak has no normalization: ``ValueError``.
        """
        return self._db_rows()[self._index]

    def lag_index(self, lag: int) -> int:
        """Row position of ``lag``; ValueError for a non-integer lag or one off the lag axis."""
        return _lag_position(self.sequence_length, lag)

    def angle_index(self, angle: float) -> int:
        return _grid_index(self.angles, angle)

    def metadata(self) -> dict:
        return {
            "L": self.sequence_length,
            "N": self.n_pulses,
            "kind": self.kind,
            "interval": [float(self.angles.min()), float(self.angles.max())],
            "normalization_peak": self.peak,
        }

    def to_csv(self, path) -> None:
        """Complex values; header row of angles, first column of lags.

        Row texts, the angle header's included, go to a memo keyed on cell
        format and row bytes that the map keeps while it lives and shares
        with the other maps of the builder call that made it (the four
        polarimetric channels share most rows): each is formatted once, and
        rows equal up to signs share one digit pass.  The file goes out in
        vectored writes of its lags' parts, never joined (:func:`_write_parts`).
        """
        self._write_csv(path, np.ascontiguousarray(self._rows).view(float), _COMPLEX_CELL)

    def db_to_csv(self, path, reference: float = None) -> None:
        """dB magnitudes in the same layout as :meth:`to_csv`, with the same row-text memo.

        Normalized to the map's own peak by default; pass ``reference``
        to express the map relative to an external peak (values may then
        exceed 0 dB).  The reference must be finite and positive.
        """
        self._write_csv(path, self._db_rows(reference), _CELL)

    def _memo_texts(self, rows, cell_fmt) -> list:
        """:func:`_row_texts` of ``rows`` through the memo, keyed on ``(cell_fmt, row bytes)``: -0.0 prints unlike 0.0."""
        keys = [(cell_fmt, row.tobytes()) for row in rows]
        todo = {key: i for i, key in enumerate(keys) if key not in self._texts}
        new = rows if len(todo) == len(rows) else rows[list(todo.values())]
        self._texts.update(zip(todo, _row_texts(new, cell_fmt)))
        return [self._texts[key] for key in keys]

    def _write_csv(self, path, rows, cell_fmt) -> None:
        header = self._memo_texts(self.angles[None], _CELL)[0]
        lines = self._memo_texts(rows, cell_fmt)
        parts = [b"lag,", header] + [b""] * (2 * self._index.size)
        parts[2::2] = [b"%d," % lag for lag in self.lags.tolist()]
        parts[3::2] = [lines[r] for r in self._index.tolist()]
        _write_parts(path, parts)

    def save_metadata(self, path) -> None:
        _write_json(path, self.metadata())


def _two_terms(pair, p, w, angles):
    """The validated inputs and the two terms of A(k, theta) = even + odd, one row per coefficient pair.

    Returns (x, y, angles, N, f_w, f_z, sums, even, odd, index).  The
    distinct int64 pairs (s, d) = ((C_x + C_y)[k], (C_x - C_y)[k]) over
    the lags k give the rows even = 1/2 s f_w(theta) and
    odd = 1/2 d f_z(theta); ``sums`` holds s per row, and lag k uses row
    ``index[k]``.  A row takes the same IEEE operations as the dense outer
    product at each of its lags, so gathering reproduces that array bit
    for bit.  f_w and f_z are two mat-vecs on the one phase matrix of a
    :func:`_responses` pass; a single matmul over both may round
    differently.
    """
    ang = _vector(angles, "angles", float)
    x, y = _biphase_pair(*pair)
    pp, ww = _schedule_weights(p, w)
    fw, fz = _responses(ang, ww, pp * ww)
    cx = _correlate(x, x)
    cy = _correlate(y, y)
    coef, index = _lag_rows(cx + cy, cx - cy)
    even = 0.5 * np.outer(coef[:, 0], fw)
    odd = 0.5 * np.outer(coef[:, 1], fz)
    return x, y, ang, int(pp.size), fw, fz, coef[:, 0], even, odd, index


def discrete_ambiguity(pair, p, w, angles, kind: str = "doppler") -> AmbiguityMap:
    """Direct two-term evaluation of A(k, theta); works for any biphase pair.

    Parameters
    ----------
    pair : GolayPair or (x, y)
        Equal-length biphase sequences.
    p, w : array-like
        +/-1 transmit schedule and complex receive weights, length N.
    angles : array-like
        Evaluation angles (radians per pulse).
    kind : str
        Axis label carried into the map metadata ("doppler" or "delay").
    """
    _, _, ang, n, _, _, _, even, odd, index = _two_terms(pair, p, w, angles)
    even += odd
    return AmbiguityMap._built(even, ang, kind, n, index, {})


def closed_form_ambiguity(pair, p, w, angles, kind: str = "doppler") -> AmbiguityMap:
    """Map via the complementary-pair reduction.

    Nonzero lags reduce to 1/2 (C_x - C_y)[k] f_z(theta) and the zero lag
    to L f_w(theta).  Requires an exactly complementary pair, checked on
    the integer correlations the map is built from; other pairs are
    rejected because the reduction does not hold for them.
    """
    x, _, ang, n, fw, _, sums, _, odd, index = _two_terms(pair, p, w, angles)
    # exact complementarity: C_x + C_y vanishes at every nonzero lag, so
    # the zero lag (sum 2L) is the only lag on its row
    if sums[np.delete(index, x.size - 1)].any():
        raise ValueError("closed form requires a complementary pair")
    odd[index[x.size - 1], :] = x.size * fw
    return AmbiguityMap._built(odd, ang, kind, n, index, {})


def delay_ambiguity(pair, p, w, angles) -> AmbiguityMap:
    """Delay-axis map B(i, alpha): same algebra, delay angles per pulse."""
    return discrete_ambiguity(pair, p, w, angles, "delay")


@dataclass(frozen=True)
class SidelobeMetrics:
    """Per-angle mainlobe profile and peak-to-reference sidelobe levels.

    ``prsl_db`` compares the worst nonzero-lag magnitude at each angle to
    a fixed reference peak: the map's own mainlobe maximum unless one is
    supplied.
    """

    angles: np.ndarray
    profile: np.ndarray
    prsl_db: np.ndarray
    reference_peak: float

    def profile_to_csv(self, path) -> None:
        write_two_column_csv(path, self.angles, self.profile, ("angle", "mainlobe_magnitude"))

    def prsl_to_csv(self, path) -> None:
        write_two_column_csv(path, self.angles, self.prsl_db, ("angle", "prsl_db"))


def sidelobe_metrics(amap: AmbiguityMap, reference_peak: float = None) -> SidelobeMetrics:
    """Sidelobe metrics of a map, from its distinct rows; rejects the all-zero map, a length-1 pair's map
    and a supplied ``reference_peak`` that is not finite and positive (the default, the mainlobe maximum, may be 0)."""
    if not amap._rows.any():
        raise ValueError("all-zero map has no sidelobe metrics")
    profile = np.abs(amap.mainlobe)
    side = amap.sidelobe_peaks()
    ref = float(profile.max()) if reference_peak is None else _db_peak(reference_peak)
    with np.errstate(divide="ignore", invalid="ignore"):
        prsl = 20.0 * np.log10(side / ref)
    return SidelobeMetrics(angles=amap.angles, profile=profile, prsl_db=prsl, reference_peak=ref)


def write_columns_csv(path, labels, columns) -> None:
    """CSV of equal-length float columns, one per label, with 17-significant-digit cells."""
    cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in columns]
    if len({c.size for c in cols}) > 1 or len(cols) != len(labels):
        raise ValueError("column length mismatch: need equal-length columns, one per label")
    _write_parts(path, [(",".join(labels) + "\n").encode(), b"".join(_row_texts(np.column_stack(cols), _CELL))])


def _write_parts(path, parts: list) -> None:
    """Write the bytes ``parts``, in order, as the file at ``path``: every CSV file the package writes.

    Vectored writes of up to IOV_MAX parts on the unbuffered file; a short write resumes at its first unwritten
    byte.  Where ``os`` has no ``writev``, a buffered file takes the parts one by one.
    """
    if not hasattr(os, "writev"):
        with open(path, "wb") as fh:
            return fh.writelines(parts)
    with open(path, "wb", buffering=0) as fh:
        start = 0
        while start < len(parts):
            batch = parts[start:start + _IOV_MAX]
            left = sum(map(len, batch)) - os.writev(fh.fileno(), batch)
            start += len(batch)
            while left > 0:  # a short write: back to the part that holds the first unwritten byte
                start -= 1
                size = len(parts[start])
                if size >= left:
                    parts[start] = memoryview(parts[start])[size - left:]
                left -= size


def write_two_column_csv(path, first, second, labels=("angle", "value")) -> None:
    """Two-column CSV with 17-significant-digit cells."""
    write_columns_csv(path, labels, (first, second))
