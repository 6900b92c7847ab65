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
((C_x + C_y)[k], (C_x - C_y)[k]), and :class:`AmbiguityMap` stores one
row per distinct pair plus each lag's index into those rows: at L = 4096
134 rows serve 8191 lags.  Peaks, sidelobe metrics and the CSV writers
read the rows.  The dense lag x angle array, (2L-1) x angles complex
cells, is built only when ``values`` or ``db`` is read, bit-identical
to a dense evaluation.

Angles are dimensionless phase increments per pulse (radians).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import _integer, _responses, _schedule_weights, evaluation_grid
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
_VARIANTS = {_CELL: [0], _COMPLEX_CELL: [2, 4]}  # 2 x class of each float in a cell: plain, real, imaginary
_BLOCK = 4096  # floats per formatting block: bounds the working set

# 10^k = hi + lo exactly for k = 0..44 (5^44 < 2^106), hi's Veltkamp halves, and the least double >= 10^x
_P10_HI = np.array([float(10 ** k) for k in range(45)])
_P10_LO = np.array([float(10 ** k - int(float(10 ** k))) for k in range(45)])
_P10_HH = _P10_HI * 134217729.0 - (_P10_HI * 134217729.0 - _P10_HI)
_P10_HL = _P10_HI - _P10_HH
_LEAST = np.array([np.nextafter(t, np.inf) if f"{t:.40e}"[0] == "9" else t  # t, the nearest double, is under 10^x
                   for t in (float(f"1e{x}") for x in range(-28, 18))])


def _cell_tables():
    """The slot templates and digit words of :func:`_format_block`.

    A cell shape is (k = 16 - X, or 45 for 0, 46 for inf; n digits; v = 2 class + sign); its 48 byte slots,
    at row (17 k + n - 1) 6 + v, are 0 sign | 1-5 "0.000" | 6 + 2i digit i, 7 + 2i a "." after it | 40-43
    "e-XX" or "inf" | 44-45 separator, each holding its character, 0xFF for a printed digit, or 0.
    """
    k, n, v = (a.ravel() for a in np.meshgrid(np.arange(47), np.arange(1, 18), np.arange(6), indexing="ij"))
    x, chars = 16 - k, lambda text: np.frombuffer(text, np.uint8)
    fixed, sci = (k < 45) & (x >= -4), (k < 45) & (x < -4)
    whole = fixed & (x >= 0)  # integer digits are printed even when zero
    shown = np.where(k == 45, 1, np.where(whole, np.maximum(n, x + 1), n) * (k < 45))
    dot = np.where(whole & (n > x + 1), x, np.where(sci & (n > 1), 0, -1))
    s = np.zeros((k.size, 48), np.uint8)
    s[:, 0] = np.select([v % 2 == 1, v // 2 == 2], [ord("-"), ord("+")])
    s[:, 1:6] = np.where(fixed[:, None] & (x[:, None] < 0) & (np.arange(5) < 1 - x[:, None]), chars(b"0.000"), 0)
    s[:, 6:40:2] = (np.arange(17) < shown[:, None]) * np.uint8(0xFF)
    s[:, 7:41:2] = (np.arange(17) == dot[:, None]) * np.uint8(ord("."))
    exponent = np.stack([np.full_like(x, ord("e")), np.full_like(x, ord("-")), 48 + -x // 10, 48 + -x % 10], 1)
    s[:, 40:44] = np.where(sci[:, None], exponent, np.where((k == 46)[:, None], chars(b"inf\0"), 0))
    s[:, 44:46] = chars(b",\0\0\0j,").reshape(3, 2)[v // 2]
    q = np.arange(10000, dtype=np.uint16)
    quads = np.repeat(q[:, None] // np.array([1000, 100, 10, 1], np.uint16) % 10 + 48, 2, 1)  # in even bytes of 8
    quads = np.where(np.arange(8) % 2, 0xFF, quads).astype(np.uint8).view(np.uint64).ravel()
    first = (np.uint64(2 ** 64 - 1) & ~np.uint64(0xFF << 48)) | (np.arange(10, dtype=np.uint64) + 48 << np.uint64(48))
    zeros = np.sum([q % 10 ** j == 0 for j in (1, 2, 3)], axis=0)  # trailing zeros of a group of 4
    # significant digits of D when group c is its last nonzero one (1 for a zero group)
    significant = [np.where(q == 0, 1, 4 * c + 5 - zeros).astype(np.uint8) for c in range(4)]
    return s.view(np.uint64), (s != 0).sum(1), quads, first, significant


_SLOTS, _LENGTHS, _QUADS, _FIRST, _SIGNIFICANT = _cell_tables()


def _format_block(v: np.ndarray, variants: np.ndarray, last: bool):
    """(text bytes, text length per row, rows left to the % template) of the 2-D float64 block ``v``.

    Each float is ``%.17g`` plus its column's variant (separator; forced sign and "j" for an imaginary
    part); a ``last`` block ends its rows with "\n".  For |v| in [1e-28, 1e17), D = round(|v| 10^k) with
    k = 16 - X exact (checked against the least double >= 10^X); the product is exact for k <= 22, so
    ties go half-even as in Gay's dtoa, and within 1e-14 for k > 22, so a fraction that close to 1/2
    is left to the template.  So are nan ("nan" whatever its sign) and other cells out of range but 0, inf.
    """
    a = np.abs(v).ravel()
    c = np.fmin(np.fmax(a, _LEAST[0]), np.nextafter(_LEAST[-1], 0))
    special = np.flatnonzero(a != c)
    a = a[special]
    i = np.clip(np.floor(np.log10(c)), -28, 16).astype(np.intp) + 28
    k = 44 - i + (c < _LEAST.take(i)) - (c >= _LEAST.take(i + 1))
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
    first, D = np.divmod(D, 10 ** 16)
    quads = [group for half in np.divmod(D, 10 ** 8) for group in np.divmod(half, 10 ** 4)]  # 4 digits each
    del D
    n = np.maximum.reduce([table.take(q) for table, q in zip(_SIGNIFICANT, quads)])
    key = k * 102 + n * 6 + (np.signbit(v) + variants).ravel() - 6
    slots = _SLOTS.take(key, axis=0)
    slots[:, 0] &= _FIRST.take(first)
    for j, q in enumerate(quads, 1):
        slots[:, j] &= _QUADS.take(q)
    del k, n, quads, first
    slots = slots.view(np.uint8).reshape(*v.shape, 48)
    if last:
        slots[:, -1, 44 + (variants[-1] == 4)] = ord("\n")
    lengths = _LENGTHS.take(key).reshape(v.shape).sum(1)
    slots = slots.tobytes()
    return slots.translate(None, b"\0"), lengths, unsure.reshape(v.shape).any(1)


def _printf_row(row: np.ndarray, cell_fmt: str) -> bytes:
    """The float64 ``row`` printed by ``%`` with ``cell_fmt`` repeated across it, then "\n": the cells' definition."""
    return (",".join([cell_fmt] * (row.size // cell_fmt.count("%"))) % tuple(row.tolist()) + "\n").encode()


def _row_texts(rows: np.ndarray, cell_fmt: str, texts: dict = None) -> list:
    """Each row of the 2-D float64 array ``rows`` printed with ``cell_fmt`` repeated across it, as bytes ending in "\n".

    With a memo ``texts``, a row's text is looked up in, or added to, it
    under ``(cell_fmt, row bytes)``: bytes, not float equality, since 0.0
    and -0.0 print differently.  Rows are formatted in blocks of whole
    rows (of row pieces, for rows longer than a block): :func:`_format_block`.
    """
    if texts is not None:
        keys = [(cell_fmt, row.tobytes()) for row in rows]
        todo = {key: i for i, key in enumerate(keys) if key not in texts}
        new = rows if len(todo) == len(rows) else rows[list(todo.values())]
        texts.update(zip(todo, _row_texts(new, cell_fmt)))
        return [texts[key] for key in keys]
    width = rows.shape[1]
    if not width:
        return [b"\n"] * len(rows)
    span = min(width, _BLOCK)
    step = _BLOCK // span
    variants = np.tile(np.array(_VARIANTS[cell_fmt], dtype=np.intp), width // len(_VARIANTS[cell_fmt]))
    out, unsure = [], np.zeros(len(rows), bool)
    for r0 in range(0, len(rows), step):
        parts = []
        for c0 in range(0, width, span):
            text, lengths, bad = _format_block(rows[r0:r0 + step, c0:c0 + span], variants[c0:c0 + span],
                                               c0 + span >= width)
            ends = np.cumsum(lengths).tolist()
            parts.append([text[start:end] for start, end in zip([0] + ends, ends)])
            unsure[r0:r0 + step] |= bad
        out += parts[0] if len(parts) == 1 else map(b"".join, zip(*parts))
    for i in np.flatnonzero(unsure):
        out[i] = _printf_row(rows[i], cell_fmt)
    return out


def _write_matrix_csv(path, header: bytes, rows: np.ndarray, cell_fmt: str = _CELL, index=None, lags=None,
                      texts: dict = None) -> None:
    """Write the line ``header``, then one line per entry of ``index`` (default: each row in order).

    A line is the row of the 2-D float64 array ``rows`` that its entry
    names, printed with ``cell_fmt`` repeated across the row (it may take
    several floats per cell); each row is formatted once however many
    lines use it, and once across several writes that share one memo
    ``texts`` (see :func:`_row_texts`).  ``lags``, when given, are
    written as a first column.
    """
    lines = _row_texts(rows, cell_fmt, texts)
    order = range(len(lines)) if index is None else index.tolist()
    with open(path, "wb") as fh:
        fh.write(header)
        if lags is None:
            fh.write(b"".join([lines[r] for r in order]))
        else:
            for lag, r in zip(lags, order):
                fh.write(b"%d," % lag)
                fh.write(lines[r])


def slow_time_response(coeffs, angles) -> np.ndarray:
    """f_v(theta) = sum_n v_n exp(j n theta), evaluated at each angle (one :func:`_responses` pass)."""
    v = np.asarray(coeffs, dtype=complex).ravel()
    return _responses(np.asarray(angles, dtype=float), v)[0]


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

    Stored factored: the distinct lag rows ``values`` and, for every lag
    k, the ``index[k]`` of its row (see the module docstring); an
    ``index`` that is not 1-D integer, names a row that does not exist or
    leaves a row unused is a ``ValueError``.  ``index=None`` makes each row its own lag,
    so ``AmbiguityMap(values=..., angles=...)`` wraps a dense array.
    ``peak``, ``mainlobe``, the sidelobe quantities, :meth:`metadata` and
    the CSV writers work on the rows.  ``values`` gathers the dense lag x
    angle array on first read and keeps it; ``db`` gathers a new one on
    each read.
    """

    def __init__(self, values, angles, kind: str = "doppler", n_pulses: int = None, index=None):
        rows = np.atleast_2d(np.asarray(values, dtype=complex))
        ang = np.atleast_1d(np.asarray(angles, dtype=float))
        self._index = np.arange(rows.shape[0]) if index is None else np.asarray(index)
        if self._index.size % 2 == 0:
            raise ValueError("lag axis must have odd length 2L-1")
        if rows.shape[1] != ang.size:
            raise ValueError("angle axis does not match the number of columns")
        if index is not None and not (self._index.ndim == 1 and self._index.dtype.kind in "iu"
                                      and 0 <= self._index.min() <= self._index.max() < len(rows)
                                      and np.bincount(self._index.astype(np.intp), minlength=len(rows)).all()):
            raise ValueError(f"index must be 1-D integers using each of the {len(rows)} rows of values, and no other")
        rows.setflags(write=False)
        ang.setflags(write=False)
        self._rows, self._values = rows, rows if index is None else None
        self.angles, self.kind, self.n_pulses = ang, kind, n_pulses

    @property
    def values(self) -> np.ndarray:
        """The dense complex map, gathered from the distinct rows on first use (read-only)."""
        if self._values is None:
            self._values = self._rows[self._index]
            self._values.setflags(write=False)
        return self._values

    @property
    def sequence_length(self) -> int:
        return (self._index.size + 1) // 2

    @property
    def lags(self) -> np.ndarray:
        L = self.sequence_length
        return np.arange(-(L - 1), L)

    @property
    def peak(self) -> float:
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

    def to_csv(self, path, *, texts: dict = None) -> None:
        """Complex values; header row of angles, first column of lags.

        ``texts``, a dict the caller passes to several :meth:`to_csv` and
        :meth:`db_to_csv` writes on any maps, memoizes row text: a row, the
        angle header included, is formatted once across all of them, keyed
        on its bytes.  Without it, each write formats each of its rows.
        """
        self._write_csv(path, np.ascontiguousarray(self._rows).view(float), _COMPLEX_CELL, texts)

    def db_to_csv(self, path, reference: float = None, *, texts: dict = None) -> None:
        """dB magnitudes in the same layout as :meth:`to_csv`.

        Normalized to the map's own peak by default; pass ``reference``
        to express the map relative to an external peak (values may then
        exceed 0 dB).  The reference must be finite and positive.
        ``texts`` is the row-text memo described in :meth:`to_csv`.
        """
        self._write_csv(path, self._db_rows(reference), _CELL, texts)

    def _write_csv(self, path, rows, cell_fmt, texts) -> None:
        header = b"lag," + _row_texts(self.angles[None], _CELL, texts)[0]
        _write_matrix_csv(path, header, rows, cell_fmt, index=self._index, lags=self.lags.tolist(), texts=texts)

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
    for bit.  f_w and f_z are two mat-vecs per phase block of one
    :func:`_responses` pass; a single matmul over both may round
    differently.
    """
    x, y = _biphase_pair(*pair)
    pp, ww = _schedule_weights(p, w)
    ang = np.atleast_1d(np.asarray(angles, dtype=float))
    fw, fz = _responses(ang, ww, pp * ww)
    cx = _correlate(x, x)
    cy = _correlate(y, y)
    coef, index = _lag_rows(cx + cy, cx - cy)
    even = 0.5 * np.outer(coef[:, 0], fw)
    odd = 0.5 * np.outer(coef[:, 1], fz)
    return x, y, ang, int(pp.size), fw, fz, coef[:, 0], even, odd, index


def _two_term_map(pair, p, w, angles, kind, closed_form: bool) -> AmbiguityMap:
    x, _, ang, n, fw, _, sums, even, odd, index = _two_terms(pair, p, w, angles)
    zero = x.size - 1
    if closed_form:
        # exact complementarity: C_x + C_y vanishes at every nonzero lag, so
        # the zero lag (sum 2L) is the only lag on its row
        if sums[np.delete(index, zero)].any():
            raise ValueError("closed form requires a complementary pair")
        rows = odd
        rows[index[zero], :] = x.size * fw
    else:
        rows = even
        rows += odd
    return AmbiguityMap(rows, ang, kind, n, index)


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
    return _two_term_map(pair, p, w, angles, kind, closed_form=False)


def closed_form_ambiguity(pair, p, w, angles, kind: str = "doppler") -> AmbiguityMap:
    """Map via the complementary-pair reduction.

    Nonzero lags reduce to 1/2 (C_x - C_y)[k] f_z(theta) and the zero lag
    to L f_w(theta).  Requires an exactly complementary pair, checked on
    the integer correlations the map is built from; other pairs are
    rejected because the reduction does not hold for them.
    """
    return _two_term_map(pair, p, w, angles, kind, closed_form=True)


def delay_ambiguity(pair, p, w, angles) -> AmbiguityMap:
    """Delay-axis map B(i, alpha): same algebra, delay angles per pulse."""
    return _two_term_map(pair, p, w, angles, "delay", closed_form=False)


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
    _write_matrix_csv(path, (",".join(labels) + "\n").encode(), np.column_stack(cols))


def write_two_column_csv(path, first, second, labels=("angle", "value")) -> None:
    """Two-column CSV with 17-significant-digit cells."""
    write_columns_csv(path, labels, (first, second))
