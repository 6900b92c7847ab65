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
134 rows serve 8191 lags.  Rows of opposite pairs have equal magnitudes,
so magnitude-based quantities go one step further and use one row per
pair up to sign.  Peaks, sidelobe metrics and the CSV writers read the
rows.  The dense lag x angle array, (2L-1) x angles complex cells, is
built only when ``values``, ``magnitude`` or ``db`` is read,
bit-identical to a dense evaluation.

Angles are dimensionless phase increments per pulse (radians).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import _phase_matrix, evaluation_grid
from .golay import _correlate, as_biphase

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


def _write_matrix_csv(path, header: str, rows: np.ndarray, cell_fmt: str = _CELL, index=None, lags=None) -> None:
    """Write ``header``, then one line per entry of ``index`` (default: each row in order).

    A line is the row of the 2-D float array ``rows`` that its entry
    names, printed with ``cell_fmt`` repeated across the row (it may take
    several floats per cell); each row is formatted once however many
    lines use it.  ``lags``, when given, are written as a first column.
    """
    template = ",".join([cell_fmt] * (rows.shape[1] // cell_fmt.count("%")))
    texts = [template % tuple(row.tolist()) for row in rows]
    order = range(len(texts)) if index is None else index.tolist()
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if lags is None:
            fh.writelines(f"{texts[r]}\n" for r in order)
        else:
            fh.writelines(f"{lag},{texts[r]}\n" for lag, r in zip(lags, order))


def slow_time_response(coeffs, angles) -> np.ndarray:
    """f_v(theta) = sum_n v_n exp(j n theta), evaluated at each angle."""
    v = np.asarray(coeffs, dtype=complex).ravel()
    return _phase_matrix(np.atleast_1d(np.asarray(angles, dtype=float)), v.size) @ v


def _grid_index(angles: np.ndarray, angle: float) -> int:
    """Index of ``angle`` on an evaluation grid; ValueError when it is off the grid."""
    idx = int(np.argmin(np.abs(angles - angle)))
    span = max(1.0, float(angles.max() - angles.min()))
    if not abs(angles[idx] - angle) <= 1e-9 * span:  # also rejects nan
        raise ValueError(f"angle {angle} not on the evaluation grid")
    return idx


def _pair_arrays(pair):
    x, y = pair
    xx, yy = as_biphase(x), as_biphase(y)
    if xx.size != yy.size:
        raise ValueError(f"pair length mismatch: {xx.size} vs {yy.size}")
    return xx, yy


def _schedule_weights(p, w):
    pp = as_biphase(p)
    ww = np.asarray(w, dtype=complex).ravel()
    if pp.size != ww.size:
        raise ValueError(f"schedule/weight length mismatch: {pp.size} vs {ww.size}")
    return pp, ww


def _lag_rows(*columns):
    """Factor the int64 per-lag coefficient ``columns``: (distinct coefficient rows, layout).

    The layout is (index, classes): lag k uses distinct row ``index[k]``,
    and rows whose coefficients are negatives of each other share a
    magnitude class.  Negating every coefficient negates each product and
    sum of the two-term evaluation exactly, up to the sign of a zero, so
    such rows have bit-identical magnitudes.
    """
    coef = np.column_stack(columns)
    span = 2 * int(np.abs(coef).max()) + 1
    keys = np.zeros(len(coef), dtype=np.int64)
    for col in coef.T:  # balanced base-span digits: one key per row, and key(-c) = -key(c)
        keys = keys * span + col
    keys, first, index = np.unique(keys, return_index=True, return_inverse=True)
    classes = np.unique(np.abs(keys), return_inverse=True)[1]
    return coef[first], (index.ravel(), classes.ravel())


class AmbiguityMap:
    """Sampled map A(k, theta): rows are lags -(L-1)..L-1, columns angles.

    Stored factored: the distinct lag rows and, for every lag, the index
    of its row (see the module docstring).  ``peak``, ``mainlobe``, the
    sidelobe quantities, :meth:`metadata` and the CSV writers work on the
    rows.  ``values`` gathers the dense lag x angle array on first read
    and keeps it; ``magnitude`` and ``db`` gather a new one on each read.
    ``AmbiguityMap(values=..., angles=...)`` wraps a dense array, every
    lag its own row.
    """

    def __init__(self, values, angles, kind: str = "doppler", n_pulses: int = None):
        vals = np.atleast_2d(np.asarray(values, dtype=complex))
        every = np.arange(vals.shape[0])
        self._setup(vals, (every, every), angles, kind, n_pulses)
        self._values = vals

    @classmethod
    def _from_rows(cls, rows, layout, angles, kind, n_pulses) -> "AmbiguityMap":
        """The map whose lag k holds ``rows[index[k]]``, for a layout (index, classes) from
        :func:`_lag_rows`; every row must be used by some lag."""
        amap = cls.__new__(cls)
        amap._setup(rows, layout, angles, kind, n_pulses)
        return amap

    def _setup(self, rows, layout, angles, kind, n_pulses) -> None:
        index, classes = layout
        ang = np.atleast_1d(np.asarray(angles, dtype=float))
        if index.size % 2 == 0:
            raise ValueError("lag axis must have odd length 2L-1")
        if rows.shape[1] != ang.size:
            raise ValueError("angle axis does not match the number of columns")
        rows.setflags(write=False)
        ang.setflags(write=False)
        self._rows, self._index, self._classes, self._values = rows, index, classes, None
        self.angles, self.kind, self.n_pulses = ang, kind, n_pulses

    def _magnitudes(self):
        """(|row| of one row per magnitude class, each lag's class)."""
        member = np.empty(self._classes.max() + 1, dtype=np.intp)
        member[self._classes] = np.arange(self._classes.size)
        return np.abs(self._rows[member]), self._classes[self._index]

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
    def magnitude(self) -> np.ndarray:
        mag, lag_class = self._magnitudes()
        return mag[lag_class]

    @property
    def peak(self) -> float:
        return float(self._magnitudes()[0].max())

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
        nonzero lags, and then it counts for them.
        """
        mag, lag_class = self._magnitudes()
        return mag[np.unique(np.delete(lag_class, self.sequence_length - 1))].max(axis=0)

    def _db_rows(self, reference: float = None):
        """(20 log10(|row| / reference) per magnitude class, each lag's class); the map's own peak by default."""
        mag, lag_class = self._magnitudes()
        ref = mag.max() if reference is None else float(reference)
        if not (np.isfinite(ref) and ref > 0):
            source = "map peak" if reference is None else "reference peak"
            raise ValueError(f"{source} must be finite and positive for a dB normalization, got {ref}")
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(mag / ref), lag_class

    @property
    def db(self) -> np.ndarray:
        """20 log10 of the magnitude, normalized so the global peak is 0 dB.

        A zero, nan or infinite peak has no normalization: ``ValueError``.
        """
        db, lag_class = self._db_rows()
        return db[lag_class]

    def lag_index(self, lag: int) -> int:
        L = self.sequence_length
        if not -(L - 1) <= lag <= L - 1:
            raise ValueError(f"lag {lag} outside [-{L - 1}, {L - 1}]")
        return int(lag + L - 1)

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
        """Complex values; header row of angles, first column of lags."""
        self._write_csv(path, np.ascontiguousarray(self._rows).view(float), self._index, _COMPLEX_CELL)

    def db_to_csv(self, path, reference: float = None) -> None:
        """dB magnitudes in the same layout as :meth:`to_csv`.

        Normalized to the map's own peak by default; pass ``reference``
        to express the map relative to an external peak (values may then
        exceed 0 dB).  The reference must be finite and positive.
        """
        self._write_csv(path, *self._db_rows(reference), _CELL)

    def _write_csv(self, path, rows, index, cell_fmt) -> None:
        header = "lag," + ",".join([_CELL] * self.angles.size) % tuple(self.angles.tolist())
        _write_matrix_csv(path, header, rows, cell_fmt, index=index, lags=self.lags.tolist())

    def save_metadata(self, path) -> None:
        Path(path).write_text(json.dumps(self.metadata(), indent=2) + "\n")


def _two_terms(pair, p, w, angles):
    """The validated inputs and the two terms of A(k, theta) = even + odd, one row per coefficient pair.

    Returns (x, y, angles, N, f_w, f_z, sums, even, odd, layout).  The
    distinct int64 pairs (s, d) = ((C_x + C_y)[k], (C_x - C_y)[k]) over
    the lags k give the rows even = 1/2 s f_w(theta) and
    odd = 1/2 d f_z(theta); ``sums`` holds s per row, and ``layout`` maps
    lags to rows as :func:`_lag_rows` describes.  A row takes the same
    IEEE operations as the dense outer product at each of its lags, so
    gathering reproduces that array bit for bit.  f_w and f_z are two
    mat-vecs on one phase matrix; a single matmul over both may round
    differently.
    """
    x, y = _pair_arrays(pair)
    pp, ww = _schedule_weights(p, w)
    ang = np.atleast_1d(np.asarray(angles, dtype=float))
    phases = _phase_matrix(ang, pp.size)
    fw = phases @ ww
    fz = phases @ (pp * ww)
    cx = _correlate(x, x)
    cy = _correlate(y, y)
    coef, layout = _lag_rows(cx + cy, cx - cy)
    even = 0.5 * np.outer(coef[:, 0], fw)
    odd = 0.5 * np.outer(coef[:, 1], fz)
    return x, y, ang, int(pp.size), fw, fz, coef[:, 0], even, odd, layout


def _two_term_map(pair, p, w, angles, kind, closed_form: bool) -> AmbiguityMap:
    x, _, ang, n, fw, _, sums, even, odd, layout = _two_terms(pair, p, w, angles)
    index, zero = layout[0], x.size - 1
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
    return AmbiguityMap._from_rows(rows, layout, ang, kind, n)


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
    a fixed reference peak (the map's own mainlobe maximum unless one is
    supplied); ``relative_prsl_db`` normalizes per angle by |A(0, theta)|
    instead, so it can reach +inf where the mainlobe vanishes.
    """

    angles: np.ndarray
    profile: np.ndarray
    prsl_db: np.ndarray
    relative_prsl_db: np.ndarray
    reference_peak: float

    def profile_to_csv(self, path) -> None:
        write_two_column_csv(path, self.angles, self.profile, ("angle", "mainlobe_magnitude"))

    def prsl_to_csv(self, path) -> None:
        write_two_column_csv(path, self.angles, self.prsl_db, ("angle", "prsl_db"))


def sidelobe_metrics(amap: AmbiguityMap, reference_peak: float = None) -> SidelobeMetrics:
    """Sidelobe metrics of a map, from its distinct rows; rejects the all-zero map."""
    mag, lag_class = amap._magnitudes()
    if not mag.any():
        raise ValueError("all-zero map has no sidelobe metrics")
    profile = mag[lag_class[amap.sequence_length - 1]]
    side = amap.sidelobe_peaks()
    ref = float(profile.max()) if reference_peak is None else float(reference_peak)
    with np.errstate(divide="ignore", invalid="ignore"):
        prsl = 20.0 * np.log10(side / ref)
        relative = 20.0 * np.log10(side / profile)
    return SidelobeMetrics(
        angles=amap.angles,
        profile=profile,
        prsl_db=prsl,
        relative_prsl_db=relative,
        reference_peak=ref,
    )


def write_columns_csv(path, labels, columns) -> None:
    """CSV of equal-length float columns, one per label, with 17-significant-digit cells."""
    cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in columns]
    if len({c.size for c in cols}) > 1 or len(cols) != len(labels):
        raise ValueError("column length mismatch: need equal-length columns, one per label")
    _write_matrix_csv(path, ",".join(labels), np.column_stack(cols))


def write_two_column_csv(path, first, second, labels=("angle", "value")) -> None:
    """Two-column CSV with 17-significant-digit cells."""
    write_columns_csv(path, labels, (first, second))
