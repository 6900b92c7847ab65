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

Angles are dimensionless phase increments per pulse (radians).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import _phase_matrix, evaluation_grid
from .golay import as_biphase, is_golay_pair

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


def _write_matrix_csv(path, header: str, cells: np.ndarray, cell_fmt: str = _CELL, lags=None) -> None:
    """Stream ``header``, then each row of the 2-D float array ``cells`` as one printf.

    ``cell_fmt`` is repeated across the row and may take several floats
    per cell.  Identical rows are formatted once, keyed on their bytes:
    float equality would merge 0.0 and -0.0, which print as 0 and -0.
    ``lags``, when given, are written as a first column.
    """
    template = ",".join([cell_fmt] * (cells.shape[1] // cell_fmt.count("%")))
    done = {}
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, row in enumerate(cells):
            key = row.tobytes()
            text = done.get(key)
            if text is None:
                text = done[key] = template % tuple(row.tolist())
            fh.write(f"{text}\n" if lags is None else f"{lags[i]},{text}\n")


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


@dataclass(frozen=True)
class AmbiguityMap:
    """Sampled map A(k, theta): rows are lags -(L-1)..L-1, columns angles."""

    values: np.ndarray
    angles: np.ndarray
    kind: str = "doppler"
    n_pulses: int = None

    def __post_init__(self):
        vals = np.atleast_2d(np.asarray(self.values, dtype=complex))
        ang = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if vals.shape[0] % 2 == 0:
            raise ValueError("lag axis must have odd length 2L-1")
        if vals.shape[1] != ang.size:
            raise ValueError("angle axis does not match the number of columns")
        vals.setflags(write=False)
        ang.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "angles", ang)

    @property
    def sequence_length(self) -> int:
        return (self.values.shape[0] + 1) // 2

    @property
    def lags(self) -> np.ndarray:
        L = self.sequence_length
        return np.arange(-(L - 1), L)

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def peak(self) -> float:
        return float(self.magnitude.max())

    @property
    def mainlobe(self) -> np.ndarray:
        """The zero-lag row A(0, theta)."""
        return self.values[self.sequence_length - 1]

    def sidelobe_peaks(self) -> np.ndarray:
        """max_{k != 0} |A(k, theta)| per angle."""
        mag = self.magnitude
        return np.delete(mag, self.sequence_length - 1, axis=0).max(axis=0)

    @property
    def db(self) -> np.ndarray:
        """20 log10 of the magnitude, normalized so the global peak is 0 dB.

        A zero, nan or infinite peak has no normalization: ``ValueError``.
        """
        mag = self.magnitude
        peak = mag.max()
        if not (np.isfinite(peak) and peak > 0):
            raise ValueError(f"map peak must be finite and positive for a dB normalization, got {peak}")
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(mag / peak)

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
        self._write_csv(path, np.ascontiguousarray(self.values).view(float), _COMPLEX_CELL)

    def db_to_csv(self, path, reference: float = None) -> None:
        """dB magnitudes in the same layout as :meth:`to_csv`.

        Normalized to the map's own peak by default; pass ``reference``
        to express the map relative to an external peak (values may then
        exceed 0 dB).  The reference must be finite and positive.
        """
        if reference is None:
            db = self.db
        else:
            reference = float(reference)
            if not (np.isfinite(reference) and reference > 0):
                raise ValueError(f"reference peak must be finite and positive, got {reference}")
            with np.errstate(divide="ignore"):
                db = 20.0 * np.log10(self.magnitude / reference)
        self._write_csv(path, db, _CELL)

    def _write_csv(self, path, cells, cell_fmt) -> None:
        header = "lag," + ",".join([_CELL] * self.angles.size) % tuple(self.angles.tolist())
        _write_matrix_csv(path, header, cells, cell_fmt, lags=self.lags.tolist())

    def save_metadata(self, path) -> None:
        Path(path).write_text(json.dumps(self.metadata(), indent=2) + "\n")


def _two_terms(pair, p, w, angles):
    """The validated inputs and the two terms of A(k, theta) = even + odd.

    Returns (x, y, angles, N, f_w, f_z, even, odd) with the lag x angle
    arrays even = 1/2 (C_x + C_y)[k] f_w(theta) and
    odd = 1/2 (C_x - C_y)[k] f_z(theta).  f_w and f_z are two mat-vecs on
    one phase matrix; a single matmul over both may round differently.
    """
    x, y = _pair_arrays(pair)
    pp, ww = _schedule_weights(p, w)
    ang = np.atleast_1d(np.asarray(angles, dtype=float))
    phases = _phase_matrix(ang, pp.size)
    fw = phases @ ww
    fz = phases @ (pp * ww)
    cx = np.correlate(x, x, "full")
    cy = np.correlate(y, y, "full")
    even = 0.5 * np.outer(cx + cy, fw)
    odd = 0.5 * np.outer(cx - cy, fz)
    return x, y, ang, int(pp.size), fw, fz, even, odd


def _two_term_map(pair, p, w, angles, kind, closed_form: bool) -> AmbiguityMap:
    x, _, ang, n, fw, _, even, odd = _two_terms(pair, p, w, angles)
    # both branches work in place, so a map peaks at two lag x angle arrays
    if closed_form:
        values = odd
        values[x.size - 1, :] = x.size * fw
    else:
        values = even
        values += odd
    return AmbiguityMap(values=values, angles=ang, kind=kind, n_pulses=n)


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
    to L f_w(theta).  Requires an exactly complementary pair; other pairs
    are rejected because the reduction does not hold for them.
    """
    x, y = _pair_arrays(pair)
    if not is_golay_pair(x, y):
        raise ValueError("closed form requires a complementary pair")
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
    """Sidelobe metrics of a map; rejects the all-zero map."""
    mag = amap.magnitude
    if not mag.any():
        raise ValueError("all-zero map has no sidelobe metrics")
    L = amap.sequence_length
    profile = mag[L - 1]
    side = np.delete(mag, L - 1, axis=0).max(axis=0)
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
