"""Null-space design of resilient pulse trains.

A train of N pulses alternates the two sequences of a complementary pair
according to a +/-1 schedule p and weights the receiver output of pulse n
by a complex w_n.  Range sidelobes inside a Doppler (or delay) interval
vanish when the combined vector z = p * w is orthogonal to every row of
the phase matrix

    E[m, n] = exp(j n theta_m),

one row per constraint angle theta_m.  This module builds E, computes an
orthonormal basis of its numerical null space, and splits a null vector
into the schedule/weight factors

    p_n = sign(Re z_n)   (ties to +1),      w_n = p_n z_n,

so that p * w reproduces z exactly.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .golay import _read_json, _write_json, as_biphase

__all__ = [
    "EmptyNullSpaceError",
    "ResilienceGrid",
    "design_matrix",
    "null_space_basis",
    "extract_design",
    "WaveformDesign",
    "design_from_vector",
    "null_space_design",
    "DesignReport",
    "validate_design",
]

GRID_KINDS = ("doppler", "delay")

# every design's usability bounds: null residual at most _NULL_TOL, mainlobe residual above _MAINLOBE_TOL
_NULL_TOL = 1e-10
_MAINLOBE_TOL = 1e-3


class EmptyNullSpaceError(RuntimeError):
    """Raised when the constraint matrix has full column rank."""


@dataclass(frozen=True)
class ResilienceGrid:
    """Constraint angles with their axis label and covering interval.

    Angles are stored sorted with duplicates removed.  ``kind`` records
    whether the angles live on the Doppler axis or the delay axis; the
    arithmetic is identical, the label only travels into metadata.
    """

    angles: np.ndarray
    kind: str = "doppler"
    interval: tuple = None

    def __post_init__(self):
        ang = np.unique(_vector(self.angles, "angles", float))
        if ang.size == 0:
            raise ValueError("a resilience grid needs at least one angle")
        if self.kind not in GRID_KINDS:
            raise ValueError(f"kind must be one of {GRID_KINDS}, got {self.kind!r}")
        lo, hi = _interval(*((ang[0], ang[-1]) if self.interval is None else self.interval))
        if ang[0] < lo - 1e-12 or ang[-1] > hi + 1e-12:
            raise ValueError("grid angles fall outside the stated interval")
        ang.setflags(write=False)
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "interval", (lo, hi))

    @property
    def m(self) -> int:
        """Number of constraint angles."""
        return int(self.angles.size)

    @classmethod
    def uniform(cls, lo: float, hi: float, count: int, kind: str = "doppler") -> "ResilienceGrid":
        """The ``count`` angles of :func:`evaluation_grid` over [lo, hi], duplicates (lo == hi) merged."""
        return cls(angles=evaluation_grid(lo, hi, count), kind=kind, interval=(lo, hi))


def evaluation_grid(lo: float, hi: float, count: int = 2001) -> np.ndarray:
    """``count`` evenly spaced angles over [lo, hi] inclusive, for maps and design grids alike.

    ``count`` = 1 gives the single angle lo.  ValueError when ``count`` is
    not an integer (3.0 is one) or is below 1, or [lo, hi] breaks the
    rule of :func:`_interval`.
    """
    lo, hi = _interval(lo, hi)
    count = _integer(count, "count")
    if count < 1:
        raise ValueError("count must be at least 1")
    return np.linspace(lo, hi, count)


def _interval(lo, hi) -> tuple:
    """(lo, hi) as floats; ValueError when they are out of order (lo > hi, or a nan) or an endpoint or the width is infinite."""
    lo, hi = float(lo), float(hi)
    if not lo <= hi:
        raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
    if not np.isfinite([lo, hi, hi - lo]).all():
        raise ValueError(f"interval endpoints and width must be finite: [{lo}, {hi}]")
    return lo, hi


def _integer(value, what: str) -> int:
    """``value`` as an int; ValueError unless it is an integer (3.0 is one; 2.5, nan and inf are not)."""
    if not float(value).is_integer():
        raise ValueError(f"{what} {value} is not an integer")
    return int(value)


def design_matrix(grid, n_pulses: int) -> np.ndarray:
    """Phase matrix E with entries exp(j n theta_m), shape (M, N).

    ``grid`` may be a :class:`ResilienceGrid` or a bare array of angles.
    N < 2 is rejected: a single pulse admits no nontrivial schedule.
    Each call returns a new, writable array; the library's products
    E @ v run through :func:`_responses` and its memo instead.
    """
    return _phase_matrix(_constraint_angles(grid, n_pulses), n_pulses)


def _vector(values, what: str, dtype=complex) -> np.ndarray:
    """``values`` as a new 1-D ``dtype`` array (a scalar is one entry); ValueError naming the shape for any other.

    Always a copy, so whatever keeps or freezes the result leaves the
    caller's array writable and untouched by later writes.
    """
    v = np.array(values, dtype=dtype, ndmin=1)
    if v.ndim != 1:
        raise ValueError(f"{what} must be 1-D, got shape {v.shape}")
    return v


def _constraint_angles(grid, n_pulses: int) -> np.ndarray:
    """The angles of ``grid`` (a :class:`ResilienceGrid` or bare 1-D angles) for an N-pulse design, N >= 2."""
    if n_pulses < 2:
        raise ValueError("need at least 2 pulses for a nontrivial design")
    return grid.angles if isinstance(grid, ResilienceGrid) else _vector(grid, "angles", float)


def _phase_matrix(angles: np.ndarray, n: int) -> np.ndarray:
    """exp(j n theta_m), shape (M, N): the one phase matrix of designs and slow-time responses.

    ValueError when a phase n theta_m overflows (or an angle is nan):
    exp would fill the matrix with nan.  The exponents are bit for bit
    those of ``1j * np.outer(angles, np.arange(n))`` (the tests check
    it) without that product's extra pass over the matrix.
    """
    top = float(np.abs(angles).max()) if angles.size else 0.0
    if not np.isfinite(top * (n - 1)):
        raise ValueError(f"phase overflows: max |angle| {top:g} times N - 1 = {n - 1} is not finite")
    phases = np.outer(angles, 1j * np.arange(n))
    return np.exp(phases, out=phases)


@functools.cache
def _blas_thread_setter():
    """numpy's bundled OpenBLAS ``openblas_set_num_threads_local`` (returns the previous count), or None.

    Looked up on the first pin, in the ``numpy.libs/libscipy_openblas*.so``
    numpy has already loaded (never a second copy); None where there is
    no such library or symbol (MKL, Accelerate, OpenBLAS before 0.3.27).
    """
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so")):
        try:
            setter = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


_pin_lock = threading.Lock()
_pin_depth = 0
_pin_saved = None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then give back the caller's thread count.

    LAPACK's threaded SVD rounds differently from the single-threaded one
    (from N = 72 on), and the pool's workers spin on a second CPU between
    calls.  Pinned, every result is the one-thread result whatever the
    core count.  In numpy's wheels (a
    pthreads OpenBLAS) the setter changes the count of the whole process,
    so concurrent pins are counted: the first saves the count, the last
    restores it.  A no-op where :func:`_blas_thread_setter` finds nothing.
    """
    global _pin_depth, _pin_saved
    setter = _blas_thread_setter()
    if setter is None:
        yield
        return
    with _pin_lock:
        if not _pin_depth:
            _pin_saved = setter(1)
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if not _pin_depth:
                setter(_pin_saved)


_PHASE_MEMO = 4  # phase matrices _phases keeps


@functools.lru_cache(maxsize=_PHASE_MEMO)
def _phases(angles: bytes, n: int) -> np.ndarray:
    """The read-only :func:`_phase_matrix` of the float64 ``angles`` bytes and N.

    A memo of the last 4 (angles, N): it keeps at most 4 times the
    largest E of recent calls (1.5 MB at 2001 x 48).  The key is bytes,
    so 0.0 and -0.0 are different angles, as they are to exp; an error
    is never kept, so it is raised again on every call.
    """
    phases = _phase_matrix(np.frombuffer(angles), n)  # outer and exp: no BLAS, so no pin
    phases.setflags(write=False)
    return phases


def _responses(angles: np.ndarray, *vectors) -> list:
    """[E(angles) @ v for each v]: the slow-time responses f_v of equal-length complex ``vectors``.

    ``angles`` is a 1-D float array.  One phase matrix, from the memo of
    :func:`_phases`, serves every vector, and the products run under
    :func:`_one_blas_thread`.  A gemv's bits do not depend on OpenBLAS's
    thread count, so f_v is the same where the pin is a no-op.
    """
    phases = _phases(np.asarray(angles, dtype=float).tobytes(), vectors[0].size)
    with _one_blas_thread():
        return [phases @ v for v in vectors]


def null_space_basis(matrix: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the numerical null space, shape (N, U).

    Columns are the right singular vectors whose singular values fall at
    or below ``max(M, N) * eps * sigma_max``, the LAPACK-style cut every
    design method uses (the tests pin its margins).  The SVD runs under
    :func:`_one_blas_thread`, so the basis does not depend on the core
    count.  Each column's phase is canonicalized so its largest-magnitude
    entry is real and positive, making the basis deterministic across runs.

    Raises
    ------
    EmptyNullSpaceError
        If every singular value sits above the threshold, i.e. the
        matrix has full column rank and only the zero vector maps to 0.
    """
    E = np.atleast_2d(np.asarray(matrix))
    m, n = E.shape
    with _one_blas_thread():
        _, sv, vh = np.linalg.svd(E)
    tol = max(m, n) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int((sv > tol).sum())
    if rank >= n:
        raise EmptyNullSpaceError(
            f"constraint matrix has full column rank ({m} rows, {n} columns): "
            "no nonzero vector satisfies all constraints"
        )
    basis = vh[rank:].conj().T
    # fix the arbitrary SVD phase: largest-|.| entry of each column -> positive real
    for u in range(basis.shape[1]):
        col = basis[:, u]
        pivot = col[np.argmax(np.abs(col))]
        basis[:, u] = col * (np.conj(pivot) / np.abs(pivot))
    return basis


def _schedule_weights(p, w):
    """(p, w) as an int64 +/-1 schedule and a 1-D complex weight vector; ValueError unless both are 1-D of one length."""
    pp = as_biphase(p)
    ww = _vector(w, "weights")
    if pp.size != ww.size:
        raise ValueError(f"schedule/weight length mismatch: {pp.size} vs {ww.size}")
    return pp, ww


def extract_design(zhat: np.ndarray):
    """Split a nonzero complex vector into (p, w) with p * w == zhat exactly.

    p_n is +1 when Re(zhat_n) >= 0, else -1; w_n = p_n zhat_n.  Since
    p_n in {+1, -1}, the product p * w reproduces zhat bit for bit.
    """
    z = _vector(zhat, "zhat")
    if not np.any(z != 0):
        raise ValueError("cannot extract a design from the zero vector")
    p = np.where(z.real >= 0, 1, -1).astype(np.int64)
    w = p * z
    return p, w


@dataclass(frozen=True)
class WaveformDesign:
    """A pulse-train design: +/-1 schedule p, complex weights w.

    ``grid`` is the constraint grid the design was built against (None
    for closed-form baseline schemes) and ``residual`` the relative
    constraint residual ||E (p*w)||_2 / ||w||_2 measured at build time.
    ``scheme`` tags baseline constructions ("bd", "ptm"); None means a
    null-space design.
    """

    p: np.ndarray
    w: np.ndarray
    grid: ResilienceGrid = None
    residual: float = None
    scheme: str = None

    def __post_init__(self):
        p, w = _schedule_weights(self.p, self.w)
        if not np.any(w != 0):
            raise ValueError("all-zero weight vector")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if self.residual is not None:
            if not isinstance(self.residual, numbers.Real) or not np.isfinite(self.residual):
                raise ValueError(f"residual must be null or a finite number, got {self.residual!r}")
            object.__setattr__(self, "residual", float(self.residual))
        if self.scheme is not None and not isinstance(self.scheme, str):
            raise ValueError(f"scheme must be null or a string, got {self.scheme!r}")
        p.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)

    @property
    def n_pulses(self) -> int:
        return int(self.p.size)

    @property
    def z(self) -> np.ndarray:
        """Combined vector p * w fed to the constraint matrix."""
        return self.p * self.w

    def to_dict(self) -> dict:
        grid = self.grid
        out = {
            "N": self.n_pulses,
            "kind": None if grid is None else grid.kind,
            "interval": None if grid is None else [grid.interval[0], grid.interval[1]],
            "M": None if grid is None else grid.m,
            "p": self.p.tolist(),
            "w": [[float(c.real), float(c.imag)] for c in self.w],
            "residual": None if self.residual is None else float(self.residual),
        }
        # angles are stored only when the interval and M do not rebuild them
        if grid is not None and not np.array_equal(
                grid.angles, ResilienceGrid.uniform(*grid.interval, grid.m).angles):
            out["angles"] = grid.angles.tolist()
        if self.scheme is not None:
            out["scheme"] = self.scheme
        return out

    def save(self, path) -> None:
        _write_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "WaveformDesign":
        try:
            p = data["p"]
            if data.get("N", len(p)) != len(p):
                raise ValueError(f"N = {data['N']} but p has {len(p)} entries")
            w = np.array([complex(re, im) for re, im in data["w"]])
            grid = None
            if data.get("interval") is not None:
                lo, hi = data["interval"]
                kind = data.get("kind") or "doppler"
                if data.get("angles") is not None:
                    if data.get("M", len(data["angles"])) != len(data["angles"]):
                        raise ValueError(f"M = {data['M']} but angles has {len(data['angles'])} entries")
                    grid = ResilienceGrid(data["angles"], kind=kind, interval=(lo, hi))
                else:
                    grid = ResilienceGrid.uniform(lo, hi, data["M"], kind=kind)
            return cls(p=p, w=w, grid=grid, residual=data.get("residual"), scheme=data.get("scheme"))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed design payload: {exc}") from exc

    @classmethod
    def load(cls, path) -> "WaveformDesign":
        return _read_json(path, "design", cls.from_dict)


def design_from_vector(zhat: np.ndarray, grid: ResilienceGrid) -> WaveformDesign:
    """Wrap a null vector as a WaveformDesign, recording its residual ||f_z(grid)||_2 / ||w||_2."""
    p, w = extract_design(zhat)
    (fz,) = _responses(_constraint_angles(grid, p.size), p * w)
    return WaveformDesign(p=p, w=w, grid=grid, residual=float(np.linalg.norm(fz) / np.linalg.norm(w)))


def _null_space(n_pulses: int, interval, constraints, kind: str):
    """(grid, basis): ``constraints`` uniform angles over ``interval`` (default N - 1) and the
    :func:`null_space_basis` of their phase matrix, for every grid-based design method."""
    if n_pulses < 2:
        raise ValueError("need at least 2 pulses for a nontrivial design")
    m = n_pulses - 1 if constraints is None else constraints
    if m < 1:
        raise ValueError("need at least one constraint angle")
    grid = ResilienceGrid.uniform(interval[0], interval[1], m, kind=kind)
    return grid, null_space_basis(_phases(grid.angles.tobytes(), n_pulses))


def null_space_design(n_pulses: int, interval, constraints: int = None, kind: str = "doppler") -> WaveformDesign:
    """Design a resilient train for ``interval``: the first column of the null space of E.

    Parameters
    ----------
    n_pulses : int
        Train length N (at least 2).
    interval : (float, float)
        Endpoints of the resilience interval.
    constraints : int, optional
        Number M of uniformly spaced constraint angles; defaults to N - 1.
    kind : str
        "doppler" or "delay"; arithmetic is identical on both axes.

    The rank cut of :func:`null_space_basis` alone decides, also for
    M >= N; :class:`EmptyNullSpaceError` reports an empty null space.
    """
    grid, basis = _null_space(n_pulses, interval, constraints, kind)
    return design_from_vector(basis[:, 0], grid)


@dataclass(frozen=True)
class DesignReport:
    """Residuals of the two usability conditions for a design.

    ``nullspace_residual`` is ||E (p*w)||_2 / ||w||_2 (must be ~0 for the
    sidelobes to vanish on the grid); ``mainlobe_residual`` is
    ||E w||_2 / ||w||_2 (must stay clearly nonzero or the mainlobe
    vanishes with the sidelobes).  The bounds are fixed: null residual at
    most 1e-10, mainlobe residual above 1e-3.
    """

    nullspace_residual: float
    mainlobe_residual: float

    @property
    def nullspace_ok(self) -> bool:
        return self.nullspace_residual <= _NULL_TOL

    @property
    def mainlobe_ok(self) -> bool:
        return self.mainlobe_residual > _MAINLOBE_TOL

    @property
    def ok(self) -> bool:
        return self.nullspace_ok and self.mainlobe_ok

    def to_dict(self) -> dict:
        return {
            "nullspace_residual": float(self.nullspace_residual),
            "mainlobe_residual": float(self.mainlobe_residual),
            "null_tol": _NULL_TOL,
            "mainlobe_tol": _MAINLOBE_TOL,
            "nullspace_ok": self.nullspace_ok,
            "mainlobe_ok": self.mainlobe_ok,
            "ok": self.ok,
        }


def validate_design(design: WaveformDesign) -> DesignReport:
    """Check the emitted-design conditions at the angles of ``design.grid``.

    Both residuals read f_z and f_w off one pass of :func:`_responses`.
    The bounds are fixed: null residual at most 1e-10, mainlobe residual
    above 1e-3.  ValueError for a design without a grid (a baseline scheme).
    """
    if design.grid is None:
        raise ValueError("design carries no grid to check its conditions on")
    fz, fw = _responses(_constraint_angles(design.grid, design.n_pulses), design.z, design.w)
    wnorm = np.linalg.norm(design.w)
    return DesignReport(
        nullspace_residual=float(np.linalg.norm(fz) / wnorm),
        mainlobe_residual=float(np.linalg.norm(fw) / wnorm),
    )
