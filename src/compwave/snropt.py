"""SNR-driven selection of a vector from the constraint null space.

The output SNR of a weighted train scales with ||w||_1^2 / ||w||_2^2,
which ranges from 1 (all energy in one pulse) to N (uniform weights).
Any vector in the null space of the constraint matrix keeps the
sidelobes suppressed, so the remaining freedom (the combination
lambda of basis columns, z = Z lambda) can be spent maximizing that
ratio.  Since the p/w split preserves magnitudes (|w_n| = |z_n|), the
ratio of w equals the ratio of Z lambda and the search can run on
lambda directly, minimizing the reciprocal

    g(lambda) = ||Z lambda||_2^2 / ||Z lambda||_1^2.

Two searchers are provided: picking the basis column with the largest
1-norm (``basis_selection``), and a restarted fixed-point L1 ascent
over complex lambda (``coordinate_descent``, alias ``hcd``; the names
are kept from an earlier coordinate-descent searcher).  With Q an
orthonormal basis of range(Z) and v = Q mu on the unit sphere, g is
1/||v||_1^2, and the complex analogue of Kwak's L1-PCA iteration
(IEEE TPAMI 30(9), 2008)

    u = phase(Q mu),      mu <- Q^H u / ||Q^H u||

never lowers ||Q mu||_1: the new mu maximizes Re(u^H Q mu) on the
sphere, and ||Q mu||_1 >= Re(u^H Q mu) for every unimodular u.  Each
step costs one matrix-vector product pair.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .design import ResilienceGrid, WaveformDesign, design_from_vector

__all__ = [
    "snr_ratio",
    "basis_selection",
    "OptimizerReport",
    "coordinate_descent",
    "hcd",
    "design_from_lambda",
]


def snr_ratio(w) -> float:
    """(sum |w_n|)^2 / sum |w_n|^2, the weight factor of output SNR.

    Lies in [1, N]; 1 for a single nonzero entry, N for uniform
    magnitudes.  Invariant under scaling of w.
    """
    ww = np.asarray(w, dtype=complex).ravel()
    if not np.any(ww != 0):
        raise ValueError("snr_ratio undefined for the zero vector")
    return _ratio(np.abs(ww))


def _ratio(mags: np.ndarray) -> float:
    l1 = mags.sum()
    return float(l1 * l1 / (mags * mags).sum())


def basis_selection(Z: np.ndarray) -> np.ndarray:
    """Basis column with the largest 1-norm (ties -> lowest index).

    For unit 2-norm columns this maximizes the SNR ratio over the
    vertex set {z_1 .. z_U}; convex mixing cannot do better in 1-norm.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    if Z.size == 0 or Z.shape[1] < 1:
        raise ValueError("empty basis")
    norms = np.abs(Z).sum(axis=0)
    return Z[:, int(np.argmax(norms))].copy()


def _objective(v: np.ndarray) -> float:
    """g = 1 / snr_ratio(v); +inf at v = 0 so zero is never accepted.

    Going through the same arithmetic as ``snr_ratio`` means a lower g
    never reports a lower ratio, so the optimizer's winner is never
    below the basis-selection vertex it starts from, not even by an ulp.
    """
    mags = np.abs(v)
    if not mags.any():
        return math.inf
    return 1.0 / _ratio(mags)


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of an optimizer run, winner plus full audit trail.

    ``traces[r]`` lists the objective after every step of restart r; each
    is non-increasing because a step that fails to strictly decrease the
    objective is rejected and ends the restart.  ``snr`` is the ratio
    1/objective of the winning lambda.
    """

    best_lambda: np.ndarray
    objective: float
    snr: float
    winner: int
    traces: list
    restarts: int
    sweeps: int
    eps: float
    seed: int = None

    def to_dict(self) -> dict:
        return {
            "objective": float(self.objective),
            "snr": float(self.snr),
            "winner": int(self.winner),
            "restarts": int(self.restarts),
            "sweeps": int(self.sweeps),
            "eps": float(self.eps),
            "seed": self.seed,
            "best_lambda": [[float(c.real), float(c.imag)] for c in self.best_lambda],
            "traces": [[float(g) for g in t] for t in self.traces],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")


def coordinate_descent(
    Z: np.ndarray,
    restarts: int = 20,
    sweeps: int = 100,
    eps: float = 1e-6,
    seed: int = None,
) -> OptimizerReport:
    """Restarted fixed-point L1 ascent on g(lambda) over complex lambda.

    Restart 0 starts at the basis-selection vertex, so the returned ratio
    never falls below basis selection's; the remaining restarts draw
    standard complex Gaussian starts from a seeded generator.  Z is
    orthonormalized once by QR, so its columns need only be linearly
    independent.  Each restart takes at most ``sweeps`` x U steps
    (U = basis width) and stops early when a step fails to strictly
    decrease g or moves the unit vector Z lambda by no more than
    ``eps`` in 2-norm.  A rejected step is recorded in the trace with
    the unchanged g and leaves lambda as it was, so a restart that
    accepts no step returns its start.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    width = Z.shape[1]
    if Z.size == 0 or width < 1:
        raise ValueError("empty basis")
    if restarts < 1 or sweeps < 1:
        raise ValueError("restarts and sweeps must be at least 1")
    if not eps > 0:
        raise ValueError("eps must be positive")
    if np.linalg.matrix_rank(Z) < width:
        raise ValueError("basis columns are linearly dependent")
    rng = np.random.default_rng(seed)
    vertex = int(np.argmax(np.abs(Z).sum(axis=0)))
    Q, R = np.linalg.qr(Z)

    best_lam, best_g, best_r = None, math.inf, -1
    traces = []
    for r in range(restarts):
        # restart 0 is the vertex itself, unscaled, so Z lambda is its column bit for bit
        lam = np.zeros(width, dtype=complex)
        lam[vertex] = 1.0
        if r > 0:
            draw = rng.standard_normal(width) + 1j * rng.standard_normal(width)
            if np.any(Z @ draw != 0):
                lam = draw / np.linalg.norm(Z @ draw)
        v = Z @ lam
        g_cur = _objective(v)
        trace = [g_cur]
        for _ in range(sweeps * width):
            mags = np.abs(v)
            u = np.divide(v, mags, out=np.ones_like(v), where=mags > 0)
            mu = Q.conj().T @ u
            cand = np.linalg.solve(R, mu / np.linalg.norm(mu))
            v_new = Z @ cand
            g_new = _objective(v_new)
            if not g_new < g_cur:
                trace.append(g_cur)
                break
            step = np.linalg.norm(v_new - v)
            lam, v, g_cur = cand, v_new, g_new
            trace.append(g_cur)
            if step <= eps:
                break
        traces.append(trace)
        if g_cur < best_g:
            best_lam, best_g, best_r = lam, g_cur, r

    return OptimizerReport(
        best_lambda=best_lam,
        objective=best_g,
        snr=1.0 / best_g,
        winner=best_r,
        traces=traces,
        restarts=restarts,
        sweeps=sweeps,
        eps=eps,
        seed=seed,
    )


hcd = coordinate_descent


def design_from_lambda(Z: np.ndarray, lam, grid: ResilienceGrid) -> WaveformDesign:
    """Design from the combined null vector Z lambda.

    The p/w split preserves magnitudes, so snr_ratio of the design's w
    equals ||Z lambda||_1^2 / ||Z lambda||_2^2 exactly; the combined
    vector stays in the null space, so the design residual stays small.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    ll = np.asarray(lam, dtype=complex).ravel()
    if ll.size != Z.shape[1]:
        raise ValueError(f"lambda length {ll.size} does not match basis width {Z.shape[1]}")
    v = Z @ ll
    if not np.any(v != 0):
        raise ValueError("Z @ lambda is the zero vector")
    return design_from_vector(v, grid)
