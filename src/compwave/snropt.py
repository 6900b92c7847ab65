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
over complex lambda (``coordinate_descent``; the name, and the CLI
label ``hcd``, are kept from an earlier coordinate-descent searcher).
With Q an orthonormal basis of range(Z) and v = Q mu on the unit
sphere, g is 1/||v||_1^2, and the complex analogue of Kwak's L1-PCA
iteration (IEEE TPAMI 30(9), 2008)

    u = phase(Q mu),      mu <- Q^H u / ||Q^H u||

never lowers ||Q mu||_1: the new mu maximizes Re(u^H Q mu) on the
sphere, and ||Q mu||_1 >= Re(u^H Q mu) for every unimodular u.  The
iteration is accelerated by SQUAREM (scheme S3 of Varadhan & Roland,
Scand. J. Stat. 35(2), 2008).  With F the map above, one cycle takes
x1 = F(x0), x2 = F(x1), r = x1 - x0, c = x2 - 2 x1 + x0 and
alpha = min(-||r|| / ||c||, -1), then one stabilizing F at
x' = x0 - 2 alpha r + alpha^2 c; as a monotone safeguard the cycle
ends at whichever of F(x') and x2 has the lower g.  The restarts cycle
in lockstep as the columns v = Q mu of one N x R block, so a map
evaluation of all running restarts costs one product with the
projector P = Q Q^H; lambda = R^{-1} Q^H v is formed once, at the end.
``snr_upper_bound`` certifies how far the best ratio can lie above a
found one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import ResilienceGrid, WaveformDesign, _one_blas_thread, design_from_vector
from .golay import _write_json

__all__ = [
    "snr_ratio",
    "basis_selection",
    "OptimizerReport",
    "coordinate_descent",
    "design_from_lambda",
    "snr_upper_bound",
]

# hcd's stop on a short step ("eps" in *_optimizer.json).  g is stationary at a fixed point: 1e-12
# with 10x the sweeps moves the seed-0 SNR of the N=48 and N=64 paper designs by at most 1.1e-13 relative.
_STEP_TOL = 1e-6


def snr_ratio(w) -> float:
    """(sum |w_n|)^2 / sum |w_n|^2, the weight factor of output SNR.

    Lies in [1, N]; 1 for a single nonzero entry, N for uniform
    magnitudes.  Invariant under scaling of w.
    """
    ww = np.asarray(w, dtype=complex).ravel()
    if not np.any(ww != 0):
        raise ValueError("snr_ratio undefined for the zero vector")
    return float(_ratio(np.abs(ww)))


def _ratio(mags: np.ndarray):
    """The ratio of each column of ``mags`` (of the vector, when 1-D)."""
    l1 = mags.sum(axis=0)
    return l1 * l1 / (mags * mags).sum(axis=0)


def _basis(Z) -> np.ndarray:
    """Z as a 2-D complex array; ValueError when it has no column."""
    Z = np.atleast_2d(np.asarray(Z, dtype=complex))
    if Z.size == 0:
        raise ValueError("empty basis")
    return Z


def basis_selection(Z: np.ndarray) -> np.ndarray:
    """Basis column with the largest 1-norm (ties -> lowest index).

    For unit 2-norm columns this maximizes the SNR ratio over the
    vertex set {z_1 .. z_U}; convex mixing cannot do better in 1-norm.
    """
    Z = _basis(Z)
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

    ``traces[r]`` lists the objective after every cycle of restart r; each
    is non-increasing because a cycle that fails to strictly decrease the
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
    seed: int = None

    def to_dict(self) -> dict:
        return {
            "objective": float(self.objective),
            "snr": float(self.snr),
            "winner": int(self.winner),
            "restarts": int(self.restarts),
            "sweeps": int(self.sweeps),
            "eps": _STEP_TOL,
            "seed": self.seed,
            "best_lambda": [[float(c.real), float(c.imag)] for c in self.best_lambda],
            "traces": [[float(g) for g in t] for t in self.traces],
        }

    def save(self, path) -> None:
        _write_json(path, self.to_dict())


@_one_blas_thread()
def coordinate_descent(Z: np.ndarray, restarts: int = 20, sweeps: int = 100, seed: int = None) -> OptimizerReport:
    """Restarted fixed-point L1 ascent on g(lambda) over complex lambda.

    Each iteration is one SQUAREM (S3) cycle of the fixed-point map
    (Varadhan & Roland, Scand. J. Stat. 35(2), 2008; see the module
    docstring): three map evaluations and a monotone safeguard.
    Restart 0 starts at the basis-selection vertex, so the returned ratio
    never falls below basis selection's; the remaining restarts draw
    standard complex Gaussian starts from a seeded generator.  Z is
    orthonormalized once by QR, so its columns need only be linearly
    independent.  Each restart makes at most ``sweeps`` x U map
    evaluations (U = basis width), counted in whole cycles of three,
    rounded up, and stops early when a cycle fails to strictly
    decrease g or moves the unit vector Z lambda by no more than
    1e-6 in 2-norm.  A rejected cycle is recorded in the trace with
    the unchanged g and leaves lambda as it was, so a restart that
    accepts no cycle returns its start.

    All restarts cycle together, as the columns v = Q mu of one block;
    a restart leaves the block when it stops.  Its
    lambda = R^{-1} Q^H v is formed once, at the end, and its g measured
    again on Z lambda: that value ends its trace (earlier entries are
    floored at it, which moves only entries within rounding of it), and
    a restart whose mapped-back g is not below its start returns the
    start.  The winner is the first restart with the lowest g.  The
    whole call runs with OpenBLAS on the calling thread
    (:func:`~compwave.design._one_blas_thread`).
    """
    Z = _basis(Z)
    width = Z.shape[1]
    if restarts < 1 or sweeps < 1:
        raise ValueError("restarts and sweeps must be at least 1")
    if np.linalg.matrix_rank(Z) < width:
        raise ValueError("basis columns are linearly dependent")
    rng = np.random.default_rng(seed)
    vertex = int(np.argmax(np.abs(Z).sum(axis=0)))
    Q, R = np.linalg.qr(Z)
    Qh = Q.conj().T
    P = Q @ Qh

    # row r of starts is restart r's lambda; restart 0 is the vertex itself,
    # unscaled, so Z lambda is its column bit for bit
    starts = np.zeros((restarts, width), dtype=complex)
    starts[:, vertex] = 1.0
    for r in range(1, restarts):
        draw = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        if np.any(Z @ draw != 0):
            starts[r] = draw / np.linalg.norm(Z @ draw)
    g = np.array([_objective(Z @ lam) for lam in starts])

    def fixed_point(V):
        """The map on the block V = Q mu, in that frame: Q mu' = P phase(V) / ||P phase(V)||."""
        mags = np.abs(V)
        V = P @ np.divide(V, mags, out=np.ones_like(V), where=mags > 0)
        V *= 1 / np.linalg.norm(V, axis=0)
        return V

    # lockstep: the columns v of the active restarts take one S3 cycle per
    # iteration; each state is kept as W[:, r] = Q mu, and mapped back to
    # lambda = R^{-1} Q^H W[:, r] once at the end
    v = Z @ starts.T
    W = v.copy()
    history = [g.copy()]
    steps = np.zeros(restarts, dtype=int)
    moved = np.zeros(restarts, dtype=int)
    active = np.arange(restarts)
    for it in range(1, -(-sweeps * width // 3) + 1):
        v1 = fixed_point(v)
        v2 = fixed_point(v1)
        d1 = v1 - v  # r and c of the module docstring, in the frame of v
        d2 = v2 - v1 - d1
        r2, c2 = (np.abs(d1) ** 2).sum(axis=0), (np.abs(d2) ** 2).sum(axis=0)
        alpha = -np.sqrt(np.maximum(np.divide(r2, c2, out=np.ones_like(r2), where=c2 > 0), 1.0))
        # the map ignores scale, so x' enters it unnormalized
        v3 = fixed_point(v - 2 * alpha * d1 + alpha * alpha * d2)
        # monotone safeguard: the stabilized extrapolation only where it beats x2
        g2, g3 = 1.0 / _ratio(np.abs(v2)), 1.0 / _ratio(np.abs(v3))
        pick = g3 < g2
        g_new = np.where(pick, g3, g2)
        better = np.flatnonzero(g_new < g[active])
        accepted = active[better]
        v_new = np.where(pick, v3, v2)[:, better]
        step = np.linalg.norm(v_new - v[:, better], axis=0)
        W[:, accepted] = v_new
        g[accepted] = g_new[better]
        moved[accepted] = it
        steps[active] = it
        history.append(g.copy())
        going = step > _STEP_TOL
        active, v = accepted[going], v_new[:, going]
        if not active.size:
            break

    # g of a moved restart is measured again on Z lambda, with the very lambda
    # array that is reported; one that no longer beats its start returns the
    # start, so the winner never falls below the vertex
    history = np.array(history)
    lam = list(starts)
    for r, cand in zip(np.flatnonzero(moved), np.linalg.solve(R, Qh @ W[:, moved > 0]).T.copy()):
        g_cand = _objective(Z @ cand)
        lam[r], g[r] = (cand, g_cand) if g_cand < history[0, r] else (starts[r], history[0, r])
    traces = []
    for r in range(restarts):
        trace = history[: steps[r] + 1, r]
        trace[moved[r]:] = g[r]
        traces.append(np.maximum(trace, g[r]).tolist())
    best_r = int(np.argmin(g))
    best_g = float(g[best_r])

    return OptimizerReport(
        best_lambda=lam[best_r],
        objective=best_g,
        snr=1.0 / best_g,
        winner=best_r,
        traces=traces,
        restarts=restarts,
        sweeps=sweeps,
        seed=seed,
    )


@_one_blas_thread()
def design_from_lambda(Z: np.ndarray, lam, grid: ResilienceGrid) -> WaveformDesign:
    """Design from the combined null vector Z lambda.

    The p/w split preserves magnitudes, so snr_ratio of the design's w
    equals ||Z lambda||_1^2 / ||Z lambda||_2^2 exactly; the combined
    vector stays in the null space, so the design residual stays small.
    A zero Z lambda is rejected by :func:`~compwave.design.extract_design`.
    """
    Z = _basis(Z)
    ll = np.asarray(lam, dtype=complex).ravel()
    if ll.size != Z.shape[1]:
        raise ValueError(f"lambda length {ll.size} does not match basis width {Z.shape[1]}")
    return design_from_vector(Z @ ll, grid)


@_one_blas_thread()
def snr_upper_bound(Z: np.ndarray, v) -> float:
    """Certified upper bound on snr_ratio(Z lambda) over every lambda.

    With Q an orthonormal basis of range(Z), the best ratio is the
    maximum of u^H P u, P = Q Q^H, over unimodular u.  For any y > 0 and
    D = diag(y), u^H D u = sum(y) on that set, so

        u^H P u <= lambda_max(D^{-1/2} P D^{-1/2}) * sum(y)

    (the dual of the complex SDP relaxation; Zhang & Huang, SIAM J.
    Optim. 16(3), 2006).  Here y = |v| * ||v||_1 for a vector v with no
    zero entry, typically the optimizer's own Z lambda, which makes the
    bound exact when U = 1.  The nonzero eigenvalues of
    D^{-1/2} Q Q^H D^{-1/2} are those of the U x U matrix
    Q^H D^{-1} Q, so one small ``eigvalsh`` suffices.
    """
    Z = _basis(Z)
    mags = np.abs(np.asarray(v, dtype=complex).ravel())
    if mags.size != Z.shape[0]:
        raise ValueError(f"v length {mags.size} does not match basis length {Z.shape[0]}")
    if not (np.all(mags > 0) and np.all(np.isfinite(mags))):
        raise ValueError("v must have finite, nonzero entries")
    y = mags * mags.sum()
    A = np.linalg.qr(Z)[0] / np.sqrt(y)[:, None]
    return float(np.linalg.eigvalsh(A.conj().T @ A)[-1] * y.sum())
