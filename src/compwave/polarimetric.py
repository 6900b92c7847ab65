"""Dual-polarization (four-channel) ambiguity analysis.

Transmitting the pair on two orthogonal polarizations under a shared
+/-1 schedule (x on V when p_n = +1 and on H otherwise, with the
time-reversed partner sequences on the opposite channel) yields four
discrete cross-ambiguity channels: the co-polar maps VV and HH and the
cross-polar maps VH and HV.  With the two terms of the single-antenna
map, even = 1/2 (C_x + C_y) f_w and odd = 1/2 (C_x - C_y) f_z,

    VV = even + odd,    HH = even - odd,
    VH(k, theta) = C_xy[k] f_z(theta),
    HV(k, theta) = C_yx[k] f_z(theta).

The cross-polar maps reduce to a single term because the reversal
correlations of any two real sequences obey C_yrev,xrev = C_xy and
C_xrev,yrev = C_yx; the tests check these identities bit for bit and
every channel against a per-pulse construction.  One condition
therefore governs everything: if f_z vanishes on the grid, the co-polar
sidelobes and both cross-polar channels vanish together, and the
scattering matrix can be read off the output matrix
U = H [[VV, VH], [HV, HH]].

Each channel is stored factored like the single-antenna map (see
:class:`~compwave.ambiguity.AmbiguityMap`): VV and HH share one row per
distinct (C_x + C_y, C_x - C_y) pair, VH and HV hold one row per
distinct value of C_xy and C_yx.  :func:`output_matrix` reads single
cells from those rows; a channel's dense array is built only when its
``values`` or ``db`` is read.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambiguity import AmbiguityMap, _lag_rows, _two_terms
from .design import _NULL_TOL, WaveformDesign, _constraint_angles, _responses
from .golay import _correlate

__all__ = [
    "ScatteringMatrix",
    "PolarimetricAmbiguity",
    "polarimetric_ambiguities",
    "output_matrix",
    "cross_channel_nulls",
]


@dataclass(frozen=True)
class ScatteringMatrix:
    """Per-target scattering coefficients h_vv, h_vh, h_hv, h_hh."""

    h_vv: complex
    h_vh: complex
    h_hv: complex
    h_hh: complex

    @property
    def matrix(self) -> np.ndarray:
        return np.array(
            [[complex(self.h_vv), complex(self.h_vh)], [complex(self.h_hv), complex(self.h_hh)]]
        )

    @classmethod
    def from_matrix(cls, mat) -> "ScatteringMatrix":
        m = np.asarray(mat, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"scattering matrix must be 2x2, got {m.shape}")
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


@dataclass(frozen=True)
class PolarimetricAmbiguity:
    """The four channel maps over common lag and angle axes."""

    vv: AmbiguityMap
    hh: AmbiguityMap
    vh: AmbiguityMap
    hv: AmbiguityMap

    @property
    def channels(self) -> dict:
        return {"vv": self.vv, "hh": self.hh, "vh": self.vh, "hv": self.hv}


def polarimetric_ambiguities(pair, p, w, angles, kind: str = "doppler") -> PolarimetricAmbiguity:
    """All four channel maps for a pair under schedule p and weights w.

    All four come from one two-term evaluation (the one
    :func:`~compwave.ambiguity.discrete_ambiguity` uses), so VV is
    bit-identical to the single-antenna map.  The cross-polar maps are
    built from their reduced single-term forms; the reversal identities
    behind that reduction are covered by the tests, not checked per call.
    """
    x, y, ang, n, _, fz, _, even, odd, index = _two_terms(pair, p, w, angles)
    vv = even + odd
    even -= odd  # HH = even - odd, in place

    def cross(a, b):
        coef, cross_index = _lag_rows(_correlate(a, b))
        return AmbiguityMap(np.outer(coef[:, 0], fz), ang, kind, n, cross_index)

    return PolarimetricAmbiguity(
        vv=AmbiguityMap(vv, ang, kind, n, index),
        hh=AmbiguityMap(even, ang, kind, n, index),
        vh=cross(x, y),
        hv=cross(y, x),
    )


def output_matrix(scattering: ScatteringMatrix, amb: PolarimetricAmbiguity, lag: int, angle: float) -> np.ndarray:
    """U = H [[VV, VH], [HV, HH]] at one (lag, angle) point.

    The lag must be an integer on the map's lag axis and the angle on
    its evaluation grid; anything else raises ``ValueError``.  Reads the
    channels' stored rows, so no dense map is built.
    """
    i = amb.vv.lag_index(lag)
    j = amb.vv.angle_index(angle)
    channel = np.array(
        [
            [amb.vv._row(i)[j], amb.vh._row(i)[j]],
            [amb.hv._row(i)[j], amb.hh._row(i)[j]],
        ]
    )
    return scattering.matrix @ channel


def cross_channel_nulls(p, w, grid):
    """Does f_z vanish on the grid?  Returns (ok, worst relative residual).

    The single condition sum_n p_n w_n e^{j n theta} = 0 at every grid
    angle makes the co-polar sidelobes vanish and zeroes both
    cross-polar channels; it is the same condition the null-space
    design solves, with the same 1e-10 bound.  The residual is
    max_m |f_z(theta_m)| / ||p*w||_2, with f_z from one
    :func:`~compwave.design._responses` pass (``grid``: a grid or bare
    angles).  (p, w) must make a :class:`~compwave.design.WaveformDesign`:
    an all-zero or non-finite ``w`` has no relative residual (ValueError).
    """
    z = WaveformDesign(p, w).z
    (fz,) = _responses(_constraint_angles(grid, z.size), z)
    residual = float(np.abs(fz).max() / np.linalg.norm(z))
    return residual <= _NULL_TOL, residual
