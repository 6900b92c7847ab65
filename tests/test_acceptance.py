"""End-to-end acceptance checks, one test per criterion.

Each test prints a single [criterion NN] PASS/FAIL line (visible with
pytest -s; the same text is the assertion message on failure).
"""
import math
import time

import numpy as np
import pytest

from compwave import (
    ResilienceGrid,
    basis_selection,
    binomial_design,
    closed_form_ambiguity,
    coordinate_descent,
    delay_ambiguity,
    design_from_lambda,
    design_from_vector,
    design_matrix,
    discrete_ambiguity,
    evaluation_grid,
    generate_golay_pair,
    is_golay_pair,
    length64_pair,
    null_space_basis,
    null_space_design,
    polarimetric_ambiguities,
    sidelobe_metrics,
    slow_time_response,
    snr_ratio,
    validate_design,
)

SWEEP_SIZES = (8, 16, 24, 32, 40, 48)


def check(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def dense_prsl(pair, design, interval, points=2001):
    angles = evaluation_grid(interval[0], interval[1], points)
    return sidelobe_metrics(discrete_ambiguity(pair, design.p, design.w, angles))


def point_prsl(pair, design, reference_peak, thetas):
    amap = discrete_ambiguity(pair, design.p, design.w, thetas)
    return sidelobe_metrics(amap, reference_peak=reference_peak).prsl_db


@pytest.fixture(scope="module")
def snr_sweep():
    """BS and the restarted L1 ascent (``coordinate_descent``) across train lengths on [0, 2]."""
    results = {}
    for n in SWEEP_SIZES:
        grid = ResilienceGrid.uniform(0.0, 2.0, n - 1)
        basis = null_space_basis(design_matrix(grid, n))
        bs_design = design_from_vector(basis_selection(basis), grid)
        report = coordinate_descent(basis, restarts=6, sweeps=40, seed=0)
        hcd_design = design_from_lambda(basis, report.best_lambda, grid)
        results[n] = (bs_design, hcd_design, report)
    return results


def test_criterion_01_complementarity_exact(pair64):
    start = time.perf_counter()
    ok = True
    for log2_length in range(13):
        pair = generate_golay_pair(log2_length)
        ok = ok and is_golay_pair(pair.x, pair.y)
    ok = ok and is_golay_pair(pair64.x, pair64.y)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    check(1, ok, f"pairs 2^0..2^12 and the length-64 fixture complementary, {elapsed:.2f} s")


def test_criterion_02_interest_interval_suppression(pair64):
    start = time.perf_counter()
    design = null_space_design(48, (0.0, 2.0))
    worst = dense_prsl(pair64, design, (0.0, 2.0)).prsl_db.max()
    elapsed = time.perf_counter() - start
    ok = worst <= -80.0 and elapsed < 10.0
    check(2, ok, f"N=48 on [0,2]: worst PRSL {worst:.2f} dB <= -80 dB, {elapsed:.2f} s")


def test_criterion_03_overall_interval_suppression(pair64):
    start = time.perf_counter()
    design = null_space_design(48, (0.0, np.pi))
    worst = dense_prsl(pair64, design, (0.0, np.pi)).prsl_db.max()
    elapsed = time.perf_counter() - start
    ok = worst <= -80.0 and elapsed < 10.0
    check(3, ok, f"N=48 on [0,pi]: worst PRSL {worst:.2f} dB <= -80 dB, {elapsed:.2f} s")


def test_criterion_04_binomial_contrast(pair64, design_0pi):
    bd = binomial_design(48)
    bd_ref = dense_prsl(pair64, bd, (0.0, np.pi)).reference_peak
    ns_ref = dense_prsl(pair64, design_0pi, (0.0, np.pi)).reference_peak
    bd_at = point_prsl(pair64, bd, bd_ref, [0.5, 3.0])
    ns_at_3 = point_prsl(pair64, design_0pi, ns_ref, [3.0])[0]
    gap = bd_at[1] - ns_at_3
    ok = gap >= 40.0 and bd_at[1] >= -40.0 and bd_at[0] <= -60.0
    check(4, ok, f"BD {bd_at[0]:.1f} dB at 0.5 / {bd_at[1]:.1f} dB at 3.0, "
                 f"{gap:.0f} dB above the null-space design at 3.0")


def test_criterion_05_binomial_key_term():
    worst = 0.0
    angles = np.linspace(0.0, 2 * np.pi, 101)
    for n in (4, 16, 48):
        design = binomial_design(n)
        fz = slow_time_response(design.p * design.w, angles)
        expected = (1.0 - np.exp(1j * angles)) ** (n - 1)
        worst = max(worst, np.abs(fz - expected).max() / np.abs(expected).max())
    ok = worst <= 1e-10
    check(5, ok, f"(1 - e^(j theta))^(N-1) reproduced to {worst:.1e} relative")


def test_criterion_06_snr_ordering(snr_sweep):
    bs = [snr_ratio(snr_sweep[n][0].w) for n in SWEEP_SIZES]
    hc = [snr_ratio(snr_sweep[n][1].w) for n in SWEEP_SIZES]
    ok = all(b2 >= b1 - 1e-9 for b1, b2 in zip(bs, bs[1:]))
    ok = ok and all(h2 >= h1 - 1e-9 for h1, h2 in zip(hc, hc[1:]))
    ok = ok and all(h >= b - 1e-9 for b, h in zip(bs, hc))
    for n in SWEEP_SIZES:
        for trace in snr_sweep[n][2].traces:
            ok = ok and all(b <= a for a, b in zip(trace, trace[1:]))
    bd = [4.0 ** (n - 1) / math.comb(2 * n - 2, n - 1) for n in SWEEP_SIZES]
    above = all(h > d for h, d in zip(hc, bd))
    check(6, ok, f"BS {bs[0]:.2f}..{bs[-1]:.2f}, HCD {hc[0]:.2f}..{hc[-1]:.2f}, "
                 f"monotone and HCD >= BS; exceeds BD at every N: {above} (observational)")


def test_criterion_07_polarimetric_suppression(pair64, design_02, design_0pi):
    ok = True
    levels = {}
    for label, design, interval in (
        ("[0,2]", design_02, (0.0, 2.0)),
        ("[0,pi]", design_0pi, (0.0, np.pi)),
    ):
        angles = evaluation_grid(interval[0], interval[1], 2001)
        amb = polarimetric_ambiguities(pair64, design.p, design.w, angles)
        ref = float(np.abs(amb.vv.mainlobe).max())
        level = 20 * np.log10(max(np.abs(amb.vh.values).max(), np.abs(amb.hv.values).max()) / ref)
        levels[label] = level
        ok = ok and level <= -80.0

    def vh_level_at(design, reference_interval, theta):
        dense = polarimetric_ambiguities(
            pair64, design.p, design.w, evaluation_grid(*reference_interval, 2001))
        ref = float(np.abs(dense.vv.mainlobe).max())
        amb = polarimetric_ambiguities(pair64, design.p, design.w, [theta])
        return 20 * np.log10(np.abs(amb.vh.values).max() / ref)

    gap = vh_level_at(binomial_design(48), (0.0, np.pi), 3.0) - vh_level_at(design_0pi, (0.0, np.pi), 3.0)
    ok = ok and gap >= 40.0
    check(7, ok, f"cross-polar peaks {levels['[0,2]']:.1f} / {levels['[0,pi]']:.1f} dB, "
                 f"BD exceeds the null-space design by {gap:.0f} dB at 3.0")


def test_criterion_08_oracle_equivalence():
    rng = np.random.default_rng(8)
    worst_rel, bound_ok = 0.0, True
    for _ in range(100):
        pair = generate_golay_pair(int(rng.integers(1, 6)))
        x, y = np.array(pair.x), np.array(pair.y)
        if rng.integers(2):
            x, y = y, x
        if rng.integers(2):
            x, y = x[::-1], y[::-1]
        if rng.integers(2):
            x = -x
        if rng.integers(2):
            y = -y
        n = int(rng.integers(2, 17))
        p = rng.choice([-1, 1], size=n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        angles = rng.uniform(0.0, 2 * np.pi, 5)
        direct = discrete_ambiguity((x, y), p, w, angles)
        closed = closed_form_ambiguity((x, y), p, w, angles)
        scale = np.abs(direct.values).max()
        worst_rel = max(worst_rel, np.abs(direct.values - closed.values).max() / scale)
        fz = np.abs(slow_time_response(p * w, angles))
        side = np.delete(np.abs(direct.values), x.size - 1, axis=0)
        bound_ok = bound_ok and np.all(side <= x.size * fz[None, :] + 1e-9 * scale)
    ok = worst_rel <= 1e-12 and bound_ok
    check(8, ok, f"100 randomized instances: forms agree to {worst_rel:.1e}, "
                 f"sidelobe bound holds: {bound_ok}")


def test_criterion_09_delay_axis(pair64):
    design = null_space_design(48, (0.0, 2.0), kind="delay")
    angles = evaluation_grid(0.0, 2.0, 2001)
    amap = delay_ambiguity(pair64, design.p, design.w, angles)
    worst = sidelobe_metrics(amap).prsl_db.max()
    ok = worst <= -80.0 and amap.kind == "delay"
    check(9, ok, f"delay-axis design on [0,2]: worst sidelobe {worst:.2f} dB <= -80 dB")


def test_criterion_10_nullspace_conditions(pair64, design_02, design_0pi, snr_sweep):
    emitted = [design_02, design_0pi, null_space_design(48, (0.0, 2.0), kind="delay")]
    for n in SWEEP_SIZES:
        emitted.extend(snr_sweep[n][:2])
    worst_null, worst_main = 0.0, np.inf
    ok = True
    for design in emitted:
        report = validate_design(design)
        ok = ok and report.ok
        worst_null = max(worst_null, report.nullspace_residual)
        worst_main = min(worst_main, report.mainlobe_residual)
    check(10, ok, f"{len(emitted)} emitted designs: null residual <= {worst_null:.1e} "
                  f"(tol 1e-10), mainlobe residual >= {worst_main:.1e} (floor 1e-3)")
