"""The benchmark's workloads: inputs made from the seed, ops, and checks.

Importing this module imports numpy and compwave, so the caller times
the import as part of set-up.  ``build`` does the rest of set-up: it
loads or generates the pairs, builds and stores the input designs, and
makes one warm-up call so that the first SVD's cold cost is paid here.

Each op goes through a public entry point only, ``compwave.cli.main``
or the functions exported by ``compwave``, and returns whatever its
check needs.  Every workload runs in a closed loop with one caller.

Why these workloads:

- ``repro-paper`` is ``compwave repro`` with its defaults, the end-to-end
  number the paper's pipeline is judged by; the SNR optimizer is ~94% of
  it, so it is where optimizer changes show.
- ``map-export`` evaluates stored designs and writes every map, metric
  and polarimetric channel as CSV/JSON.  The CSV writers are ~97% of it
  and the optimizer never runs, so it isolates CSV work and is the
  control for optimizer changes.
- ``api-sweep`` calls the library at the paper's scale and at the scale
  points (N up to 128, L up to 4096) and writes no files.  Map compute
  and polarimetric maps are ~94% of it; per-map working sets run from
  ~4 MB to ~34 MB, past the per-core L2, so it is the compute-side
  control for CSV changes.
"""
from __future__ import annotations

import contextlib
import io
import math

import numpy as np

import compwave as cw
import compwave.cli

import checks

# The optimizer's run time depends on its seed by up to ~1.5x (20.6 s to
# 31.3 s over seeds 0-3), more than any bound on wall_s allows, so the
# repro op keeps the CLI's default optimizer seed; the workload seed
# drives the label and the sampled output checks.
REPRO_OPTIMIZER_SEED = 0

# (L, N, interval, points); the flagged entry provides the headline SNR
API_CONFIGS = {
    "full": [(64, 48, (0.0, 2.0), 2001), (64, 48, (0.0, math.pi), 2001), (256, 96, (0.0, 2.0), 1001),
             (1024, 128, (0.0, 2.0), 513), (4096, 128, (0.0, math.pi), 257)],
    "smoke": [(16, 16, (0.0, 2.0), 65), (64, 24, (0.0, math.pi), 33)],
}
API_HEADLINE = {"full": 3, "smoke": 0}


class Op:
    """One closed-loop operation: ``run(out)`` is timed, ``check`` is not."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


class Workload:
    def __init__(self):
        self.ops = []
        self.facts = {}  # values read back by the checks, e.g. the headline SNR


def cli_call(argv):
    """``compwave.cli.main(argv)`` with its console output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = compwave.cli.main(argv)
    return code, buf.getvalue()


def cli_failed(result, label: str) -> list:
    code, text = result
    return [] if code == 0 else [f"{label}: exit code {code}: {text.strip()[-300:]}"]


def warm_up(pair) -> None:
    design = cw.null_space_design(48, (0.0, 2.0))
    cw.discrete_ambiguity(pair, design.p, design.w, cw.evaluation_grid(0.0, 2.0, 16))


def build(name: str, seed: int, inputs, smoke: bool = False) -> Workload:
    """Set up workload ``name`` with inputs from ``seed``; input files go under ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    make = {"repro-paper": _repro_paper, "map-export": _map_export, "api-sweep": _api_sweep}[name]
    return make(seed, inputs, rng, "smoke" if smoke else "full")


def _repro_paper(seed, inputs, rng, scale) -> Workload:
    pair = cw.length64_pair()
    warm_up(pair)
    n, points = (16, 101) if scale == "smoke" else (48, 2001)
    argv = ["repro", "--seed", str(REPRO_OPTIMIZER_SEED), "--label", f"seed{seed}"]
    if scale == "smoke":
        argv += ["--n", str(n), "--points", str(points), "--n-list", "8", "16", "--restarts", "2", "--sweeps", "3"]
    wl = Workload()

    def check(result, out, check_rng):
        bad = cli_failed(result, "repro")
        if bad:
            return bad
        d = out / f"repro-seed{seed}"
        interval = cw.WaveformDesign.load(d / "interval_design.json")
        overall = cw.WaveformDesign.load(d / "overall_design.json")
        for label, design in (("interval", interval), ("overall", overall)):
            bad += checks.design_valid(design, label) + checks.nulls_hold(design, label)
        bad += checks.prsl_within([float(v) for v in checks.read_columns(d / "interval_prsl.csv")["prsl_db"]],
                                  "interval_prsl.csv")
        bad += checks.prsl_within([float(v) for v in checks.read_columns(d / "overall_prsl_comparison.csv")["ns"]],
                                  "overall_prsl_comparison.csv ns")
        order_bad, table = checks.criterion_06(d / "snr_vs_pulses.csv")
        bad += order_bad
        if (n, "hcd") in table:
            wl.facts["snr_ratio"] = table[(n, "hcd")]
        for stem, design, lo, hi in (("interval_map_db", interval, 0.0, 2.0),
                                     ("overall_ns_map_db", overall, 0.0, math.pi),
                                     ("overall_bd_map_db", cw.binomial_design(n), 0.0, math.pi)):
            amap = cw.discrete_ambiguity(pair, design.p, design.w, cw.evaluation_grid(lo, hi, points))
            bad += checks.matrix_csv_matches(d / f"{stem}.csv", amap, amap.db, float, check_rng)
        return bad

    wl.ops.append(Op("repro", lambda out: cli_call(argv + ["--out-dir", str(out)]), check))
    return wl


def _map_export(seed, inputs, rng, scale) -> Workload:
    n, points, big = (16, 101, 16) if scale == "smoke" else (48, 2001, 256)
    pairs = {64: cw.length64_pair(), big: cw.generate_golay_pair(big.bit_length() - 1)}
    grid02 = cw.ResilienceGrid.uniform(0.0, 2.0, n - 1)
    designs = {
        "fb02": cw.null_space_design(n, (0.0, 2.0)),
        "fb0pi": cw.null_space_design(n, (0.0, math.pi)),
        "bs02": cw.design_from_vector(cw.basis_selection(cw.null_space_basis(cw.design_matrix(grid02, n))), grid02),
        "bd": cw.binomial_design(n),
    }
    for key, design in designs.items():
        design.save(inputs / f"{key}.json")
    warm_up(pairs[64])
    wl = Workload()
    wl.facts["snr_ratio"] = cw.snr_ratio(designs["bs02"].w)

    def angles_of(design):
        lo, hi = design.grid.interval if design.grid is not None else (0.0, math.pi)
        return cw.evaluation_grid(lo, hi, points)

    def evaluate(key, prefix, length):
        design = designs[key]
        argv = ["evaluate", "--design", str(inputs / f"{key}.json"), "--points", str(points), "--prefix", prefix]
        if length != 64:
            argv += ["--pair", str(length)]
        if design.grid is None:
            argv += ["--eval-interval", "0", repr(math.pi)]

        def check(result, out, check_rng):
            bad = cli_failed(result, prefix)
            if bad:
                return bad
            amap = cw.discrete_ambiguity(pairs[length], design.p, design.w, angles_of(design))
            bad += checks.map_files_match(out, f"{prefix}_map", amap, check_rng)
            if design.grid is not None:
                bad += checks.design_valid(design, key)
                prsl = checks.read_columns(out / f"{prefix}_prsl.csv")["prsl_db"]
                bad += checks.prsl_within([float(v) for v in prsl], f"{prefix}_prsl.csv")
            return bad

        wl.ops.append(Op(f"evaluate-{prefix}", lambda out: cli_call(argv + ["--out-dir", str(out)]), check))

    def polar(key):
        design = designs[key]
        angles = angles_of(design)
        coeffs = rng.normal(size=(4, 2)).round(3)
        # parenthesized, since argparse reads a literal with a leading "-" as an option
        scattering = [f"({re:.3f}{im:+.3f}j)" for re, im in coeffs]
        argv = ["polar", "--design", str(inputs / f"{key}.json"), "--points", str(points),
                "--scattering", *scattering]
        length = pairs[64].length  # polar uses the default bundled pair
        for _ in range(3):
            lag = int(rng.integers(-(length - 1), length))
            argv += ["--sample", str(lag), repr(float(angles[rng.integers(points)]))]
        prefix = f"{key}_polar"

        def check(result, out, check_rng):
            bad = cli_failed(result, prefix)
            if bad:
                return bad
            bad += checks.design_valid(design, key) + checks.nulls_hold(design, key)
            amb = cw.polarimetric_ambiguities(pairs[64], design.p, design.w, angles)
            for channel, amap in amb.channels.items():
                bad += checks.map_files_match(out, f"{prefix}_{channel}", amap, check_rng)
            matrix = cw.ScatteringMatrix(*(complex(tok) for tok in scattering))
            bad += checks.u_samples_match(out / f"{prefix}_u_samples.json", matrix, amb)
            return bad

        wl.ops.append(Op(prefix, lambda out: cli_call(argv + ["--out-dir", str(out)]), check))

    for key in ("fb02", "fb0pi", "bs02", "bd"):
        evaluate(key, key, 64)
    evaluate("fb02", f"fb02_L{big}", big)
    polar("fb02")
    polar("fb0pi")
    return wl


def _api_sweep(seed, inputs, rng, scale) -> Workload:
    warm_up(cw.length64_pair())
    wl = Workload()
    for index, (length, n, interval, points) in enumerate(API_CONFIGS[scale]):
        lags = rng.integers(-(length - 1), length, size=3)
        cols = rng.integers(points, size=3)
        coeffs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        wl.ops.append(_api_op(wl, length, n, interval, points, list(zip(lags.tolist(), cols.tolist())),
                              cw.ScatteringMatrix.from_matrix(coeffs), index == API_HEADLINE[scale]))
    return wl


def _api_op(wl, length, n, interval, points, samples, scattering, headline) -> Op:
    lo, hi = interval

    def run(out):
        pair = cw.length64_pair() if length == 64 else cw.generate_golay_pair(length.bit_length() - 1)
        grid = cw.ResilienceGrid.uniform(lo, hi, n - 1)
        basis = cw.null_space_basis(cw.design_matrix(grid, n))
        designs = {"first-basis": cw.null_space_design(n, interval),
                   "bs": cw.design_from_vector(cw.basis_selection(basis), grid)}
        angles = cw.evaluation_grid(lo, hi, points)
        results = {}
        for label, design in designs.items():
            amap = cw.discrete_ambiguity(pair, design.p, design.w, angles)
            worst = float(cw.sidelobe_metrics(amap).prsl_db.max())
            amb = cw.polarimetric_ambiguities(pair, design.p, design.w, angles)
            nulls = cw.cross_channel_nulls(design.p, design.w, grid)
            # U from output_matrix, and the channel cells it must be built from
            us = []
            for lag, j in samples:
                i = lag + length - 1
                cells = np.array([[amb.vv.values[i, j], amb.vh.values[i, j]],
                                  [amb.hv.values[i, j], amb.hh.values[i, j]]])
                us.append((cw.output_matrix(scattering, amb, lag, angles[j]), cells))
            results[label] = (design, worst, nulls, us)
        return results

    def check(results, out, check_rng):
        bad = []
        for label, (design, worst, nulls, us) in results.items():
            tag = f"L={length} N={n} {interval} {label}"
            bad += checks.design_valid(design, tag) + checks.prsl_within([worst], tag)
            if not nulls[0]:
                bad.append(f"{tag}: cross_channel_nulls residual {nulls[1]:.3e}")
            bad += [f"{tag}: output_matrix differs from H @ channels" for u, channel in us
                    if not np.array_equal(u, scattering.matrix @ channel)]
        if headline:
            wl.facts["snr_ratio"] = cw.snr_ratio(results["bs"][0].w)
        return bad

    return Op(f"api-L{length}-N{n}-{hi:.2f}", run, check)
