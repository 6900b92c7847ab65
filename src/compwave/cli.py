"""Command-line front end.

Subcommands
-----------
design      build a resilient design and write it as JSON with a report
evaluate    ambiguity map + sidelobe metrics for a stored design
compare     null-space design vs binomial and PTM baselines
snr-sweep   SNR ratio versus train length for several selection methods
polar       four polarization channel maps and sampled output matrices
golay-gen   generate a complementary pair of length 2^m
repro       run the full experiment pipeline into one directory

Options can also come from a JSON config file (--config), parsed as flags
given before the command line's, which win.  The default output directory is
taken from $COMPWAVE_OUT_DIR when --out-dir is absent.  Exit codes:
0 success, 1 validation error, 2 numerical failure (empty null space),
3 I/O failure.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from pathlib import Path

import numpy as np

from .ambiguity import (
    discrete_ambiguity,
    evaluation_grid,
    sidelobe_metrics,
    write_columns_csv,
    write_two_column_csv,
    _grid_index,
)
from .baselines import binomial_design, ptm_schedule
from .design import (
    EmptyNullSpaceError,
    ResilienceGrid,
    WaveformDesign,
    design_from_vector,
    design_matrix,
    null_space_basis,
    null_space_design,
    validate_design,
)
from .golay import GolayPair, generate_golay_pair, length64_pair
from .polarimetric import ScatteringMatrix, output_matrix, polarimetric_ambiguities
from .snropt import basis_selection, coordinate_descent, design_from_lambda, snr_ratio

ENV_OUT_DIR = "COMPWAVE_OUT_DIR"
OPTIMIZERS = ("first-basis", "bs", "hcd")
SWEEP_METHODS = ("first-basis", "bs", "hcd", "bd")


class CliError(ValueError):
    """Bad arguments or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern only knows negative reals, so it reads a
        # value such as -0.5+0.1j as an unknown option; a "-" followed by a
        # digit (the rule Python 3.13 adopted) marks a value instead
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse's default error() exits with status 2, which this tool
    # reserves for numerical failures; route argument problems to 1.
    def error(self, message):
        raise CliError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--out-dir", help="output directory (default: $COMPWAVE_OUT_DIR or .)")
    common.add_argument("--config", help="JSON config file; flags override file values")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized paths")

    pair_opts = _Parser(add_help=False)
    pair_opts.add_argument("--pair", default="length64",
                           help="'length64' (bundled fixture) or a power-of-two length to generate")
    pair_opts.add_argument("--pair-file", help="JSON pair file (overrides --pair)")

    eval_opts = _Parser(add_help=False)
    eval_opts.add_argument("--eval-interval", type=float, nargs=2, metavar=("LO", "HI"),
                           help="evaluation angle interval (default: the design interval)")
    eval_opts.add_argument("--points", type=int, default=2001, help="evaluation grid size")

    hcd_opts = _Parser(add_help=False)
    hcd_opts.add_argument("--restarts", type=int, default=20, help="hcd optimizer starts")
    hcd_opts.add_argument("--sweeps", type=int, default=100,
                          help="hcd step budget per restart, in multiples of the null-space width")
    hcd_opts.add_argument("--eps", type=float, default=1e-6,
                          help="hcd stops a restart once a step moves the unit-norm null vector by at most this")

    parser = _Parser(prog="compwave", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # "required" options default to None and are checked after parsing,
    # so they may come from either the flags or the config file
    p = sub.add_parser("design", parents=[common, hcd_opts], help="build and store a resilient design")
    p.add_argument("--n", type=int, help="number of pulses")
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--m", type=int, help="constraint angles (default: N-1)")
    p.add_argument("--kind", choices=("doppler", "delay"), default="doppler")
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="first-basis")
    p.add_argument("--basis-index", type=int, default=0, help="basis column for first-basis")
    p.add_argument("--out", default="design.json", help="design file name")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evaluate", parents=[common, pair_opts, eval_opts], help="map + metrics for a design")
    p.add_argument("--design", help="design JSON file")
    p.add_argument("--prefix", help="output file prefix (default: design file stem)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[common, pair_opts, eval_opts], help="null-space vs baselines")
    p.add_argument("--n", type=int, default=48)
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--m", type=int)
    p.add_argument("--prefix", default="compare")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("snr-sweep", parents=[common, hcd_opts], help="SNR ratio vs number of pulses")
    p.add_argument("--n-list", type=int, nargs="+", default=[8, 16, 24, 32, 40, 48])
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"), default=[0.0, 2.0])
    p.add_argument("--optimizers", nargs="+", choices=SWEEP_METHODS, default=list(SWEEP_METHODS))
    p.add_argument("--out", default="snr_sweep.csv")
    p.set_defaults(func=cmd_snr_sweep)

    p = sub.add_parser("polar", parents=[common, pair_opts, eval_opts], help="four-channel polarimetric maps")
    p.add_argument("--design")
    p.add_argument("--scattering", type=complex, nargs=4, metavar=("HVV", "HVH", "HHV", "HHH"), default=[1, 0, 0, 1],
                   help="scattering coefficients as complex literals, e.g. 0.9+0.1j (no spaces)")
    p.add_argument("--sample", type=float, action="append", nargs=2, metavar=("LAG", "ANGLE"),
                   help="evaluate the output matrix at this (lag, angle); repeatable")
    p.add_argument("--prefix")
    p.set_defaults(func=cmd_polar)

    p = sub.add_parser("golay-gen", parents=[common], help="generate a complementary pair")
    p.add_argument("--log2-length", type=int, help="pair length is 2**this")
    p.add_argument("--out", default="golay_pair.json")
    p.set_defaults(func=cmd_golay_gen)

    p = sub.add_parser("repro", parents=[common, hcd_opts], help="full experiment pipeline")
    p.add_argument("--n", type=int, default=48)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--n-list", type=int, nargs="+", default=[8, 16, 24, 32, 40, 48])
    p.add_argument("--label", help="directory label (default: timestamp)")
    p.set_defaults(func=cmd_repro)

    return parser


def _config_argv(parser, argv: list, args: argparse.Namespace) -> list:
    """``argv`` with the --config file's values inserted after the subcommand as ``--key value`` flags.

    ``parser`` checks each key's flags on their own first, so an error names the file and the key;
    an explicit flag, coming later, wins.  A list fills a multi-value option, ``sample`` takes a
    list of [lag, angle] pairs, and null keeps the default.
    """
    try:
        cfg = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed config file {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"config file {args.config} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config", "func") or not hasattr(args, dest):
            raise CliError(f"unknown config key {key!r} for command {args.command!r}")
        if value is None:
            continue
        flags = []
        for item in value if dest == "sample" and isinstance(value, list) else [value]:
            flags += ["--" + dest.replace("_", "-"), *map(str, item if isinstance(item, list) else [item])]
        try:  # each key on its own first, so that an error can name it
            parser.parse_args([args.command, *flags])
        except CliError as exc:
            raise CliError(f"{args.config}: key {key!r}: {exc}") from exc
        tokens += flags
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _check_order(flag: str, interval) -> None:
    lo, hi = interval
    if not lo <= hi:  # also rejects nan
        raise CliError(f"{flag} endpoints out of order: [{lo}, {hi}]")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise CliError(f"missing required option --{name} (flag or config file)")


def _out_dir(args) -> Path:
    root = args.out_dir or os.environ.get(ENV_OUT_DIR) or "."
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _resolve_pair(args) -> GolayPair:
    if getattr(args, "pair_file", None):
        return GolayPair.load(args.pair_file)
    token = str(getattr(args, "pair", "length64"))
    if token == "length64":
        return length64_pair()
    try:
        length = int(token)
    except ValueError as exc:
        raise CliError(f"--pair must be 'length64' or an integer length, got {token!r}") from exc
    if length < 1 or length & (length - 1):
        raise CliError(f"generated pair lengths must be powers of two, got {length}")
    return generate_golay_pair(length.bit_length() - 1)


def _build_design(args, n, interval, m=None, kind="doppler", method="first-basis", basis_index=0):
    """Design by ``method`` (a SWEEP_METHODS name; hcd reads its settings from ``args``) -> (design, report)."""
    if method == "bd":
        return binomial_design(n), None
    if method == "first-basis":
        return null_space_design(n, interval, constraints=m, kind=kind, basis_index=basis_index), None
    grid = ResilienceGrid.uniform(interval[0], interval[1], n - 1 if m is None else m, kind=kind)
    basis = null_space_basis(design_matrix(grid, n))
    if method == "bs":
        return design_from_vector(basis_selection(basis), grid), None
    report = coordinate_descent(basis, restarts=args.restarts, sweeps=args.sweeps, eps=args.eps, seed=args.seed)
    return design_from_lambda(basis, report.best_lambda, grid), report


def _eval_angles(args, design: WaveformDesign) -> np.ndarray:
    interval = args.eval_interval
    if interval is None:
        if design.grid is None:
            raise CliError("design carries no interval; pass --eval-interval")
        interval = design.grid.interval
    else:
        _check_order("--eval-interval", interval)
    if args.points < 1:
        raise CliError("--points must be at least 1")
    return evaluation_grid(interval[0], interval[1], args.points)


def cmd_design(args) -> None:
    _require(args, "n", "interval")
    if args.n < 2:
        raise CliError("--n must be at least 2")
    _check_order("--interval", args.interval)
    design, optimizer = _build_design(args, args.n, args.interval, args.m, args.kind, args.optimizer, args.basis_index)
    path = _out_dir(args) / args.out
    design.save(path)
    print(f"wrote {path}")
    report = validate_design(design)
    report_path = path.with_name(path.stem + "_report.json")
    report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    print(f"wrote {report_path}")
    if not report.ok:
        raise CliError(
            f"design violates usability conditions: nullspace residual "
            f"{report.nullspace_residual:.3e}, mainlobe residual {report.mainlobe_residual:.3e}"
        )
    if optimizer is not None:
        opt_path = path.with_name(path.stem + "_optimizer.json")
        optimizer.save(opt_path)
        print(f"wrote {opt_path}")
    print(f"snr_ratio {snr_ratio(design.w):.6f}  residual {design.residual:.3e}")


def _load_design(args):
    """The stored ``--design`` (rejected when unusable), its axis kind, the pair and the evaluation angles."""
    _require(args, "design")
    design = WaveformDesign.load(args.design)
    if design.grid is not None and not validate_design(design).ok:
        raise CliError(f"stored design {args.design} fails its usability conditions")
    kind = "doppler" if design.grid is None else design.grid.kind
    return design, kind, _resolve_pair(args), _eval_angles(args, design)


def cmd_evaluate(args) -> None:
    design, kind, pair, angles = _load_design(args)
    out = _out_dir(args)
    prefix = args.prefix or Path(args.design).stem
    amap = discrete_ambiguity(pair, design.p, design.w, angles, kind=kind)
    metrics = sidelobe_metrics(amap)
    for suffix, write in (
        ("map.csv", amap.to_csv),
        ("map_db.csv", amap.db_to_csv),
        ("map_meta.json", amap.save_metadata),
        ("profile.csv", metrics.profile_to_csv),
        ("prsl.csv", metrics.prsl_to_csv),
    ):
        path = out / f"{prefix}_{suffix}"
        write(path)
        print(f"wrote {path}")
    finite = metrics.prsl_db[np.isfinite(metrics.prsl_db)]
    if finite.size:
        print(f"prsl_db min {finite.min():.2f}  max {finite.max():.2f}")


def cmd_compare(args) -> None:
    _require(args, "n", "interval")
    if args.n < 2:
        raise CliError("--n must be at least 2")
    _check_order("--interval", args.interval)
    pair = _resolve_pair(args)
    ns = null_space_design(args.n, tuple(args.interval), constraints=args.m)
    designs = {"ns": ns, "bd": binomial_design(args.n), "ptm": ptm_schedule(args.n)}
    angles = _eval_angles(args, ns)
    out = _out_dir(args)
    prsl_cols, profile_cols = {}, {}
    for name, design in designs.items():
        design.save(out / f"{args.prefix}_{name}.json")
        metrics = sidelobe_metrics(discrete_ambiguity(pair, design.p, design.w, angles))
        prsl_cols[name] = metrics.prsl_db
        profile_cols[name] = metrics.profile
    for stem, cols in (("prsl", prsl_cols), ("profile", profile_cols)):
        path = out / f"{args.prefix}_{stem}.csv"
        write_columns_csv(path, ["angle", *cols], [angles, *cols.values()])
        print(f"wrote {path}")


def _write_sweep(path: Path, args, n_list, methods, interval):
    """Write the ``n,method,snr_ratio`` table (ratio to 17 digits), leaving a failed cell blank.

    Returns None, or the error to raise once the command's files are written: EmptyNullSpaceError
    (exit 2) when every failed cell is an empty null space, else CliError (exit 1).
    """
    lines = ["n,method,snr_ratio"]
    failed = []
    for n in n_list:
        for method in methods:
            try:
                w = _build_design(args, n, interval, method=method)[0].w
                lines.append(f"{n},{method},{snr_ratio(w):.17g}")
            except (EmptyNullSpaceError, ValueError) as exc:
                print(f"warning: N={n} {method} failed: {exc}", file=sys.stderr)
                lines.append(f"{n},{method},")
                failed.append((f"N={n} {method}", exc))
    path.write_text("\n".join(lines) + "\n")
    if failed:
        message = f"{len(failed)} sweep cell(s) failed: " + ", ".join(cell for cell, _ in failed)
        numerical = all(isinstance(exc, EmptyNullSpaceError) for _, exc in failed)
        return EmptyNullSpaceError(message) if numerical else CliError(message)


def cmd_snr_sweep(args) -> None:
    bad = [n for n in args.n_list if n < 2]
    if bad:
        raise CliError(f"every swept N must be at least 2, got {bad[0]}")
    _check_order("--interval", args.interval)
    path = _out_dir(args) / args.out
    failure = _write_sweep(path, args, args.n_list, args.optimizers, tuple(args.interval))
    print(f"wrote {path}")
    if failure:
        raise failure


def cmd_polar(args) -> None:
    design, kind, pair, angles = _load_design(args)
    prefix = args.prefix or (Path(args.design).stem + "_polar")
    scattering = ScatteringMatrix(*args.scattering)
    # every sample is checked against the axes before any map is computed or directory made
    points = []
    for lag_val, angle in args.sample or []:
        if not lag_val.is_integer():
            raise CliError(f"sample lag must be an integer, got {lag_val}")
        lag = int(lag_val)
        if not -(pair.length - 1) <= lag <= pair.length - 1:
            raise CliError(f"sample lag {lag} outside [-{pair.length - 1}, {pair.length - 1}]")
        _grid_index(angles, angle)
        points.append((lag, angle))
    out = _out_dir(args)
    amb = polarimetric_ambiguities(pair, design.p, design.w, angles, kind=kind)
    for name, channel in amb.channels.items():
        channel.to_csv(out / f"{prefix}_{name}.csv")
        channel.db_to_csv(out / f"{prefix}_{name}_db.csv")
        channel.save_metadata(out / f"{prefix}_{name}_meta.json")
        print(f"wrote {out / f'{prefix}_{name}.csv'} (+db, +meta)")
    samples = []
    for lag, angle in points:
        u = output_matrix(scattering, amb, lag, angle)
        samples.append({
            "lag": lag,
            "angle": angle,
            "U": [[[float(c.real), float(c.imag)] for c in row] for row in u],
        })
    sample_path = out / f"{prefix}_u_samples.json"
    sample_path.write_text(json.dumps(samples, indent=2) + "\n")
    print(f"wrote {sample_path}")


def cmd_golay_gen(args) -> None:
    _require(args, "log2-length")
    if args.log2_length < 0:
        raise CliError("--log2-length must be nonnegative")
    out = _out_dir(args)
    pair = generate_golay_pair(args.log2_length)
    path = out / args.out
    pair.save(path)
    print(f"wrote {path} (length {pair.length})")


def cmd_repro(args) -> None:
    """The full pipeline: designs, maps, baselines, SNR sweep, polarimetry."""
    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    out = _out_dir(args) / f"repro-{label}"
    out.mkdir(parents=True, exist_ok=True)
    n = args.n
    pair = length64_pair()
    manifest = {"n": n, "points": args.points, "seed": args.seed, "outputs": []}

    def emit(name, write, *extra):
        """Write one artifact with ``write(path, *extra)``, record it, and pass on what ``write`` returns."""
        result = write(out / name, *extra)
        manifest["outputs"].append(name)
        print(f"wrote {out / name}")
        return result

    # interval-limited design and its schedule/weight profiles
    interval_design = null_space_design(n, (0.0, 2.0))
    emit("interval_design.json", interval_design.save)
    idx = np.arange(n)
    emit("interval_schedule.csv", write_two_column_csv, idx, interval_design.p, ("pulse", "p"))
    emit("interval_weight_magnitude.csv", write_two_column_csv, idx, np.abs(interval_design.w), ("pulse", "abs_w"))

    angles_interval = evaluation_grid(0.0, 2.0, args.points)
    amap = discrete_ambiguity(pair, interval_design.p, interval_design.w, angles_interval)
    emit("interval_map_db.csv", amap.db_to_csv)
    emit("interval_map_meta.json", amap.save_metadata)
    emit("interval_prsl.csv", sidelobe_metrics(amap).prsl_to_csv)

    # full-interval design vs binomial baseline
    overall = null_space_design(n, (0.0, np.pi))
    emit("overall_design.json", overall.save)
    angles_overall = evaluation_grid(0.0, np.pi, args.points)
    bd = binomial_design(n)
    columns = {}
    for name, design in (("ns", overall), ("bd", bd), ("ptm", ptm_schedule(n))):
        dmap = discrete_ambiguity(pair, design.p, design.w, angles_overall)
        if name != "ptm":
            emit(f"overall_{name}_map_db.csv", dmap.db_to_csv)
        columns[name] = sidelobe_metrics(dmap).prsl_db
    emit("overall_prsl_comparison.csv", write_columns_csv, ["angle", *columns], [angles_overall, *columns.values()])

    # SNR sweep across methods; a failed cell ends the run nonzero once every file is written
    sweep_failure = emit("snr_vs_pulses.csv", _write_sweep, args, args.n_list, SWEEP_METHODS, (0.0, 2.0))

    # cross-polar channels, referenced to each run's co-polar mainlobe peak
    for tag, design, angles in (
        ("interval", interval_design, angles_interval),
        ("overall", overall, angles_overall),
        ("bd", bd, angles_overall),
    ):
        amb = polarimetric_ambiguities(pair, design.p, design.w, angles)
        emit(f"polar_{tag}_vh_db.csv", amb.vh.db_to_csv, float(np.abs(amb.vv.mainlobe).max()))

    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out / 'manifest.json'}")
    if sweep_failure:
        raise sweep_failure


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(parser, argv, args))
        args.func(args)
        return 0
    except EmptyNullSpaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
