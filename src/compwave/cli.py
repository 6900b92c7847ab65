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
given before the command line's, which win.  Files go to --out-dir, else
$COMPWAVE_OUT_DIR, else the current directory; the directory is made by the
first write, after every check, and each file is announced by one
"wrote <path>" line.  Exit codes: 0 success, 1 validation error,
2 numerical failure (empty null space), 3 I/O failure.
"""
from __future__ import annotations

import argparse
import functools
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
    _CELL,
    _grid_index,
    _lag_position,
)
from .baselines import binomial_design, ptm_schedule
from .design import (
    EmptyNullSpaceError,
    WaveformDesign,
    _interval,
    _null_space,
    design_from_vector,
    null_space_design,
    validate_design,
)
from .golay import GolayPair, _read_json, _write_json, generate_golay_pair, length64_pair
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


def _int_at_least(low):
    """argparse type: an int at least ``low``."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


class _Ordered(argparse.Action):
    """Store an (LO, HI) pair that passes the library's interval rule (:func:`~compwave.design._interval`)."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            values = list(_interval(*values))
        except ValueError as exc:
            raise argparse.ArgumentError(None, f"{option_string} {str(exc).removeprefix('interval ')}") from None
        setattr(namespace, self.dest, values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser and its default lists
    # as they are, and no command writes to an option's default.
    # Every value rule sits on its option, so argparse applies it to flags and
    # config values alike, for every command, before any work starts
    common = _Parser(add_help=False)
    common.add_argument("--out-dir", help="output directory (default: $COMPWAVE_OUT_DIR or .)")
    common.add_argument("--config", help="JSON config file; flags override file values")

    pair_opts = _Parser(add_help=False)
    pair_opts.add_argument("--pair", default="length64",
                           help="'length64' (bundled pair), a power-of-two length to generate, or a pair JSON file")

    eval_opts = _Parser(add_help=False)
    eval_opts.add_argument("--eval-interval", type=float, nargs=2, metavar=("LO", "HI"), action=_Ordered,
                           help="evaluation angle interval (default: the design interval)")
    eval_opts.add_argument("--points", type=_int_at_least(1), default=2001, help="evaluation grid size")

    hcd_opts = _Parser(add_help=False)
    hcd_opts.add_argument("--restarts", type=_int_at_least(1), default=20, help="hcd optimizer starts")
    hcd_opts.add_argument("--sweeps", type=_int_at_least(1), default=100,
                          help="hcd map evaluations per restart, in multiples of the null-space width U")
    hcd_opts.add_argument("--seed", type=_int_at_least(0), default=0,
                          help="seed of the random starts of hcd restarts 1 and up (restart 0 starts at the bs column)")

    parser = _Parser(prog="compwave", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    # "required" options default to None and are checked after parsing,
    # so they may come from either the flags or the config file
    p = sub.add_parser("design", parents=[common, hcd_opts], help="build and store a resilient design")
    p.add_argument("--n", type=_int_at_least(2), help="number of pulses")
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"), action=_Ordered)
    p.add_argument("--m", type=_int_at_least(1), help="constraint angles (default: N-1)")
    p.add_argument("--kind", choices=("doppler", "delay"), default="doppler")
    p.add_argument("--optimizer", choices=OPTIMIZERS, default="first-basis")
    p.add_argument("--out", default="design.json", help="design file name")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("evaluate", parents=[common, pair_opts, eval_opts], help="map + metrics for a design")
    p.add_argument("--design", help="design JSON file")
    p.add_argument("--prefix", help="output file prefix (default: design file stem)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[common, pair_opts, eval_opts], help="null-space vs baselines")
    p.add_argument("--n", type=_int_at_least(2), default=48)
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"), action=_Ordered)
    p.add_argument("--m", type=_int_at_least(1))
    p.add_argument("--prefix", default="compare")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("snr-sweep", parents=[common, hcd_opts], help="SNR ratio vs number of pulses")
    p.add_argument("--n-list", type=_int_at_least(2), nargs="+", default=[8, 16, 24, 32, 40, 48])
    p.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"), action=_Ordered, default=[0.0, 2.0])
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
    p.add_argument("--log2-length", type=_int_at_least(0), help="pair length is 2**this")
    p.add_argument("--out", default="golay_pair.json")
    p.set_defaults(func=cmd_golay_gen)

    p = sub.add_parser("repro", parents=[common, hcd_opts], help="full experiment pipeline")
    p.add_argument("--n", type=_int_at_least(2), default=48)
    p.add_argument("--points", type=_int_at_least(1), default=2001)
    p.add_argument("--n-list", type=_int_at_least(2), nargs="+", default=[8, 16, 24, 32, 40, 48])
    p.add_argument("--label", help="directory label (default: timestamp)")
    p.set_defaults(func=cmd_repro)

    return parser


def _config_argv(parser, argv: list, args: argparse.Namespace) -> list:
    """``argv`` with the --config file's values inserted after the subcommand as flags.

    ``parser`` checks each key's flags on their own first, so an error names the file and the key;
    an explicit flag, coming later, wins.  A scalar becomes one ``--key=value`` token, so a value
    that starts with "-" is not read as an option; a list fills a multi-value option as separate
    tokens, ``sample`` takes a list of [lag, angle] pairs, and null keeps the default.
    """
    cfg = _read_json(args.config, "config", lambda data: data)
    if not isinstance(cfg, dict):
        raise CliError(f"config file {args.config} must hold a JSON object")
    tokens = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config", "func") or not hasattr(args, dest):
            raise CliError(f"{args.config}: unknown config key {key!r} for command {args.command!r}")
        if value is None:
            continue
        flags = []
        flag = "--" + dest.replace("_", "-")
        for item in value if dest == "sample" and isinstance(value, list) else [value]:
            flags += [flag, *map(str, item)] if isinstance(item, list) else [f"{flag}={item}"]
        try:  # each key on its own first, so that an error can name it
            parser.parse_args([args.command, *flags])
        except CliError as exc:
            raise CliError(f"{args.config}: key {key!r}: {exc}") from exc
        tokens += flags
    at = argv.index(args.command) + 1
    return argv[:at] + tokens + argv[at:]


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name.replace("-", "_"), None) is None:
            raise CliError(f"missing required option --{name} (flag or config file)")


class _Outputs:
    """The one output path: ``outputs(name, write, *extra)`` makes ``root`` on the first call, removes an existing
    ``root / name`` (a new file, not a truncated one), runs ``write(root / name, *extra)``, prints ``wrote <path>``,
    records ``name`` and returns the result."""

    def __init__(self, root):
        self.root = Path(root)
        self.names = []

    def __call__(self, name, write, *extra):
        if not self.names:
            self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / name
        path.unlink(missing_ok=True)
        result = write(path, *extra)
        self.names.append(name)
        print(f"wrote {path}")
        return result


def _resolve_pair(args) -> GolayPair:
    """--pair: 'length64', a power-of-two length, else the path of a pair JSON file."""
    if args.pair == "length64":
        return length64_pair()
    try:
        length = int(args.pair)
    except ValueError:
        return GolayPair.load(args.pair)
    if length < 1 or length & (length - 1):
        raise CliError(f"generated pair lengths must be powers of two, got {length}")
    return generate_golay_pair(length.bit_length() - 1)


def _build_design(args, n, interval, m=None, kind="doppler", method="first-basis", space=None):
    """Design by ``method`` (a SWEEP_METHODS name; hcd reads its settings from ``args``) -> (design, report).

    ``space`` is the (grid, basis) of ``_null_space(n, interval, m, kind)`` when the caller already has it.
    """
    if method == "bd":
        return binomial_design(n), None
    grid, basis = space or _null_space(n, interval, m, kind)
    if method == "first-basis":
        return design_from_vector(basis[:, 0], grid), None
    if method == "bs":
        return design_from_vector(basis_selection(basis), grid), None
    report = coordinate_descent(basis, restarts=args.restarts, sweeps=args.sweeps, seed=args.seed)
    return design_from_lambda(basis, report.best_lambda, grid), report


def _eval_angles(args, design: WaveformDesign) -> np.ndarray:
    interval = args.eval_interval
    if interval is None:
        if design.grid is None:
            raise CliError("design carries no interval; pass --eval-interval")
        interval = design.grid.interval
    return evaluation_grid(interval[0], interval[1], args.points)


def cmd_design(args, outputs) -> None:
    _require(args, "n", "interval")
    design, optimizer = _build_design(args, args.n, args.interval, args.m, args.kind, args.optimizer)
    out = Path(args.out)
    outputs(out, design.save)
    report = validate_design(design)
    outputs(out.with_name(out.stem + "_report.json"), _write_json, report.to_dict())
    if not report.ok:
        raise CliError(
            f"design violates usability conditions: nullspace residual "
            f"{report.nullspace_residual:.3e}, mainlobe residual {report.mainlobe_residual:.3e}"
        )
    if optimizer is not None:
        outputs(out.with_name(out.stem + "_optimizer.json"), optimizer.save)
    print(f"snr_ratio {snr_ratio(design.w):.6f}  residual {design.residual:.3e}")


def _load_design(args):
    """The stored ``--design`` (rejected when unusable), its axis kind, the pair and the evaluation angles."""
    _require(args, "design")
    design = WaveformDesign.load(args.design)
    if design.grid is not None and not validate_design(design).ok:
        raise CliError(f"stored design {args.design} fails its usability conditions")
    kind = "doppler" if design.grid is None else design.grid.kind
    return design, kind, _resolve_pair(args), _eval_angles(args, design)


def cmd_evaluate(args, outputs) -> None:
    design, kind, pair, angles = _load_design(args)
    amap = discrete_ambiguity(pair, design.p, design.w, angles, kind=kind)
    metrics = sidelobe_metrics(amap)
    prefix = args.prefix or Path(args.design).stem
    for suffix, write in (
        ("map.csv", amap.to_csv),
        ("map_db.csv", amap.db_to_csv),
        ("map_meta.json", amap.save_metadata),
        ("profile.csv", metrics.profile_to_csv),
        ("prsl.csv", metrics.prsl_to_csv),
    ):
        outputs(f"{prefix}_{suffix}", write)
    finite = metrics.prsl_db[np.isfinite(metrics.prsl_db)]
    if finite.size:
        print(f"prsl_db min {finite.min():.2f}  max {finite.max():.2f}")


def cmd_compare(args, outputs) -> None:
    _require(args, "n", "interval")
    pair = _resolve_pair(args)
    ns = null_space_design(args.n, tuple(args.interval), constraints=args.m)
    designs = {"ns": ns, "bd": binomial_design(args.n), "ptm": ptm_schedule(args.n)}
    angles = _eval_angles(args, ns)
    metrics = {name: sidelobe_metrics(discrete_ambiguity(pair, design.p, design.w, angles))
               for name, design in designs.items()}
    for name, design in designs.items():
        outputs(f"{args.prefix}_{name}.json", design.save)
    for stem, field in (("prsl", "prsl_db"), ("profile", "profile")):
        outputs(f"{args.prefix}_{stem}.csv", write_columns_csv,
                ["angle", *metrics], [angles, *(getattr(m, field) for m in metrics.values())])


def _write_sweep(path: Path, args, n_list, methods, interval):
    """Write the ``n,method,snr_ratio`` table (ratio to 17 digits), leaving a failed cell blank.

    The null-space methods of one N share its null space, computed once.  Returns None, or the
    error to raise once the command's files are written: EmptyNullSpaceError (exit 2) when every
    failed cell is an empty null space, else CliError (exit 1).
    """
    lines = ["n,method,snr_ratio"]
    failed = []
    for n in n_list:
        space = None
        for method in methods:
            try:
                if space is None and method != "bd":
                    space = _null_space(n, interval, None, "doppler")
                w = _build_design(args, n, interval, method=method, space=space)[0].w
                lines.append(f"{n},{method}," + _CELL % snr_ratio(w))
            except (EmptyNullSpaceError, ValueError) as exc:
                print(f"warning: N={n} {method} failed: {exc}", file=sys.stderr)
                lines.append(f"{n},{method},")
                failed.append((f"N={n} {method}", exc))
    path.write_text("\n".join(lines) + "\n")
    if failed:
        message = f"{len(failed)} sweep cell(s) failed: " + ", ".join(cell for cell, _ in failed)
        numerical = all(isinstance(exc, EmptyNullSpaceError) for _, exc in failed)
        return EmptyNullSpaceError(message) if numerical else CliError(message)


def cmd_snr_sweep(args, outputs) -> None:
    failure = outputs(args.out, _write_sweep, args, args.n_list, args.optimizers, tuple(args.interval))
    if failure:
        raise failure


def cmd_polar(args, outputs) -> None:
    design, kind, pair, angles = _load_design(args)
    prefix = args.prefix or (Path(args.design).stem + "_polar")
    scattering = ScatteringMatrix(*args.scattering)
    # samples are checked before any map is computed, and maps and their dB peaks before the directory is made
    points = []
    for lag, angle in args.sample or []:
        _lag_position(pair.length, lag)
        _grid_index(angles, angle)
        points.append((int(lag), angle))
    amb = polarimetric_ambiguities(pair, design.p, design.w, angles, kind=kind)
    for name, channel in amb.channels.items():
        try:
            channel._db_reference()
        except ValueError as exc:
            raise CliError(f"{name} channel: {exc}") from exc
    for name, channel in amb.channels.items():
        outputs(f"{prefix}_{name}.csv", channel.to_csv)
        outputs(f"{prefix}_{name}_db.csv", channel.db_to_csv)
        outputs(f"{prefix}_{name}_meta.json", channel.save_metadata)
    samples = []
    for lag, angle in points:
        u = output_matrix(scattering, amb, lag, angle)
        samples.append({
            "lag": lag,
            "angle": angle,
            "U": [[[float(c.real), float(c.imag)] for c in row] for row in u],
        })
    outputs(f"{prefix}_u_samples.json", _write_json, samples)


def cmd_golay_gen(args, outputs) -> None:
    _require(args, "log2-length")
    outputs(args.out, generate_golay_pair(args.log2_length).save)


def cmd_repro(args, outputs) -> None:
    """The full pipeline: designs, maps, baselines, SNR sweep, polarimetry."""
    label = args.label or time.strftime("%Y%m%d-%H%M%S")
    emit = _Outputs(outputs.root / f"repro-{label}")
    n = args.n
    pair = length64_pair()

    # interval-limited design and its schedule/weight profiles
    interval_design = null_space_design(n, (0.0, 2.0))
    emit("interval_design.json", interval_design.save)
    idx = np.arange(n)
    emit("interval_schedule.csv", write_two_column_csv, idx, interval_design.p, ("pulse", "p"))
    emit("interval_weight_magnitude.csv", write_two_column_csv, idx, np.abs(interval_design.w), ("pulse", "abs_w"))

    # one polarimetric evaluation per null-space or binomial design: its VV channel is
    # bit for bit the single-antenna map, and its VH channel is written after the sweep
    cross = {}  # tag -> (VH map, co-polar mainlobe peak); VH shares its row-text memo with VV

    def co_polar(tag, design, angles):
        amb = polarimetric_ambiguities(pair, design.p, design.w, angles)
        cross[tag] = (amb.vh, float(np.abs(amb.vv.mainlobe).max()))
        return amb.vv

    angles_interval = evaluation_grid(0.0, 2.0, args.points)
    amap = co_polar("interval", interval_design, angles_interval)
    emit("interval_map_db.csv", amap.db_to_csv)
    emit("interval_map_meta.json", amap.save_metadata)
    emit("interval_prsl.csv", sidelobe_metrics(amap).prsl_to_csv)

    # full-interval design vs binomial baseline
    overall = null_space_design(n, (0.0, np.pi))
    emit("overall_design.json", overall.save)
    angles_overall = evaluation_grid(0.0, np.pi, args.points)
    columns = {}
    for name, design in (("ns", overall), ("bd", binomial_design(n)), ("ptm", ptm_schedule(n))):
        if name == "ptm":
            dmap = discrete_ambiguity(pair, design.p, design.w, angles_overall)
        else:
            dmap = co_polar("overall" if name == "ns" else name, design, angles_overall)
            emit(f"overall_{name}_map_db.csv", dmap.db_to_csv)
        columns[name] = sidelobe_metrics(dmap).prsl_db
    emit("overall_prsl_comparison.csv", write_columns_csv, ["angle", *columns], [angles_overall, *columns.values()])

    # SNR sweep across methods; a failed cell ends the run nonzero once every file is written
    sweep_failure = emit("snr_vs_pulses.csv", _write_sweep, args, args.n_list, SWEEP_METHODS, (0.0, 2.0))

    # cross-polar channels, referenced to each run's co-polar mainlobe peak
    for tag, (vh, reference) in cross.items():
        emit(f"polar_{tag}_vh_db.csv", vh.db_to_csv, reference)

    emit("manifest.json", _write_json, {"n": n, "points": args.points, "seed": args.seed, "outputs": list(emit.names)})
    if sweep_failure:
        raise sweep_failure


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.config:
            args = parser.parse_args(_config_argv(parser, argv, args))
        args.func(args, _Outputs(args.out_dir or os.environ.get(ENV_OUT_DIR) or "."))
        return 0
    except (EmptyNullSpaceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # io.UnsupportedOperation is both an OSError and a ValueError: an I/O failure
        return 2 if isinstance(exc, EmptyNullSpaceError) else 3 if isinstance(exc, OSError) else 1


if __name__ == "__main__":
    sys.exit(main())
