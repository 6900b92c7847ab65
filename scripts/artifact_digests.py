#!/usr/bin/env python3
"""Print the sha256 of every file a fixed, small compwave CLI sequence writes.

    python3 scripts/artifact_digests.py                   # the library under ./src
    python3 scripts/artifact_digests.py --src OTHER/src   # another checkout's library

The sequence covers every subcommand: ``repro`` at reduced sizes and
at its defaults, ``design`` with each selection method (hcd also on a
9-wide null space, so the optimizer's multi-dimensional path is covered;
bs and hcd also at N = 96, where LAPACK's SVD and the optimizer's block
products are large enough for OpenBLAS to thread; bs and hcd also with
an explicit M, one of them M >= N), a delay design
and one from a config file, ``evaluate`` (bundled and generated pairs, a
gridless baseline), ``polar`` with sampled output matrices, ``evaluate``
and ``polar`` on a generated L=4096 pair, ``polar`` on an N=48 [0, 2]
design at the default 2001 points, ``evaluate`` on an N=16 design at 2100
points (its complex map rows, 4200 floats, are longer than one formatting
block, so each is printed in two pieces), ``evaluate`` and ``polar`` on an
N=12 design stored with its non-uniform grid's angles (saved through the
public API, as a hand-written config is), ``compare``, ``snr-sweep`` and
``golay-gen``.  The two default-size runs are where map CSVs share the
most rows across channels and files.  One ``<sha256>  <path>`` line per
file, sorted by path, goes to standard output.  Run it against two
library trees and diff the outputs to show that a change keeps every
artifact byte-identical.

The sequence runs three times in one process: the second time into a
temporary directory of its own, with the library's phase-matrix and
correlation memos warm from the first, and the third time into the first
run's directory, over the files it wrote.  Exits 1 when a command fails
or a later run's files differ from the first's in name or in any byte.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sequence(out: Path) -> list:
    """The CLI argv lists, in order; later commands read files earlier ones wrote.

    Writes the two inputs no command writes: a hand-written config and a
    design on a non-uniform grid, saved through the library's public API.
    """
    from compwave import ResilienceGrid, design_from_vector, design_matrix, null_space_basis  # from --src: see main()

    (out / "config.json").write_text(json.dumps(
        {"n": 10, "interval": [0, 1.5], "m": 7, "out": "cfg.json"}))
    grid = ResilienceGrid([0.0, 0.25, 0.9, 1.4, 2.0], interval=(0.0, 2.0))
    design_from_vector(null_space_basis(design_matrix(grid, 12))[:, 0], grid).save(out / "nonuniform.json")
    o = ["--out-dir", str(out)]
    return [
        ["repro", *o, "--n", "16", "--points", "101", "--n-list", "8", "16",
         "--restarts", "2", "--sweeps", "3", "--label", "digest"],
        ["repro", *o, "--label", "full"],
        ["design", *o, "--n", "16", "--interval", "0", "2", "--out", "fb.json"],
        ["design", *o, "--n", "48", "--interval", "0", "2", "--out", "fb48.json"],
        ["design", *o, "--n", "16", "--interval", "0", "2", "--optimizer", "bs", "--out", "bs.json"],
        ["design", *o, "--n", "12", "--interval", "0", "2", "--optimizer", "hcd",
         "--restarts", "2", "--sweeps", "3", "--out", "hcd.json"],
        ["design", *o, "--n", "40", "--interval", "0", "2", "--optimizer", "hcd", "--restarts", "4",
         "--out", "hcd40.json"],
        ["design", *o, "--n", "96", "--interval", "0", "2", "--optimizer", "bs", "--out", "bs96.json"],
        ["design", *o, "--n", "96", "--interval", "0", "2", "--optimizer", "hcd",
         "--restarts", "2", "--sweeps", "3", "--out", "hcd96.json"],
        ["design", *o, "--n", "12", "--interval", "0", "0.05", "--m", "20", "--optimizer", "bs",
         "--out", "bs_m20.json"],
        ["design", *o, "--n", "10", "--interval", "0", "1.5", "--m", "6", "--optimizer", "hcd",
         "--restarts", "2", "--out", "hcd_m6.json"],
        ["design", *o, "--n", "16", "--interval", "0", "1", "--kind", "delay", "--out", "delay.json"],
        ["design", *o, "--config", str(out / "config.json")],
        ["compare", *o, "--n", "16", "--interval", "0", "2", "--points", "101"],
        ["evaluate", *o, "--design", str(out / "fb.json"), "--points", "101"],
        ["evaluate", *o, "--design", str(out / "fb.json"), "--points", "2100", "--prefix", "wide"],
        ["evaluate", *o, "--design", str(out / "bs.json"), "--points", "33", "--pair", "256"],
        ["evaluate", *o, "--design", str(out / "delay.json"), "--points", "21"],
        ["evaluate", *o, "--design", str(out / "compare_bd.json"), "--points", "51",
         "--eval-interval", "0", "3.141592653589793"],
        ["polar", *o, "--design", str(out / "fb.json"), "--points", "41",
         "--scattering", "0.9+0.1j", "(-0.2+0.3j)", "0.05j", "1", "--sample", "0", "0.0", "--sample", "-5", "1.0"],
        ["polar", *o, "--design", str(out / "delay.json"), "--points", "21", "--sample", "63", "1.0"],
        ["polar", *o, "--design", str(out / "fb48.json"), "--sample", "-3", "0.5"],
        ["evaluate", *o, "--design", str(out / "nonuniform.json"), "--points", "21"],
        ["polar", *o, "--design", str(out / "nonuniform.json"), "--points", "21"],
        ["evaluate", *o, "--design", str(out / "hcd.json"), "--points", "5", "--pair", "4096"],
        ["polar", *o, "--design", str(out / "hcd.json"), "--points", "5", "--pair", "4096"],
        ["snr-sweep", *o, "--n-list", "8", "12", "16", "--restarts", "2", "--sweeps", "3"],
        ["golay-gen", *o, "--log2-length", "5"],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the compwave package")
    parser.add_argument("--out-dir", help="an empty directory for the first run's artifacts (default: a temporary one)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import compwave.cli

    if not Path(compwave.cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported compwave from {compwave.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    with contextlib.ExitStack() as stack:
        first = Path(args.out_dir or stack.enter_context(tempfile.TemporaryDirectory()))
        outs = [first, Path(stack.enter_context(tempfile.TemporaryDirectory())), first]
        runs = []  # per run: {path: sha256}: cold memos, warm memos, then over the first run's files
        for out in outs:
            out.mkdir(parents=True, exist_ok=True)
            for argv in sequence(out):
                log = io.StringIO()
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = compwave.cli.main(argv)
                if code != 0:
                    print(f"error: compwave {argv[0]} exited {code}:\n{log.getvalue()}", file=sys.stderr)
                    return 1
            runs.append({path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
                         for path in sorted(p for p in out.rglob("*") if p.is_file())})
    cold = runs[0]
    for run, files in zip(("warm", "rerun"), runs[1:]):
        if files != cold:
            differ = sorted(name for name in cold.keys() | files.keys() if cold.get(name) != files.get(name))
            print(f"error: the {run} run's files differ from the cold run's: {', '.join(differ)}", file=sys.stderr)
            return 1
    for name, digest in cold.items():
        print(f"{digest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
