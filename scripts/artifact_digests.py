#!/usr/bin/env python3
"""Print the sha256 of every file a fixed, small compwave CLI sequence writes.

    python3 scripts/artifact_digests.py                   # the library under ./src
    python3 scripts/artifact_digests.py --src OTHER/src   # another checkout's library

The sequence covers every subcommand: ``repro`` at reduced sizes,
``design`` with each selection method, a delay design and one from a
config file, ``evaluate`` (bundled and generated pairs, a gridless
baseline), ``polar`` with sampled output matrices, ``evaluate`` and
``polar`` on a generated L=4096 pair, ``compare``, ``snr-sweep`` and
``golay-gen``.  One ``<sha256>  <path>`` line per file, sorted by path,
goes to standard output.  Run it against two library trees and diff the
outputs to show that a change keeps every artifact byte-identical.
Exits 1 when a command fails.
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
    """The CLI argv lists, in order; later commands read files earlier ones wrote."""
    (out / "config.json").write_text(json.dumps(
        {"n": 10, "interval": [0, 1.5], "m": 7, "basis_index": 1, "out": "cfg.json"}))
    o = ["--out-dir", str(out)]
    return [
        ["repro", *o, "--n", "16", "--points", "101", "--n-list", "8", "16",
         "--restarts", "2", "--sweeps", "3", "--label", "digest"],
        ["design", *o, "--n", "16", "--interval", "0", "2", "--out", "fb.json"],
        ["design", *o, "--n", "16", "--interval", "0", "2", "--optimizer", "bs", "--out", "bs.json"],
        ["design", *o, "--n", "12", "--interval", "0", "2", "--optimizer", "hcd",
         "--restarts", "2", "--sweeps", "3", "--out", "hcd.json"],
        ["design", *o, "--n", "16", "--interval", "0", "1", "--kind", "delay", "--out", "delay.json"],
        ["design", *o, "--config", str(out / "config.json")],
        ["compare", *o, "--n", "16", "--interval", "0", "2", "--points", "101"],
        ["evaluate", *o, "--design", str(out / "fb.json"), "--points", "101"],
        ["evaluate", *o, "--design", str(out / "bs.json"), "--points", "33", "--pair", "256"],
        ["evaluate", *o, "--design", str(out / "delay.json"), "--points", "21"],
        ["evaluate", *o, "--design", str(out / "compare_bd.json"), "--points", "51",
         "--eval-interval", "0", "3.141592653589793"],
        ["polar", *o, "--design", str(out / "fb.json"), "--points", "41",
         "--scattering", "0.9+0.1j", "(-0.2+0.3j)", "0.05j", "1", "--sample", "0", "0.0", "--sample", "-5", "1.0"],
        ["polar", *o, "--design", str(out / "delay.json"), "--points", "21", "--sample", "63", "1.0"],
        ["evaluate", *o, "--design", str(out / "hcd.json"), "--points", "5", "--pair", "4096"],
        ["polar", *o, "--design", str(out / "hcd.json"), "--points", "5", "--pair", "4096"],
        ["snr-sweep", *o, "--n-list", "8", "12", "16", "--restarts", "2", "--sweeps", "3"],
        ["golay-gen", *o, "--log2-length", "5"],
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory that holds the compwave package")
    parser.add_argument("--out-dir", help="where the artifacts go (default: a temporary directory)")
    args = parser.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import compwave.cli

    if not Path(compwave.cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported compwave from {compwave.cli.__file__}, not from {src}", file=sys.stderr)
        return 1
    with contextlib.ExitStack() as stack:
        out = Path(args.out_dir or stack.enter_context(tempfile.TemporaryDirectory()))
        out.mkdir(parents=True, exist_ok=True)
        for argv in sequence(out):
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = compwave.cli.main(argv)
            if code != 0:
                print(f"error: compwave {argv[0]} exited {code}:\n{log.getvalue()}", file=sys.stderr)
                return 1
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
