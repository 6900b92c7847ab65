"""Output checks, run after each op and outside its timed span.

Every check returns a list of failure messages; an empty list means the
op's outputs are right.  Recomputations go through compwave's public API
and are compared bit for bit with what the op wrote.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import compwave as cw

PRSL_LIMIT_DB = -80.0
SAMPLE_ROWS = 8
SAMPLE_COLS = 8


def design_valid(design, label: str) -> list:
    """``validate_design`` at its default 1e-10 / 1e-3 tolerances."""
    report = cw.validate_design(design)
    if report.ok:
        return []
    return [f"{label}: validate_design failed (null {report.nullspace_residual:.3e}, "
            f"mainlobe {report.mainlobe_residual:.3e})"]


def prsl_within(values, label: str) -> list:
    worst = float(np.max(values))
    return [] if worst <= PRSL_LIMIT_DB else [f"{label}: worst PRSL {worst:.2f} dB above {PRSL_LIMIT_DB} dB"]


def nulls_hold(design, label: str) -> list:
    ok, residual = cw.cross_channel_nulls(design.p, design.w, design.grid)
    return [] if ok else [f"{label}: cross_channel_nulls residual {residual:.3e}"]


def read_columns(path: Path) -> dict:
    """CSV with a header row -> {column name: list of cell strings}."""
    lines = Path(path).read_text().splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def criterion_06(path: Path) -> tuple:
    """SNR sweep ordering: bs and hcd monotone in N, hcd >= bs at every N.

    Returns (failures, {(n, method): ratio}).
    """
    cols = read_columns(path)
    table = {}
    for n, method, cell in zip(cols["n"], cols["method"], cols["snr_ratio"]):
        if not cell:
            return [f"{path.name}: missing cell N={n} {method}"], table
        table[(int(n), method)] = float(cell)
    ns = sorted({n for n, _ in table})
    bs = [table[(n, "bs")] for n in ns]
    hcd = [table[(n, "hcd")] for n in ns]
    ok = all(b >= a - 1e-9 for seq in (bs, hcd) for a, b in zip(seq, seq[1:]))
    ok = ok and all(h >= b - 1e-9 for b, h in zip(bs, hcd))
    return ([] if ok else [f"{path.name}: criterion-06 ordering broken (bs {bs}, hcd {hcd})"]), table


def matrix_csv_matches(path: Path, amap, values: np.ndarray, parse, rng) -> list:
    """A seeded sample of cells of a map CSV equals ``values`` bit for bit.

    ``parse`` is ``complex`` for value maps and ``float`` for dB maps.
    The file is streamed so that large maps are never held in memory.
    """
    n_rows, n_cols = values.shape
    rows = set(rng.choice(n_rows, size=min(SAMPLE_ROWS, n_rows), replace=False).tolist())
    rows |= {0, n_rows - 1}
    cols = sorted(set(rng.choice(n_cols, size=min(SAMPLE_COLS, n_cols), replace=False).tolist()) | {0, n_cols - 1})
    lags = amap.lags
    bad = []
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[0] != "lag" or len(header) != n_cols + 1:
            return [f"{path.name}: header has {len(header)} fields, expected {n_cols + 1}"]
        bad += [f"{path.name}: angle column {j} reads {header[j + 1]}" for j in cols
                if float(header[j + 1]) != amap.angles[j]]
        seen = 0
        for i, line in enumerate(fh):
            if i not in rows:
                continue
            seen += 1
            cells = line.rstrip("\n").split(",")
            if len(cells) != n_cols + 1 or int(cells[0]) != lags[i]:
                bad.append(f"{path.name}: row {i} malformed")
                continue
            bad += [f"{path.name}: cell ({lags[i]}, {j}) reads {cells[j + 1]}, expected {values[i, j]!r}"
                    for j in cols if parse(cells[j + 1]) != values[i, j]]
    if seen != len(rows):
        bad.append(f"{path.name}: {seen} of {len(rows)} sampled rows present")
    return bad[:5]


def map_files_match(out: Path, stem: str, amap, rng) -> list:
    """``<stem>.csv`` (complex values) and ``<stem>_db.csv`` against ``amap``."""
    return (matrix_csv_matches(out / f"{stem}.csv", amap, amap.values, complex, rng)
            + matrix_csv_matches(out / f"{stem}_db.csv", amap, amap.db, float, rng))


def u_samples_match(path: Path, scattering, amb) -> list:
    """``*_u_samples.json`` equals ``output_matrix`` recomputed at each sample."""
    samples = json.loads(Path(path).read_text())
    bad = []
    for s in samples:
        u = cw.output_matrix(scattering, amb, s["lag"], s["angle"])
        stored = np.array([[complex(re, im) for re, im in row] for row in s["U"]])
        if not np.array_equal(stored, u):
            bad.append(f"{path.name}: U at lag {s['lag']}, angle {s['angle']} differs")
    return bad
