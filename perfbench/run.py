#!/usr/bin/env python3
"""compwave benchmark: closed-loop workloads timed from outside the library.

    python3 perfbench/run.py --workload repro-paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --smoke               # tiny sizes, checks asserted

Run from the root of a source checkout; the library is imported from its
``src/`` directory.  One run sets up the workload (timed as ``setup_s``,
also in fresh processes), then repeats passes over the workload's op list
for ``--seconds`` with one caller (a pass starts only if it is expected
to end in time, and at least one runs), checking every op's outputs
outside its timed span.  With ``--trace 1`` half the time goes to
untraced passes and half to passes with the span wrappers of
``spans.py`` installed, and the run reports per-layer numbers (medians
over traced passes) instead of end-to-end ones.  The last line of standard output is the
result as one JSON object; the full record (environment, per-op times,
artifact digests, failures) goes to ``.perfbench_out/results/`` and the
span dump to ``.perfbench_out/spans/``.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("repro-paper", "map-export", "api-sweep")
SETUP_PROBES = 6  # fresh-process set-ups per run, on top of the run's own
PROBE_TIMEOUT_S = 120
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "snr_ratio": "ratio"}


def per_layer_units() -> dict:
    import spans

    units = {}
    for layer in (*spans.LAYERS, spans.HARNESS):
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "snropt.decisions": "count", "snropt.accept_ratio": "ratio",
        "ambiguity.cells": "count", "ambiguity.cells_per_s": "1/s",
        "ambiguity.csv.cells": "count", "ambiguity.csv.bytes": "B",
        "polarimetric.cells": "count", "design.null_width": "count", "design.io_s": "s",
        "tracing.spans": "count", "tracing.overhead_s": "s", "traced.wall_s": "s", "src.lines": "lines",
    })
    return units


def cap_threads() -> int:
    """Keep BLAS/OpenMP pools at no more threads than the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var)
        if current is None or not current.isdigit() or int(current) > nproc or int(current) < 1:
            os.environ[var] = str(nproc)
    return nproc


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "compwave").glob("*.py")))


def environment(seed: int, nproc: int) -> dict:
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc,
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines(),
    }


def set_up(name: str, seed: int, inputs: Path, smoke: bool):
    """Import compwave and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    wl = workloads.build(name, seed, inputs, smoke=smoke)
    elapsed = time.perf_counter() - start
    import compwave

    if SRC.resolve() not in Path(compwave.__file__).resolve().parents:
        raise RuntimeError(f"compwave imported from {compwave.__file__}, not from {SRC}")
    return wl, elapsed


def setup_probes(name: str, seed: int, smoke: bool, count: int) -> list:
    """Set-up time measured in ``count`` fresh processes, one after another."""
    times = []
    for _ in range(count):
        argv = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
        if smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def digest_tree(root: Path, into: dict, prefix: str) -> None:
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        into[f"{prefix}/{path.relative_to(root)}"] = hashlib.sha256(path.read_bytes()).hexdigest()


def run_pass(wl, work: Path, seed: int, index: int, record: dict, rec=None) -> tuple:
    """One pass over the op list; returns (wall seconds, cpu seconds)."""
    import numpy as np

    base = work / f"pass{index}"
    wall = cpu = 0.0
    for i, op in enumerate(wl.ops):
        out = base / op.name
        out.mkdir(parents=True)
        failures = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if rec is None:
                result = op.run(out)
            else:
                rec.active = True
                try:
                    result = rec.op(op.name, op.run, out)
                finally:
                    rec.active = False
        except Exception:
            result = None
            failures.append(f"{op.name}: {traceback.format_exc(limit=3).strip()[-600:]}")
        t1 = time.perf_counter()
        c1 = time.process_time()
        wall += t1 - t0
        cpu += c1 - c0
        if rec is None:
            record["op_walls"].setdefault(op.name, []).append(t1 - t0)
        if not failures:
            try:
                failures += op.check(result, out, np.random.default_rng([seed, index, i]))
            except Exception:
                failures.append(f"{op.name} check: {traceback.format_exc(limit=3).strip()[-600:]}")
        record["attempted"] += 1
        if failures:
            record["failed"] += 1
            record["failures"].extend(failures)
        if index == 0:
            digest_tree(out, record["digests"], op.name)
    shutil.rmtree(base)
    return wall, cpu


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the result record (``metrics`` as name -> (value, unit))."""
    nproc = cap_threads()
    work = OUT / "work" / f"{name}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        return _measure(name, seed, seconds, trace, smoke, nproc, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def repeat(seconds: float, step) -> None:
    """Call ``step()`` at least once, then again while another call fits in ``seconds``."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return


def _measure(name, seed, seconds, trace, smoke, nproc, work) -> dict:
    wl, setup_own = set_up(name, seed, work / "inputs", smoke)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(seed, nproc), "attempted": 0, "failed": 0, "failures": [],
              "op_walls": {}, "digests": {}, "pass_walls": [], "pass_cpus": []}
    passes = itertools.count()

    def untraced_pass():
        wall, cpu = run_pass(wl, work, seed, next(passes), record)
        record["pass_walls"].append(wall)
        record["pass_cpus"].append(cpu)

    if trace:
        # untraced and traced passes share the run time
        import spans

        per_pass, recorders = [], []

        def traced_pass():
            rec = spans.Recorder()
            with spans.Patch(rec):
                traced_wall, _ = run_pass(wl, work, seed, next(passes), record, rec=rec)
            values = spans.layer_metrics(rec)
            values["traced.wall_s"] = traced_wall
            self_total = sum(values[f"{layer}.self_s"] for layer in (*spans.LAYERS, spans.HARNESS))
            if abs(self_total - traced_wall) > 1e-3 * traced_wall + 1e-4:
                record["failures"].append(f"self times add up to {self_total} s, op walls to {traced_wall} s")
            per_pass.append(values)
            recorders.append(rec)

        repeat(seconds / 2, untraced_pass)
        repeat(seconds / 2, traced_pass)
        values = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
        values["tracing.overhead_s"] = values["traced.wall_s"] - statistics.median(record["pass_walls"])
        values["src.lines"] = record["env"]["src_lines"]
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        spans.dump(recorders, OUT / "spans" / f"{name}-seed{seed}.json")
        record["metrics"] = {key: (values[key], unit) for key, unit in per_layer_units().items()}
    else:
        # set-up probes on both sides of the passes, so they see the machine as the passes do
        setups = [setup_own] + setup_probes(name, seed, smoke, SETUP_PROBES // 2)
        repeat(seconds, untraced_pass)
        setups += setup_probes(name, seed, smoke, SETUP_PROBES - SETUP_PROBES // 2)
        record["setup_samples"] = setups
        values = {
            "wall_s": statistics.median(record["pass_walls"]),
            "cpu_s": statistics.median(record["pass_cpus"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
            "snr_ratio": wl.facts.get("snr_ratio", 0.0),
        }
        record["metrics"] = {key: (values[key], unit) for key, unit in END_TO_END.items()}
    if "snr_ratio" not in wl.facts:
        record["failures"].append("headline SNR not found in the outputs")
    record["correct"] = record["failed"] == 0 and not record["failures"]
    return record


def self_time_table(record) -> list:
    m = {k: v for k, (v, _) in record["metrics"].items()}
    wall = m["traced.wall_s"]
    lines = [f"{'layer':<15}{'self_s':>12}{'share':>8}{'calls':>8}"]
    layers = sorted({k[:-len(".self_s")] for k in m if k.endswith(".self_s")}, key=lambda k: -m[f"{k}.self_s"])
    for layer in layers:
        s = m[f"{layer}.self_s"]
        lines.append(f"{layer:<15}{s:>12.4f}{100 * s / wall:>7.1f}%{m[f'{layer}.calls']:>8g}")
    # each column is a median over traced passes, so the sum only approximates the pass wall
    lines.append(f"{'sum':<15}{sum(m[f'{k}.self_s'] for k in layers):>12.4f}  median pass wall {wall:.4f} s")
    return lines


def emit(record) -> None:
    """Human-readable lines, the result file, then the JSON result line."""
    print("env " + json.dumps(record["env"], sort_keys=True))
    for op, walls in record["op_walls"].items():
        print(f"op {op:<24} median {statistics.median(walls):.4f} s over {len(walls)}")
    if record["digests"]:
        combined = hashlib.sha256(json.dumps(record["digests"], sort_keys=True).encode()).hexdigest()
        print(f"artifacts {len(record['digests'])} files, sha256 of digests {combined}")
    if record["trace"]:
        print("\n".join(self_time_table(record)))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))


def run_all(args) -> int:
    """Every workload in its own process; prints each end-to-end metric with its unit."""
    ok = True
    print(f"{'workload':<13}{'metric':<13}{'value':>16}  unit")
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        for key, metric in result["metrics"].items():
            print(f"{name:<13}{key:<13}{metric['value']:>16.6g}  {metric['unit']}")
        print(f"{name:<13}{'error_rate':<13}{result['failed'] / result['attempted']:>16.6g}  "
              f"failed/attempted ({result['failed']}/{result['attempted']})")
    return 0 if ok else 1


def smoke() -> int:
    """Each workload once at tiny sizes, untraced and traced; every check must pass."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in declared["end_to_end"]}
    layer_names = {m["name"] for m in declared["per_layer"]}
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            record = measure(name, 0, 0.0, trace, smoke=True)
            names = set(record["metrics"])
            expected = layer_names if trace else e2e_names
            problems = list(record["failures"])
            if names != expected:
                problems.append(f"metrics {sorted(names ^ expected)} differ from BENCHMARK.json")
            if record["attempted"] < 1:
                problems.append("no op attempted")
            print(f"smoke {name} trace={int(trace)}: {'ok' if not problems else 'FAILED'} "
                  f"({record['attempted']} ops)")
            for problem in problems:
                print(f"  {problem}")
            ok = ok and not problems
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; assert every check passes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "compwave" / "__init__.py").is_file():
        print(f"error: no compwave sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        cap_threads()
        work = OUT / "work" / f"probe-{os.getpid()}"
        try:
            _, elapsed = set_up(args.workload, args.seed, work / "inputs", args.smoke)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(json.dumps({"setup_s": elapsed}))
        return 0
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args)
    emit(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
