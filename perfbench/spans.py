"""Span recorder for the traced benchmark run.

The traced run wraps compwave's public functions from the outside: every
name bound to one of them in any compwave module (the package itself,
the defining module, and the modules that re-import it, such as
``compwave.cli`` and ``compwave.polarimetric``) is replaced by a wrapper
that records a span, and the originals are restored afterwards.  Spans
are kept in memory as (id, parent, layer, name, start, end) and written
out at the end of the run.  A layer's self time is the duration of its
spans minus the part covered by their child spans; since the run is
single-threaded the spans nest, so the self times of one op's spans add
up to the op's wall time exactly.
"""
from __future__ import annotations

import functools
import json
import os
import time

# layer -> public functions of its module, and "Class.method" names
LAYERS = {
    "golay": ["generate_golay_pair", "is_golay_pair", "length64_pair", "autocorrelation",
              "cross_correlation", "reverse", "save_sequence", "load_sequence",
              "GolayPair.save", "GolayPair.load"],
    "design": ["design_matrix", "null_space_basis", "extract_design", "design_from_vector",
               "null_space_design", "validate_design", "ResilienceGrid.uniform",
               "WaveformDesign.save", "WaveformDesign.load"],
    "snropt": ["snr_ratio", "basis_selection", "coordinate_descent", "design_from_lambda",
               "OptimizerReport.save"],
    "ambiguity": ["discrete_ambiguity", "closed_form_ambiguity", "delay_ambiguity",
                  "sidelobe_metrics", "slow_time_response", "evaluation_grid"],
    "ambiguity.csv": ["AmbiguityMap.to_csv", "AmbiguityMap.db_to_csv", "AmbiguityMap.save_metadata",
                      "SidelobeMetrics.profile_to_csv", "SidelobeMetrics.prsl_to_csv",
                      "write_two_column_csv"],
    "polarimetric": ["polarimetric_ambiguities", "output_matrix", "cross_channel_nulls"],
    "baselines": ["binomial_design", "ptm_schedule"],
    "cli": ["main"],
}

# the module that defines each layer's names ("ambiguity.csv" lives in ambiguity)
MODULE_OF = {"ambiguity.csv": "ambiguity"}

# root span of every op; its self time is the benchmark's own glue code
HARNESS = "harness"

DESIGN_IO = ("WaveformDesign.save", "WaveformDesign.load")


class Recorder:
    """In-memory span list plus the work counters taken at the same boundaries."""

    def __init__(self):
        self.spans = []  # [id, parent, layer, name, start, end]
        self.stack = []
        self.counts = {}
        self.active = False

    def count(self, key, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def begin(self, layer: str, name: str) -> list:
        span = [len(self.spans), self.stack[-1][0] if self.stack else None, layer, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def op(self, name: str, fn, *args):
        """Run ``fn(*args)`` under a harness root span named after the op."""
        span = self.begin(HARNESS, name)
        try:
            return fn(*args)
        finally:
            self.end(span)


def dump(recorders, path) -> None:
    """Write the spans and counts of each traced pass as JSON."""
    keys = ("id", "parent", "layer", "name", "start", "end")
    passes = [{"counts": r.counts, "spans": [dict(zip(keys, s)) for s in r.spans]} for r in recorders]
    with open(path, "w") as fh:
        json.dump({"passes": passes}, fh)


def _counter(qualname: str):
    """Work counted on return of ``qualname``: (recorder, args, result) -> None."""

    def csv_bytes(rec, path):
        rec.count("ambiguity.csv.bytes", os.stat(path).st_size)

    def map_cells(rec, args, result):
        rec.count("ambiguity.cells", result.values.size)

    def matrix_csv(rec, args, result):
        csv_bytes(rec, args[1])
        rec.count("ambiguity.csv.cells", args[0].values.size)

    def two_column_csv(rec, args, result):
        csv_bytes(rec, args[0])
        rec.count("ambiguity.csv.cells", 2 * len(args[1]))

    def polar_cells(rec, args, result):
        rec.count("polarimetric.cells", sum(ch.values.size for ch in result.channels.values()))

    def null_width(rec, args, result):
        rec.count("design.null_width", result.shape[1])

    def decisions(rec, args, result):
        for trace in result.traces:
            rec.count("snropt.decisions", len(trace) - 1)
            rec.count("snropt.accepts", sum(b < a for a, b in zip(trace, trace[1:])))

    return {
        "discrete_ambiguity": map_cells,
        "closed_form_ambiguity": map_cells,
        "delay_ambiguity": map_cells,
        "AmbiguityMap.to_csv": matrix_csv,
        "AmbiguityMap.db_to_csv": matrix_csv,
        "AmbiguityMap.save_metadata": lambda rec, args, result: csv_bytes(rec, args[1]),
        "write_two_column_csv": two_column_csv,
        "polarimetric_ambiguities": polar_cells,
        "null_space_basis": null_width,
        "coordinate_descent": decisions,
    }.get(qualname)


def _wrap(rec: Recorder, layer: str, qualname: str, fn):
    counter = _counter(qualname)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.begin(layer, qualname)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(span)
        if counter is not None:
            counter(rec, args, result)
        return result

    return wrapper


class Patch:
    """Context manager that installs the span wrappers and restores the originals.

    The wrappers record only while ``rec.active`` is set, so the caller
    can leave work such as output checks out of the trace.
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.undo = []

    def __enter__(self):
        import importlib

        package = importlib.import_module("compwave")
        modules = [package] + [importlib.import_module(f"compwave.{m}") for m in
                               ("golay", "design", "snropt", "ambiguity", "polarimetric", "baselines", "cli")]
        replace = {}  # id(original) -> (original, wrapper); module attributes need not be hashable
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"compwave.{MODULE_OF.get(layer, layer)}")
            for qualname in names:
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(_wrap(self.rec, layer, qualname, raw.__func__))
                    else:
                        new = _wrap(self.rec, layer, qualname, raw)
                    self.undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                else:
                    fn = getattr(home, qualname)
                    replace[id(fn)] = (fn, _wrap(self.rec, layer, qualname, fn))
        # rebind every module-level name that refers to a wrapped function,
        # so calls through re-imported names are traced too
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self.undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self.rec

    def __exit__(self, *exc):
        self.rec.active = False
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()
        return False


def self_times(spans) -> dict:
    """{layer: (self seconds, entry calls)} from closed spans.

    A call counts as an entry into a layer when its parent span belongs
    to another layer, so a layer's internal calls to its own public
    functions are not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    out = {}
    for s in spans:
        own = (s[5] - s[4]) - child_time.get(s[0], 0.0)
        entry = s[1] is None or by_id[s[1]][2] != s[2]
        total, calls = out.get(s[2], (0.0, 0))
        out[s[2]] = (total + own, calls + int(entry))
    return out


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced pass, keyed by their benchmark names."""
    times = self_times(rec.spans)
    counts = rec.counts
    out = {}
    for layer in (*LAYERS, HARNESS):
        self_s, calls = times.get(layer, (0.0, 0))
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.calls"] = calls
    decisions = counts.get("snropt.decisions", 0)
    out["snropt.decisions"] = decisions
    out["snropt.accept_ratio"] = counts.get("snropt.accepts", 0) / decisions if decisions else 0.0
    for key in ("ambiguity.cells", "ambiguity.csv.cells", "ambiguity.csv.bytes",
                "polarimetric.cells", "design.null_width"):
        out[key] = counts.get(key, 0)
    amb_s = out["ambiguity.self_s"]
    out["ambiguity.cells_per_s"] = out["ambiguity.cells"] / amb_s if amb_s > 0 else 0.0
    out["design.io_s"] = sum(s[5] - s[4] for s in rec.spans if s[3] in DESIGN_IO)
    out["tracing.spans"] = len(rec.spans)
    return out
