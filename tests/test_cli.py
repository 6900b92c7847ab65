import argparse
import io
import json
import math
import re
from pathlib import Path
import warnings

import numpy as np
import pytest

import compwave.cli
from compwave import (
    EmptyNullSpaceError,
    GolayPair,
    ResilienceGrid,
    ScatteringMatrix,
    WaveformDesign,
    binomial_design,
    design_from_vector,
    design_matrix,
    evaluation_grid,
    is_golay_pair,
    load_sequence,
    null_space_basis,
    output_matrix,
    polarimetric_ambiguities,
)
from compwave.cli import main


def run(*argv) -> int:
    return main([str(a) for a in argv])


def make_design(tmp_path, n=8, interval=(0, 2), **extra):
    argv = ["design", "--out-dir", tmp_path, "--n", n,
            "--interval", interval[0], interval[1]]
    for key, value in extra.items():
        argv.extend([f"--{key.replace('_', '-')}", value])
    assert run(*argv) == 0
    return tmp_path / extra.get("out", "design.json")


def force_failed_cell(monkeypatch, error, cell):
    """Make the CLI's design builder raise ``error`` for one ``(n, method)`` cell."""
    build = compwave.cli._build_design

    def failing(args, n, interval, m=None, kind="doppler", method="first-basis", space=None):
        if (n, method) == cell:
            raise error("forced failure")
        return build(args, n, interval, m, kind, method, space)

    monkeypatch.setattr(compwave.cli, "_build_design", failing)


class TestDesignCommand:
    def test_writes_design_and_report(self, tmp_path):
        path = make_design(tmp_path, n=12)
        design = WaveformDesign.load(path)
        assert design.n_pulses == 12
        assert design.grid.m == 11
        assert design.residual <= 1e-10
        report = json.loads((tmp_path / "design_report.json").read_text())
        assert report["ok"] is True
        assert report["nullspace_residual"] <= 1e-10

    def test_hcd_writes_optimizer_report(self, tmp_path):
        make_design(tmp_path, n=8, optimizer="hcd", restarts=2, sweeps=3, out="opt.json")
        text = (tmp_path / "opt_optimizer.json").read_text()
        data = json.loads(text)
        assert data["restarts"] == 2 and data["sweeps"] == 3
        assert '"sweeps": 3,\n  "eps": 1e-06,\n  "seed": 0,' in text  # the fixed step tolerance, as always written
        assert data["snr"] >= 1.0

    def test_bs_optimizer(self, tmp_path):
        path = make_design(tmp_path, n=8, optimizer="bs", out="bs.json")
        assert WaveformDesign.load(path).residual <= 1e-10

    def test_overconstrained_is_numerical_failure(self, tmp_path):
        assert run("design", "--out-dir", tmp_path, "--n", 4,
                   "--interval", 0, 2, "--m", 4) == 2

    @pytest.mark.parametrize("optimizer", ["first-basis", "bs", "hcd"])
    def test_m_at_least_n_decided_by_the_rank_cut(self, tmp_path, optimizer):
        # every method applies the same cut to M >= N, with no warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("design", "--out-dir", tmp_path / "wide", "--n", 12, "--interval", 0, 0.05,
                       "--m", 20, "--optimizer", optimizer, "--restarts", 2) == 0
            assert WaveformDesign.load(tmp_path / "wide" / "design.json").residual <= 1e-10
            assert run("design", "--out-dir", tmp_path / "empty", "--n", 4, "--interval", 0, 1,
                       "--m", 5, "--optimizer", optimizer) == 2
        assert not (tmp_path / "empty").exists()

    def test_reversed_interval_is_usage_error(self, tmp_path):
        assert run("design", "--out-dir", tmp_path, "--n", 8,
                   "--interval", 2, 0) == 1

    @pytest.mark.parametrize("command", ["design", "compare"])
    def test_reversed_interval_names_the_flag(self, tmp_path, capsys, command):
        assert run(command, "--out-dir", tmp_path / "out", "--n", 8, "--interval", 2, 0) == 1
        assert "--interval endpoints out of order: [2.0, 0.0]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["design", "compare"])
    def test_empty_null_space_makes_no_directory(self, tmp_path, command):
        assert run(command, "--out-dir", tmp_path / "newdir", "--n", 4,
                   "--interval", 0, 2, "--m", 4) == 2
        assert not (tmp_path / "newdir").exists()

    def test_missing_required_flag(self, tmp_path):
        assert run("design", "--out-dir", tmp_path, "--interval", 0, 2) == 1

    def test_no_command(self):
        assert run() == 1


class TestEvaluateCommand:
    def test_writes_five_files(self, tmp_path):
        path = make_design(tmp_path)
        assert run("evaluate", "--out-dir", tmp_path, "--design", path,
                   "--points", 51) == 0
        for suffix in ("_map.csv", "_map_db.csv", "_map_meta.json", "_profile.csv", "_prsl.csv"):
            assert (tmp_path / f"design{suffix}").exists()
        header = (tmp_path / "design_map.csv").read_text().splitlines()[0]
        assert header.startswith("lag,") and len(header.split(",")) == 52
        db = np.loadtxt(tmp_path / "design_map_db.csv", delimiter=",", skiprows=1)
        assert db[:, 1:].max() <= 0.0
        meta = json.loads((tmp_path / "design_map_meta.json").read_text())
        assert meta["L"] == 64 and meta["N"] == 8
        assert len((tmp_path / "design_prsl.csv").read_text().splitlines()) == 52

    def test_gridless_design_needs_eval_interval(self, tmp_path):
        bd_path = tmp_path / "bd.json"
        binomial_design(8).save(bd_path)
        assert run("evaluate", "--out-dir", tmp_path, "--design", bd_path) == 1
        assert run("evaluate", "--out-dir", tmp_path, "--design", bd_path,
                   "--eval-interval", 0, 3.1, "--points", 11, "--prefix", "bdout") == 0
        assert (tmp_path / "bdout_prsl.csv").exists()

    def test_single_point_grid(self, tmp_path):
        path = make_design(tmp_path)
        assert run("evaluate", "--out-dir", tmp_path, "--design", path,
                   "--eval-interval", 0.7, 2.0, "--points", 1) == 0
        rows = (tmp_path / "design_prsl.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("0.69999999999999996,")

    def test_missing_design_file(self, tmp_path):
        assert run("evaluate", "--out-dir", tmp_path,
                   "--design", tmp_path / "nope.json") == 3

    def test_malformed_design_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("this is not json")
        assert run("evaluate", "--out-dir", tmp_path, "--design", bad) == 1

    def test_non_uniform_grid_design(self, tmp_path):
        grid = ResilienceGrid([0.0, 0.1, 0.2, 1.9, 2.0], interval=(0.0, 2.0))
        path = tmp_path / "nonuniform.json"
        design_from_vector(null_space_basis(design_matrix(grid, 8))[:, 0], grid).save(path)
        assert run("evaluate", "--out-dir", tmp_path, "--design", path, "--points", 21) == 0
        assert (tmp_path / "nonuniform_prsl.csv").exists()

    def test_tampered_design_rejected(self, tmp_path):
        path = make_design(tmp_path)
        data = json.loads(path.read_text())
        data["p"][0] = -data["p"][0]
        path.write_text(json.dumps(data))
        assert run("evaluate", "--out-dir", tmp_path, "--design", path) == 1

    def test_reversed_eval_interval_rejected_before_work(self, tmp_path, capsys):
        path = make_design(tmp_path)
        assert run("evaluate", "--out-dir", tmp_path, "--design", path,
                   "--eval-interval", 2, 0, "--points", 5) == 1
        assert "--eval-interval endpoints out of order" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_map.csv"))


@pytest.mark.parametrize("command, argv", [("evaluate", ["--points", 5]),
                                           ("compare", ["--n", 16, "--interval", 0, 2])])
def test_length_one_pair_rejected_before_any_file(tmp_path, capsys, command, argv):
    design = make_design(tmp_path)
    if command == "evaluate":
        argv = ["--design", design, *argv]
    assert run(command, "--out-dir", tmp_path / "out", "--pair", 1, *argv) == 1
    assert "a length-1 pair has no sidelobes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_config_supplies_required_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "interval": [0.0, 2.0]}))
        assert run("design", "--out-dir", tmp_path, "--config", cfg) == 0
        assert WaveformDesign.load(tmp_path / "design.json").n_pulses == 8

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 6, "interval": [0.0, 2.0]}))
        assert run("design", "--out-dir", tmp_path, "--config", cfg, "--n", 8) == 0
        assert WaveformDesign.load(tmp_path / "design.json").n_pulses == 8

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for extra in ({"bogus": 1}, {"config": "other.json"}, {"command": "repro"}):
            cfg.write_text(json.dumps({"n": 8, "interval": [0, 2], **extra}))
            assert run("design", "--out-dir", tmp_path, "--config", cfg) == 1
        cfg.write_text(json.dumps({"pair": "length64"}))
        assert run("repro", "--out-dir", tmp_path, "--config", cfg) == 1
        assert not list(tmp_path.glob("repro-*"))

    @pytest.mark.parametrize("values", [
        {"optimizer": "bogus"},
        {"interval": [0, 2, 3]},
        {"interval": 5},
        {"n": "x"},
        {"n": [8, 9]},
    ])
    def test_values_checked_like_flags(self, tmp_path, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "interval": [0, 2], **values}))
        assert run("design", "--out-dir", tmp_path, "--config", cfg) == 1
        assert not (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("values, message", [
        ({"interval": [0, 2, 3]}, "key 'interval': unrecognized arguments: 3"),
        ({"interval": 5}, "key 'interval': argument --interval: expected 2 arguments"),
        ({"n": "x"}, "key 'n': argument --n: invalid int value: 'x'"),
        ({"optimizer": "bogus"}, "key 'optimizer': argument --optimizer: invalid choice: 'bogus'"),
    ])
    def test_value_errors_name_file_and_key(self, tmp_path, capsys, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "interval": [0, 2], **values}))
        assert run("design", "--out-dir", tmp_path, "--config", cfg) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "design.json").exists()

    def test_values_parsed_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "8", "interval": ["0", 2], "kind": None, "m": None}))
        assert run("design", "--out-dir", tmp_path, "--config", cfg) == 0
        design = WaveformDesign.load(tmp_path / "design.json")
        assert design.n_pulses == 8 and design.grid.m == 7 and design.grid.kind == "doppler"

    def test_value_starting_with_a_dash(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "interval": [0, 1], "out": "-d.json"}))
        assert run("design", "--out-dir", tmp_path, "--config", cfg) == 0
        assert WaveformDesign.load(tmp_path / "-d.json").n_pulses == 8

    def test_config_samples_add_to_flag_samples(self, tmp_path, pair64):
        path = make_design(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"design": str(path), "points": 11, "sample": [[3, 0.2], [0, 0.0]]}))
        assert run("polar", "--out-dir", tmp_path, "--config", cfg, "--prefix", "a") == 0
        samples = json.loads((tmp_path / "a_u_samples.json").read_text())
        assert [(s["lag"], s["angle"]) for s in samples] == [(3, 0.2), (0, 0.0)]
        assert run("polar", "--out-dir", tmp_path, "--config", cfg, "--prefix", "b",
                   "--sample", -2, 1.8) == 0
        samples = json.loads((tmp_path / "b_u_samples.json").read_text())
        assert [(s["lag"], s["angle"]) for s in samples] == [(3, 0.2), (0, 0.0), (-2, 1.8)]

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{{{")
        assert run("design", "--out-dir", tmp_path, "--config", cfg,
                   "--n", 8, "--interval", 0, 2) == 1

    @pytest.mark.parametrize("command, argv, values, message", [
        ("design", ["--interval", 0, 2], {"n": 1}, "key 'n': argument --n: must be at least 2, got 1"),
        ("design", ["--n", 8], {"interval": [2, 0]}, "key 'interval': --interval endpoints out of order: [2.0, 0.0]"),
        ("snr-sweep", ["--n-list", 8], {"seed": -1}, "key 'seed': argument --seed: must be at least 0, got -1"),
    ], ids=["design-n", "design-interval", "snr-sweep-seed"])
    def test_option_rules_name_file_and_key(self, tmp_path, capsys, command, argv, values, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        assert run(command, "--out-dir", tmp_path / "out", "--config", cfg, *argv) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# JSON loader -> (its load, None for the CLI's --config; a file of JSON that it refuses)
LOADERS = {
    "design": (WaveformDesign.load, {"p": [1, -1], "w": [[0, 0], [0, 0]]}),
    "pair": (GolayPair.load, {"x": [1, 1], "y": [1, 1]}),
    "sequence": (load_sequence, [1, 2]),
    "config": (None, {"bogus": 1}),
}
BAD_JSON = {"not-json": b"{not json", "undecodable": b"\xff\xfe{}", "wrong-shape": b'"text"', "invalid": None}


@pytest.mark.parametrize("bad", BAD_JSON)
@pytest.mark.parametrize("loader", LOADERS)
def test_bad_json_files_named_in_the_error(tmp_path, capsys, loader, bad):
    load, invalid = LOADERS[loader]
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_JSON[bad] or json.dumps(invalid).encode())
    if load is None:
        assert run("design", "--out-dir", tmp_path / "out", "--config", path, "--n", 8, "--interval", 0, 2) == 1
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
    else:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load(path)


# Each option's value rule, as bad values: one at the rule's boundary, plus nan where it must fail too.
BAD_VALUES = {
    "--n": [[1]],
    "--n-list": [[1, 8]],
    "--m": [[0]],
    "--points": [[0]],
    "--restarts": [[0]],
    "--sweeps": [[0]],
    "--basis-index": [[-1]],  # retired, like --eps
    "--log2-length": [[-1]],
    "--seed": [[-1]],
    "--eps": [[0], ["nan"]],  # retired: the values its old rule refused, now refused as unrecognized
    "--interval": [[2, 0], ["nan", 1], [0, "inf"]],
    "--eval-interval": [[2, 0], [0, "nan"], [0, "inf"]],
}

# command: (an otherwise valid argv, every ruled option the command declares); "DESIGN" is a stored design
RULED_OPTIONS = {
    "design": (["--n", 8, "--interval", 0, 2],
               ["--n", "--m", "--interval", "--restarts", "--sweeps", "--seed"]),
    "compare": (["--n", 8, "--interval", 0, 2, "--points", 5],
                ["--n", "--m", "--interval", "--eval-interval", "--points"]),
    "evaluate": (["--design", "DESIGN", "--points", 5], ["--eval-interval", "--points"]),
    "polar": (["--design", "DESIGN", "--points", 5], ["--eval-interval", "--points"]),
    "snr-sweep": (["--n-list", 8], ["--n-list", "--interval", "--restarts", "--sweeps", "--seed"]),
    "golay-gen": (["--log2-length", 2], ["--log2-length"]),
    "repro": (["--label", "t", "--n", 8, "--points", 5, "--n-list", 8, "--restarts", 2, "--sweeps", 3],
              ["--n", "--points", "--n-list", "--restarts", "--sweeps", "--seed"]),
}

# (command, option) pairs the CLI rejects: the hcd step tolerance is fixed, first-basis always takes the
# basis's column 0 (any other column is LAPACK's arbitrary pick), only the commands that run hcd take a seed,
# and a pair file is given to --pair itself
RETIRED_OPTIONS = [("design", "eps"), ("snr-sweep", "eps"), ("repro", "eps"), ("design", "basis-index"),
                   ("compare", "seed"), ("evaluate", "seed"), ("polar", "seed"), ("golay-gen", "seed"),
                   ("evaluate", "pair-file"), ("compare", "pair-file"), ("polar", "pair-file")]


@pytest.fixture(scope="module")
def stored_design(tmp_path_factory):
    return make_design(tmp_path_factory.mktemp("stored"))


@pytest.mark.parametrize("command, bad, flag", [
    pytest.param(command, [flag, *values], flag, id=" ".join(map(str, [command, flag, *values])))
    for command, (_, flags) in RULED_OPTIONS.items()
    for flag in flags + [f"--{key}" for retired, key in RETIRED_OPTIONS
                         if retired == command and key in ("eps", "basis-index")]
    for values in BAD_VALUES[flag]
])
def test_option_rules_checked_before_any_work(tmp_path, capsys, stored_design, command, bad, flag):
    valid = [stored_design if token == "DESIGN" else token for token in RULED_OPTIONS[command][0]]
    assert run(command, "--out-dir", tmp_path / "out", *valid, *bad) == 1
    err = capsys.readouterr().err
    assert flag in err
    if flag not in RULED_OPTIONS[command][1]:
        assert f"unrecognized arguments: {' '.join(map(str, bad))}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, source", [
    pytest.param(command, key, source, id=f"{command} {'--' if source == 'flag' else 'key '}{key}")
    for command, key in RETIRED_OPTIONS
    for source in ("flag", "config")
])
def test_retired_options_rejected_before_any_file(tmp_path, capsys, stored_design, command, key, source):
    valid = [stored_design if token == "DESIGN" else token for token in RULED_OPTIONS[command][0]]
    if source == "flag":
        extra, message = [f"--{key}", 1], f"unrecognized arguments: --{key} 1"
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 1}))
        extra, message = ["--config", cfg], f"unknown config key {key!r} for command {command!r}"
    assert run(command, "--out-dir", tmp_path / "out", *valid, *extra) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# extra flags so that each command writes every kind of file it can
ANNOUNCED_EXTRA = {"design": ["--optimizer", "hcd", "--restarts", 2, "--sweeps", 3], "polar": ["--sample", 0, 0.0]}


@pytest.mark.parametrize("command", RULED_OPTIONS)
def test_every_file_announced_once(tmp_path, capsys, stored_design, command):
    valid = [stored_design if token == "DESIGN" else token for token in RULED_OPTIONS[command][0]]
    out = tmp_path / "out"
    assert run(command, "--out-dir", out, *valid, *ANNOUNCED_EXTRA.get(command, [])) == 0
    wrote = [line.removeprefix("wrote ") for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    files = [str(path) for path in out.rglob("*") if path.is_file()]
    assert files and sorted(wrote) == sorted(files)
    if command == "repro":
        run_dir = out / "repro-t"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest["outputs"] + ["manifest.json"]) == sorted(p.name for p in run_dir.iterdir())


@pytest.mark.parametrize("command", ["evaluate", "polar"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weight_file_rejected_before_work(tmp_path, capsys, command, bad):
    data = binomial_design(8).to_dict()
    data["w"][3][0] = bad  # json writes NaN / Infinity, and reads them back
    path = tmp_path / "bd.json"
    path.write_text(json.dumps(data))
    assert run(command, "--out-dir", tmp_path / "out", "--design", path, "--eval-interval", 0, 1) == 1
    assert "weights must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["design", "--n", 8, "--interval", 0, 1e308], "phase overflows"),
    (["design", "--n", 8, "--interval", -1e308, 1e308], "width must be finite"),
    (["snr-sweep", "--interval", -1e308, 1e308, "--n-list", 8, "--optimizers", "bs"],
     "--interval endpoints and width must be finite: [-1e+308, 1e+308]"),
    (["compare", "--n", 8, "--interval", 0, 2, "--eval-interval", -1e308, 1e308, "--points", 5],
     "--eval-interval endpoints and width must be finite"),
    (["evaluate", "--design", "DESIGN", "--eval-interval", -1e308, 1e308, "--points", 5],
     "--eval-interval endpoints and width must be finite"),
    (["polar", "--design", "DESIGN", "--eval-interval", -1e308, 1e308, "--points", 5],
     "--eval-interval endpoints and width must be finite"),
    (["compare", "--n", 8, "--interval", 0, 1e308, "--points", 5], "phase overflows"),
    (["compare", "--n", 8, "--interval", 0, 2, "--eval-interval", 0, 1e308, "--points", 5], "phase overflows"),
    (["evaluate", "--design", "DESIGN", "--eval-interval", 0, 1e308, "--points", 5], "phase overflows"),
    (["polar", "--design", "DESIGN", "--eval-interval", 0, 1e308, "--points", 5], "phase overflows"),
], ids=lambda value: " ".join(map(str, value)) if isinstance(value, list) else None)
def test_overflowing_interval_rejected_before_any_file(tmp_path, capsys, stored_design, argv, message):
    # finite endpoints whose phases n theta (or whose width) overflow: named, with no numpy warning;
    # an infinite width fails the parser's interval rule, which names the flag
    argv = [stored_design if token == "DESIGN" else token for token in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(*argv, "--out-dir", tmp_path / "out") == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def parser_state(parser) -> dict:
    """Every subcommand's options as (dest, repr of the default, the default's id)."""
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: [(a.dest, repr(a.default), id(a.default)) for a in sub._actions] for name, sub in commands.items()}


def test_parser_built_once_and_left_unchanged(tmp_path):
    parser = compwave.cli._build_parser()
    before = parser_state(parser)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_list": [8], "optimizers": ["bd"], "out": "cfg.csv"}))
    assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 12, "--optimizers", "bd", "bs") == 0
    assert run("repro", "--out-dir", tmp_path, "--n", 8, "--points", 5, "--n-list", 8, "--restarts", 1,
               "--sweeps", 1, "--label", "x") == 0
    assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 1) == 1
    assert run("snr-sweep", "--out-dir", tmp_path, "--config", config) == 0
    assert compwave.cli._build_parser() is parser and parser_state(parser) == before
    # the next command runs on the stock --n-list and --optimizers
    assert run("snr-sweep", "--out-dir", tmp_path, "--restarts", 1, "--sweeps", 1, "--out", "stock.csv") == 0
    cells = [row.split(",")[:2] for row in (tmp_path / "stock.csv").read_text().splitlines()[1:]]
    assert cells == [[str(n), method] for n in (8, 16, 24, 32, 40, 48) for method in compwave.cli.SWEEP_METHODS]
    assert parser_state(parser) == before


@pytest.mark.parametrize("error, code", [
    (EmptyNullSpaceError("empty"), 2),
    (FileNotFoundError("gone"), 3),
    (io.UnsupportedOperation("not writable"), 3),  # an OSError and a ValueError: an I/O failure
    (ValueError("bad"), 1),
], ids=lambda value: type(value).__name__ if isinstance(value, Exception) else None)
def test_exit_code_of_each_failure(tmp_path, monkeypatch, capsys, error, code):
    def fail(log2_length):
        raise error
    monkeypatch.setattr(compwave.cli, "generate_golay_pair", fail)
    assert run("golay-gen", "--out-dir", tmp_path / "out", "--log2-length", 2) == code
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


# the length-10 Golay pair: only a pair file can give a length that is not a power of two
LENGTH10 = {"x": [1, 1, -1, 1, -1, 1, -1, -1, 1, 1], "y": [1, 1, -1, 1, 1, 1, 1, 1, -1, -1]}
PAIR_COMMANDS = ("evaluate", "compare", "polar")


def written_bytes(out) -> dict:
    return {path.name: path.read_bytes() for path in out.iterdir()}


def map_lags(path) -> list:
    return [int(line.split(",", 1)[0]) for line in path.read_text().splitlines()[1:]]


class TestPairFiles:
    """--pair takes 'length64', a power-of-two length, or the path of a pair JSON file."""

    @staticmethod
    def argv(command, stored_design):
        valid = [stored_design if token == "DESIGN" else token for token in RULED_OPTIONS[command][0]]
        return [command, *valid, *ANNOUNCED_EXTRA.get(command, [])]

    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    def test_generated_pair_file_writes_the_bytes_of_its_length(self, tmp_path, monkeypatch, stored_design, command):
        monkeypatch.chdir(tmp_path)
        assert run("golay-gen", "--log2-length", 6) == 0
        argv = self.argv(command, stored_design)
        assert run(*argv, "--out-dir", "by-length", "--pair", 64) == 0
        assert run(*argv, "--out-dir", "by-file", "--pair", "golay_pair.json") == 0
        by_length = written_bytes(tmp_path / "by-length")
        assert by_length and written_bytes(tmp_path / "by-file") == by_length

    def test_non_power_of_two_pair_only_from_a_file(self, tmp_path, monkeypatch, capsys, stored_design):
        assert is_golay_pair(LENGTH10["x"], LENGTH10["y"])
        monkeypatch.chdir(tmp_path)
        Path("16").write_text(json.dumps(LENGTH10))  # a file named like an integer is reached through ./
        argv = self.argv("evaluate", stored_design) + ["--prefix", "m"]
        assert run(*argv, "--out-dir", "file", "--pair", "./16") == 0
        assert map_lags(tmp_path / "file" / "m_map.csv") == list(range(-9, 10))
        assert run(*argv, "--out-dir", "generated", "--pair", 16) == 0
        assert map_lags(tmp_path / "generated" / "m_map.csv") == list(range(-15, 16))
        assert run(*argv, "--out-dir", "ten", "--pair", 10) == 1
        assert "generated pair lengths must be powers of two, got 10" in capsys.readouterr().err
        assert not (tmp_path / "ten").exists()

    @pytest.mark.parametrize("content, code", [
        (None, 3),
        (json.dumps({"x": [1, 1], "y": [1, 1]}), 1),
        (json.dumps({"x": [1, 1]}), 1),
    ], ids=["missing", "not-complementary", "malformed"])
    @pytest.mark.parametrize("command", PAIR_COMMANDS)
    def test_bad_pair_file_makes_no_out_dir(self, tmp_path, capsys, stored_design, command, content, code):
        path = tmp_path / "pair.json"
        if content is not None:
            path.write_text(content)
        assert run(*self.argv(command, stored_design), "--out-dir", tmp_path / "out", "--pair", path) == code
        assert str(path) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pair_file_from_config(self, tmp_path, stored_design):
        assert run("golay-gen", "--out-dir", tmp_path, "--log2-length", 3, "--out", "p8.json") == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pair": str(tmp_path / "p8.json")}))
        argv = self.argv("polar", stored_design)
        assert run(*argv, "--out-dir", tmp_path / "cfg", "--config", cfg) == 0
        assert run(*argv, "--out-dir", tmp_path / "flag", "--pair", 8) == 0
        assert written_bytes(tmp_path / "cfg") == written_bytes(tmp_path / "flag")


class TestSnrSweepCommand:
    def test_sweep_table(self, tmp_path):
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 12,
                   "--restarts", 2, "--sweeps", 3, "--out", "sweep.csv") == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert rows[0] == "n,method,snr_ratio"
        assert len(rows) == 1 + 2 * 4
        table = {}
        for row in rows[1:]:
            n, method, value = row.split(",")
            assert value != ""
            table[(int(n), method)] = float(value)
        for n in (8, 12):
            assert table[(n, "hcd")] >= table[(n, "bs")] - 1e-9
            assert table[(n, "bs")] >= table[(n, "first-basis")] - 1e-9
            expected_bd = 4.0 ** (n - 1) / math.comb(2 * n - 2, n - 1)
            assert table[(n, "bd")] == pytest.approx(expected_bd, rel=1e-12)

    def test_method_subset(self, tmp_path):
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8,
                   "--optimizers", "bd", "--out", "bd.csv") == 0
        rows = (tmp_path / "bd.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("8,bd,")

    def test_bad_n_rejected(self, tmp_path):
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 1) == 1

    def test_reversed_interval_rejected_before_work(self, tmp_path, capsys):
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 16, "--interval", 2, 0) == 1
        assert not (tmp_path / "snr_sweep.csv").exists()
        assert "--interval endpoints out of order" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [(EmptyNullSpaceError, 2), (ValueError, 1)])
    def test_failed_cell_writes_table_and_exits_nonzero(self, tmp_path, monkeypatch, capsys, error, code):
        force_failed_cell(monkeypatch, error, (12, "bs"))
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 12,
                   "--optimizers", "bs", "bd", "--out", "sweep.csv") == code
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 5 and "12,bs," in rows
        assert all(row.split(",")[2] for row in rows[1:] if row != "12,bs,")
        assert "1 sweep cell(s) failed: N=12 bs" in capsys.readouterr().err

    def test_each_null_space_computed_once(self, tmp_path, monkeypatch):
        calls = []
        null_space = compwave.cli._null_space
        monkeypatch.setattr(compwave.cli, "_null_space", lambda *a: calls.append(a[0]) or null_space(*a))
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 12, "--restarts", 2, "--sweeps", 3) == 0
        assert calls == [8, 12]
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, "--optimizers", "bd") == 0
        assert calls == [8, 12]

    def test_failed_null_space_fails_each_of_its_cells(self, tmp_path, monkeypatch, capsys):
        null_space = compwave.cli._null_space

        def failing(n, *rest):
            if n == 12:
                raise EmptyNullSpaceError("forced failure")
            return null_space(n, *rest)

        monkeypatch.setattr(compwave.cli, "_null_space", failing)
        assert run("snr-sweep", "--out-dir", tmp_path, "--n-list", 8, 12,
                   "--restarts", 2, "--sweeps", 3, "--out", "sweep.csv") == 2
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert [row for row in rows if row.endswith(",")] == ["12,first-basis,", "12,bs,", "12,hcd,"]
        err = capsys.readouterr().err
        for method in ("first-basis", "bs", "hcd"):
            assert f"warning: N=12 {method} failed: forced failure" in err
        assert "3 sweep cell(s) failed: N=12 first-basis, N=12 bs, N=12 hcd" in err


class TestPolarCommand:
    def test_channel_files_and_samples(self, tmp_path, pair64):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path, "--points", 9,
                   "--sample", 0, 0.0, "--sample", 3, 1.0) == 0
        for name in ("vv", "hh", "vh", "hv"):
            for suffix in (".csv", "_db.csv", "_meta.json"):
                assert (tmp_path / f"design_polar_{name}{suffix}").exists()
        samples = json.loads((tmp_path / "design_polar_u_samples.json").read_text())
        assert [s["lag"] for s in samples] == [0, 3]
        design = WaveformDesign.load(path)
        amb = polarimetric_ambiguities(pair64, design.p, design.w, evaluation_grid(0, 2, 9))
        expected = output_matrix(ScatteringMatrix(1, 0, 0, 1), amb, 3, 1.0)
        got = np.array([[complex(re, im) for re, im in row] for row in samples[1]["U"]])
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_length_one_pair(self, tmp_path):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path, "--points", 5, "--pair", 1) == 0
        for name in ("vv", "hh", "vh", "hv"):
            lines = (tmp_path / f"design_polar_{name}.csv").read_text().splitlines()
            assert len(lines) == 2 and lines[1].startswith("0,")  # the zero lag alone

    def test_negative_scattering_literals(self, tmp_path, pair64):
        path = make_design(tmp_path)
        coeffs = ("-0.5+0.1j", "-1j", "(-0.25-0.5j)", "-2")
        assert run("polar", "--out-dir", tmp_path, "--design", path, "--points", 9,
                   "--scattering", *coeffs, "--sample", -3, 1.0) == 0
        samples = json.loads((tmp_path / "design_polar_u_samples.json").read_text())
        design = WaveformDesign.load(path)
        amb = polarimetric_ambiguities(pair64, design.p, design.w, evaluation_grid(0, 2, 9))
        scattering = ScatteringMatrix(-0.5 + 0.1j, -1j, -0.25 - 0.5j, -2.0)
        expected = output_matrix(scattering, amb, -3, 1.0)
        got = np.array([[complex(re, im) for re, im in row] for row in samples[0]["U"]])
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_delay_design_keeps_its_kind(self, tmp_path, pair64):
        path = make_design(tmp_path, kind="delay", out="delay.json")
        assert run("polar", "--out-dir", tmp_path, "--design", path, "--points", 9) == 0
        design = WaveformDesign.load(path)
        amb = polarimetric_ambiguities(pair64, design.p, design.w, evaluation_grid(0, 2, 9), kind="delay")
        for name, channel in amb.channels.items():
            meta = json.loads((tmp_path / f"delay_polar_{name}_meta.json").read_text())
            assert meta["kind"] == "delay"
            assert meta == channel.metadata()

    def test_tampered_design_rejected(self, tmp_path, capsys):
        path = make_design(tmp_path)
        data = json.loads(path.read_text())
        data["p"][0] = -data["p"][0]
        path.write_text(json.dumps(data))
        assert run("polar", "--out-dir", tmp_path, "--design", path) == 1
        assert "fails its usability conditions" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_vv.csv"))

    def test_bad_scattering_value(self, tmp_path):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path,
                   "--scattering", 1, 0, 0, "bogus") == 1

    def test_non_finite_scattering_makes_no_out_dir(self, tmp_path, capsys):
        # NaN would reach *_u_samples.json, which is then not standard JSON
        path = make_design(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("polar", "--out-dir", tmp_path / "out", "--design", path,
                       "--scattering", "nan", 0, 0, "inf", "--sample", 0, 0.0) == 1
        assert "scattering coefficient h_vv must be finite, got (nan+0j)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_integer_sample_lag(self, tmp_path, capsys):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path,
                   "--sample", 0.5, 0.0) == 1
        assert "lag 0.5 is not an integer" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_vv.csv"))

    def test_zero_cross_channel_makes_no_out_dir(self, tmp_path, capsys):
        # the binomial schedule's f_z vanishes at angle 0, so both cross channels are identically zero there
        path = tmp_path / "bd.json"
        binomial_design(16).save(path)
        assert run("polar", "--out-dir", tmp_path / "out", "--design", path,
                   "--eval-interval", 0, 0, "--points", 3) == 1
        assert ("error: vh channel: map peak must be finite and positive for a dB normalization, got 0.0"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_reversed_eval_interval_rejected_before_work(self, tmp_path, capsys):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path,
                   "--eval-interval", 2, 0, "--points", 9) == 1
        assert "--eval-interval endpoints out of order" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_vv.csv"))

    def test_off_grid_sample_angle(self, tmp_path):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path,
                   "--points", 9, "--sample", 0, 0.123) == 1
        assert run("polar", "--out-dir", tmp_path, "--design", path,
                   "--points", 9, "--sample", 0, "nan") == 1
        assert not list(tmp_path.glob("*_vv.csv"))

    def test_sample_lag_out_of_range(self, tmp_path):
        path = make_design(tmp_path)
        assert run("polar", "--out-dir", tmp_path, "--design", path,
                   "--points", 9, "--sample", 64, 0.0) == 1
        assert not list(tmp_path.glob("*_vv.csv"))

    def test_rejected_sample_makes_no_out_dir(self, tmp_path):
        path = make_design(tmp_path)
        for sample in ((999, 0.0), (0, 0.123)):
            assert run("polar", "--out-dir", tmp_path / "newdir", "--design", path,
                       "--points", 9, "--sample", *sample) == 1
            assert not (tmp_path / "newdir").exists()


class TestGolayGenCommand:
    def test_generates_valid_pair(self, tmp_path):
        assert run("golay-gen", "--out-dir", tmp_path, "--log2-length", 4,
                   "--out", "pair.json") == 0
        pair = GolayPair.load(tmp_path / "pair.json")
        assert pair.length == 16
        assert is_golay_pair(pair.x, pair.y)

    def test_negative_rejected(self, tmp_path):
        assert run("golay-gen", "--out-dir", tmp_path, "--log2-length", -1) == 1


class TestOutputRouting:
    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("COMPWAVE_OUT_DIR", str(env_dir))
        assert run("golay-gen", "--log2-length", 2) == 0
        assert (env_dir / "golay_pair.json").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMPWAVE_OUT_DIR", str(tmp_path / "from_env"))
        flag_dir = tmp_path / "from_flag"
        assert run("golay-gen", "--out-dir", flag_dir, "--log2-length", 2) == 0
        assert (flag_dir / "golay_pair.json").exists()
        assert not (tmp_path / "from_env").exists()

    def test_out_dir_collision_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        assert run("golay-gen", "--out-dir", blocker, "--log2-length", 2) == 3

    def test_rerun_replaces_files_instead_of_truncating_them(self, tmp_path):
        out, links = tmp_path / "out", tmp_path / "links"
        links.mkdir()
        path = make_design(out, n=8)
        argv = ["evaluate", "--out-dir", out, "--design", path, "--points", 21, "--prefix", "ev"]
        assert run(*argv) == 0
        written = sorted(out.glob("ev_*"))
        assert len(written) == 5
        for f in written:
            (links / f.name).hardlink_to(f)
        assert run(*argv) == 0
        for f in written:
            assert not f.samefile(links / f.name), f.name
            assert f.read_bytes() == (links / f.name).read_bytes()

    def test_byte_identical_reruns(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            path = make_design(d, n=8, optimizer="hcd", restarts=2, sweeps=3)
            assert run("evaluate", "--out-dir", d, "--design", path, "--points", 21) == 0
        names = [sorted(f.name for f in d.iterdir()) for d in dirs]
        assert names[0] == names[1]
        for name in names[0]:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestReproCommand:
    def test_light_pipeline(self, tmp_path):
        assert run("repro", "--out-dir", tmp_path, "--label", "t", "--n", 8,
                   "--points", 21, "--restarts", 2, "--sweeps", 3,
                   "--n-list", 8, 12) == 0
        out = tmp_path / "repro-t"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n"] == 8 and manifest["points"] == 21
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert "interval_design.json" in manifest["outputs"]
        assert "overall_prsl_comparison.csv" in manifest["outputs"]
        sweep = (out / "snr_vs_pulses.csv").read_text().splitlines()
        assert len(sweep) == 1 + 2 * 4
        for tag in ("interval", "overall", "bd"):
            assert (out / f"polar_{tag}_vh_db.csv").exists()
        header = (out / "overall_prsl_comparison.csv").read_text().splitlines()[0]
        assert header == "angle,ns,bd,ptm"

    @pytest.mark.parametrize("error, code", [(EmptyNullSpaceError, 2), (ValueError, 1)])
    def test_failed_sweep_cell_blank_and_exits_nonzero(self, tmp_path, monkeypatch, capsys, error, code):
        force_failed_cell(monkeypatch, error, (12, "bs"))
        assert run("repro", "--out-dir", tmp_path, "--label", "t", "--n", 8,
                   "--points", 21, "--restarts", 2, "--sweeps", 3,
                   "--n-list", 8, 12) == code
        out = tmp_path / "repro-t"
        rows = (out / "snr_vs_pulses.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 4 and "12,bs," in rows
        assert all(row.split(",")[2] for row in rows[1:] if row != "12,bs,")
        assert "1 sweep cell(s) failed: N=12 bs" in capsys.readouterr().err
        # the run still writes every later artifact and its manifest
        manifest = json.loads((out / "manifest.json").read_text())
        assert "snr_vs_pulses.csv" in manifest["outputs"]
        for name in manifest["outputs"]:
            assert (out / name).exists()
        assert (out / "polar_bd_vh_db.csv").exists()
