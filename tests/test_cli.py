"""CLI behavior: exit codes, atomicity, determinism, env override."""

import copy
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcchain

from rcchain.cli import (
    EXIT_CONFIG,
    EXIT_INTEGRITY,
    EXIT_IO,
    EXIT_OK,
    EXIT_UNSTABLE,
    _parse_grid,
    build_parser,
    main,
)
from rcchain.pipeline_des import MAX_N_TX
from rcchain.scenario import MAX_EXPECTED_MISSIONS, ScenarioConfigError, parse_scenario_config

DOCS = Path(__file__).resolve().parent.parent / "docs"
EXAMPLE = json.loads((DOCS / "scenario.example.json").read_text())
SCENARIO_SCHEMA = json.loads((DOCS / "scenario.schema.json").read_text())
README_GRID = {"lambda0": {"start": 10, "stop": 110, "step": 10},
               "batch_sizes": [10, 50, 100],
               "mu0": 150, "mu2": 150, "q01": 0.9, "q23": 0.95}


@pytest.fixture
def scenario_path(tmp_path):
    doc = {
        "duration_min": 5.0,
        "seed": 42,
        "organizations": [{"name": "org1", "endorsing_peers": 2}],
        "rsus": [{"id": "rsu-1", "org": "org1", "area": "A"}],
        "vehicles": [
            {"id": "v1", "org": "org1", "area": "A", "roles": ["requester"],
             "profile": {"kind": "honest"}},
            {"id": "v2", "org": "org1", "area": "A", "roles": ["server"],
             "profile": {"kind": "honest"}},
        ],
        "arrivals": {"kind": "poisson", "rate_per_min": 1.0},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def grid_path(tmp_path):
    doc = {
        "lambda0": {"start": 10, "stop": 110, "step": 10},
        "batch_sizes": [10, 50, 100],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_analyze_paper_grid(grid_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["analyze", "--config", grid_path, "--out", out]) == EXIT_OK
    lines = (tmp_path / "out" / "queueing_report.csv").read_text().splitlines()
    assert len(lines) == 34  # header + 33 rows
    assert lines[0].startswith("lambda0,M,mode,R0,R1,R2,stable,")
    summary = json.loads((tmp_path / "out" / "stability_summary.json").read_text())
    assert summary["rows"] == 33 and summary["unstable_rows"] == 0


def test_analyze_single_point_json_format(tmp_path):
    cfg = tmp_path / "one.json"
    cfg.write_text(json.dumps({"lambda0": [100.0], "batch_sizes": [10]}))
    out = str(tmp_path / "o")
    assert main(["analyze", "--config", str(cfg), "--out", out, "--format", "json"]) == EXIT_OK
    rows = json.loads((tmp_path / "o" / "queueing_report.json").read_text())
    assert len(rows) == 1 and rows[0]["stable"] is True


def test_analyze_malformed_config_no_partial_files(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"lambda0": [10], "batch_sizes": [10], "bogus": 1}))
    out = tmp_path / "never"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_analyze_unparseable_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "x")]) == EXIT_CONFIG


def run_capped(*args):
    """rcchain's CLI in a child process under a 1 GiB address-space cap and
    a 10 s timeout."""
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(rcchain.__file__)))
    return subprocess.run([sys.executable, "-m", "rcchain.cli", *args], env=env,
                          preexec_fn=cap_memory, capture_output=True, text=True, timeout=10)


@pytest.mark.parametrize("lambda0", [
    {"start": 10, "stop": 20, "step": 0},
    {"start": 10, "stop": 20, "step": -5},
    {"start": 10, "stop": float("inf"), "step": 10},
    {"start": 0, "stop": 1e12, "step": 0.001},
], ids=["step-zero", "step-negative", "stop-infinity", "huge-range"])
def test_analyze_rejects_endless_grid(tmp_path, lambda0):
    """A grid that never reaches its stop, or has more points than
    MAX_GRID_POINTS, is a config error. The command runs in a child
    process under a memory cap and a timeout, so an endless or huge grid
    loop fails the test instead of hanging it."""
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"lambda0": lambda0, "batch_sizes": [10]}))
    out = tmp_path / "never"
    proc = run_capped("analyze", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "lambda0" in proc.stderr
    assert not out.exists()


def test_simulate_rejects_unbounded_poisson_arrivals(tmp_path):
    """The example config at 10^7 missions/min for 60 min expects 6 x 10^8
    arrivals, far above MAX_EXPECTED_MISSIONS; the engine queues every
    arrival up front, so it must exit 2 before the run. The command runs
    in a child process under a memory cap and a timeout, so a build that
    starts queueing fails the test instead of swapping."""
    doc = copy.deepcopy(EXAMPLE)
    doc["arrivals"]["rate_per_min"] = 1e7
    doc["duration_min"] = 60.0
    assert doc["arrivals"]["kind"] == "poisson" and 1e7 * 60 > MAX_EXPECTED_MISSIONS
    cfg = tmp_path / "flood.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "never"
    proc = run_capped("simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "rate_per_min" in proc.stderr
    assert not out.exists()


def test_simulate_missing_key_is_config_error(scenario_path, tmp_path, capsys):
    with open(scenario_path) as fh:
        doc = json.load(fh)
    del doc["vehicles"][0]["org"]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "missing key 'org'" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def replaced(doc, path, value):
    """A deep copy of doc with the value at path (keys and indices from
    the root; the empty path is the root) replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


SHAPE_ERRORS = {
    "lambda0-start-list": (
        "analyze", replaced(README_GRID, ["lambda0"], {"start": [1], "stop": 2})),
    "lambda0-nested-list": ("analyze", replaced(README_GRID, ["lambda0"], [[1]])),
    "lambda0-number": ("analyze", replaced(README_GRID, ["lambda0"], 5)),
    "batch_sizes-nested-list": ("analyze", replaced(README_GRID, ["batch_sizes"], [[1]])),
    "q01-list": ("analyze", replaced(README_GRID, ["q01"], [1])),
    "grid-number": ("analyze", 5),
    "organization-number": ("simulate", replaced(EXAMPLE, ["organizations"], [5])),
    "organizations-number": ("simulate", replaced(EXAMPLE, ["organizations"], 5)),
    "tpfs-list": ("simulate", replaced(EXAMPLE, ["tpfs"], [])),
    "crashed_orderers-number": (
        "simulate", replaced(EXAMPLE, ["ordering"], {"crashed_orderers": 5})),
    "roles-number": ("simulate", replaced(EXAMPLE, ["vehicles", 0, "roles"], 5)),
    "org-name-list": ("simulate", replaced(EXAMPLE, ["organizations", 0, "name"], ["x"])),
}


@pytest.mark.parametrize("case", list(SHAPE_ERRORS))
def test_malformed_document_is_config_error(case, tmp_path, capsys):
    """A list, object or number where the parser reads another JSON type
    used to end in a TypeError or AttributeError traceback."""
    command, doc = SHAPE_ERRORS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert "config error: malformed config" in capsys.readouterr().err
    assert not out.exists()


def value_paths(doc, path=()):
    """The path of doc itself and of every value nested in it."""
    yield list(path)
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from value_paths(value, path + (key,))


def json_values(integers):
    scalars = (st.none() | st.booleans() | integers | st.text(max_size=6)
               | st.floats(-1e3, 1e3) | st.sampled_from([math.nan, math.inf, -math.inf]))
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                    max_size=3),
        max_leaves=6,
    )


PARSERS = {
    "scenario": (parse_scenario_config, EXAMPLE, json_values(st.integers()), SCENARIO_SCHEMA),
    "grid": (lambda doc: _parse_grid(doc, None), README_GRID, json_values(st.integers()), None),
}


@pytest.mark.parametrize("parser", list(PARSERS))
@given(data=st.data())
@settings(deadline=None, max_examples=300)
def test_property_one_replaced_value_parses_or_is_config_error(parser, data):
    """Whatever JSON value replaces one value of the example scenario or
    of the README analyze grid, the parser returns or raises
    ScenarioConfigError, never another exception. A scenario the parser
    accepts also validates against docs/scenario.schema.json (the reverse
    need not hold: the parser also checks cross-references)."""
    parse, base, values, schema = PARSERS[parser]
    path = data.draw(st.sampled_from(list(value_paths(base))), label="path")
    doc = replaced(base, path, data.draw(values, label="value"))
    try:
        parse(doc)
    except ScenarioConfigError:
        return
    if schema is not None:
        jsonschema.validate(doc, schema)


def test_simulate_and_verify_roundtrip(scenario_path, tmp_path):
    out = str(tmp_path / "run")
    assert main(["simulate", "--config", scenario_path, "--out", out]) == EXIT_OK
    ledger = os.path.join(out, "ledger.jsonl")
    assert main(["ledger-verify", ledger]) == EXIT_OK


def test_simulate_seed_override_is_deterministic(scenario_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["simulate", "--config", scenario_path, "--out", out1, "--seed", "7"])
    main(["simulate", "--config", scenario_path, "--out", out2, "--seed", "7"])
    for name in ("ledger.jsonl", "reputation.csv", "missions.csv", "perf.csv"):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b, name


def test_ledger_verify_detects_flip(scenario_path, tmp_path):
    out = str(tmp_path / "run")
    main(["simulate", "--config", scenario_path, "--out", out, "--seed", "3"])
    path = Path(out, "ledger.jsonl")
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    rec["txs"][0]["tx_id"] = ("f" if rec["txs"][0]["tx_id"][0] != "f" else "0") + rec["txs"][0]["tx_id"][1:]
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_INTEGRITY


def test_ledger_verify_unreadable_and_truncated(tmp_path):
    assert main(["ledger-verify", str(tmp_path / "missing.jsonl")]) == EXIT_IO
    trunc = tmp_path / "trunc.jsonl"
    trunc.write_text('{"number": 0, "prev_hash": "00"')
    assert main(["ledger-verify", str(trunc)]) == EXIT_IO


@pytest.mark.parametrize("record", [
    {"number": 0, "prev_hash": 5, "body_hash": "00", "txs": []},
    [1, 2],
    {"number": 0, "prev_hash": "00", "body_hash": "00", "txs": [5]},
    {"number": 0, "prev_hash": "00", "body_hash": "00", "txs": [{"tx_id": 5}]},
], ids=["prev_hash-number", "record-list", "tx-number", "tx_id-number"])
def test_ledger_verify_wrong_types_are_unreadable(record, tmp_path, capsys):
    """Well-formed JSON of the wrong shape used to end in a traceback."""
    path = tmp_path / "ledger.jsonl"
    path.write_text(json.dumps(record) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_IO
    assert "cannot parse ledger export" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("batch_sizes", [10.5]),
    ("batch_sizes", [True]),
    ("q01", True),
    ("lambda0", ["10"]),
], ids=["batch_size-fraction", "batch_size-bool", "q01-bool", "lambda0-string"])
def test_analyze_rejects_coerced_numbers(key, value, tmp_path):
    """A fraction, boolean or string where the grid reads a number used
    to be coerced and analyzed."""
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(replaced(README_GRID, [key], value)))
    out = tmp_path / "never"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_ledger_export_writes_only_ledger(scenario_path, tmp_path):
    out = str(tmp_path / "led")
    assert main(["ledger-export", "--config", scenario_path, "--out", out]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["ledger.jsonl", "world_state.json"]


def test_preset_unknown_name_lists_available(tmp_path, capsys):
    assert main(["preset", "nope", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "reputation-timeline" in err and "queueing-validation" in err


def test_preset_runs_and_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "p1"), str(tmp_path / "p2")
    assert main(["preset", "neighbor-sweep", "--out", out1, "--seed", "7"]) == EXIT_OK
    assert main(["preset", "neighbor-sweep", "--out", out2, "--seed", "7"]) == EXIT_OK
    a = Path(out1, "neighbor_sweep.csv").read_bytes()
    b = Path(out2, "neighbor_sweep.csv").read_bytes()
    assert a == b


def test_compare_writes_deviation_table(tmp_path):
    out = str(tmp_path / "cmp")
    rc = main(["compare", "--out", out, "--lambda0", "40", "--n-tx", "50000",
               "--seed", "1"])
    assert rc == EXIT_OK
    lines = (tmp_path / "cmp" / "deviation.csv").read_text().splitlines()
    assert lines[0] == "metric,closed_form,simulated,abs_deviation,rel_deviation"
    assert len(lines) == 8


def test_compare_default_point_tracks_closed_forms(tmp_path):
    """compare simulates the oracle (stage) feed, whose stages are the
    M/M/1 queues the closed forms describe, so every metric is close."""
    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--n-tx", "200000"]) == EXIT_OK
    lines = (out / "deviation.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 7
    for metric, *_, rel in rows:
        assert float(rel) <= 0.05, metric


@pytest.mark.parametrize("args,code", [
    (["--lambda0", "200", "--n-tx", "1000"], EXIT_UNSTABLE),
    (["--lambda0", "0", "--n-tx", "1000"], EXIT_CONFIG),
    (["--lambda0", "40", "--n-tx", "0"], EXIT_CONFIG),
    (["--lambda0", "nan", "--n-tx", "1000"], EXIT_CONFIG),
    (["--lambda0", "inf", "--n-tx", "1000"], EXIT_CONFIG),
], ids=["saturated", "no-arrivals", "no-tx", "nan-rate", "infinite-rate"])
def test_compare_unstable_point_refused(tmp_path, args, code):
    out = tmp_path / "u"
    assert main(["compare", "--out", str(out), *args]) == code
    assert not out.exists()


def test_compare_refuses_n_tx_above_bound_before_allocating(tmp_path, monkeypatch, capsys):
    """The simulator allocates its arrays up front, so a huge --n-tx used
    to end in a numpy memory-error traceback."""
    def no_draws(seed):
        raise AssertionError("simulate_pipeline drew arrivals")
    monkeypatch.setattr(rcchain.pipeline_des.np.random, "default_rng", no_draws)
    out = tmp_path / "big"
    args = ["compare", "--out", str(out), "--n-tx", str(MAX_N_TX + 1)]
    assert main(args) == EXIT_CONFIG
    assert "n_tx" in capsys.readouterr().err
    assert not out.exists()


def test_env_var_overrides_out(scenario_path, tmp_path, monkeypatch):
    env_out = str(tmp_path / "env_out")
    monkeypatch.setenv("RCCHAIN_OUT", env_out)
    assert main(["simulate", "--config", scenario_path, "--out",
                 str(tmp_path / "flag_out")]) == EXIT_OK
    assert os.path.isdir(env_out)
    assert not os.path.isdir(str(tmp_path / "flag_out"))


def test_simulate_mode_override(scenario_path, tmp_path):
    out = str(tmp_path / "tw")
    assert main(["simulate", "--config", scenario_path, "--out", out,
                 "--mode", "TWSL_like"]) == EXIT_OK
    summary = json.loads((tmp_path / "tw" / "summary.json").read_text())
    assert summary["mode"] == "TWSL_like"


@pytest.mark.parametrize("argv", [
    ["analyze", "--config", "grid.json", "--seed", "1"],
    ["analyze", "--config", "grid.json", "--mode", "TPFS"],
    ["simulate", "--config", "s.json", "--format", "json"],
    ["simulate", "--config", "s.json", "--orderer-mode", "literal_eq19"],
    ["ledger-export", "--config", "s.json", "--format", "json"],
    ["ledger-export", "--config", "s.json", "--orderer-mode", "literal_eq19"],
    ["preset", "neighbor-sweep", "--format", "json"],
    ["preset", "neighbor-sweep", "--mode", "TPFS"],
    ["preset", "neighbor-sweep", "--orderer-mode", "literal_eq19"],
    ["compare", "--mode", "TPFS"],
    ["compare", "--orderer-mode", "literal_eq19"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_subcommand_rejects_flags_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
