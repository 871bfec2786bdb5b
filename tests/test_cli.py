"""CLI behavior: exit codes, atomicity, determinism, env override."""

import copy
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcchain
import rcchain.presets

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
from rcchain.ioutil import json_text
from rcchain.ledger import (CertificateAuthority, ChainLedger, EndorsementPolicy, endorse,
                            export_ledger_lines, propose, state_payload, validate_and_commit)
from rcchain.pipeline_des import MAX_LAST_ARRIVAL_S, MAX_N_TX
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


@pytest.mark.parametrize("grid", [
    {"lambda0": [10, -1], "batch_sizes": [10]},
    {"lambda0": [10], "batch_sizes": [10, 0]},
    {"lambda0": {"start": 10, "stop": 20, "step": 10}, "batch_sizes": [10, 50, 0]},
], ids=["negative-lambda0", "zero-batch-size", "zero-batch-size-last"])
def test_analyze_checks_every_grid_point_before_out(grid, tmp_path, capsys):
    """A bad lambda0 or batch size past the grid's first point used to be
    refused by the sweep, after --out was made."""
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps(grid))
    out = tmp_path / "never"
    assert main(["analyze", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
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
    {"start": 1e20, "stop": 1e20, "step": 1},
], ids=["step-zero", "step-negative", "stop-infinity", "huge-range", "step-vanishes"])
def test_analyze_rejects_endless_grid(tmp_path, lambda0):
    """A grid that never reaches its stop, or has more points than
    MAX_GRID_POINTS, is a config error; so is a step too small to change
    the float it is added to. The command runs in a child
    process under a memory cap and a timeout, so an endless or huge grid
    loop fails the test instead of hanging it."""
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({"lambda0": lambda0, "batch_sizes": [10]}))
    out = tmp_path / "never"
    proc = run_capped("analyze", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == EXIT_CONFIG, proc.stderr
    assert "lambda0" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("lambda0,count,last", [
    ({"start": 0.7, "stop": 35000, "step": 0.7}, 50_000, 0.7 + 49_999 * 0.7),
    ({"start": 0, "stop": 100, "step": 0.1}, 1_001, 100.0),
    ({"start": 10, "stop": 110, "step": 10}, 11, 110.0),
    ({"start": 10, "stop": 9.5, "step": 1}, 0, None),
], ids=["drift-drops-stop", "drift-moves-values", "readme", "empty"])
def test_analyze_grid_counts_its_points(lambda0, count, last):
    """A start/stop/step grid is every start + k*step up to stop, counted
    rather than accumulated, so float drift neither drops the stop point
    nor moves the values; an empty range is still a config error."""
    doc = {"lambda0": lambda0, "batch_sizes": [10]}
    if not count:
        with pytest.raises(ScenarioConfigError, match="lambda0"):
            _parse_grid(doc, None)
        return
    _, lambdas, _ = _parse_grid(doc, None)
    assert lambdas == [lambda0["start"] + k * lambda0["step"] for k in range(count)]
    assert lambdas[-1] == last


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


def test_simulate_refuses_the_removed_similarity_weighting(tmp_path, capsys):
    """TPFS has one feedback-similarity rule, so tpfs.similarity_weighting
    is an unknown key, even at its old default."""
    config = tmp_path / "weighted.json"
    config.write_text(json.dumps({**EXAMPLE, "tpfs": {"similarity_weighting": "uniform"}}))
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "similarity_weighting" in err
    assert "Traceback" not in err
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


@pytest.fixture(scope="module")
def example_ledger_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("example")
    assert main(["simulate", "--config", str(DOCS / "scenario.example.json"),
                 "--out", str(out)]) == EXIT_OK
    return (out / "ledger.jsonl").read_text().splitlines()


@pytest.mark.parametrize("changes", [
    {"valid": False},
    {"reason": "policy"},
    {"kind": "feedback"},
    {"reason": ""},  # an empty reason is not a missing one
    {"valid": False, "kind": "feedback", "reason": "policy"},
], ids=["flag", "reason", "kind", "empty-reason", "all-three"])
def test_ledger_verify_detects_result_field_edits(changes, example_ledger_lines, tmp_path):
    """The body hash covers each transaction's kind, validity flag and
    reason, so editing any of them in block 1's first transaction of the
    example's export is an integrity failure at block 1."""
    lines = list(example_ledger_lines)
    rec = json.loads(lines[1])
    assert rec["txs"][0]["valid"] is True and rec["txs"][0]["kind"] != "feedback"
    rec["txs"][0].update(changes)
    lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_INTEGRITY


def test_ledger_verify_unreadable_and_truncated(tmp_path):
    assert main(["ledger-verify", str(tmp_path / "missing.jsonl")]) == EXIT_IO
    trunc = tmp_path / "trunc.jsonl"
    trunc.write_text('{"number": 0, "prev_hash": "00"')
    assert main(["ledger-verify", str(trunc)]) == EXIT_IO


@pytest.mark.parametrize("command,code", [
    (["ledger-verify"], EXIT_IO),
    (["simulate", "--config"], EXIT_CONFIG),
    (["analyze", "--config"], EXIT_CONFIG),
], ids=["ledger-verify", "simulate", "analyze"])
def test_json_nested_too_deep_is_unreadable_input(command, code, tmp_path, capsys):
    """JSON nested past the parser's recursion limit used to end in a
    RecursionError traceback and exit 1, from all three JSON readers."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
    out = tmp_path / "never"
    outs = [] if command == ["ledger-verify"] else ["--out", str(out)]
    assert main([*command, str(path), *outs]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "nested too deep" in captured.err
    assert not out.exists()


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


@pytest.mark.parametrize("line,number,written", [
    (1, 1, "true"),
    (0, 0, "false"),
    (1, 1, '"1"'),
], ids=["true-at-1", "false-at-genesis", "string-at-1"])
def test_ledger_verify_refuses_a_number_that_is_not_an_integer(
        line, number, written, example_ledger_lines, tmp_path, capsys):
    """A JSON boolean compares equal to 1 or 0 and hashes as it, so the
    example's export with one block number rewritten to one would verify
    clean; it is unreadable, as is a number written as a string."""
    lines = list(example_ledger_lines)
    field = f'"number":{number},'
    assert field in lines[line]
    lines[line] = lines[line].replace(field, f'"number":{written},')
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_IO
    assert "cannot parse ledger export" in capsys.readouterr().err


@pytest.fixture(scope="module")
def duplicate_export_lines():
    """The export of a chain whose block 2 seals a replayed transaction
    as invalid (duplicate), so it holds one "valid":false."""
    ca = CertificateAuthority()
    peers = [ca.register("org1", "endorsing_peer", f"org1/peer{k}") for k in range(2)]
    client = ca.register("org1", "client", "client-0")
    policy = EndorsementPolicy(frozenset({"org1"}))
    chain = ChainLedger()
    tx = endorse(propose("qa_request", state_payload("k", "v"), client, 0.0, 1), policy, peers,
                 chain.world_state)
    for _ in range(2):
        validate_and_commit(chain.next_proposal([tx]), chain, policy)
    assert chain.blocks[2].validity == ((False, "duplicate"),)
    return export_ledger_lines(chain)


@pytest.mark.parametrize("line,flag,written", [
    (2, "false", "0"),
    (2, "false", "null"),
    (2, "false", '"no"'),
    (2, "false", "[]"),
    (1, "true", "1"),
], ids=["zero", "null", "string", "list", "one-for-true"])
def test_ledger_verify_refuses_a_validity_flag_that_is_not_a_boolean(
        line, flag, written, duplicate_export_lines, tmp_path, capsys):
    """The body hash keys on the flag being true, so the duplicate's false
    rewritten to any other falsy value used to verify clean, and a true
    rewritten to 1 read as an integrity failure; each is unreadable."""
    lines = list(duplicate_export_lines)
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_OK
    field = f'"valid":{flag}'
    assert lines[line].count(field) == 1
    lines[line] = lines[line].replace(field, f'"valid":{written}')
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_IO
    assert "cannot parse ledger export" in capsys.readouterr().err


@pytest.mark.parametrize("written", ["false", "0", "[]", "{}", "1"])
def test_ledger_verify_refuses_a_reason_that_is_not_a_string(
        written, example_ledger_lines, tmp_path, capsys):
    """The body hash frames a reason as (reason or ""), so false, 0, [] and
    {} in place of a valid transaction's null read as an integrity failure
    (in place of an empty reason they would verify clean), and 1 was
    unreadable only through an AttributeError; each is now refused."""
    lines = list(example_ledger_lines)
    path = tmp_path / "ledger.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "ok\n"
    assert '"reason":null' in lines[1]
    lines[1] = lines[1].replace('"reason":null', f'"reason":{written}', 1)
    path.write_text("\n".join(lines) + "\n")
    assert main(["ledger-verify", str(path)]) == EXIT_IO
    assert "reason that is neither a string nor null" in capsys.readouterr().err


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


def test_simulate_writes_exactly_the_six_outputs(scenario_path, tmp_path):
    out = str(tmp_path / "sim")
    assert main(["simulate", "--config", scenario_path, "--out", out]) == EXIT_OK
    assert sorted(os.listdir(out)) == ["ledger.jsonl", "missions.csv", "perf.csv",
                                       "reputation.csv", "summary.json", "world_state.json"]


def test_ledger_export_is_a_usage_error(scenario_path, tmp_path, capsys):
    """simulate writes the ledger export; there is no second command for it."""
    out = tmp_path / "led"
    with pytest.raises(SystemExit) as exc:
        main(["ledger-export", "--config", scenario_path, "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'ledger-export'" in capsys.readouterr().err
    assert not out.exists()


def test_preset_unknown_name_lists_available(tmp_path, capsys):
    assert main(["preset", "nope", "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "reputation-timeline" in err and "queueing-validation" in err


def test_preset_runs_and_is_deterministic(tmp_path):
    out1, out2 = str(tmp_path / "p1"), str(tmp_path / "p2")
    assert main(["preset", "neighbor-sweep", "--out", out1]) == EXIT_OK
    assert main(["preset", "neighbor-sweep", "--out", out2]) == EXIT_OK
    a = Path(out1, "neighbor_sweep.csv").read_bytes()
    b = Path(out2, "neighbor_sweep.csv").read_bytes()
    assert a == b


def test_neighbor_sweep_refuses_a_seed(tmp_path, capsys):
    """neighbor-sweep draws nothing, so a --seed it would ignore is a
    config error, refused before --out is made."""
    out = tmp_path / "never"
    assert main(["preset", "neighbor-sweep", "--out", str(out), "--seed", "7"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "--seed" in err
    assert not out.exists()


def test_compare_writes_deviation_table(tmp_path):
    out = str(tmp_path / "cmp")
    rc = main(["compare", "--out", out, "--lambda0", "40", "--n-tx", "50000",
               "--seed", "1"])
    assert rc == EXIT_OK
    lines = (tmp_path / "cmp" / "deviation.csv").read_text().splitlines()
    assert lines[0] == "metric,closed_form,simulated,abs_deviation,rel_deviation"
    assert len(lines) == 8


@pytest.mark.parametrize("batch_size", ["9223372036854775807", "100000000000000000000"])
def test_compare_takes_a_batch_size_past_int64(tmp_path, batch_size):
    """The cutter's next-block indices used to overflow int64 here and end
    in an IndexError traceback; a batch that never fills is timeout-cut."""
    out = tmp_path / "cmp"
    args = ["compare", "--out", str(out), "--lambda0", "10", "--batch-size", batch_size,
            "--n-tx", "1000"]
    assert main(args) == EXIT_OK
    assert len((out / "deviation.csv").read_text().splitlines()) == 8


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


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_with_nothing_routed_writes_no_nan(tmp_path, capsys, fmt):
    """The one arrival at seed 1 is not routed, so the ordering and
    commitment values are unmeasured: null in JSON, an empty cell in CSV."""
    out = tmp_path / "cmp"
    argv = ["compare", "--out", str(out), "--n-tx", "1", "--seed", "1", "--format", fmt]
    assert main(argv) == EXIT_OK
    said = capsys.readouterr().out
    assert "no transaction reached ordering" in said and "nan" not in said
    assert said.rstrip().endswith("largest relative deviation 1.000 (H_flow)")
    text = (out / f"deviation.{fmt}").read_text()
    if fmt == "json":
        rows = json.loads(text, parse_constant=_refuse_constant)
    else:
        header, *lines = (line.split(",") for line in text.splitlines())
        rows = [{"metric": metric,
                 **{k: float(c) if c else None for k, c in zip(header[1:], cells, strict=True)}}
                for metric, *cells in lines]
    unmeasured = {"D1", "D2", "D", "N2"}
    assert [r["metric"] for r in rows] == ["D0", "D1", "D2", "D", "N0", "N2", "H_flow"]
    for r in rows:
        values = [r["simulated"], r["abs_deviation"], r["rel_deviation"]]
        if r["metric"] in unmeasured:
            assert values == [None, None, None]
        else:
            assert all(math.isfinite(v) for v in values + [r["closed_form"]])


def test_json_writer_refuses_nan():
    with pytest.raises(ValueError):
        json_text({"x": float("nan")})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_analyze_at_a_subnormal_lambda0_leaves_overflowing_metrics_empty(tmp_path, capsys, fmt):
    """Lambda1 = 0.9e-310 makes D1 = M/Lambda1 and D overflow: None, like an
    unstable row's metrics, and so is H_eq31 = N2*q23/D, so JSON output is
    strict and CSV has no inf."""
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"lambda0": [1e-310], "batch_sizes": [10]}))
    out = tmp_path / "an"
    assert main(["analyze", "--config", str(config), "--out", str(out), "--format", fmt]) == EXIT_OK
    assert capsys.readouterr().err == ""
    text = (out / f"queueing_report.{fmt}").read_text()
    assert "inf" not in text.lower()
    if fmt == "json":
        [row] = json.loads(text, parse_constant=_refuse_constant)
    else:
        header, cells = (line.split(",") for line in text.splitlines())
        row = dict(zip(header, cells, strict=True))
        row = {k: None if row[k] == "" else float(row[k])
               for k in ("D0", "D1", "D2", "D", "H_eq31")}
    assert row["D1"] is None and row["D"] is None and row["H_eq31"] is None
    assert 0.0 < row["D0"] < math.inf and 0.0 < row["D2"] < math.inf


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_compare_refuses_a_rate_whose_mean_interval_overflows(tmp_path, capsys, fmt):
    out = tmp_path / "cmp"
    argv = ["compare", "--lambda0", "1e-310", "--n-tx", "100", "--format", fmt, "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would raise here
        assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lambda0" in err and "Out of range" not in err
    assert not out.exists()


@pytest.mark.parametrize("lambda0,n_tx,code", [
    ("1e-305", 100_000, EXIT_CONFIG),  # 1/lambda0 is finite, the arrivals' sum is not
    (repr(1000 / MAX_LAST_ARRIVAL_S * (1 - 1e-9)), 1000, EXIT_CONFIG),
    # compare's service rates are 150: the clock's spacing is 2**-23 s
    # below 2**29 s, under 2**-16/150 s, and 2**-22 s from there on
    (repr(1000 / 2**29 * (1 + 1e-9)), 1000, EXIT_OK),
    (repr(1000 / 2**29), 1000, EXIT_CONFIG),
    ("1e-13", 100_000, EXIT_CONFIG),  # spacing 128 s: D2 read 14 % low
    ("1e-142", 100_000, EXIT_CONFIG),  # D0, D2, N0 and N2 read 0.0
], ids=["1e-305", "just-over", "just-under", "spacing-edge", "1e-13", "1e-142"])
def test_compare_bounds_the_expected_last_arrival(tmp_path, capsys, lambda0, n_tx, code):
    """compare refuses n_tx/lambda0 over MAX_LAST_ARRIVAL_S, or one where
    the clock's spacing is over 2**-16 of a mean service time, with exit 2
    and one stderr line, and just under the spacing bound writes every
    simulated cell."""
    out = tmp_path / "cmp"
    argv = ["compare", "--lambda0", lambda0, "--n-tx", str(n_tx), "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would raise here
        assert main(argv) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert captured.err == "" and "nan" not in captured.out
        lines = (out / "deviation.csv").read_text().splitlines()
        header, *rows = (line.split(",") for line in lines)
        assert rows and all(math.isfinite(float(row[header.index("simulated")])) for row in rows)
    else:
        assert captured.err.count("\n") == 1 and "n_tx/lambda0" in captured.err
        assert not out.exists()


# sha256 of every file analyze writes for the README grid and compare
# writes at its defaults, per report format, recorded before each table's
# rows were built from its column list: the headers, keys and number
# formatting must not move with the writer.
CLI_PINS = {
    ("analyze", "csv"): {
        "queueing_report.csv": "0cc4d75d3b9085b4977a91b2ac3bc45ccc35818a873e1d392019b591a0b80aad",
        "stability_summary.json": "f7f511feb1e5dc6362654b384c228178ef56537d1827baf183a3e111bd436a94",
    },
    ("analyze", "json"): {
        "queueing_report.json": "11f8ccb6efe18a03cf5a6ce1590422f139f4f415b52b6179da7a2fe85069ab8e",
        "stability_summary.json": "f7f511feb1e5dc6362654b384c228178ef56537d1827baf183a3e111bd436a94",
    },
    ("compare", "csv"): {
        "deviation.csv": "f80245742f6adf85e17b28f9520bebebfc633a5a8b711a65e5fa02f028614984",
    },
    ("compare", "json"): {
        "deviation.json": "d5ed44c564b5106507fb063f1e55628a992d51ee2ac6ddbf6ddc9c744bcf8cfd",
    },
}


@pytest.mark.parametrize(("command", "fmt"), list(CLI_PINS))
def test_report_outputs_pinned(command, fmt, tmp_path):
    argv = [command, "--out", str(tmp_path / "out"), "--format", fmt]
    if command == "analyze":
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(README_GRID))
        argv += ["--config", str(grid)]
    assert main(argv) == EXIT_OK
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "out").iterdir()} == CLI_PINS[(command, fmt)]

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


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "{dir}", "--out", "{out}"],
    ["analyze", "--config", "{dir}", "--out", "{out}"],
    ["preset", "neighbor-sweep", "--out", "{file}"],
    ["compare", "--n-tx", "1000", "--out", "{file}"],
], ids=lambda argv: argv[0])
def test_unreadable_input_or_unwritable_output_exits_6(argv, tmp_path, capsys):
    """A --config that names a directory, or an --out that names an
    existing file, is one line on stderr and exit 6, not a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"dir": str(tmp_path), "out": str(tmp_path / "out"), "file": str(taken)}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_IO
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert taken.read_text() == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,runner", [
    (["simulate", "--config", "{scenario}"], (rcchain.cli, "run_scenario")),
    (["preset", "neighbor-sweep"], (rcchain.presets, "run_preset")),
    (["analyze", "--config", "{grid}"], (rcchain.cli, "sweep")),
    (["compare", "--n-tx", "1000"], (rcchain.pipeline_des, "simulate_pipeline")),
], ids=["simulate", "preset", "analyze", "compare"])
def test_unwritable_out_fails_before_the_run(argv, runner, scenario_path, grid_path, tmp_path,
                                             monkeypatch):
    """The output directory is made once the input is accepted and before
    the run starts, so an --out naming an existing file exits 6 without
    computing anything."""
    def never(*args, **kwargs):
        raise AssertionError("the run started")
    monkeypatch.setattr(*runner, never)
    taken = tmp_path / "taken"
    taken.write_text("")
    paths = {"scenario": scenario_path, "grid": grid_path}
    assert main([arg.format(**paths) for arg in argv] + ["--out", str(taken)]) == EXIT_IO
    assert taken.read_text() == ""


NO_NUMPY_SCRIPT = """
import sys
from rcchain.cli import main
scenario, grid, out = sys.argv[1:]
for argv in (["simulate", "--config", scenario, "--out", out + "/sim"],
             ["ledger-verify", out + "/sim/ledger.jsonl"],
             ["analyze", "--config", grid, "--out", out + "/grid"]):
    assert main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_commands_without_the_simulator_never_import_numpy(scenario_path, grid_path, tmp_path):
    """Only compare and preset run the numpy pipeline simulator, so the
    other commands start without paying for numpy's import."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rcchain.__file__)))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SCRIPT, scenario_path, grid_path,
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
