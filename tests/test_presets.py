"""Preset experiments: built-in assertions, determinism, outputs."""

import gc
import hashlib
import json
from pathlib import Path

import pytest

from rcchain import presets
from rcchain.ledger import verify_export_lines
from rcchain.presets import PRESETS, run_preset


@pytest.fixture(scope="module")
def results():
    return {name: run_preset(name) for name in PRESETS}


def test_all_presets_pass_their_assertions(results):
    for name, res in results.items():
        failing = [a for a in res.assertions if not a.passed]
        assert not failing, f"{name}: {failing}"


def test_timeline_writes_trajectories_for_three_modes(results):
    csv = results["reputation-timeline"].files["reputation.csv"]
    lines = csv.strip().splitlines()
    assert lines[0] == "time_min,rater,ratee,mode,rfin,status"
    assert len(lines) == 1 + 100 * 3
    modes = {line.split(",")[3] for line in lines[1:]}
    assert modes == {"TPFS", "TP_only", "TWSL_like"}


def test_timeline_status_reaches_revocation(results):
    csv = results["reputation-timeline"].files["reputation.csv"]
    statuses = [line.split(",")[5] for line in csv.strip().splitlines()[1:]]
    assert "warning" in statuses and "revoked" in statuses


def test_timeline_chain_mirror_verifies(results):
    lines = results["reputation-timeline"].files["ledger.jsonl"].strip().splitlines()
    assert verify_export_lines(lines) is None
    n_txs = sum(len(json.loads(line)["txs"]) for line in lines)
    assert n_txs == 21 * 80  # every scripted rating landed on-chain


def test_sweep_curve_shape(results):
    csv = results["neighbor-sweep"].files["neighbor_sweep.csv"]
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    assert len(rows) == 11 * 3
    tpfs = [float(r[2]) for r in rows if r[1] == "TPFS"]
    twsl = [float(r[2]) for r in rows if r[1] == "TWSL_like"]
    assert tpfs == sorted(tpfs)
    assert all(x <= y + 1e-9 for x, y in zip(tpfs, twsl))
    assert twsl[0] > tpfs[0]  # the colluder inflation is strict at 0% truthful


def test_ptype_vector_determinism():
    a = run_preset("ptype-field")
    b = run_preset("ptype-field")
    assert a.files["ptype_field.csv"] == b.files["ptype_field.csv"]


def test_ptype_outputs_fifteen_servers(results):
    csv = results["ptype-field"].files["ptype_field.csv"]
    rows = [line.split(",") for line in csv.strip().splitlines()[1:]]
    assert len(rows) == 15 * 3
    vehicles = {r[0] for r in rows}
    assert len(vehicles) == 15


# sha256 of the ptype-field preset's files at its default seed. Every file
# except ledger.jsonl carries the hash it had before the body hash covered
# each transaction's kind, validity flag and reason; the ledger.jsonl pin is
# the hash after that change, which moved only body_hash and prev_hash.
# ptype_field.csv's pin moved when direct scores came from one decayed
# state per pair instead of a rescan of its events (rfin by <= 2.8e-17).
PTYPE_FIELD_PINS = {
    "assertions.json": "f72084a7f5f00c85be46871b0d79f5557a388766b34ba4b3519600a115892ace",
    "ledger.jsonl": "eba8d467c10a3cc43b85e976ed996bd715945039d29f3d2e9d1056cee1d172a2",
    "ptype_field.csv": "fac50858c708e100802e7e6b72c7979612fdf320fceaeaf91a2678007fd4436f",
    "world_state.json": "c9990900573db33b3ab152c3b4d42e8769a58527935aba1e4b9c09ae54095b3e",
}


def test_ptype_field_outputs_pinned(results, tmp_path):
    paths = results["ptype-field"].write_outputs(str(tmp_path))
    assert {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for name, path in paths.items()} == PTYPE_FIELD_PINS


# sha256 of every file the other three presets write at their default seeds,
# recorded before each table's row type became its CSV schema: the rows,
# headers and number formatting must not move with the writer.
PRESET_PINS = {
    "reputation-timeline": {
        "assertions.json": "3951ef3a875f5c026a4e98768ed61b36af7042279ed7dc3d5d0d01f67915e6ef",
        "ledger.jsonl": "0318d6fb733b822ae5fae075b5a1eb8de60d8b6d5a60b5cae88a82aee8f69816",
        "reputation.csv": "5a3e771c3a992410deae6e6b1b22e751620fa57933da13375834fa88ea8eafb1",
        "world_state.json": "d8907b6f0ca770523e438b951fad7401b70b6668bbdd0aa39563f8b2782a9cef",
    },
    "neighbor-sweep": {
        "assertions.json": "8dbe62d6346d6a0b12272ae9392f30db44d4bb19a5522314430a41c59a395f1e",
        "neighbor_sweep.csv": "1c1304c0b3917baf4acf53e2c9f3f335ea07434778683a7eb60567b679994858",
    },
    "queueing-validation": {
        "assertions.json": "bc7742e015b357ba1ec1edc3b7813f36a97021ac135b95d20759fcdf05e7fa2b",
        "deviation.csv": "a8df382692cdd5bc9132b5c828e1fd4a4feeb5e57ccb28b7634fe40469b82289",
        "pipeline_stats.json": "cda4b58c7679071754bd15011608e359babd8ad2c16e0553b147e760305d6fd0",
    },
}


@pytest.mark.parametrize("name", list(PRESET_PINS))
def test_preset_outputs_pinned(name, results, tmp_path):
    paths = results[name].write_outputs(str(tmp_path))
    assert {file: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for file, path in paths.items()} == PRESET_PINS[name]


def test_queueing_validation_deviation_table(results):
    res = results["queueing-validation"]
    lines = res.files["deviation.csv"].strip().splitlines()
    assert lines[0] == "metric,closed_form,simulated,abs_deviation,rel_deviation"
    metrics = [line.split(",")[0] for line in lines[1:]]
    assert metrics == ["D0", "D1", "D2", "D", "N0", "N2", "H_flow"]
    stats = json.loads(res.files["pipeline_stats.json"])
    assert 0.28 <= stats["confirmation_mean_s"] <= 0.35


def test_queueing_validation_tracks_closed_forms(results):
    """The preset simulates the stage feed the closed forms describe, so
    every metric lands within 5 % of its closed form."""
    lines = results["queueing-validation"].files["deviation.csv"].strip().splitlines()
    deviations = {line.split(",")[0]: float(line.split(",")[4]) for line in lines[1:]}
    assert all(d <= 0.05 for d in deviations.values()), deviations


def test_unknown_preset_lists_available():
    with pytest.raises(KeyError, match="neighbor-sweep"):
        run_preset("nope")


def test_preset_write_outputs(results, tmp_path):
    paths = results["neighbor-sweep"].write_outputs(str(tmp_path))
    assert "assertions.json" in paths
    doc = json.loads((tmp_path / "assertions.json").read_text())
    assert doc["all_passed"] is True
    assert doc["preset"] == "neighbor-sweep"


@pytest.mark.parametrize("enabled", [True, False])
def test_run_preset_leaves_the_collector_as_it_found_it(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for name in PRESETS:
            run_preset(name)
            assert gc.isenabled() is enabled, name
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("events", [presets._timeline_events, presets._ptype_events],
                         ids=["timeline", "ptype-field"])
def test_chain_mirror_leaves_no_cyclic_garbage(events):
    """The mirror pauses the cyclic collector; a collection right after it
    finds nothing, so the pause skips only passes that reclaim nothing."""
    scripted = events()
    gc.collect()
    chain = presets._mirror_on_chain(scripted, 1)
    assert gc.collect() == 0
    assert len(chain.blocks) > 1
