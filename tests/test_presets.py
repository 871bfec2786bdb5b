"""Preset experiments: built-in assertions, determinism, outputs."""

import json

import pytest

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
