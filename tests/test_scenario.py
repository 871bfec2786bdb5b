"""Scenario engine: lifecycle structure, determinism, traceability."""

import copy
import hashlib
import json
from pathlib import Path

import pytest

from rcchain.cli import EXIT_CONFIG, main
from rcchain.ledger import export_ledger_lines, verify_chain
from rcchain.reputation import ReputationMode
from rcchain.scenario import (
    MAX_ENDORSING_PEERS,
    MAX_EXPECTED_MISSIONS,
    ScenarioConfigError,
    parse_scenario_config,
    reputation_from_chain,
    run_scenario,
)


def base_config(**overrides):
    doc = {
        "duration_min": 10.0,
        "seed": 42,
        "organizations": [
            {"name": "org1", "endorsing_peers": 2},
            {"name": "org2", "endorsing_peers": 2},
            {"name": "org3", "endorsing_peers": 2},
        ],
        "rsus": [
            {"id": "rsu-a1", "org": "org1", "area": "A"},
            {"id": "rsu-a2", "org": "org2", "area": "A"},
        ],
        "vehicles": [
            {"id": "v-req", "org": "org1", "area": "A", "roles": ["requester"],
             "profile": {"kind": "honest"}},
            {"id": "v-srv", "org": "org2", "area": "A", "roles": ["server"],
             "profile": {"kind": "honest"}},
        ],
        "ordering": {"batch_size": 10, "batch_timeout_s": 2.0, "orderer_count": 3},
        "arrivals": {"kind": "scripted",
                     "missions": [{"t_min": 1.0, "requester": "v-req", "kind": "qa"}]},
    }
    doc.update(overrides)
    return doc


def test_empty_roster_zero_missions_genesis_only():
    doc = base_config(
        rsus=[], vehicles=[],
        arrivals={"kind": "poisson", "rate_per_min": 2.0},
    )
    report = run_scenario(parse_scenario_config(doc))
    assert report.summary["missions_total"] == 0
    assert report.chain.tip.number == 0


def test_single_mission_structural_counts():
    report = run_scenario(parse_scenario_config(base_config()))
    kinds = [tx.kind for blk in report.chain.blocks for tx in blk.txs]
    assert kinds.count("qa_request") == 1
    assert kinds.count("service_proposal") == 1
    assert kinds.count("service_process") == 1
    assert kinds.count("reputation_update") == 1
    assert all(ok for blk in report.chain.blocks for ok, _ in blk.validity)
    assert report.missions[0].outcome == "completed_good"
    assert report.missions[0].selected == "v-srv"


def test_data_share_mission_uses_data_index():
    doc = base_config(
        arrivals={"kind": "scripted",
                  "missions": [{"t_min": 1.0, "requester": "v-req", "kind": "data_share"}]},
    )
    report = run_scenario(parse_scenario_config(doc))
    kinds = [tx.kind for blk in report.chain.blocks for tx in blk.txs]
    assert kinds.count("data_index") == 1
    assert kinds.count("service_process") == 0


def run_bytes(doc):
    report = run_scenario(parse_scenario_config(doc))
    payload = (
        "\n".join(export_ledger_lines(report.chain))
        + report.reputation_csv()
        + report.missions_csv()
        + report.perf_csv()
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def poisson_doc(seed):
    vehicles = [
        {"id": f"v{k}", "org": f"org{k % 3 + 1}", "area": "A",
         "roles": ["requester", "server"],
         "profile": {"kind": "honest"} if k else {"kind": "malicious", "fake_rate": 1.0}}
        for k in range(6)
    ]
    return base_config(
        duration_min=30.0,
        seed=seed,
        vehicles=vehicles,
        arrivals={"kind": "poisson", "rate_per_min": 2.0},
    )


def test_identical_seed_byte_identical_outputs():
    for seed in (42, 7, 20260809):
        assert run_bytes(poisson_doc(seed)) == run_bytes(poisson_doc(seed))


def test_different_seed_differs():
    assert run_bytes(poisson_doc(1)) != run_bytes(poisson_doc(2))


def test_mission_conservation_and_chain_integrity():
    report = run_scenario(parse_scenario_config(poisson_doc(11)))
    s = report.summary
    assert s["missions_total"] > 5
    assert s["missions_total"] == (
        s["completed_good"] + s["completed_bad"] + s["abandoned"]
    )
    assert verify_chain(report.chain, report.policy) is None


def test_reputation_traceable_from_chain():
    report = run_scenario(parse_scenario_config(poisson_doc(19)))
    replayed = reputation_from_chain(
        report.chain, report.reputation.params, mode=ReputationMode.TPFS
    )
    live = report.reputation
    for pair in live.direct:  # every pair's ratings, in the order recorded
        assert replayed.pair_events(*pair) == live.pair_events(*pair)
    assert replayed.direct == live.direct
    assert dict(replayed.trade_count) == dict(live.trade_count)
    assert replayed.status == live.status


# sha256 of every file `rcchain simulate` writes for the example scenario.
# Every file except ledger.jsonl carries the hash it had before the body
# hash covered each transaction's kind, validity flag and reason; the
# ledger.jsonl pins are the hashes after that change, which moved only the
# body_hash and prev_hash fields.
EXAMPLE_PINS = {
    None: {
        "ledger.jsonl": "d50653183b4fa461773dd7acdd861feaa2a7bf8e166a2fe174c77657dad129a7",
        "missions.csv": "459ffb0ce4047ab388c9ba9d7515ec388e72e1459fa0bbe957722a46ba4ee3de",
        "perf.csv": "9101a2a489b67dff003a985a135efed143669ee0babfcfaf49b34340f725528b",
        "reputation.csv": "b6e42337c36aae3b60c39b30a0bfb32c41a0dcb3ec04bbb73dcdf726506cfe49",
        "summary.json": "8f466da3d29d4b54b6bb56fa3de268efe61e13c81418529c199a9013c56d4e0c",
        "world_state.json": "2936a24d99edbb07284f58fc335f8a5b65cb988a4a7ac2861bcde91e35843273",
    },
    7: {
        "ledger.jsonl": "6c61c829fcd65f994865a9ac18fe9a67176348841f994c7868bcb738213de924",
        "missions.csv": "94b5319dafefa235e8c406b3293f0760b5d3b0d62b3867dd74b08b2145a6fc2a",
        "perf.csv": "7cdc3611e01568f3c98f97fa501551e8287e46c2516cfd6f96ff621c9842a657",
        "reputation.csv": "335672ea5f81fe13a02bff40e26f849462904bcebede2591189ec2685dc5b0e5",
        "summary.json": "0b947b677b976bfadd0ce1e90821a2a86b987cc0731cad1e34f9f2367dcd4f9a",
        "world_state.json": "0a2c0614bc9f3a28815bee04eacbc899724215a4870cd35455f6d78963784608",
    },
}


@pytest.mark.parametrize("seed", list(EXAMPLE_PINS))
def test_example_outputs_pinned(seed, tmp_path):
    doc = Path(__file__).resolve().parent.parent / "docs" / "scenario.example.json"
    argv = ["simulate", "--config", str(doc), "--out", str(tmp_path)]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == EXAMPLE_PINS[seed]


def test_candidates_match_a_scan_of_the_config():
    """The engine indexes requesters and per-area servers once per run.
    With nobody revoked, every mission's candidates must equal a scan of
    the config: servers in the requester's area other than the requester,
    sorted by id. Ids are listed out of order, areas mix idlers and
    requester-only, server-only and dual-role vehicles, and area D has a
    requester but no server."""
    roles = {"req": ["requester"], "srv": ["server"], "dual": ["requester", "server"],
             "idle": ["idler"]}
    layout = [("z-srv", "A"), ("b-dual", "B"), ("m-req", "A"), ("a-srv", "B"),
              ("k-idle", "A"), ("c-dual", "A"), ("y-req", "B"), ("d-srv", "A"),
              ("q-idle", "B"), ("e-srv", "C"), ("f-idle", "C"), ("g-req", "D")]
    vehicles = [{"id": vid, "org": f"org{k % 3 + 1}", "area": area,
                 "roles": roles[vid.split("-")[1]], "profile": {"kind": "honest"}}
                for k, (vid, area) in enumerate(layout)]
    doc = base_config(
        duration_min=20.0,
        vehicles=vehicles,
        rsus=[{"id": "rsu-a2", "org": "org2", "area": "A"},
              {"id": "rsu-b1", "org": "org1", "area": "B"},
              {"id": "rsu-a1", "org": "org1", "area": "A"},
              {"id": "rsu-d1", "org": "org3", "area": "D"}],
        arrivals={"kind": "poisson", "rate_per_min": 6.0},
    )
    cfg = parse_scenario_config(doc)
    report = run_scenario(cfg)
    assert report.summary["revoked_vehicles"] == []
    by_id = {v.id: v for v in cfg.vehicles}
    assert ({m.requester for m in report.missions}
            == {"m-req", "c-dual", "b-dual", "y-req", "g-req"})
    for m in report.missions:
        area = by_id[m.requester].area
        expected = tuple(sorted(v.id for v in cfg.vehicles if "server" in v.roles
                                and v.area == area and v.id != m.requester))
        assert m.candidates == expected, m.mission_id
        assert m.selected in expected if expected else m.outcome == "abandoned"


def test_revoked_server_never_selected_after_revocation():
    # one always-fake server alongside honest ones; repeated bad service
    # drives it to revocation, after which it never appears as selected
    vehicles = [
        {"id": "bad", "org": "org1", "area": "A", "roles": ["server"],
         "profile": {"kind": "malicious", "fake_rate": 1.0}},
        {"id": "good1", "org": "org2", "area": "A", "roles": ["server"],
         "profile": {"kind": "honest"}},
        {"id": "good2", "org": "org3", "area": "A", "roles": ["server"],
         "profile": {"kind": "honest"}},
        {"id": "asker", "org": "org1", "area": "A", "roles": ["requester"],
         "profile": {"kind": "honest"}},
    ]
    doc = base_config(
        duration_min=120.0,
        vehicles=vehicles,
        arrivals={"kind": "poisson", "rate_per_min": 3.0},
        tpfs={"t_trades": 2},
    )
    report = run_scenario(parse_scenario_config(doc))
    revoked_at = None
    for t in report.trajectories:
        if t.ratee == "bad" and t.status == "revoked":
            revoked_at = t.time_min
            break
    assert revoked_at is not None, "malicious server should get revoked"
    late_selections = [
        m for m in report.missions
        if m.selected == "bad" and m.t_request_min > revoked_at
    ]
    assert late_selections == []


def test_unreachable_org_aborts_missions():
    doc = base_config(faults={"unreachable_peers": ["org2/peer0", "org2/peer1"]})
    report = run_scenario(parse_scenario_config(doc))
    assert report.summary["abandoned"] == report.summary["missions_total"] == 1
    assert report.chain.tip.number == 0  # nothing ever reached ordering


def test_config_rejects_unknown_keys():
    with pytest.raises(ScenarioConfigError, match="unknown keys"):
        parse_scenario_config(base_config(extra_knob=1))
    doc = base_config()
    doc["vehicles"][0]["speed"] = 90
    with pytest.raises(ScenarioConfigError, match="unknown keys"):
        parse_scenario_config(doc)


def test_config_rejects_unknown_ids_and_missing_seed():
    doc = base_config()
    doc["arrivals"]["missions"][0]["requester"] = "ghost"
    with pytest.raises(ScenarioConfigError, match="unknown vehicle"):
        parse_scenario_config(doc)
    doc = base_config()
    del doc["seed"]
    with pytest.raises(ScenarioConfigError, match="seed"):
        parse_scenario_config(doc)


def test_config_requires_rsu_for_requester_area():
    doc = base_config(rsus=[])
    with pytest.raises(ScenarioConfigError, match="no RSU"):
        parse_scenario_config(doc)


@pytest.mark.parametrize("key,value", [
    ("duration_min", "NaN"),
    ("duration_min", "Infinity"),
    ("rate_per_min", "NaN"),
    ("rate_per_min", "Infinity"),
    ("rate_per_min", "-1"),
    ("duration_min", "[1]"),
    ("rate_per_min", '{"per": 1}'),
])
def test_config_rejects_non_finite_duration_and_rate(key, value, tmp_path):
    """Python's json reads NaN and Infinity; the Poisson mission generator
    would never pass a non-finite horizon or rate, so the parser refuses
    them (and a negative rate) before any run starts. A list or an object
    where the number belongs is a config error too, not a traceback."""
    doc = base_config(arrivals={"kind": "poisson", "rate_per_min": 2.0})
    target = doc if key == "duration_min" else doc["arrivals"]
    target[key] = json.loads(value)
    with pytest.raises(ScenarioConfigError, match=key):
        parse_scenario_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def _drop(key, where):
    def edit(doc):
        del where(doc)[key]
    return edit


def _set(key, value, where=lambda doc: doc):
    def edit(doc):
        where(doc)[key] = value
    return edit


BAD_INPUTS = {
    "org-missing-name": (_drop("name", lambda d: d["organizations"][0]), "'name'"),
    "rsu-missing-id": (_drop("id", lambda d: d["rsus"][0]), "'id'"),
    "vehicle-missing-org": (_drop("org", lambda d: d["vehicles"][0]), "'org'"),
    "vehicle-missing-area": (_drop("area", lambda d: d["vehicles"][1]), "'area'"),
    "mission-missing-t_min": (
        _drop("t_min", lambda d: d["arrivals"]["missions"][0]), "'t_min'"),
    "mission-missing-requester": (
        _drop("requester", lambda d: d["arrivals"]["missions"][0]), "'requester'"),
    "tpfs-not-a-number": (_set("t_low", "0.4", lambda d: d.setdefault("tpfs", {})), "t_low"),
    "no-endorsing-peers": (
        _set("endorsing_peers", 0, lambda d: d["organizations"][1]), "endorsing_peers"),
    "threshold-above-peers": (_set("policy", {"threshold": 3}), "threshold"),
    "unknown-unreachable-peer": (
        _set("faults", {"unreachable_peers": ["org2/peer7"]}), "unreachable_peers"),
    "mission-t_min-list": (_set("t_min", [1.0], lambda d: d["arrivals"]["missions"][0]), "t_min"),
    "batch_size-object": (_set("batch_size", {}, lambda d: d["ordering"]), "batch_size"),
    "threshold-infinity": (_set("policy", {"threshold": float("inf")}), "threshold"),
    "switch_at-list": (
        _set("profile", {"kind": "p_type", "switch_at": [1]}, lambda d: d["vehicles"][1]),
        "switch_at"),
    "batch_timeout-nan": (
        _set("batch_timeout_s", float("nan"), lambda d: d["ordering"]), "batch_timeout_s"),
    "batch_timeout-negative": (
        _set("batch_timeout_s", -1.0, lambda d: d["ordering"]), "batch_timeout_s"),
    "mission-t_min-negative": (
        _set("t_min", -1.0, lambda d: d["arrivals"]["missions"][0]), "t_min"),
    "simf_floor-above-one": (
        _set("simf_floor", 2, lambda d: d.setdefault("tpfs", {})), "simf_floor"),
    "negative_penalty-infinity": (
        _set("negative_penalty", float("inf"), lambda d: d.setdefault("tpfs", {})),
        "negative_penalty"),
    "t_trades-fraction": (_set("t_trades", 2.5, lambda d: d.setdefault("tpfs", {})), "t_trades"),
    "endorsing_peers-fraction": (
        _set("endorsing_peers", 2.7, lambda d: d["organizations"][1]), "endorsing_peers"),
    "endorsing_peers-bool": (
        _set("endorsing_peers", True, lambda d: d["organizations"][1]), "endorsing_peers"),
    "endorsing_peers-above-bound": (
        _set("endorsing_peers", MAX_ENDORSING_PEERS + 1, lambda d: d["organizations"][1]),
        "endorsing_peers"),
    "duration-string": (_set("duration_min", "60"), "duration_min"),
    "seed-bool": (_set("seed", True), "seed"),
    "unknown-crashed-orderer": (
        _set("crashed_orderers", ["no-such-1", "no-such-2"], lambda d: d["ordering"]),
        "crashed_orderers"),
    "vehicles-object": (
        lambda d: d.update(vehicles={}, arrivals={"kind": "poisson", "rate_per_min": 2.0}),
        "vehicles"),
    "roles-string": (_set("roles", "", lambda d: d["vehicles"][1]), "roles"),
    "vehicle-id-null": (_set("id", None, lambda d: d["vehicles"][1]), "id"),
    "vehicle-area-null": (_set("area", None, lambda d: d["vehicles"][1]), "area"),
    "rsu-id-null": (_set("id", None, lambda d: d["rsus"][1]), "id"),
    "rsu-area-null": (_set("area", None, lambda d: d["rsus"][1]), "area"),
    "threshold-zero": (_set("policy", {"threshold": 0}), "threshold"),
    "required_orgs-string": (_set("policy", {"required_orgs": ""}), "required_orgs"),
    "missions-object": (_set("missions", {}, lambda d: d["arrivals"]), "missions"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_config_rejects_inputs_that_crashed_or_ran_silently(case, tmp_path):
    """Missing keys and non-numeric model parameters used to escape as
    KeyError/TypeError (a list switch_at only mid-run); zero peers, an
    unreachable policy threshold and unknown fault targets used to run
    with every mission abandoned; a NaN timeout, a negative time and
    out-of-range model weights failed mid-run; booleans, strings and
    fractions where a number or an integer belongs were coerced; an
    object or a string where the schema wants an array ran as an empty
    list, and a null id or area or a zero threshold failed only in the
    engine. Each exits 2 before writing anything."""
    edit, match = BAD_INPUTS[case]
    doc = base_config()
    edit(doc)
    with pytest.raises(ScenarioConfigError, match=match):
        parse_scenario_config(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_expected_poisson_missions_are_bounded():
    """Every Poisson arrival goes on the event heap before the run starts,
    so the expected count rate_per_min x duration_min is bounded."""
    doc = base_config(arrivals={"kind": "poisson",
                                "rate_per_min": MAX_EXPECTED_MISSIONS / 10.0})
    assert doc["duration_min"] == 10.0
    parse_scenario_config(doc)  # exactly at the bound
    doc["arrivals"]["rate_per_min"] *= 1.0001
    with pytest.raises(ScenarioConfigError, match="rate_per_min"):
        parse_scenario_config(doc)
    doc["arrivals"] = {"kind": "scripted", "rate_per_min": 1e9,
                       "missions": [{"t_min": 1.0, "requester": "v-req"}]}
    parse_scenario_config(doc)  # a scripted run draws no arrivals


def test_example_config_matches_schema_and_parses():
    jsonschema = pytest.importorskip("jsonschema")
    docs = Path(__file__).resolve().parent.parent / "docs"
    schema = json.loads((docs / "scenario.schema.json").read_text())
    example = json.loads((docs / "scenario.example.json").read_text())
    jsonschema.validate(example, schema)
    cfg = parse_scenario_config(example)
    assert cfg.seed == example["seed"] and len(cfg.vehicles) == len(example["vehicles"])
    example["arrivals"]["rate_per_min"] = -1.0
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(example, schema)


def test_perf_rows_cover_all_pipeline_stages():
    report = run_scenario(parse_scenario_config(base_config()))
    assert len(report.perf) == 4
    for row in report.perf:
        assert row.t_arrive <= row.t_endorsed <= row.t_ordered <= row.t_committed
        assert row.valid


def test_write_outputs_roundtrip(tmp_path):
    report = run_scenario(parse_scenario_config(poisson_doc(5)))
    paths = report.write_outputs(str(tmp_path))
    assert set(paths) == {
        "ledger.jsonl", "world_state.json", "reputation.csv",
        "missions.csv", "perf.csv", "summary.json",
    }
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == report.summary
    first_line = (tmp_path / "ledger.jsonl").read_text().splitlines()[0]
    assert json.loads(first_line)["number"] == 0


def test_crashed_orderer_majority_stalls_ordering():
    doc = base_config(
        ordering={"batch_size": 10, "batch_timeout_s": 2.0, "orderer_count": 3,
                  "crashed_orderers": ["rsu-a1", "rsu-a2"]},
    )
    report = run_scenario(parse_scenario_config(doc))
    assert report.chain.tip.number == 0  # no blocks without an orderer majority
    s = report.summary
    assert s["abandoned"] == s["missions_total"] == 1


EXAMPLE = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "scenario.example.json").read_text())


def example_with(section, key, value):
    doc = copy.deepcopy(EXAMPLE)
    doc.setdefault(section, {})[key] = value
    return run_scenario(parse_scenario_config(doc))


def test_orderer_majority_crash_commits_nothing():
    """Two of the three orderers are down for the whole run, so the
    ordering service never cuts: no block, every mission abandoned."""
    report = example_with("ordering", "crashed_orderers", ["rsu-a1", "rsu-a2"])
    s = report.summary
    assert report.chain.tip.number == 0 and s["transactions"] == 0
    assert s["missions_total"] > 0 and s["abandoned"] == s["missions_total"]


def test_minority_orderer_crash_changes_no_output():
    """One of the three orderers down still leaves a majority: the run
    loses and reorders nothing, its outputs equal those of a run with no
    crash byte for byte."""
    plain = run_scenario(parse_scenario_config(EXAMPLE))
    assert plain.summary["blocks"] > 0
    crashed = example_with("ordering", "crashed_orderers", ["rsu-a1"])
    assert crashed.output_files() == plain.output_files()


def test_revocation_reaches_certificate_authority():
    vehicles = [
        {"id": "bad", "org": "org1", "area": "A", "roles": ["server"],
         "profile": {"kind": "malicious", "fake_rate": 1.0}},
        {"id": "good", "org": "org2", "area": "A", "roles": ["server"],
         "profile": {"kind": "honest"}},
        {"id": "asker", "org": "org1", "area": "A", "roles": ["requester"],
         "profile": {"kind": "honest"}},
    ]
    doc = base_config(duration_min=150.0, vehicles=vehicles,
                      arrivals={"kind": "poisson", "rate_per_min": 3.0})
    report = run_scenario(parse_scenario_config(doc))
    assert "bad" in report.summary["revoked_vehicles"]
    with pytest.raises(ValueError, match="revoked"):
        report.ca.register("org1", "client", "bad")  # and never re-admitted


def test_untruthful_rater_inverts_feedback():
    vehicles = [
        {"id": "liar", "org": "org1", "area": "A", "roles": ["requester"],
         "profile": {"kind": "untruthful_rater", "fake_rate": 1.0}},
        {"id": "srv", "org": "org2", "area": "A", "roles": ["server"],
         "profile": {"kind": "honest"}},
    ]
    doc = base_config(
        duration_min=30.0, vehicles=vehicles,
        arrivals={"kind": "scripted",
                  "missions": [{"t_min": float(t), "requester": "liar"}
                               for t in range(1, 11)]},
    )
    report = run_scenario(parse_scenario_config(doc))
    # service was genuinely good, but the rating came back negative; with a
    # single server the slander revokes it and later missions find nobody
    events = report.reputation.pair_events("liar", "srv")
    assert events and all(not e.positive for e in events)
    assert report.reputation.direct_score("liar", "srv") < 0.5
    assert "srv" in report.summary["revoked_vehicles"]
    assert report.summary["completed_good"] >= 1
    assert report.summary["abandoned"] == 10 - report.summary["completed_good"]


def test_p_type_profile_switches_mid_run():
    vehicles = [
        {"id": "asker", "org": "org1", "area": "A", "roles": ["requester"],
         "profile": {"kind": "honest"}},
        {"id": "pretender", "org": "org2", "area": "A", "roles": ["server"],
         "profile": {"kind": "p_type", "switch_at": 10.0, "fake_rate": 1.0}},
    ]
    doc = base_config(
        duration_min=30.0, vehicles=vehicles,
        arrivals={"kind": "scripted",
                  "missions": [{"t_min": 1.0, "requester": "asker"},
                               {"t_min": 20.0, "requester": "asker"}]},
    )
    report = run_scenario(parse_scenario_config(doc))
    outcomes = [m.outcome for m in report.missions]
    assert outcomes == ["completed_good", "completed_bad"]
