"""Scenario engine: lifecycle structure, determinism, traceability."""

import collections
import copy
import dataclasses
import functools
import gc
import hashlib
import json
import math
import random
import re
import time
import tracemalloc
import typing
from enum import Enum
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rcchain.cli import EXIT_CONFIG, main
from rcchain.ioutil import _gc_paused
from rcchain.ledger import (
    EndorsementPolicy,
    OrderingConfig,
    export_ledger_lines,
    simulate_execution,
    verify_chain,
)
from rcchain.reputation import RatingEvent, ReputationLedger, ReputationMode
from rcchain import scenario
from rcchain.scenario import (
    MAX_ENDORSING_PEERS,
    MAX_EXPECTED_MISSIONS,
    ArrivalSpec,
    BehaviorProfile,
    FaultSpec,
    OrderingSpec,
    ScenarioConfigError,
    ScriptedMission,
    VehicleSpec,
    apply_block,
    mission_payload,
    parse_scenario_config,
    rating_from_value,
    rating_payload,
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
    files = report.output_files()
    payload = (
        "\n".join(export_ledger_lines(report.chain))
        + files["reputation.csv"]
        + files["missions.csv"]
        + files["perf.csv"]
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


def one_area_doc(n_vehicles, rate_per_min, duration_min, ordering, malicious=False):
    """n_vehicles requester+server vehicles in one area with one RSU; with
    malicious, every fifth vehicle fakes half of its services."""
    vehicles = [
        {"id": f"v{k:03d}", "org": f"org{k % 3 + 1}", "area": "A",
         "roles": ["requester", "server"],
         "profile": ({"kind": "malicious", "fake_rate": 0.5} if malicious and k % 5 == 0
                     else {"kind": "honest"})}
        for k in range(n_vehicles)
    ]
    return base_config(duration_min=duration_min, seed=7, vehicles=vehicles,
                       rsus=[{"id": "rsu-a1", "org": "org1", "area": "A"}],
                       ordering=ordering,
                       arrivals={"kind": "poisson", "rate_per_min": rate_per_min})


@functools.lru_cache(maxsize=None)
def inversion_run(malicious):
    """Blocks of one transaction at 600 missions/min among 200 vehicles.
    When every transaction drew its own endorsement delay and every block
    its own commit delay, 511 of the honest run's 4,924 blocks committed
    before the block ahead of them, and the malicious variant crashed on
    two ratings of one pair committing out of time order."""
    doc = one_area_doc(200, 600.0, 2.0, {"batch_size": 1}, malicious)
    return run_scenario(parse_scenario_config(doc))


def test_load_crash_config_completes_and_verifies(tmp_path):
    """The endorsement station is offered about 200 tx/s against mu0 =
    150, so its queue grows for the whole run. With an independent delay
    per transaction, simulate exited 2 on two ratings of one pair
    committing out of time order, at 1 sim-min and at the 0.25 used here."""
    doc = one_area_doc(20, 3000.0, 0.25, {"batch_timeout_s": 0.01})
    path = tmp_path / "load.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert main(["ledger-verify", str(out / "ledger.jsonl")]) == 0


@pytest.mark.parametrize("malicious", [False, True], ids=["honest", "malicious"])
def test_stations_are_fifo_and_blocks_commit_in_order(malicious):
    report = inversion_run(malicious)
    assert report.summary["blocks"] > 4000
    committed = {p.tx_id: p.t_committed for p in report.perf}
    per_block = [committed[blk.txs[0].tx_id] for blk in report.chain.blocks[1:]]
    assert per_block == sorted(per_block)
    nonce = {tx.tx_id: tx.nonce for blk in report.chain.blocks for tx in blk.txs}
    endorsed = [p.t_endorsed for p in sorted(report.perf, key=lambda p: nonce[p.tx_id])]
    assert endorsed == sorted(endorsed)


def assert_chain_replays_run(report):
    """The live trajectory is, row for row, what apply_block produces over
    the chain's blocks, and the replayed ledger equals the live one."""
    rows = []
    ledger = ReputationLedger(report.reputation.params)
    for blk in report.chain.blocks:
        apply_block(ledger, blk, ReputationMode.TPFS, rows)
    assert rows and rows == report.trajectories
    replayed = reputation_from_chain(
        report.chain, report.reputation.params, mode=ReputationMode.TPFS
    )
    live = report.reputation
    assert replayed.direct == live.direct
    assert dict(replayed.trade_count) == dict(live.trade_count)
    assert replayed.status == live.status


def test_reputation_traceable_from_chain():
    assert_chain_replays_run(run_scenario(parse_scenario_config(poisson_doc(19))))


def test_reputation_traceable_from_chain_under_load():
    assert_chain_replays_run(inversion_run(True))


# sha256 of every file `rcchain simulate` writes for the example scenario.
# Endorsement and block commitment are FIFO stations and a block's ratings
# are applied when it commits, before its mission follow-ups run, so the
# interleaving of missions, and with it every file but summary.json,
# differs from the run with one independent delay per transaction and
# per block; summary.json's counts came out the same for both seeds.
# reputation.csv's pins moved when direct scores came from one decayed
# state per pair instead of a rescan of its events (rfin by <= 2.2e-16).
EXAMPLE_PINS = {
    None: {
        "ledger.jsonl": "e5f426b1c1de9d0cef67bc9d0c232e7af36f532ee2b70f46ffe84535d2a42f31",
        "missions.csv": "8917129f5f500e5f0e69125cb6e8e723f976eb1e61badc2f864a6b7d0d6b4278",
        "perf.csv": "ba7ce3e2e20ef8a858e2795144e27dfd39144fedb5dfccd051bb67298dff1d36",
        "reputation.csv": "7398fe321ddb2b78799f4f0e8f3cf0d10cf265d61377089641afad2fc1a9b08f",
        "summary.json": "8f466da3d29d4b54b6bb56fa3de268efe61e13c81418529c199a9013c56d4e0c",
        "world_state.json": "4d58222f9f5b81b6df5ac4b4b9b8af2a18c88192fad2d70c4892c26cb4d510c2",
    },
    7: {
        "ledger.jsonl": "bea3d1a400839fe9ce07b08999c47b52b87906f4851a415942488d46c5e6adc8",
        "missions.csv": "f414f62991f3f2b6f0ffddc449dbfa643af7f4aeb5109d3e41e638ef8f7df2d6",
        "perf.csv": "3043edca7775f54ea7c590bccc9ee6a5afe16687c3a3846f0660b2d98d44027c",
        "reputation.csv": "2c5d18983905356215ccd19c73e7d4d20260e33682e0153e5d7988c6a7cb75c8",
        "summary.json": "0b947b677b976bfadd0ce1e90821a2a86b987cc0731cad1e34f9f2367dcd4f9a",
        "world_state.json": "33d35422e2d7516c9f803ff2fff73e7504327e3f7e04f996e9fe5a3994688f19",
    },
}


@pytest.mark.parametrize("seed", list(EXAMPLE_PINS))
def test_example_outputs_pinned(seed, tmp_path):
    doc = Path(__file__).resolve().parent.parent / "docs" / "scenario.example.json"
    argv = ["simulate", "--config", str(doc), "--out", str(tmp_path)]
    assert main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == EXAMPLE_PINS[seed]


def city_doc(seed, mode="TPFS", tpfs=None):
    """A city-sized scripted run: one area, 60 requester+server vehicles
    (6 p_type, switching at mid-run), 3 orgs x 2 peers, 2 RSUs and 400
    missions in 20 minutes at uniform instants, requesters and kinds."""
    rng = random.Random(seed)
    p_type = set(rng.sample(range(60), 6))
    vehicles = [
        {"id": f"veh-{k:03d}", "org": f"org-{k % 3}", "area": "city",
         "roles": ["requester", "server"],
         "profile": ({"kind": "p_type", "switch_at": 10.0, "fake_rate": 1.0}
                     if k in p_type else {"kind": "honest"})}
        for k in range(60)
    ]
    missions = [{"t_min": t, "requester": f"veh-{rng.randrange(60):03d}",
                 "kind": rng.choice(("qa", "data_share"))}
                for t in sorted(rng.uniform(0.0, 20.0) for _ in range(400))]
    return {
        "duration_min": 20.0,
        "seed": rng.randrange(2**32),
        "organizations": [{"name": f"org-{k}", "endorsing_peers": 2} for k in range(3)],
        "rsus": [{"id": "rsu-0", "org": "org-0", "area": "city"},
                 {"id": "rsu-1", "org": "org-1", "area": "city"}],
        "vehicles": vehicles,
        "ordering": {"batch_size": 10, "batch_timeout_s": 2.0, "orderer_count": 3},
        "policy": {"threshold": 1},
        "arrivals": {"kind": "scripted", "missions": missions},
        "mode": mode,
        "tpfs": tpfs or {},
    }


CITY_VARIANTS = {
    "TPFS": {},
    "TP_only": {"mode": "TP_only"},
    "TWSL_like": {"mode": "TWSL_like"},
}


# sha256 of every output file of city_doc per (variant, seed).
CITY_PINS = {
    ("TPFS", 1): {
        "ledger.jsonl": "ff55b1159e33b664225fd0448a136a675a2ade258fde3466a3b02ac1f2b229a8",
        "missions.csv": "40a5ab3c25d1a0aec010be1ba925031fd52d62ad08510a9097e8c5eb15504764",
        "perf.csv": "b920582dda781bca4eada96d99ebafbd77d8bb678d4f2665eea1585bd7b312bc",
        "reputation.csv": "92e2161f8ded6401bd8996364b3f2f628149d8fe427d3bb03152893a659cd529",
        "summary.json": "52a411fe9dbc249c7adaefe70d93d1a5410710425e5ba31402d77c8eb71a96eb",
        "world_state.json": "ea692631bca51fc7a45775df1d0756d4b517fe9ed31347fcb00d4937d1507a6e",
    },
    ("TP_only", 1): {
        "ledger.jsonl": "7b94dd97d68929e87be2d78014ae3d76557067c3434d13692a399c16f18046b3",
        "missions.csv": "8a8a2b36ef739eb5447233c925a1df6cb3770866604d087ef6f7b51a0b5a18ef",
        "perf.csv": "d3ae9e29c8e91967f054494c37e35d005b853e41a6e7da5b77001953bce56a52",
        "reputation.csv": "3ac9833713a68582987c72f75a32b48ad097d281c4aa661390b854722551fcda",
        "summary.json": "6e02eac9dc7330e59f89ffce67962c835e0a37b4892aa8d07fb10c45a68fe4cd",
        "world_state.json": "57e7eb9e43b9638ffa4ce8e181a2a2b641df02194dce83a06771aef55f6e6523",
    },
    ("TWSL_like", 1): {
        "ledger.jsonl": "3a9e3760c9d29639e1a565deed953757df1f0aa33c359bacc08ceb15756c3627",
        "missions.csv": "5c9bbc5ad9a0ca798de23301012ac169a5d57f38c6d4ee4d06febe5b8e226b53",
        "perf.csv": "187f93d24de058de00d1ea4437f83484d56bfef34439e03d440d80370d733306",
        "reputation.csv": "934e284165358ba559a0c8ea5df9690c2e74c94c7b1868b5ec5f78991baa0785",
        "summary.json": "341760a1b848284c6caac83fb3539ae0d9a1b9a4f4dd47ef4b0bc52ff4bc85f8",
        "world_state.json": "0807bb037c6d19ec8f3cc8720f499432619a75e17b9e4c9cb2ada0261439af5f",
    },
    ("TPFS", 2): {
        "ledger.jsonl": "598f571f6cc78e957d8f3c86def8fa9794fd5fb697d26f529ddb90af8b7b7d26",
        "missions.csv": "63767242f7572f48adada5b22fa162930a42a50e6a88a023ebf149adc4e1a9e2",
        "perf.csv": "f94b18db08a090b9f12cac9b8acd4ee48468586ab3936a3efae85a95b779d22e",
        "reputation.csv": "9b6735f6f08cece9f85a5dcfb8d327d55925ae47a1425ad860c94a8f906f0cfb",
        "summary.json": "5b28856d6a0f3f1f68fc85a968d6ce63989588601971a4a21a422ca723809791",
        "world_state.json": "d61ab8d8c7a85038fc5c3ba6cdefce3f24087af63d1d7bdedee52d5c3505aba8",
    },
    ("TP_only", 2): {
        "ledger.jsonl": "b03bf6d5b38b4bba48c1c5cf2faab1f883290a44373cd646dc69ea6ae4a7bc95",
        "missions.csv": "d895c23b5c0597d1d60d7610d7f0d13ef08d6044296cb976ebb012dac65043bb",
        "perf.csv": "742de377138e240090dab7c05e4d31debb86884538fbce4d0d223709af3f8a78",
        "reputation.csv": "228f1d9d0159cb4ce3509f03854df38e0a9ef7f14c8ef67558465f78fa8e4cd5",
        "summary.json": "ef5191e26fcf47781499f9d48a71a3611074cd327815ec730aa572ccc8870994",
        "world_state.json": "f013a46f31c58bb217f77057fe60eb55451adc8fcc5659c811d0a964fe6fa05f",
    },
    ("TWSL_like", 2): {
        "ledger.jsonl": "5526adcf92db843255affe43488170760ce32958791b1980940e7fd954fd9707",
        "missions.csv": "6358e44f529a57da4711958de608fdcc0f4da43879094d774fa1257096e62dba",
        "perf.csv": "36c062440ae88887425912c31d79f9289f9c2f3efd2a564752f9d367036e948c",
        "reputation.csv": "3f175fcea445cf44416225d76835d42973263f17277721044538e36c8379a803",
        "summary.json": "5a46c1346064d167ff4d965a1ffd9bed77441b6b8b88bcabbf09d55ec73d487e",
        "world_state.json": "327a9d37c3b5b6c0404e8431947927152a736da0c1d49d804c35dc242733c799",
    },
}


@pytest.mark.parametrize("variant, seed", list(CITY_PINS))
def test_city_outputs_pinned(variant, seed, monkeypatch):
    """Every output file of a city run is pinned. On most missions an
    old-group score reaches t_service, so selection gets some new-group
    candidates unscored (rfin None)."""
    select, selections = scenario.select_server, {}

    def spy(scored, params, rng):
        selections[id(scored)] = scored  # kept, so no id is reused
        return select(scored, params, rng)

    monkeypatch.setattr(scenario, "select_server", spy)
    report = run_scenario(parse_scenario_config(city_doc(seed, **CITY_VARIANTS[variant])))
    got = {name: hashlib.sha256(text.encode()).hexdigest()
           for name, text in report.output_files().items()}
    assert got == CITY_PINS[(variant, seed)]
    skipped = sum(any(rfin is None for _, rfin, _ in s) for s in selections.values())
    assert skipped > len(selections) / 2


@pytest.mark.parametrize("mode", [m.value for m in ReputationMode])
def test_new_group_is_scored_only_when_selection_reads_it(mode, monkeypatch):
    """Per mission: with an old-group score at or above t_service no
    new-group candidate is scored, without one every candidate is, and
    either way selection picks what it picks, with the same draws, on
    every candidate scored at once."""
    score, select = scenario.score_candidates, scenario.select_server
    calls, mission, cases = [], {}, collections.Counter()

    def scoring(ledger, rater, candidates, mode_, now):
        calls.append(((ledger, rater, mode_, now), list(candidates)))
        return score(ledger, rater, candidates, mode_, now)

    def selecting(scored, params, rng):
        if calls:  # the mission's first selection: it follows its scoring
            ids = [c for c, _, _ in scored]
            (ledger, rater, mode_, now), _ = calls[0]
            mission["eager"] = [(c, rfin, k) for (c, _, k), rfin
                                in zip(scored, score(ledger, rater, ids, mode_, now))]
            mission["scored"] = sorted(c for _, group in calls for c in group)
            calls.clear()
        eager = mission["eager"]
        old = [rfin for _, rfin, k in eager if k >= params.t_trades]
        if any(rfin >= params.t_service for rfin in old):
            cases["skip"] += 1
            assert mission["scored"] == sorted(c for c, _, k in eager if k >= params.t_trades)
            assert all((rfin is None) == (k < params.t_trades) for _, rfin, k in scored)
        else:
            cases["all below" if old else "no old group"] += 1
            assert mission["scored"] == sorted(c for c, _, _ in eager)
            assert scored == eager
        twin = random.Random()
        twin.setstate(rng.getstate())
        got = select(scored, params, rng)
        assert got == select(eager, params, twin)
        assert rng.getstate() == twin.getstate()
        return got

    monkeypatch.setattr(scenario, "score_candidates", scoring)
    monkeypatch.setattr(scenario, "select_server", selecting)
    run_scenario(parse_scenario_config(city_doc(3, mode=mode)))
    assert set(cases) == {"skip", "all below", "no old group"}, cases


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


def compact_reference(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_payloads_are_compact_canonical_json():
    """Every payload on a run's chain, and the mission and rating documents
    that qa_request and reputation_update payloads carry, equal json.dumps
    with sorted keys and compact separators."""
    report = run_scenario(parse_scenario_config(poisson_doc(11)))
    nested = 0
    for blk in report.chain.blocks:
        for tx in blk.txs:
            doc = json.loads(tx.payload)
            assert tx.payload == compact_reference(doc).encode()
            if tx.kind in ("qa_request", "reputation_update"):
                assert doc["state_value"] == compact_reference(json.loads(doc["state_value"]))
                nested += 1
    assert nested > 10
    rater, ratee = 'v"1\\', "v\u00e9\U0001F697"
    rating = {"rater": rater, "ratee": ratee, "positive": False, "t_min": 0.1 + 0.2}
    assert rating_payload(RatingEvent(rater, ratee, False, 0.1 + 0.2), 3) == compact_reference(
        {"state_key": f"rep/{rater}/{ratee}/3", "state_value": compact_reference(rating)}
    ).encode()


# strings a JSON writer must escape exactly as json.dumps does: quotes,
# backslashes, control characters, non-ASCII, U+2028/9, astral code points
AWKWARD_TEXT = ("", 'say "hi"', "back\\slash\\", "ctrl\x00\x01\t\n\r\x1f\x7f\b\f",
                "caf\u00e9/\u8eca", "\u2028\u2029", "\U0001F697 \U00010000\U0010FFFF")
awkward_text = st.one_of(st.sampled_from(AWKWARD_TEXT), st.text())
EDGE_TIMES = (0.0, 5e-324, 0.1 + 0.2, 1e16, 1e22)


def rating_written_by(payload):
    """The rating a reputation_update with this payload writes: the
    chaincode's state value, decoded."""
    _key, _version, value = simulate_execution(payload, {})
    return rating_from_value(value)


def state_reference(key, value_doc):
    return compact_reference({"state_key": key,
                              "state_value": compact_reference(value_doc)}).encode()


@given(rater=awkward_text, ratee=awkward_text, positive=st.booleans(), seq=st.integers(0, 10**9),
       t=st.one_of(st.sampled_from(EDGE_TIMES),
                   st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)))
@settings(deadline=None, max_examples=300)
def test_property_rating_payload_matches_json_dumps_and_round_trips(rater, ratee, positive,
                                                                    seq, t):
    assume(rater != ratee)
    event = RatingEvent(rater, ratee, positive, t)
    payload = rating_payload(event, seq)
    assert payload == state_reference(
        f"rep/{rater}/{ratee}/{seq}",
        {"rater": rater, "ratee": ratee, "positive": positive, "t_min": t})
    assert rating_written_by(payload) == event
    assert rating_payload(rating_written_by(payload), seq) == payload


@pytest.mark.parametrize("t", EDGE_TIMES)
def test_rating_payload_writes_edge_timestamps_as_json_dumps(t):
    payload = rating_payload(RatingEvent('v"1', "v\u2028", True, t), 0)
    assert payload == state_reference(
        "rep/v\"1/v\u2028/0", {"rater": 'v"1', "ratee": "v\u2028", "positive": True, "t_min": t})
    assert rating_written_by(payload).timestamp == t


def test_rating_payload_of_an_int_timestamp_is_the_float_one():
    assert rating_payload(RatingEvent("a", "b", False, 3), 1) == rating_payload(
        RatingEvent("a", "b", False, 3.0), 1)


@given(mission_id=awkward_text, requester=awkward_text, kind=awkward_text)
@settings(deadline=None, max_examples=300)
def test_property_mission_payload_matches_json_dumps(mission_id, requester, kind):
    assert mission_payload(mission_id, requester, kind) == state_reference(
        f"mission/{mission_id}", {"requester": requester, "kind": kind})


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


# Every exit of the mission lifecycle on the example: the engine's policy
# check fails every transaction of one kind, so each mission stops at that
# step. Per kind: (outcome counts, missions with a selected server, missions
# with t_commit_min, trajectory rows, sha256 of repr() of each mission's
# (outcome, selected, t_commit_min)).
LIFECYCLE_EXIT_PINS = {
    None: ({"completed_good": 112, "completed_bad": 9}, 121, 121, 121,
           "c2642b0f165c51d198ae9a06cf0936ca3d09b744f9f67f5b0b524605545e1e06"),
    "qa_request": ({"abandoned": 121}, 0, 0, 0,
                   "51c83fe798818f8fdf6f8a5b2e68a7fdc8351132a60aff971f9848f3b646fc6d"),
    "service_proposal": ({"abandoned": 121}, 121, 0, 0,
                         "23ac4566af2f82ec703f3329f78f90793078d34f9d8fb3a22d15a6e0f783d851"),
    "service_process": ({"abandoned": 60, "completed_good": 54, "completed_bad": 7}, 121, 61, 61,
                        "cf9c8db0b44aa57c8cf25d2bacb71724130c1c242a2c00d2f49e59ed8d752c90"),
    "data_index": ({"completed_good": 62, "abandoned": 59}, 121, 62, 62,
                   "a38f168074264b36cfe90be8196330b0e9bd9050a4113a19843e1a51103f5b9f"),
    "reputation_update": ({"completed_good": 108, "completed_bad": 13}, 121, 0, 0,
                          "da847d4154c5cd43756a99863c7a1a355c34021e67e7bc53237674710cca8995"),
}


@pytest.mark.parametrize("failing", list(LIFECYCLE_EXIT_PINS))
def test_each_lifecycle_step_failing_ends_its_missions_there(failing, monkeypatch):
    passes = scenario.check_policy
    monkeypatch.setattr(scenario, "check_policy",
                        lambda tx, policy: tx.kind != failing and passes(tx, policy))
    report = run_scenario(parse_scenario_config(EXAMPLE))
    rows = [(m.outcome, m.selected, m.t_commit_min) for m in report.missions]
    got = (dict(collections.Counter(m.outcome for m in report.missions)),
           sum(m.selected is not None for m in report.missions),
           sum(m.t_commit_min is not None for m in report.missions),
           len(report.trajectories),
           hashlib.sha256(repr(rows).encode()).hexdigest())
    assert got == LIFECYCLE_EXIT_PINS[failing]


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
    assert report.reputation._feedback("liar", "srv") == -1.0  # every rating negative
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


def test_scripted_missions_are_bounded():
    """A script is queued up front like Poisson arrivals, so it may list
    at most MAX_EXPECTED_MISSIONS missions, as the schema's maxItems says."""
    doc = base_config()
    mission = doc["arrivals"]["missions"][0]
    doc["arrivals"]["missions"] = [mission] * (MAX_EXPECTED_MISSIONS + 1)
    with pytest.raises(ScenarioConfigError, match="arrivals.missions"):
        parse_scenario_config(doc)
    schema = json.loads((Path(__file__).resolve().parent.parent / "docs"
                         / "scenario.schema.json").read_text())
    assert (schema["properties"]["arrivals"]["properties"]["missions"]["maxItems"]
            == MAX_EXPECTED_MISSIONS)


SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "docs"
                     / "scenario.schema.json").read_text())


def schema_keys(schema, path=()):
    """(path, schema) of every key the scenario schema declares; the path
    step "[]" stands for an array's items."""
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,), sub
        yield from schema_keys(sub, path + (key,))
    if "items" in schema:
        yield from schema_keys(schema["items"], path + ("[]",))


def schema_doc():
    """base_config with every key the schema gives a default or a bound
    present, but fake_rate, whose default depends on the profile kind.
    Its last vehicle is a malicious server, so any fake_rate in [0, 1] is
    legal there, and an honest one when its kind is left out."""
    doc = base_config(policy={"required_orgs": ["org1"], "threshold": 1},
                      tpfs={"simf_floor": 1e-6}, mode="TPFS")
    doc["vehicles"][-1]["profile"] = {"kind": "malicious"}
    doc["arrivals"]["rate_per_min"] = 1.0
    return doc


def parent_of(doc, path):
    """The object that holds the key at path; "[]" is an array's last item."""
    for step in path[:-1]:
        doc = doc[-1] if step == "[]" else doc[step]
    return doc


def config_value(cfg, path):
    """The parsed value of the key at path, as JSON writes it."""
    for step in path:
        cfg = cfg[-1] if step == "[]" else getattr(cfg, step)
    return cfg.value if isinstance(cfg, Enum) else list(cfg) if isinstance(cfg, tuple) else cfg


def parser_objects(cls, path=()):
    """(path, field names) of cls and of each config dataclass it holds,
    with schema_keys' path steps."""
    hints = typing.get_type_hints(cls)
    yield path, {f.name for f in dataclasses.fields(cls)}
    for f in dataclasses.fields(cls):
        tp, step = hints[f.name], path + (f.name,)
        if typing.get_origin(tp) is tuple:
            tp, step = typing.get_args(tp)[0], step + ("[]",)
        if dataclasses.is_dataclass(tp):
            yield from parser_objects(tp, step)


def test_schema_and_parser_declare_the_same_keys():
    """Every config object has the same keys in the schema as in the
    dataclass the parser reads it through."""
    objects = [((), SCHEMA), *schema_keys(SCHEMA)]
    objects += [(path + ("[]",), sub["items"]) for path, sub in objects if "items" in sub]
    declared = {path: set(sub["properties"]) for path, sub in objects if "properties" in sub}
    assert declared == dict(parser_objects(scenario.ScenarioConfig))


SCHEMA_DEFAULTS = [(path, sub["default"]) for path, sub in schema_keys(SCHEMA) if "default" in sub]


@pytest.mark.parametrize("path,default", SCHEMA_DEFAULTS,
                         ids=[".".join(path) for path, _ in SCHEMA_DEFAULTS])
def test_schema_defaults_are_the_parsed_defaults(path, default):
    """A document that leaves out a key the schema gives a default parses
    to that default."""
    doc = schema_doc()
    del parent_of(doc, path)[path[-1]]
    assert config_value(parse_scenario_config(doc), path) == default


def bound_cases(sub):
    """(rule, value at the bound, first value past it) of each numeric
    bound in a key's schema; an exclusive bound is itself the first value
    past it, and the first value inside is the one at it."""
    def beyond(bound, direction):  # the next integer or float past bound
        if sub.get("type") == "integer":
            return bound + direction
        return math.nextafter(bound, direction * math.inf)
    if "minimum" in sub:
        yield "minimum", sub["minimum"], beyond(sub["minimum"], -1)
    if "maximum" in sub:
        yield "maximum", sub["maximum"], beyond(sub["maximum"], 1)
    if "exclusiveMinimum" in sub:
        yield "exclusiveMinimum", beyond(sub["exclusiveMinimum"], 1), sub["exclusiveMinimum"]


SCHEMA_BOUNDS = [(path, *case) for path, sub in schema_keys(SCHEMA) for case in bound_cases(sub)]


@pytest.mark.parametrize("path,rule,inside,outside", SCHEMA_BOUNDS,
                         ids=[f"{'.'.join(path)}-{rule}" for path, rule, *_ in SCHEMA_BOUNDS])
def test_schema_bounds_are_the_parsers(path, rule, inside, outside, tmp_path):
    """Each minimum, maximum and exclusiveMinimum in the schema is the
    parser's: the value at the bound parses, the first value past it exits 2."""
    doc = schema_doc()
    parent_of(doc, path)[path[-1]] = inside
    assert config_value(parse_scenario_config(doc), path) == inside
    parent_of(doc, path)[path[-1]] = outside
    with pytest.raises(ScenarioConfigError, match=path[-1]):
        parse_scenario_config(doc)
    config = tmp_path / "past.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "never"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_schema_array_bounds_are_the_parsers():
    """The schema's minItems and maxItems are the parser's. A list of
    MAX_EXPECTED_MISSIONS missions passes the length rule, so the parse
    goes on to its first mission, made invalid here (building a million
    missions takes seconds); one more mission is refused on the length."""
    arrays = {path: sub for path, sub in schema_keys(SCHEMA)
              if "minItems" in sub or "maxItems" in sub}
    assert arrays.keys() == {("policy", "required_orgs"), ("arrivals", "missions")}
    assert arrays[("policy", "required_orgs")]["minItems"] == 1
    doc = schema_doc()
    assert parse_scenario_config(doc).policy.required_orgs == {"org1"}
    doc["policy"]["required_orgs"] = []
    with pytest.raises(ScenarioConfigError, match="required org"):
        parse_scenario_config(doc)
    doc["policy"]["required_orgs"] = ["org1"]

    limit = arrays[("arrivals", "missions")]["maxItems"]
    assert limit == MAX_EXPECTED_MISSIONS
    mission = doc["arrivals"]["missions"][0]
    for count, match in ((limit, "t_min must be >= 0"), (limit + 1, "arrivals.missions")):
        doc["arrivals"]["missions"] = [dict(mission, t_min=-1.0)] + [mission] * (count - 1)
        with pytest.raises(ScenarioConfigError, match=match):
            parse_scenario_config(doc)


def edited(doc, path, value):
    """A deep copy of doc with the value at path (keys and list indices) set."""
    doc = copy.deepcopy(doc)
    target = doc
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return doc


# the rules the parser checks and the schema does not state: all but the
# last span objects, and the missions bound is a product of two keys. Each
# entry is the rule's message and a one-value edit of the example that
# breaks it.
PARSER_ONLY_RULES = {
    "duplicate-org-name": ("duplicate organization names",
                           (("organizations", 1, "name"), "map-company")),
    "unknown-org": ("references unknown org", (("rsus", 0, "org"), "x")),
    "duplicate-agent-id": ("duplicate agent ids", (("rsus", 0, "id"), "car-01")),
    "unknown-crashed-orderer": ("ordering.crashed_orderers names unknown ids",
                                (("ordering", "crashed_orderers"), ["car-01"])),
    "unknown-unreachable-peer": ("faults.unreachable_peers names unknown ids",
                                 (("faults",), {"unreachable_peers": ["map-company/peer2"]})),
    "unknown-policy-org": ("policy.required_orgs names unknown ids",
                           (("policy", "required_orgs"), ["x"])),
    "threshold-above-peers": ("exceeds the 2 endorsing peers", (("policy", "threshold"), 3)),
    "scripted-unknown-vehicle": ("scripted mission references unknown vehicle", (
        ("arrivals",), {"kind": "scripted", "missions": [{"t_min": 1, "requester": "x"}]})),
    "scripted-non-requester": ("cannot act as requester", (
        ("arrivals",), {"kind": "scripted", "missions": [{"t_min": 1, "requester": "taxi-11"}]})),
    "area-without-rsu": ("has requesters but no RSU", (("vehicles", 0, "area"), "x")),
    "expected-missions": ("expects more than", (("arrivals", "rate_per_min"), 1e6)),
}
SCHEMA_VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)


@pytest.mark.parametrize("rule", list(PARSER_ONLY_RULES))
def test_each_parser_only_rule_is_triggered_by_its_example(rule):
    """The example with the rule's edit validates against the schema and is
    refused by the parser with the rule's message, so the list of rules the
    schema leaves out cannot grow silently."""
    message, (path, value) = PARSER_ONLY_RULES[rule]
    doc = edited(EXAMPLE, path, value)
    assert SCHEMA_VALIDATOR.is_valid(doc)
    with pytest.raises(ScenarioConfigError, match=message):
        parse_scenario_config(doc)


@pytest.mark.parametrize("profile,valid", [
    ({"kind": "p_type"}, False),
    ({"kind": "p_type", "switch_at": None}, False),
    ({"kind": "p_type", "switch_at": 10}, True),
    ({"kind": "malicious"}, True),
    ({}, True),
], ids=["p_type-absent", "p_type-null", "p_type-number", "malicious", "no-kind"])
def test_schema_and_parser_agree_that_p_type_needs_switch_at(profile, valid):
    """The schema's if/then on kind states the parser's rule, absent key
    included, which the leaf sweep cannot reach."""
    doc = edited(EXAMPLE, ("vehicles", 3, "profile"), profile)
    assert SCHEMA_VALIDATOR.is_valid(doc) == valid
    try:
        parse_scenario_config(doc)
        parsed = True
    except ScenarioConfigError as err:
        assert "p_type profiles need switch_at" in str(err)
        parsed = False
    assert parsed == valid


def scalar_leaves(doc, path=()):
    """The path of every value in doc that is neither an object nor an array."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from scalar_leaves(value, path + (key,))
    else:
        yield path


SWEEP_VALUES = [0, -1, -0.0, 1e-300, 5e-324, 1e308, 2**63, 10**30, True, False, "x", None, [],
                {}, 0.5, 3]
SWEEP_BUDGET_S = 10.0  # about 0.4 s for the 784 parses and schema checks on a 2-vCPU box


def test_sweep_of_every_example_leaf_parses_or_is_config_error():
    """ROADMAP item 16, first cut: each scalar leaf of the example (list
    members included) set to each value of the pool is parsed in process,
    never run. The parser returns a config or raises ScenarioConfigError,
    never another exception, and its verdict is the schema's but where the
    parser refuses for one of PARSER_ONLY_RULES."""
    start = time.perf_counter()
    leaves = list(scalar_leaves(EXAMPLE))
    assert len(leaves) == 49
    rules = [message for message, _ in PARSER_ONLY_RULES.values()]
    for path in leaves:
        for value in SWEEP_VALUES:
            doc = edited(EXAMPLE, path, value)
            try:
                parse_scenario_config(doc)
                refusal = None
            except ScenarioConfigError as err:
                refusal = str(err)
            if SCHEMA_VALIDATOR.is_valid(doc) != (refusal is None):
                assert refusal is not None, f"{path} = {value!r}: parsed, but the schema refuses"
                assert any(re.search(rule, refusal) for rule in rules), (
                    f"{path} = {value!r}: the schema accepts, the parser says {refusal!r}")
    assert time.perf_counter() - start < SWEEP_BUDGET_S


def test_configs_built_in_code_obey_the_parsers_rules():
    """The range rules live on the config dataclasses, so a config built or
    replaced in code is checked as a parsed one is."""
    cfg = parse_scenario_config(base_config())
    with pytest.raises(ValueError, match="batch_timeout_s"):
        OrderingConfig(batch_timeout_s=-1.0)
    for changes in ({"duration_min": 0}, {"duration_min": math.nan},
                    {"arrivals": ArrivalSpec(rate_per_min=MAX_EXPECTED_MISSIONS)}):
        with pytest.raises(ScenarioConfigError, match=next(iter(changes)).split("_")[0]):
            dataclasses.replace(cfg, **changes)
    for bad in (lambda: OrderingSpec(orderer_count=0),
                lambda: ArrivalSpec(kind="bursty"), lambda: ArrivalSpec(rate_per_min=-1.0),
                lambda: ScriptedMission(-1.0, "v"), lambda: ScriptedMission(1.0, "v", "chat"),
                lambda: VehicleSpec("v", "o", "A", roles=("driver",))):
        with pytest.raises(ScenarioConfigError):
            bad()
    with pytest.raises(ValueError, match="threshold"):
        EndorsementPolicy(frozenset({"org1"}), 0)
    assert BehaviorProfile(kind="malicious").fake_rate == 1.0
    assert BehaviorProfile(kind="p_type", switch_at=1.0).fake_rate == 1.0
    assert BehaviorProfile(kind="untruthful_rater").fake_rate == 0.0
    assert BehaviorProfile().fake_rate == 0.0


CROSS_OBJECT_VIOLATIONS = {
    "no-rsu": (lambda cfg: {"rsus": ()}, "no RSU"),
    "unknown-policy-org": (
        lambda cfg: {"policy": EndorsementPolicy(frozenset({"no-such-org"}))}, "required_orgs"),
    "threshold-above-peers": (
        lambda cfg: {"policy": dataclasses.replace(cfg.policy, threshold=5)}, "threshold"),
    "unknown-crashed-orderer": (
        lambda cfg: {"ordering": dataclasses.replace(
            cfg.ordering, crashed_orderers=frozenset({"rsu-zz"}))}, "crashed_orderers"),
    "unknown-unreachable-peer": (
        lambda cfg: {"faults": FaultSpec(frozenset({"taxi-fleet/peer7"}))}, "unreachable_peers"),
    "scripted-non-requester": (
        lambda cfg: {"arrivals": ArrivalSpec("scripted", missions=(
            ScriptedMission(1.0, "taxi-11"),))}, "cannot act as requester"),
    "duplicate-ids": (
        lambda cfg: {"vehicles": cfg.vehicles + cfg.vehicles[:1]}, "duplicate agent ids"),
}


@pytest.mark.parametrize("case", list(CROSS_OBJECT_VIOLATIONS))
def test_replaced_configs_obey_the_cross_object_rules(case):
    """The rules across objects live on ScenarioConfig, so the example
    replaced in code with one broken reference is refused on construction:
    no RSU used to fail mid-run in randrange, and an unknown policy org or
    an unmeetable threshold abandoned every mission."""
    changes, match = CROSS_OBJECT_VIOLATIONS[case]
    cfg = parse_scenario_config(EXAMPLE)
    with pytest.raises(ScenarioConfigError, match=match):
        dataclasses.replace(cfg, **changes(cfg))


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_restores_the_callers_collector_setting(enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with _gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
        with pytest.raises(KeyError), _gc_paused():
            raise KeyError("body")
        assert gc.isenabled() is enabled
        run_scenario(parse_scenario_config(base_config()))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


STALLED_EXAMPLE = copy.deepcopy(EXAMPLE)
STALLED_EXAMPLE["ordering"]["crashed_orderers"] = ["rsu-a1", "rsu-a2"]
STALLED_EXAMPLE["faults"] = {"unreachable_peers": ["taxi-fleet/peer0", "taxi-fleet/peer1"]}


@pytest.mark.parametrize("doc", [city_doc(1), EXAMPLE, STALLED_EXAMPLE],
                         ids=["city", "example", "stalled-and-unreachable"])
def test_engine_run_leaves_no_cyclic_garbage(doc):
    """The run pauses the cyclic collector; a collection right after it
    finds nothing, so the pause skips only passes that reclaim nothing."""
    engine = scenario._Engine(parse_scenario_config(doc))
    gc.collect()
    engine.run()
    assert gc.collect() == 0
    assert engine.missions


ENGINE_HELD_BYTES_PER_TX = 1778  # tracemalloc: 1,734.5 measured, plus 2.5%


def test_engine_transactions_fit_the_heap_budget():
    """ROADMAP item 14: the example at 200 missions/min for 10 min (7,828
    transactions) holds no more heap per transaction in its report (the
    chain, world state, reputation ledger, missions, trajectory and perf
    records together) than the budget."""
    doc = copy.deepcopy(EXAMPLE)
    doc["arrivals"]["rate_per_min"] = 200
    doc["duration_min"] = 1
    run_scenario(parse_scenario_config(doc))  # first-call allocations are not per-tx
    doc["duration_min"] = 10
    cfg = parse_scenario_config(doc)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_scenario(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_tx = report.summary["transactions"]
    assert n_tx == 7828
    assert held / n_tx <= ENGINE_HELD_BYTES_PER_TX, f"{held / n_tx:.1f} B/tx"
