"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and nothing else that varies,
so the same seed always yields the same inputs. Sizes live in `Sizes`;
`FULL` is what the benchmark measures and `TINY` is what the self-test
uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random

from rcchain.ledger import (
    TX_KINDS,
    CertificateAuthority,
    EndorsementPolicy,
    Identity,
    OrderingConfig,
)
from rcchain.presets import PRESETS
from rcchain.queueing import QueueNetworkConfig
from rcchain.scenario import ScenarioConfig, parse_scenario_config


@dataclass(frozen=True)
class Sizes:
    scenario_minutes: float
    ledger_tx: int
    ledger_batch: int
    des_tx: int


FULL = Sizes(scenario_minutes=20.0, ledger_tx=4_000, ledger_batch=10, des_tx=500_000)
# batch 1 gives a 1,000-tx stream 1,000 blocks, enough per-block samples for a p99
TINY = Sizes(scenario_minutes=2.0, ledger_tx=1_000, ledger_batch=1, des_tx=20_000)


def _sub_seed(rng: Random) -> int:
    return rng.randrange(2**32)


# ---------------------------------------------------------------------------
# scenario-city
# ---------------------------------------------------------------------------

CITY_VEHICLES = 60
CITY_P_TYPE = 6
CITY_ORGS = 3
CITY_MISSIONS_PER_MIN = 20.0


def scenario_city_doc(seed: int, sizes: Sizes) -> dict:
    """One area, 60 requester+server vehicles (6 of them p_type, switching
    at mid-run), 3 orgs x 2 endorsing peers, 2 RSUs, batch 10 with a 2 s
    timeout, TPFS mode.

    Missions arrive as a Poisson process at 20/min conditioned on its
    expected count: exactly 20 * duration arrival instants drawn as
    sorted uniforms, each with a uniform requester and kind. Fixing the
    count keeps the input size the same for every seed.
    """
    rng = Random(seed)
    duration = sizes.scenario_minutes
    orgs = [f"org-{k}" for k in range(CITY_ORGS)]
    p_type = set(rng.sample(range(CITY_VEHICLES), CITY_P_TYPE))
    vehicles = []
    for k in range(CITY_VEHICLES):
        profile = (
            {"kind": "p_type", "switch_at": duration / 2.0, "fake_rate": 1.0}
            if k in p_type else {"kind": "honest"}
        )
        vehicles.append({
            "id": f"veh-{k:03d}", "org": orgs[k % CITY_ORGS], "area": "city",
            "roles": ["requester", "server"], "profile": profile,
        })
    n_missions = round(CITY_MISSIONS_PER_MIN * duration)
    times = sorted(rng.uniform(0.0, duration) for _ in range(n_missions))
    missions = [
        {"t_min": t, "requester": f"veh-{rng.randrange(CITY_VEHICLES):03d}",
         "kind": rng.choice(("qa", "data_share"))}
        for t in times
    ]
    return {
        "duration_min": duration,
        "seed": _sub_seed(rng),
        "organizations": [{"name": o, "endorsing_peers": 2} for o in orgs],
        "rsus": [
            {"id": "rsu-0", "org": orgs[0], "area": "city"},
            {"id": "rsu-1", "org": orgs[1], "area": "city"},
        ],
        "vehicles": vehicles,
        "ordering": {"batch_size": 10, "batch_timeout_s": 2.0, "orderer_count": 3},
        "policy": {"threshold": 1},
        "arrivals": {"kind": "scripted", "missions": missions},
        "mode": "TPFS",
    }


def scenario_city_inputs(seed: int, sizes: Sizes) -> ScenarioConfig:
    return parse_scenario_config(scenario_city_doc(seed, sizes))


# ---------------------------------------------------------------------------
# ledger-contended
# ---------------------------------------------------------------------------

LEDGER_ORGS = 3
LEDGER_PEERS_PER_ORG = 2
LEDGER_CLIENTS = 50
LEDGER_HOT_KEYS = 8
LEDGER_HOT_SHARE = 0.30
LEDGER_ATTACK_SHARE = 0.01   # per attack kind
LEDGER_SPACING_S = 0.01      # 100 tx/s of simulated arrivals

FORGED_SIG = "forged_sig"        # client signature from another client's key
UNDER_ENDORSED = "under_endorsed"  # submitted without every org's endorsement
REPLAY = "replay"                # resubmits an earlier transaction verbatim
ATTACK_REASON = {FORGED_SIG: "signature", UNDER_ENDORSED: "policy", REPLAY: "duplicate"}


@dataclass(frozen=True)
class StreamTx:
    client: int
    kind: str
    payload: bytes
    created_at: float
    nonce: int
    attack: str | None = None
    forger: int = 0       # FORGED_SIG: whose key signs
    replay_of: int = -1   # REPLAY: index of the resubmitted entry


@dataclass(frozen=True)
class LedgerStream:
    peers: tuple[Identity, ...]
    clients: tuple[Identity, ...]
    policy: EndorsementPolicy
    ordering: OrderingConfig
    # peers of every org but the first; endorsing without them under-endorses
    unreachable_for_attack: frozenset[str]
    txs: tuple[StreamTx, ...]

    def expected_attacks(self) -> dict[str, int]:
        counts = {reason: 0 for reason in ATTACK_REASON.values()}
        for tx in self.txs:
            if tx.attack:
                counts[ATTACK_REASON[tx.attack]] += 1
        return counts


def ledger_stream(seed: int, sizes: Sizes) -> LedgerStream:
    """3 orgs x 2 peers, 50 clients, policy: every org, threshold 1.

    30 % of the writes go to 8 hot keys, the rest to fresh keys, so MVCC
    rejects hot writes that share a batch. 1 % of the entries each carry
    a forged client signature, an under-endorsed submission, or a replay
    of an earlier entry, so every commit-time rejection reason that a
    clean audit admits is exercised.
    """
    rng = Random(seed)
    ca = CertificateAuthority()
    orgs = [f"org-{k}" for k in range(LEDGER_ORGS)]
    peers = tuple(
        ca.register(org, "endorsing_peer", f"{org}/peer{p}")
        for org in orgs for p in range(LEDGER_PEERS_PER_ORG)
    )
    clients = tuple(
        ca.register(orgs[c % LEDGER_ORGS], "client", f"client-{c:02d}")
        for c in range(LEDGER_CLIENTS)
    )
    kinds = sorted(TX_KINDS)
    txs: list[StreamTx] = []
    plain: list[int] = []
    for i in range(sizes.ledger_tx):
        draw = rng.random()
        if draw < LEDGER_ATTACK_SHARE and plain:
            original = txs[plain[rng.randrange(len(plain))]]
            txs.append(StreamTx(original.client, original.kind, original.payload,
                                i * LEDGER_SPACING_S, i, REPLAY,
                                replay_of=original.nonce))
            continue
        if rng.random() < LEDGER_HOT_SHARE:
            key = f"hot/{rng.randrange(LEDGER_HOT_KEYS)}"
        else:
            key = f"cold/{i}"
        payload = json.dumps(
            {"state_key": key, "state_value": f"{rng.getrandbits(64):016x}"},
            sort_keys=True, separators=(",", ":"),
        ).encode()
        client = rng.randrange(LEDGER_CLIENTS)
        attack = None
        forger = 0
        if draw < 2 * LEDGER_ATTACK_SHARE:
            attack = FORGED_SIG
            forger = (client + 1 + rng.randrange(LEDGER_CLIENTS - 1)) % LEDGER_CLIENTS
        elif draw < 3 * LEDGER_ATTACK_SHARE:
            attack = UNDER_ENDORSED
        else:
            plain.append(i)
        txs.append(StreamTx(client, kinds[rng.randrange(len(kinds))], payload,
                            i * LEDGER_SPACING_S, i, attack, forger))
    return LedgerStream(
        peers=peers,
        clients=clients,
        policy=EndorsementPolicy(frozenset(orgs), 1),
        ordering=OrderingConfig(batch_size=sizes.ledger_batch, batch_timeout_s=2.0),
        unreachable_for_attack=frozenset(p.id for p in peers if p.org != orgs[0]),
        txs=tuple(txs),
    )


# ---------------------------------------------------------------------------
# des-sweep
# ---------------------------------------------------------------------------

DES_LAMBDA0 = 37.29
DES_BATCHES = (1, 10, 100)
DES_FEEDS = ("stage", "block")


@dataclass(frozen=True)
class DesCase:
    name: str            # e.g. M10.stage
    cfg: QueueNetworkConfig
    feed: str
    n_tx: int
    seed: int


def des_cases(seed: int, sizes: Sizes) -> tuple[DesCase, ...]:
    rng = Random(seed)
    return tuple(
        DesCase(f"M{m}.{feed}", QueueNetworkConfig(lambda0=DES_LAMBDA0, batch_size=m),
                feed, sizes.des_tx, _sub_seed(rng))
        for m in DES_BATCHES for feed in DES_FEEDS
    )


# ---------------------------------------------------------------------------
# presets-all
# ---------------------------------------------------------------------------

def preset_seeds(seed: int) -> dict[str, int]:
    rng = Random(seed)
    return {name: _sub_seed(rng) for name in PRESETS}
