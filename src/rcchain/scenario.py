"""Seeded scenario engine for the crowdsourcing mission lifecycle.

Drives vehicles, RSUs, and organizations through the full flow:
registration, on-chain request, service offers, reputation-based
candidate nomination by the following RSUs with a random final pick by
the leading RSU, on-chain service and delivery records, requester
feedback, and an on-chain reputation update. Ratings touch the
in-memory reputation ledger only when their reputation_update
transaction commits as valid, so replaying the chain reproduces the
reputation state exactly.

All randomness flows from the scenario seed through one generator
consumed in event order; identical config + seed gives byte-identical
exports.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import json
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from random import Random
from typing import Callable, Optional

from .ioutil import csv_text, json_text, write_files
from .ledger import (
    CertificateAuthority,
    ChainLedger,
    EndorsementPolicy,
    EndorsedTransaction,
    Identity,
    OrderingConfig,
    PendingTx,
    check_policy,
    endorse,
    export_files,
    order_batch,
    propose,
    state_payload,
    validate_and_commit,
)
from .queueing import QueueNetworkConfig
from .reputation import (
    RatingEvent,
    ReputationLedger,
    ReputationMode,
    Status,
    TpfsParams,
    classify_status,
    evaluate_pair,
    select_server,
)

SECONDS_PER_MINUTE = 60.0
MAX_ENDORSING_PEERS = 100  # per organization; the engine registers and asks every one
MAX_EXPECTED_MISSIONS = 1_000_000  # rate_per_min x duration_min; every arrival is queued up front
PROFILE_KINDS = ("honest", "malicious", "p_type", "untruthful_rater")
MISSION_KINDS = ("qa", "data_share")


class ScenarioConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BehaviorProfile:
    kind: str = "honest"
    switch_at: Optional[float] = None  # minutes; p_type flips here
    fake_rate: float = 0.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ScenarioConfigError(f"unknown profile kind {self.kind!r}")
        if not 0.0 <= self.fake_rate <= 1.0:
            raise ScenarioConfigError("fake_rate must be in [0,1]")
        if self.kind == "honest" and self.fake_rate != 0.0:
            raise ScenarioConfigError("honest profiles must have fake_rate 0")
        if self.kind == "p_type" and self.switch_at is None:
            raise ScenarioConfigError("p_type profiles need switch_at")

    def message_is_real(self, t_min: float, rng: Random) -> bool:
        if self.kind == "malicious":
            return rng.random() >= self.fake_rate
        if self.kind == "p_type" and t_min >= self.switch_at:
            return rng.random() >= self.fake_rate
        return True

    def rating_sign(self, honest_sign: bool, rng: Random) -> bool:
        if self.kind == "untruthful_rater" and rng.random() < self.fake_rate:
            return not honest_sign
        return honest_sign


@dataclass(frozen=True)
class OrgSpec:
    name: str
    endorsing_peers: int = 2

    def __post_init__(self):
        if not 1 <= self.endorsing_peers <= MAX_ENDORSING_PEERS:
            raise ScenarioConfigError(f"organization {self.name!r} needs endorsing_peers "
                                      f"in [1, {MAX_ENDORSING_PEERS}]")

    def peer_ids(self) -> list[str]:
        return [f"{self.name}/peer{k}" for k in range(self.endorsing_peers)]


@dataclass(frozen=True)
class RsuSpec:
    id: str
    org: str
    area: str


@dataclass(frozen=True)
class VehicleSpec:
    id: str
    org: str
    area: str
    roles: tuple[str, ...] = ("requester", "server")
    profile: BehaviorProfile = BehaviorProfile()


@dataclass(frozen=True)
class ScriptedMission:
    t_min: float
    requester: str
    kind: str = "qa"


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str = "poisson"                      # or "scripted"
    rate_per_min: float = 1.0
    missions: tuple[ScriptedMission, ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    duration_min: float
    seed: int
    organizations: tuple[OrgSpec, ...]
    rsus: tuple[RsuSpec, ...]
    vehicles: tuple[VehicleSpec, ...]
    tpfs: TpfsParams = TpfsParams()
    ordering: OrderingConfig = OrderingConfig()
    orderer_count: int = 3
    crashed_orderers: frozenset[str] = frozenset()  # RSU ids, down for the whole run
    policy_orgs: tuple[str, ...] = ()          # empty = every organization
    policy_threshold: int = 1
    arrivals: ArrivalSpec = ArrivalSpec()
    mode: ReputationMode = ReputationMode.TPFS
    unreachable_peers: frozenset[str] = frozenset()


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise ScenarioConfigError(f"missing key {key!r} in {where}")
    return doc[key]


def _text(doc: dict, key: str, where: str) -> str:
    value = _require(doc, key, where)
    if not isinstance(value, str):
        raise TypeError(f"{where}.{key} must be a string, got {value!r}")
    return value


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{where} must be an array, got {value!r}")
    return value


def _number(value, where: str, kind=float, minimum=None):
    """A finite JSON number as kind, integral for an int field and at
    least minimum when one is given."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{where} must be a number, got {value!r}")
    try:
        number = kind(value)
        finite = number == value if kind is int else math.isfinite(number)
    except (OverflowError, ValueError):  # NaN or an infinity as int, a huge int as float
        finite = False
    if not finite:
        raise ScenarioConfigError(f"{where} must be a finite {kind.__name__}, got {value!r}")
    if minimum is not None and number < minimum:
        raise ScenarioConfigError(f"{where} must be >= {minimum}, got {value!r}")
    return number


def _known_ids(doc: dict, key: str, known: set[str], where: str) -> frozenset[str]:
    """The ids listed under key, each of which must be in known."""
    ids = frozenset(_array(doc.get(key, []), f"{where}.{key}"))
    if ids - known:
        raise ScenarioConfigError(f"{where}.{key} names unknown ids {sorted(ids - known)}")
    return ids


def _shape_checked(parse):
    """A parser that only reads its document raises these errors only for
    a malformed document; report each as ScenarioConfigError."""
    def checked(*args):
        try:
            return parse(*args)
        except (TypeError, AttributeError, ValueError, OverflowError) as err:
            raise ScenarioConfigError(
                str(err) if isinstance(err, ValueError) else f"malformed config: {err}") from None
    return functools.wraps(parse)(checked)


@_shape_checked
def parse_scenario_config(doc: dict) -> ScenarioConfig:
    """Strict parse: unknown keys anywhere are fatal, referenced ids must
    be declared, and the seed is mandatory."""
    if not isinstance(doc, dict):
        raise ScenarioConfigError("scenario config must be a JSON object")
    _check_keys(
        doc,
        {
            "duration_min", "seed", "organizations", "rsus", "vehicles",
            "tpfs", "ordering", "policy", "arrivals", "mode", "faults",
        },
        "scenario",
    )
    duration = _number(_require(doc, "duration_min", "scenario"), "duration_min")
    if duration <= 0:
        raise ScenarioConfigError("duration_min must be positive")
    seed = _number(_require(doc, "seed", "scenario"), "seed", int)

    orgs = []
    for rec in _array(_require(doc, "organizations", "scenario"), "organizations"):
        _check_keys(rec, {"name", "endorsing_peers"}, "organizations[]")
        orgs.append(OrgSpec(_text(rec, "name", "organizations[]"),
                            _number(rec.get("endorsing_peers", 2), "endorsing_peers", int)))
    org_names = {o.name for o in orgs}
    if len(org_names) != len(orgs):
        raise ScenarioConfigError("duplicate organization names")

    rsus = []
    for rec in _array(doc.get("rsus", []), "rsus"):
        _check_keys(rec, {"id", "org", "area"}, "rsus[]")
        rsu = RsuSpec(*(_text(rec, key, "rsus[]") for key in ("id", "org", "area")))
        if rsu.org not in org_names:
            raise ScenarioConfigError(f"rsu {rsu.id!r} references unknown org")
        rsus.append(rsu)

    vehicles = []
    for rec in _array(doc.get("vehicles", []), "vehicles"):
        _check_keys(rec, {"id", "org", "area", "roles", "profile"}, "vehicles[]")
        vid, org, area = (_text(rec, key, "vehicles[]") for key in ("id", "org", "area"))
        if org not in org_names:
            raise ScenarioConfigError(f"vehicle {vid!r} references unknown org")
        prof_doc = rec.get("profile", {})
        _check_keys(prof_doc, {"kind", "switch_at", "fake_rate"}, "profile")
        kind = prof_doc.get("kind", "honest")
        switch_at = prof_doc.get("switch_at")
        profile = BehaviorProfile(
            kind=kind,
            switch_at=None if switch_at is None else _number(switch_at, "profile.switch_at"),
            fake_rate=_number(
                prof_doc.get("fake_rate", 1.0 if kind in ("malicious", "p_type") else 0.0),
                "profile.fake_rate"),
        )
        roles = tuple(_array(rec.get("roles", ["requester", "server"]), "vehicles[].roles"))
        for role in roles:
            if role not in ("requester", "server", "idler"):
                raise ScenarioConfigError(f"unknown vehicle role {role!r}")
        vehicles.append(VehicleSpec(vid, org, area, roles, profile))
    ids = [v.id for v in vehicles] + [r.id for r in rsus]
    if len(set(ids)) != len(ids):
        raise ScenarioConfigError("duplicate agent ids")

    tpfs_doc = doc.get("tpfs", {})
    kinds = {f.name: {"int": int, "float": float}.get(f.type)
             for f in dataclasses.fields(TpfsParams)}
    _check_keys(tpfs_doc, set(kinds), "tpfs")
    tpfs = TpfsParams(**{key: value if kinds[key] is None else
                         _number(value, f"tpfs.{key}", kinds[key])
                         for key, value in tpfs_doc.items()})

    ord_doc = doc.get("ordering", {})
    _check_keys(
        ord_doc,
        {"batch_size", "batch_timeout_s", "orderer_count", "crashed_orderers"},
        "ordering",
    )
    ordering = OrderingConfig(
        batch_size=_number(ord_doc.get("batch_size", 10), "ordering.batch_size", int),
        batch_timeout_s=_number(ord_doc.get("batch_timeout_s", 2.0),
                                "ordering.batch_timeout_s", minimum=0),
    )
    orderer_count = _number(ord_doc.get("orderer_count", 3), "ordering.orderer_count", int,
                            minimum=1)
    crashed = _known_ids(ord_doc, "crashed_orderers", {r.id for r in rsus}, "ordering")

    pol_doc = doc.get("policy", {})
    _check_keys(pol_doc, {"required_orgs", "threshold"}, "policy")
    policy_orgs = tuple(_array(pol_doc.get("required_orgs", []), "policy.required_orgs"))
    for org in policy_orgs:
        if org not in org_names:
            raise ScenarioConfigError(f"policy references unknown org {org!r}")
    threshold = _number(pol_doc.get("threshold", 1), "policy.threshold", int, minimum=1)
    for o in orgs:
        if (o.name in policy_orgs or not policy_orgs) and threshold > o.endorsing_peers:
            raise ScenarioConfigError(
                f"policy threshold {threshold} exceeds the {o.endorsing_peers} "
                f"endorsing peers of {o.name!r}")

    arr_doc = doc.get("arrivals", {"kind": "poisson", "rate_per_min": 1.0})
    _check_keys(arr_doc, {"kind", "rate_per_min", "missions"}, "arrivals")
    arr_kind = arr_doc.get("kind", "poisson")
    if arr_kind not in ("poisson", "scripted"):
        raise ScenarioConfigError(f"unknown arrival kind {arr_kind!r}")
    missions = []
    vehicle_ids = {v.id for v in vehicles}
    requester_ids = {v.id for v in vehicles if "requester" in v.roles}
    for rec in _array(arr_doc.get("missions", []), "arrivals.missions"):
        _check_keys(rec, {"t_min", "requester", "kind"}, "missions[]")
        m = ScriptedMission(_number(_require(rec, "t_min", "missions[]"), "missions[].t_min",
                                    minimum=0),
                            _require(rec, "requester", "missions[]"), rec.get("kind", "qa"))
        if m.requester not in vehicle_ids:
            raise ScenarioConfigError(f"scripted mission references unknown vehicle {m.requester!r}")
        if m.requester not in requester_ids:
            raise ScenarioConfigError(f"vehicle {m.requester!r} cannot act as requester")
        if m.kind not in MISSION_KINDS:
            raise ScenarioConfigError(f"unknown mission kind {m.kind!r}")
        missions.append(m)
    arrivals = ArrivalSpec(
        kind=arr_kind,
        rate_per_min=_number(arr_doc.get("rate_per_min", 1.0), "arrivals.rate_per_min",
                             minimum=0),
        missions=tuple(sorted(missions, key=lambda m: (m.t_min, m.requester))),
    )
    if arr_kind == "poisson" and arrivals.rate_per_min * duration > MAX_EXPECTED_MISSIONS:
        raise ScenarioConfigError(
            f"arrivals.rate_per_min x duration_min expects more than {MAX_EXPECTED_MISSIONS} "
            f"missions: {arrivals.rate_per_min} x {duration}")

    mode_name = doc.get("mode", "TPFS")
    try:
        mode = ReputationMode(mode_name)
    except ValueError:
        raise ScenarioConfigError(f"unknown reputation mode {mode_name!r}") from None

    faults_doc = doc.get("faults", {})
    _check_keys(faults_doc, {"unreachable_peers"}, "faults")
    unreachable = _known_ids(faults_doc, "unreachable_peers",
                             {pid for o in orgs for pid in o.peer_ids()}, "faults")

    # every area with a requester-capable vehicle needs an RSU
    rsu_areas = {r.area for r in rsus}
    for v in vehicles:
        if "requester" in v.roles and v.area not in rsu_areas:
            raise ScenarioConfigError(f"area {v.area!r} has requesters but no RSU")

    return ScenarioConfig(
        duration_min=duration,
        seed=seed,
        organizations=tuple(orgs),
        rsus=tuple(rsus),
        vehicles=tuple(vehicles),
        tpfs=tpfs,
        ordering=ordering,
        orderer_count=orderer_count,
        crashed_orderers=crashed,
        policy_orgs=policy_orgs,
        policy_threshold=threshold,
        arrivals=arrivals,
        mode=mode,
        unreachable_peers=unreachable,
    )


def load_scenario_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_config(json.load(fh))


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

@dataclass
class MissionRecord:
    mission_id: str
    kind: str
    requester: str
    selected: Optional[str] = None
    outcome: Optional[str] = None       # completed_good / completed_bad / abandoned
    t_request_min: float = 0.0
    t_commit_min: Optional[float] = None
    candidates: tuple[str, ...] = ()


@dataclass(frozen=True)
class PerfRecord:
    tx_id: str
    t_arrive: float
    t_endorsed: float
    t_ordered: float
    t_committed: float
    valid: bool


@dataclass(frozen=True)
class TrajectoryRecord:
    time_min: float
    rater: str
    ratee: str
    mode: str
    rfin: float
    status: str


@dataclass
class RunReport:
    chain: ChainLedger
    reputation: ReputationLedger
    policy: EndorsementPolicy
    ca: CertificateAuthority
    missions: list[MissionRecord]
    perf: list[PerfRecord]
    trajectories: list[TrajectoryRecord]
    summary: dict

    def reputation_csv(self) -> str:
        rows = [
            (t.time_min, t.rater, t.ratee, t.mode, t.rfin, t.status)
            for t in self.trajectories
        ]
        return csv_text(["time_min", "rater", "ratee", "mode", "rfin", "status"], rows)

    def missions_csv(self) -> str:
        rows = [
            (m.mission_id, m.kind, m.requester, m.selected, m.outcome,
             m.t_request_min, m.t_commit_min)
            for m in self.missions
        ]
        return csv_text(
            ["mission_id", "kind", "requester", "selected", "outcome",
             "t_request", "t_commit"],
            rows,
        )

    def perf_csv(self) -> str:
        rows = [
            (p.tx_id, p.t_arrive, p.t_endorsed, p.t_ordered, p.t_committed, p.valid)
            for p in self.perf
        ]
        return csv_text(
            ["tx_id", "t_arrive", "t_endorsed", "t_ordered", "t_committed", "valid"],
            rows,
        )

    def output_files(self) -> dict[str, str]:
        """Every output file of the run, name -> text."""
        return {
            **export_files(self.chain),
            "reputation.csv": self.reputation_csv(),
            "missions.csv": self.missions_csv(),
            "perf.csv": self.perf_csv(),
            "summary.json": json_text(self.summary),
        }

    def write_outputs(self, out_dir: str) -> dict[str, str]:
        return write_files(out_dir, self.output_files())


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------

class _Engine:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.rng = Random(cfg.seed)
        self.now = 0.0  # seconds
        self._events: list = []
        self._seq = 0
        self.ca = CertificateAuthority()
        self.chain = ChainLedger()
        self.reputation = ReputationLedger(cfg.tpfs)
        required = tuple(cfg.policy_orgs) or tuple(o.name for o in cfg.organizations)
        self.policy = EndorsementPolicy(frozenset(required), cfg.policy_threshold)
        self.peers: list[Identity] = []
        self.clients: dict[str, Identity] = {}
        self.vehicle_by_id: dict[str, VehicleSpec] = {v.id: v for v in cfg.vehicles}
        # candidate index, sorted once per run; missions only filter by status
        self.requesters = sorted(v.id for v in cfg.vehicles if "requester" in v.roles)
        self.servers_in: dict[str, list[str]] = defaultdict(list)
        for v in sorted(cfg.vehicles, key=lambda v: v.id):
            if "server" in v.roles:
                self.servers_in[v.area].append(v.id)
        self.rsus_in: dict[str, list[str]] = defaultdict(list)
        for r in sorted(cfg.rsus, key=lambda r: r.id):
            self.rsus_in[r.area].append(r.id)
        self.pending: deque[PendingTx] = deque()
        # faults are fixed for the run: with no orderer majority nothing is cut
        up = cfg.orderer_count - len(cfg.crashed_orderers)
        self.ordering_up = 2 * up > cfg.orderer_count
        self._nonce = 0
        self._rep_seq = 0
        self._tx_meta: dict[str, tuple] = {}
        self.missions: list[MissionRecord] = []
        self.perf: list[PerfRecord] = []
        self.trajectories: list[TrajectoryRecord] = []
        self._register_all()

    # -- registration (lifecycle step 1) --

    def _register_all(self):
        for org in self.cfg.organizations:
            for peer_id in org.peer_ids():
                self.peers.append(self.ca.register(org.name, "endorsing_peer", peer_id))
        for rsu in self.cfg.rsus:
            self.ca.register(rsu.org, "orderer", rsu.id)
        for v in self.cfg.vehicles:
            self.clients[v.id] = self.ca.register(v.org, "client", v.id)

    # -- event loop --

    def schedule(self, t: float, fn: Callable[[], None]):
        heapq.heappush(self._events, (t, self._seq, fn))
        self._seq += 1

    def run(self):
        self._generate_missions()
        while self._events:
            t, _, fn = heapq.heappop(self._events)
            self.now = max(self.now, t)
            fn()

    def _generate_missions(self):
        arr = self.cfg.arrivals
        if arr.kind == "scripted":
            for m in arr.missions:
                self.schedule(
                    m.t_min * SECONDS_PER_MINUTE,
                    lambda m=m: self._start_mission(m.requester, m.kind),
                )
            return
        if not self.requesters or arr.rate_per_min <= 0:
            return
        t_min = 0.0
        while True:
            t_min += self.rng.expovariate(arr.rate_per_min)
            if t_min >= self.cfg.duration_min:
                break
            self.schedule(
                t_min * SECONDS_PER_MINUTE,
                lambda: self._start_mission(None, None),
            )

    # -- transaction submission --

    def _submit(self, kind: str, payload: bytes, client: Identity,
                on_commit: Callable[[bool, float], None]):
        self._nonce += 1
        t_arrive = self.now
        endorse_delay = self.rng.expovariate(QueueNetworkConfig.mu0)
        prop = propose(kind, payload, client, t_arrive, self._nonce)

        def do_endorse():
            tx = endorse(prop, self.policy, self.peers, self.chain.world_state,
                         unreachable=self.cfg.unreachable_peers)
            if not check_policy(tx, self.policy):  # a resubmit would fail the same way
                on_commit(False, self.now)
                return
            self.pending.append(PendingTx(self.now, tx))
            self._tx_meta[tx.tx_id] = (t_arrive, self.now, on_commit)
            self._check_cut()
            # microsecond of slack so float roundoff cannot undershoot the
            # timeout comparison in order_batch
            self.schedule(
                self.now + self.cfg.ordering.batch_timeout_s + 1e-6, self._check_cut
            )

        self.schedule(t_arrive + endorse_delay, do_endorse)

    def _check_cut(self):
        while self.ordering_up and (
                batch := order_batch(self.pending, self.cfg.ordering, self.now)) is not None:
            self._commit_batch(batch)

    def _commit_batch(self, batch: list[EndorsedTransaction]):
        t_ordered = self.now
        commit_delay = self.rng.expovariate(QueueNetworkConfig.mu2)
        t_committed = t_ordered + commit_delay
        block = validate_and_commit(self.chain.next_proposal(batch), self.chain, self.policy)
        for tx, (valid, _reason) in zip(block.txs, block.validity):
            t_arrive, t_endorsed, on_commit = self._tx_meta.pop(tx.tx_id)
            self.perf.append(
                PerfRecord(tx.tx_id, t_arrive, t_endorsed, t_ordered, t_committed, valid)
            )
            self.schedule(t_committed, lambda v=valid, cb=on_commit: cb(v, t_committed))

    # -- mission lifecycle --

    def _start_mission(self, requester: Optional[str], kind: Optional[str]):
        get_status = self.reputation.get_status
        if requester is None:
            eligible = [v for v in self.requesters if get_status(v) is not Status.REVOKED]
            if not eligible:
                return
            requester = eligible[self.rng.randrange(len(eligible))]
        elif get_status(requester) is Status.REVOKED:
            return
        if kind is None:
            kind = MISSION_KINDS[self.rng.randrange(len(MISSION_KINDS))]
        mission = MissionRecord(
            mission_id=f"m{len(self.missions):05d}",
            kind=kind,
            requester=requester,
            t_request_min=self.now / SECONDS_PER_MINUTE,
        )
        self.missions.append(mission)
        self._submit(
            "qa_request",
            state_payload(f"mission/{mission.mission_id}",
                          json.dumps({"requester": requester, "kind": kind}, sort_keys=True,
                                     separators=(",", ":"))),
            self.clients[requester],
            lambda valid, t: self._request_committed(mission, valid),
        )

    def _request_committed(self, mission: MissionRecord, valid: bool):
        if not valid:
            mission.outcome = "abandoned"
            return
        requester_area = self.vehicle_by_id[mission.requester].area
        candidates = tuple(
            v for v in self.servers_in.get(requester_area, ())
            if v != mission.requester and self.reputation.get_status(v) is not Status.REVOKED
        )
        if not candidates:
            mission.outcome = "abandoned"
            return
        mission.candidates = candidates
        now_min = self.now / SECONDS_PER_MINUTE
        scored = [
            (c, evaluate_pair(self.reputation, mission.requester, c, self.cfg.mode, now_min),
             self.reputation.trade_count.get(c, 0))
            for c in mission.candidates
        ]
        area_rsus = self.rsus_in[requester_area]
        followers = area_rsus[1:] or area_rsus[:1]
        nominations = [
            select_server(scored, self.cfg.tpfs, self.rng) for _ in followers
        ]
        selected = nominations[self.rng.randrange(len(nominations))]
        mission.selected = selected
        self._submit(
            "service_proposal",
            state_payload(f"service/{mission.mission_id}", selected),
            self.clients[selected],
            lambda valid, t: self._service_committed(mission, valid),
        )

    def _service_committed(self, mission: MissionRecord, valid: bool):
        if not valid:
            mission.outcome = "abandoned"
            return
        server = self.vehicle_by_id[mission.selected]
        real = server.profile.message_is_real(self.now / SECONDS_PER_MINUTE, self.rng)
        kind = "service_process" if mission.kind == "qa" else "data_index"
        key_prefix = "proc" if mission.kind == "qa" else "index"
        self._submit(
            kind,
            state_payload(f"{key_prefix}/{mission.mission_id}", "delivered"),
            self.clients[mission.selected],
            lambda valid, t: self._delivery_committed(mission, real, valid),
        )

    def _delivery_committed(self, mission: MissionRecord, real: bool, valid: bool):
        if not valid:
            mission.outcome = "abandoned"
            return
        mission.outcome = "completed_good" if real else "completed_bad"
        requester = self.vehicle_by_id[mission.requester]
        sign = requester.profile.rating_sign(real, self.rng)
        self._rep_seq += 1
        event = RatingEvent(mission.requester, mission.selected, sign,
                            self.now / SECONDS_PER_MINUTE)
        self._submit(
            "reputation_update",
            rating_payload(event, self._rep_seq),
            self.clients[mission.requester],
            lambda valid, t: self._reputation_committed(mission, event, valid, t),
        )

    def _reputation_committed(self, mission: MissionRecord, event: RatingEvent,
                              valid: bool, t_committed: float):
        if not valid:
            return
        apply_reputation_update(self.reputation, event, self.cfg.mode, self.trajectories)
        if self.reputation.get_status(event.ratee) is Status.REVOKED:
            self.ca.revoke(event.ratee)  # certificate out, re-registration barred
        mission.t_commit_min = t_committed / SECONDS_PER_MINUTE


def rating_payload(event: RatingEvent, seq: int) -> bytes:
    """Payload of the reputation_update transaction that carries event;
    seq keeps the state keys of one pair's ratings apart."""
    rating = {"rater": event.rater, "ratee": event.ratee,
              "positive": event.positive, "t_min": event.timestamp}
    return state_payload(f"rep/{event.rater}/{event.ratee}/{seq}",
                         json.dumps(rating, sort_keys=True, separators=(",", ":")))


def rating_from_payload(payload: bytes) -> RatingEvent:
    """The rating a reputation_update payload carries; rating_payload's inverse."""
    rating = json.loads(json.loads(payload.decode())["state_value"])
    return RatingEvent(rating["rater"], rating["ratee"], bool(rating["positive"]),
                       float(rating["t_min"]))


def apply_reputation_update(
    ledger: ReputationLedger,
    event: RatingEvent,
    mode: ReputationMode,
    trajectories: Optional[list] = None,
) -> float:
    """Record a committed rating, bump the server's trade count, refresh
    the final score, and step the status machine, all at the rating's own
    timestamp. Shared verbatim by the live engine and the chain replay so
    both derive identical state."""
    now_min = event.timestamp
    ledger.record_rating(event)
    ledger.record_trade(event.ratee)
    rfin = evaluate_pair(ledger, event.rater, event.ratee, mode, now_min)
    status = classify_status(event.ratee, rfin, ledger)
    if trajectories is not None:
        trajectories.append(
            TrajectoryRecord(
                time_min=now_min,
                rater=event.rater,
                ratee=event.ratee,
                mode=mode.value,
                rfin=rfin,
                status=status.value,
            )
        )
    return rfin


def reputation_from_chain(
    chain: ChainLedger, params: TpfsParams, mode: ReputationMode = ReputationMode.TPFS
) -> ReputationLedger:
    """Rebuild the reputation ledger from the committed valid
    reputation_update transactions alone."""
    ledger = ReputationLedger(params)
    for blk in chain.blocks:
        for tx, (valid, _reason) in zip(blk.txs, blk.validity):
            if valid and tx.kind == "reputation_update":
                apply_reputation_update(ledger, rating_from_payload(tx.proposal.payload), mode)
    return ledger


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    engine = _Engine(cfg)
    engine.run()
    missions = engine.missions
    for m in missions:
        if m.outcome is None:  # still in flight when the run drained (e.g. stalled ordering)
            m.outcome = "abandoned"
    outcomes = [m.outcome for m in missions]
    summary = {
        "seed": cfg.seed,
        "duration_min": cfg.duration_min,
        "mode": cfg.mode.value,
        "missions_total": len(missions),
        "completed_good": outcomes.count("completed_good"),
        "completed_bad": outcomes.count("completed_bad"),
        "abandoned": outcomes.count("abandoned"),
        "blocks": engine.chain.tip.number,
        "transactions": sum(len(blk.validity) for blk in engine.chain.blocks),
        "valid_transactions": sum(
            ok for blk in engine.chain.blocks for ok, _ in blk.validity
        ),
        "revoked_vehicles": sorted(
            v for v, s in engine.reputation.status.items() if s is Status.REVOKED
        ),
    }
    return RunReport(
        chain=engine.chain,
        reputation=engine.reputation,
        policy=engine.policy,
        ca=engine.ca,
        missions=missions,
        perf=engine.perf,
        trajectories=engine.trajectories,
        summary=summary,
    )
