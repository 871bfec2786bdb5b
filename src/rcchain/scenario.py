"""Seeded scenario engine for the crowdsourcing mission lifecycle.

Drives vehicles, RSUs, and organizations through the full flow:
registration, on-chain request, service offers, reputation-based
candidate nomination by the following RSUs with a random final pick by
the leading RSU, on-chain service and delivery records, requester
feedback, and an on-chain reputation update. Each mission is one
generator, _Engine._mission, that yields its transactions in turn and
is resumed with each one's commit validity. Endorsement and block
commitment are FIFO stations, so blocks commit in chain order, and
ratings reach the reputation ledger only through apply_block, which
reputation_from_chain loops over: the live state replays the chain.

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
import operator
import sys
import typing
from collections import defaultdict, deque
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from random import Random
from typing import Callable, Generator, NamedTuple, Optional

from .ioutil import _gc_paused, csv_text, json_text, load_json, write_files
from .ledger import (
    Block,
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
    evaluate_pair,
    score_candidates,
    score_groups,
    select_server,
    status_transition,
)

SECONDS_PER_MINUTE = 60.0
MAX_ENDORSING_PEERS = 100  # per organization; the engine registers and asks every one
MAX_EXPECTED_MISSIONS = 1_000_000  # scripted, or rate_per_min x duration_min; all queued up front
PROFILE_KINDS = ("honest", "malicious", "p_type", "untruthful_rater")
MISSION_KINDS = ("qa", "data_share")
VEHICLE_ROLES = ("requester", "server", "idler")


class ScenarioConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BehaviorProfile:
    kind: str = "honest"
    switch_at: Optional[float] = None  # minutes; p_type flips here
    fake_rate: float = None  # unset: 1.0 for malicious and p_type profiles, else 0.0

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ScenarioConfigError(f"unknown profile kind {self.kind!r}")
        if self.fake_rate is None:
            object.__setattr__(self, "fake_rate",
                               1.0 if self.kind in ("malicious", "p_type") else 0.0)
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

    def __post_init__(self):
        for role in self.roles:
            if role not in VEHICLE_ROLES:
                raise ScenarioConfigError(f"unknown vehicle role {role!r}")


@dataclass(frozen=True, slots=True)
class ScriptedMission:
    t_min: float
    requester: str
    kind: str = "qa"

    def __post_init__(self):
        if not self.t_min >= 0:
            raise ScenarioConfigError(f"t_min must be >= 0, got {self.t_min!r}")
        if self.kind not in MISSION_KINDS:
            raise ScenarioConfigError(f"unknown mission kind {self.kind!r}")


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str = "poisson"                      # or "scripted"
    rate_per_min: float = 1.0
    # all queued up front; from_doc refuses a longer list before reading it
    missions: tuple[ScriptedMission, ...] = field(
        default=(), metadata={"max_items": MAX_EXPECTED_MISSIONS})

    def __post_init__(self):
        if self.kind not in ("poisson", "scripted"):
            raise ScenarioConfigError(f"unknown arrival kind {self.kind!r}")
        if not self.rate_per_min >= 0:
            raise ScenarioConfigError(f"rate_per_min must be >= 0, got {self.rate_per_min!r}")


@dataclass(frozen=True)
class OrderingSpec(OrderingConfig):
    """The ordering object: the batch cutter's settings, which order_batch
    reads, and the orderers (RSUs are the orderers)."""
    orderer_count: int = 3
    crashed_orderers: frozenset[str] = frozenset()  # RSU ids, down for the whole run

    def __post_init__(self):
        super().__post_init__()
        if self.orderer_count < 1:
            raise ScenarioConfigError(f"orderer_count must be >= 1, got {self.orderer_count!r}")


@dataclass(frozen=True)
class FaultSpec:
    unreachable_peers: frozenset[str] = frozenset()  # endorsing-peer ids, silent for the whole run


def _known(ids: frozenset[str], known: set[str], where: str) -> None:
    if ids - known:
        raise ScenarioConfigError(f"{where} names unknown ids {sorted(ids - known)}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, one field per key of its JSON document. Construction
    checks the rules across objects: organization names, ids, fault
    targets, the policy, requesters and RSU areas."""
    duration_min: float
    seed: int
    organizations: tuple[OrgSpec, ...]
    policy: EndorsementPolicy
    rsus: tuple[RsuSpec, ...] = ()
    vehicles: tuple[VehicleSpec, ...] = ()
    tpfs: TpfsParams = TpfsParams()
    ordering: OrderingSpec = OrderingSpec()
    arrivals: ArrivalSpec = ArrivalSpec()
    mode: ReputationMode = ReputationMode.TPFS
    faults: FaultSpec = FaultSpec()

    def __post_init__(self):
        if not self.duration_min > 0:
            raise ScenarioConfigError(f"duration_min must be positive, got {self.duration_min!r}")
        rate = self.arrivals.rate_per_min
        if self.arrivals.kind == "poisson" and rate * self.duration_min > MAX_EXPECTED_MISSIONS:
            raise ScenarioConfigError(
                f"arrivals.rate_per_min x duration_min expects more than {MAX_EXPECTED_MISSIONS} "
                f"missions: {rate} x {self.duration_min}")
        orgs, agents = self.organizations, self.rsus + self.vehicles
        org_names = {o.name for o in orgs}
        if len(org_names) != len(orgs):
            raise ScenarioConfigError("duplicate organization names")
        for agent in agents:
            if agent.org not in org_names:
                raise ScenarioConfigError(f"{agent.id!r} references unknown org {agent.org!r}")
        if len({agent.id for agent in agents}) != len(agents):
            raise ScenarioConfigError("duplicate agent ids")
        _known(self.ordering.crashed_orderers, {r.id for r in self.rsus},
               "ordering.crashed_orderers")
        _known(self.faults.unreachable_peers, {pid for o in orgs for pid in o.peer_ids()},
               "faults.unreachable_peers")
        _known(self.policy.required_orgs, org_names, "policy.required_orgs")
        for o in orgs:
            if o.name in self.policy.required_orgs and self.policy.threshold > o.endorsing_peers:
                raise ScenarioConfigError(
                    f"policy threshold {self.policy.threshold} exceeds the {o.endorsing_peers} "
                    f"endorsing peers of {o.name!r}")
        vehicle_ids = {v.id for v in self.vehicles}
        requesters = {v.id for v in self.vehicles if "requester" in v.roles}
        for m in self.arrivals.missions:
            if m.requester not in vehicle_ids:
                raise ScenarioConfigError(
                    f"scripted mission references unknown vehicle {m.requester!r}")
            if m.requester not in requesters:
                raise ScenarioConfigError(f"vehicle {m.requester!r} cannot act as requester")
        rsu_areas = {r.area for r in self.rsus}
        for v in self.vehicles:
            if v.id in requesters and v.area not in rsu_areas:
                raise ScenarioConfigError(f"area {v.area!r} has requesters but no RSU")


def _json(kind: type, name: str) -> Callable:
    """The reader (value, where) of a JSON value that must be a kind."""
    def read(value, where: str):
        if not isinstance(value, kind):
            raise TypeError(f"{where} must be {name}, got {value!r}")
        return value
    return read


_object, _array, _string = (_json(dict, "an object"), _json(list, "an array"),
                            _json(str, "a string"))


def _number(value, where: str, kind=float):
    """A finite JSON number as kind, integral for an int field."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{where} must be a number, got {value!r}")
    try:
        number = kind(value)
        finite = number == value if kind is int else math.isfinite(number)
    except (OverflowError, ValueError):  # NaN or an infinity as int, a huge int as float
        finite = False
    if not finite:
        raise ScenarioConfigError(f"{where} must be a finite {kind.__name__}, got {value!r}")
    return number


def _reader(tp, max_items: Optional[int] = None) -> Callable:
    """The function (value, where) that reads a JSON value as type tp."""
    if tp is float:
        return _number
    if tp is int:
        return lambda value, where: _number(value, where, int)
    if tp is str:
        return _string
    if dataclasses.is_dataclass(tp):
        return functools.partial(from_doc, tp)
    if isinstance(tp, type) and issubclass(tp, Enum):
        def member(value, where):
            try:
                return tp(value)
            except ValueError:
                raise ScenarioConfigError(f"{where} must be one of "
                                          f"{[m.value for m in tp]}, got {value!r}") from None
        return member
    container, (item, *_) = typing.get_origin(tp), typing.get_args(tp)
    read = _reader(item)
    if container is typing.Union:  # Optional[item]
        return lambda value, where: None if value is None else read(value, where)

    def items(value, where):
        values = _array(value, where)
        if max_items is not None and len(values) > max_items:
            raise ScenarioConfigError(f"{where} lists more than {max_items} items: {len(values)}")
        where += "[]"
        return container([read(v, where) for v in values])
    return items


@functools.cache
def _annotation(text: str, module: str):
    """The type a field annotation stored as text names in its module;
    typing.get_type_hints evaluates it the same way, but every time."""
    return eval(text, vars(sys.modules[module]))


@functools.cache
def _fields(cls) -> tuple[dict[str, Callable], tuple[str, ...]]:
    """The reader of each field of a config dataclass, and the names of
    its required fields; built once per class."""
    fields = dataclasses.fields(cls)
    return ({f.name: _reader(_annotation(f.type, cls.__module__), f.metadata.get("max_items"))
             for f in fields},
            tuple(f.name for f in fields if f.default is dataclasses.MISSING))


def from_doc(cls, doc: dict, where: str = "", **given):
    """cls built from the JSON object doc, whose keys are the fields of
    cls less those given: each value is read by its field's annotated
    type, a missing field takes its default, and an unknown key or a
    missing required field is fatal."""
    readers, required = _fields(cls)
    obj = where or "config"
    if not (_object(doc, obj).keys() <= readers.keys() and given.keys().isdisjoint(doc)):
        unknown = (doc.keys() - readers.keys()) | (doc.keys() & given.keys())
        raise ScenarioConfigError(f"unknown keys in {obj}: {sorted(unknown)}")
    for name in required:
        if name not in doc and name not in given:
            raise ScenarioConfigError(f"missing key {name!r} in {obj}")
    for name, value in doc.items():
        given[name] = readers[name](value, f"{where}.{name}" if where else name)
    return cls(**given)


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
    """Strict parse: from_doc reads each JSON object through its
    dataclass, whose construction checks every rule. The one step left
    here needs the organizations' names: policy.required_orgs defaults to
    every declared organization."""
    doc = dict(_object(doc, "config"))
    policy = _object(doc.pop("policy", {}), "policy")  # put back last, read after the orgs
    if "required_orgs" not in policy:
        orgs = _array(doc.get("organizations", []), "organizations")
        policy = {**policy,
                  "required_orgs": [_object(o, "organizations[]").get("name") for o in orgs]}
    return from_doc(ScenarioConfig, {**doc, "policy": policy})


def load_scenario_config(path: str) -> ScenarioConfig:
    return parse_scenario_config(load_json(path))


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------

@dataclass
class MissionRecord:
    """A mission, filled in step by step as its lifecycle runs; the fields
    before candidates are its missions.csv row, under MISSION_COLUMNS."""
    mission_id: str
    kind: str
    requester: str
    selected: Optional[str] = None
    outcome: str = "abandoned"          # until the delivery commits: completed_good / _bad
    t_request_min: float = 0.0
    t_commit_min: Optional[float] = None
    candidates: tuple[str, ...] = ()


# missions.csv's header; t_request and t_commit are in minutes
MISSION_COLUMNS = ("mission_id", "kind", "requester", "selected", "outcome",
                   "t_request", "t_commit")
_mission_row = operator.attrgetter(*(f.name for f in dataclasses.fields(MissionRecord)
                                     [:len(MISSION_COLUMNS)]))


class PerfRecord(NamedTuple):
    """A perf.csv row: one transaction's pipeline instants, in seconds."""
    tx_id: str
    t_arrive: float
    t_endorsed: float
    t_ordered: float
    t_committed: float
    valid: bool


class TrajectoryRecord(NamedTuple):
    """A reputation.csv row: a final score and the status it set."""
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

    def output_files(self) -> dict[str, str]:
        """Every output file of the run, name -> text."""
        return {
            **export_files(self.chain),
            "reputation.csv": csv_text(TrajectoryRecord._fields, self.trajectories),
            "missions.csv": csv_text(MISSION_COLUMNS, map(_mission_row, self.missions)),
            "perf.csv": csv_text(PerfRecord._fields, self.perf),
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
        up = cfg.ordering.orderer_count - len(cfg.ordering.crashed_orderers)
        self.ordering_up = 2 * up > cfg.ordering.orderer_count
        self._nonce = 0
        self._endorse_free = self._commit_free = 0.0  # FIFO stations: instant next free
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
        """Queue the arrivals and process events in time order, with the
        cyclic collector paused: the run only appends acyclic records, which
        a pass would walk again to reclaim nothing."""
        with _gc_paused():
            self._generate_missions()
            while self._events:
                t, _, fn = heapq.heappop(self._events)
                self.now = max(self.now, t)
                fn()

    def _generate_missions(self):
        arr = self.cfg.arrivals
        if arr.kind == "scripted":
            for m in sorted(arr.missions, key=lambda m: (m.t_min, m.requester)):
                self.schedule(m.t_min * SECONDS_PER_MINUTE,
                              lambda m=m: self._advance(self._mission(m.requester, m.kind)))
            return
        if not self.requesters or arr.rate_per_min <= 0:
            return
        t_min = 0.0
        while True:
            t_min += self.rng.expovariate(arr.rate_per_min)
            if t_min >= self.cfg.duration_min:
                break
            self.schedule(t_min * SECONDS_PER_MINUTE,
                          lambda: self._advance(self._mission(None, None)))

    # -- transaction submission --

    def _advance(self, mission: Generator, valid: Optional[bool] = None):
        """Resume mission with its last transaction's commit validity and
        submit the next transaction it yields, if any."""
        try:
            kind, payload, submitter = mission.send(valid)
        except StopIteration:
            return
        self._submit(mission, kind, payload, submitter)

    def _submit(self, mission: Generator, kind: str, payload: bytes, submitter: str):
        self._nonce += 1
        t_arrive = self.now
        self._endorse_free = t_endorsed = (max(t_arrive, self._endorse_free)
                                           + self.rng.expovariate(QueueNetworkConfig.mu0))
        prop = propose(kind, payload, self.clients[submitter], t_arrive, self._nonce)

        def do_endorse():
            tx = endorse(prop, self.cfg.policy, self.peers, self.chain.world_state,
                         unreachable=self.cfg.faults.unreachable_peers)
            if not check_policy(tx, self.cfg.policy):  # a resubmit would fail the same way
                self._advance(mission, False)
                return
            self.pending.append(PendingTx(self.now, tx))
            self._tx_meta[tx.tx_id] = (self.now, mission)
            self._check_cut()
            # microsecond of slack so float roundoff cannot undershoot the
            # timeout comparison in order_batch
            self.schedule(
                self.now + self.cfg.ordering.batch_timeout_s + 1e-6, self._check_cut
            )

        self.schedule(t_endorsed, do_endorse)

    def _check_cut(self):
        while self.ordering_up and (
                batch := order_batch(self.pending, self.cfg.ordering, self.now)) is not None:
            self._commit_batch(batch)

    def _commit_batch(self, batch: list[EndorsedTransaction]):
        t_ordered = self.now
        self._commit_free = t_committed = (max(t_ordered, self._commit_free)
                                           + self.rng.expovariate(QueueNetworkConfig.mu2))
        block = validate_and_commit(self.chain.next_proposal(batch), self.chain, self.cfg.policy)

        def do_commit():  # the block's ratings first, then its missions resume
            apply_block(self.reputation, block, self.cfg.mode, self.trajectories)
            for tx, (valid, _reason) in zip(block.txs, block.validity):
                t_endorsed, mission = self._tx_meta.pop(tx.tx_id)
                self.perf.append(PerfRecord(tx.tx_id, tx.created_at, t_endorsed, t_ordered,
                                            t_committed, valid))
                self._advance(mission, valid)

        self.schedule(t_committed, do_commit)

    # -- mission lifecycle --

    def _mission(self, requester: Optional[str], kind: Optional[str]) -> Generator:
        """One mission from request to reputation update. Yields each
        transaction as (kind, payload, submitter) and is resumed with
        whether it committed valid; an invalid one ends the mission."""
        status = self.reputation.status
        if requester is None:
            eligible = [v for v in self.requesters if status.get(v) is not Status.REVOKED]
            if not eligible:
                return
            requester = eligible[self.rng.randrange(len(eligible))]
        elif status.get(requester) is Status.REVOKED:
            return
        if kind is None:
            kind = MISSION_KINDS[self.rng.randrange(len(MISSION_KINDS))]
        mission_id = f"m{len(self.missions):05d}"
        record = MissionRecord(mission_id, kind, requester,
                               t_request_min=self.now / SECONDS_PER_MINUTE)
        self.missions.append(record)
        if not (yield "qa_request", mission_payload(mission_id, requester, kind), requester):
            return

        area = self.vehicle_by_id[requester].area
        candidates = tuple(v for v in self.servers_in.get(area, ())
                           if v != requester and status.get(v) is not Status.REVOKED)
        if not candidates:
            return
        record.candidates = candidates
        scored = score_groups(score_candidates, self.reputation, requester, candidates,
                              self.cfg.mode, self.now / SECONDS_PER_MINUTE)
        area_rsus = self.rsus_in[area]
        followers = area_rsus[1:] or area_rsus[:1]
        nominations = [select_server(scored, self.cfg.tpfs, self.rng) for _ in followers]
        record.selected = server = nominations[self.rng.randrange(len(nominations))]
        if not (yield "service_proposal",
                state_payload(f"service/{mission_id}", server), server):
            return

        real = self.vehicle_by_id[server].profile.message_is_real(
            self.now / SECONDS_PER_MINUTE, self.rng)
        delivery, key = ("service_process", "proc") if kind == "qa" else ("data_index", "index")
        if not (yield delivery, state_payload(f"{key}/{mission_id}", "delivered"), server):
            return

        record.outcome = "completed_good" if real else "completed_bad"
        sign = self.vehicle_by_id[requester].profile.rating_sign(real, self.rng)
        self._rep_seq += 1
        event = RatingEvent(requester, server, sign, self.now / SECONDS_PER_MINUTE)
        # a valid rating is already applied when this resumes: apply_block runs first
        if not (yield "reputation_update", rating_payload(event, self._rep_seq), requester):
            return
        if status.get(server) is Status.REVOKED:
            self.ca.revoke(server)  # certificate out, re-registration barred
        record.t_commit_min = self.now / SECONDS_PER_MINUTE


def mission_payload(mission_id: str, requester: str, kind: str) -> bytes:
    """Payload of the qa_request transaction that opens a mission; its
    state value is the compact canonical JSON of {kind, requester}."""
    q = encode_basestring_ascii
    return state_payload(f"mission/{mission_id}",
                         f'{{"kind":{q(kind)},"requester":{q(requester)}}}')


def rating_payload(event: RatingEvent, seq: int) -> bytes:
    """Payload of the reputation_update transaction that carries event;
    seq keeps the state keys of one pair's ratings apart. Its state value
    is the compact canonical JSON of {positive, ratee, rater, t_min}."""
    q = encode_basestring_ascii
    rating = (f'{{"positive":{"true" if event.positive else "false"},"ratee":{q(event.ratee)},'
              f'"rater":{q(event.rater)},"t_min":{event.timestamp!r}}}')
    return state_payload(f"rep/{event.rater}/{event.ratee}/{seq}", rating)


def rating_from_value(value: str) -> RatingEvent:
    """The rating a reputation_update writes, decoded from the state value
    that rating_payload encodes."""
    rating = json.loads(value)
    return RatingEvent(rating["rater"], rating["ratee"], rating["positive"], rating["t_min"])


def apply_reputation_update(
    ledger: ReputationLedger,
    event: RatingEvent,
    mode: ReputationMode,
    trajectories: Optional[list] = None,
) -> None:
    """Record a committed rating (which counts the server's trade), refresh
    the final score, and step the server's status, all at the rating's own
    timestamp."""
    now_min, ratee = event.timestamp, event.ratee
    ledger.record_rating(event)
    rfin = evaluate_pair(ledger, event.rater, ratee, mode, now_min)
    status = ledger.status[ratee] = status_transition(
        ledger.status.get(ratee, Status.NORMAL), rfin, ledger.params)
    if trajectories is not None:
        trajectories.append(TrajectoryRecord(now_min, event.rater, ratee, mode.value,
                                             rfin, status.value))


def apply_block(ledger: ReputationLedger, block: Block, mode: ReputationMode,
                trajectories: Optional[list] = None) -> None:
    """Apply a committed block's valid reputation_update ratings in
    transaction order; the engine and the chain replay apply ratings only here."""
    for tx, (valid, _reason) in zip(block.txs, block.validity):
        if valid and tx.kind == "reputation_update":
            apply_reputation_update(ledger, rating_from_value(tx.value), mode, trajectories)


def reputation_from_chain(
    chain: ChainLedger, params: TpfsParams, mode: ReputationMode = ReputationMode.TPFS
) -> ReputationLedger:
    """Rebuild the reputation ledger by applying the chain's blocks in
    order, as the engine did while it ran; the rows apply_block appends on
    the way equal the run's trajectory."""
    ledger = ReputationLedger(params)
    for blk in chain.blocks:
        apply_block(ledger, blk, mode)
    return ledger


def run_scenario(cfg: ScenarioConfig) -> RunReport:
    engine = _Engine(cfg)
    engine.run()
    missions = engine.missions
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
        policy=cfg.policy,
        ca=engine.ca,
        missions=missions,
        perf=engine.perf,
        trajectories=engine.trajectories,
        summary=summary,
    )
