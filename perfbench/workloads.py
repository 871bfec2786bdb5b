"""The four workloads: one pass of each, and the checks on its outputs.

A pass calls only public functions of rcchain. `Clock` times each
phase of a pass; in the traced run it also opens a root span per phase,
and the shims in `spans.py` add child spans for the calls each layer
makes into the next.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from collections import deque
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Callable, Optional

from rcchain.ledger import (
    ChainLedger,
    EndorsementPolicy,
    PendingTx,
    check_policy,
    endorse,
    export_ledger_lines,
    order_batch,
    propose,
    sign,
    validate_and_commit,
    verify_chain,
    verify_export_lines,
)
from rcchain.pipeline_des import deviation_table, simulate_pipeline
from rcchain.presets import run_preset
from rcchain.reputation import ReputationLedger
from rcchain.scenario import ScenarioConfig, reputation_from_chain, run_scenario

from inputs import (
    FORGED_SIG,
    REPLAY,
    UNDER_ENDORSED,
    DesCase,
    LedgerStream,
    Sizes,
    des_cases,
    ledger_stream,
    preset_seeds,
    scenario_city_inputs,
)
from spans import Tracer

# relative deviation from the closed forms allowed at M=10 on the stage
# feed; the acceptance suite's tolerance
DES_TOLERANCE = 0.05
DES_CHECKED = ("D0", "D1", "D2", "H_flow")
INVALID_REASONS = ("signature", "policy", "duplicate", "mvcc_conflict")


class Clock:
    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.phases: dict[str, float] = {}

    def phase(self, name: str) -> "_Phase":
        return _Phase(self, name)


class _Phase:
    def __init__(self, clock: Clock, name: str):
        self.clock = clock
        self.name = name

    def __enter__(self):
        tracer = self.clock.tracer
        self.span = tracer.open(tracer.name_id(self.name)) if tracer else None
        self.t0 = perf_counter()

    def __exit__(self, *exc):
        elapsed = perf_counter() - self.t0
        if self.span is not None:
            self.clock.tracer.close(self.span)
        phases = self.clock.phases
        phases[self.name] = phases.get(self.name, 0.0) + elapsed
        return False


@dataclass
class PassResult:
    phases: dict[str, float]
    work: int                 # units behind tx_per_s
    rate_phases: tuple[str, ...]  # phases whose time tx_per_s divides by
    fingerprint: str          # digest of the outputs; equal across passes
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    kernels: tuple[float, ...] = ()  # calibration kernel times around the pass

    @property
    def wall_s(self) -> float:
        return sum(self.phases.values())

    @property
    def tx_per_s(self) -> float:
        return self.work / sum(self.phases[p] for p in self.rate_phases)


def _digest_files(paths: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(paths):
        h.update(name.encode())
        with open(paths[name], "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# checks: each returns a list of failure descriptions, empty when clean
# ---------------------------------------------------------------------------

def check_chain(chain: ChainLedger, policy: EndorsementPolicy) -> list[str]:
    bad = verify_chain(chain, policy)
    return [] if bad is None else [f"verify_chain flags block {bad}"]


def check_replay(live: ReputationLedger, replayed: ReputationLedger) -> list[str]:
    out = []
    if replayed.direct != live.direct:
        out.append("reputation_from_chain does not reproduce the live direct scores")
    if replayed.status != live.status:
        out.append("reputation_from_chain does not reproduce the live statuses")
    return out


def invalid_counts(chain: ChainLedger) -> tuple[int, int, dict[str, int]]:
    """(transactions, valid, invalid count per reason) over the chain."""
    total = valid = 0
    reasons: dict[str, int] = {}
    for blk in chain.blocks:
        for ok, reason in blk.validity:
            total += 1
            if ok:
                valid += 1
            else:
                reasons[reason] = reasons.get(reason, 0) + 1
    return total, valid, reasons


def check_ledger_counts(stream: LedgerStream, chain: ChainLedger) -> list[str]:
    total, valid, reasons = invalid_counts(chain)
    out = []
    if total != len(stream.txs) or valid + sum(reasons.values()) != len(stream.txs):
        out.append(f"{total} transactions on chain, {valid} valid + "
                   f"{sum(reasons.values())} invalid, {len(stream.txs)} attempted")
    unknown = set(reasons) - set(INVALID_REASONS)
    if unknown:
        out.append(f"unexpected rejection reasons {sorted(unknown)}")
    for reason, expected in stream.expected_attacks().items():
        if reasons.get(reason, 0) != expected:
            out.append(f"{reasons.get(reason, 0)} {reason} rejections, "
                       f"{expected} injected")
    # every valid transaction writes one key once
    versions = sum(version for _, version in chain.world_state.values())
    if versions != valid:
        out.append(f"world-state versions add up to {versions}, {valid} valid writes")
    return out


def check_export(lines: list[str]) -> list[str]:
    bad = verify_export_lines(lines)
    return [] if bad is None else [f"verify_export_lines flags block {bad}"]


def check_des(rows: list[dict]) -> list[str]:
    return [
        f"{r['metric']} deviates {r['rel_deviation']:.4f} from its closed form"
        for r in rows
        if r["metric"] in DES_CHECKED and not r["rel_deviation"] <= DES_TOLERANCE
    ]


def check_preset(result) -> list[str]:
    return [f"{result.name}: assertion {a.name} failed ({a.detail})"
            for a in result.assertions if not a.passed]


# ---------------------------------------------------------------------------
# scenario-city
# ---------------------------------------------------------------------------

def scenario_city_pass(cfg: ScenarioConfig, out_root: str, clock: Clock) -> PassResult:
    with clock.phase("scenario.run"):
        report = run_scenario(cfg)
    with clock.phase("scenario.audit"):
        failures = check_chain(report.chain, report.policy)
    with clock.phase("scenario.replay"):
        replayed = reputation_from_chain(report.chain, cfg.tpfs, cfg.mode)
    out = tempfile.mkdtemp(prefix="scenario-", dir=out_root)
    try:
        with clock.phase("scenario.write_outputs"):
            paths = report.write_outputs(out)
        fingerprint = _digest_files(paths)
    finally:
        shutil.rmtree(out)
    tx, valid, reasons = invalid_counts(report.chain)
    return PassResult(
        phases=clock.phases,
        work=tx,
        rate_phases=("scenario.run",),
        fingerprint=fingerprint,
        failures=failures + check_replay(report.reputation, replayed),
        facts={
            "tx": tx,
            "valid": valid,
            "invalid": reasons,
            "missions": report.summary["missions_total"],
            "abandoned": report.summary["abandoned"],
            "blocks": report.summary["blocks"],
        },
    )


# ---------------------------------------------------------------------------
# ledger-contended
# ---------------------------------------------------------------------------

def run_stream(stream: LedgerStream) -> tuple[ChainLedger, list[str]]:
    """Push every entry through propose -> endorse -> check_policy ->
    order_batch -> validate_and_commit, then cut what is left."""
    chain = ChainLedger()
    pending: deque[PendingTx] = deque()
    submitted = []
    failures = []
    policy, ordering, clients = stream.policy, stream.ordering, stream.clients
    now = 0.0
    for entry in stream.txs:
        now = entry.created_at
        if entry.attack == REPLAY:
            tx = submitted[entry.replay_of]
        else:
            prop = propose(entry.kind, entry.payload, clients[entry.client],
                           entry.created_at, entry.nonce)
            if entry.attack == FORGED_SIG:
                prop = replace(prop, client_sig=sign(clients[entry.forger],
                                                      prop.tx_id.encode()))
            under = entry.attack == UNDER_ENDORSED
            tx = endorse(prop, policy, stream.peers, chain.world_state,
                         unreachable=stream.unreachable_for_attack if under else frozenset())
            if check_policy(tx, policy) == under:
                failures.append(f"check_policy gave {not under} for entry {entry.nonce}")
        submitted.append(tx)
        pending.append(PendingTx(now, tx))
        while (batch := order_batch(pending, ordering, now)) is not None:
            validate_and_commit(chain.next_proposal(batch), chain, policy)
    now += ordering.batch_timeout_s
    while (batch := order_batch(pending, ordering, now)) is not None:
        validate_and_commit(chain.next_proposal(batch), chain, policy)
    if pending:
        failures.append(f"{len(pending)} transactions never cut into a block")
    return chain, failures


def ledger_contended_pass(stream: LedgerStream, out_root: str, clock: Clock) -> PassResult:
    with clock.phase("ledger.stream"):
        chain, failures = run_stream(stream)
    with clock.phase("ledger.audit"):
        failures += check_chain(chain, stream.policy)
    with clock.phase("ledger.export"):
        failures += check_export(export_ledger_lines(chain))
    tx, valid, reasons = invalid_counts(chain)
    return PassResult(
        phases=clock.phases,
        work=len(stream.txs),
        rate_phases=("ledger.stream",),
        fingerprint=chain.tip.header().hex(),
        failures=failures + check_ledger_counts(stream, chain),
        facts={"tx": tx, "valid": valid, "invalid": reasons,
               "blocks": chain.tip.number, "batch_size": stream.ordering.batch_size},
    )


# ---------------------------------------------------------------------------
# des-sweep
# ---------------------------------------------------------------------------

def des_sweep_pass(cases: tuple[DesCase, ...], out_root: str, clock: Clock) -> PassResult:
    failures = []
    stats_all = []
    deviations = {}
    for case in cases:
        with clock.phase(f"pipeline_des.{case.name}"):
            stats = simulate_pipeline(case.cfg, case.n_tx, case.seed, commit_feed=case.feed)
        with clock.phase("pipeline_des.deviation_table"):
            rows = deviation_table(case.cfg, stats)
        stats_all.append(stats)
        if case.name == "M10.stage":
            failures += check_des(rows)
            deviations = {r["metric"]: r["rel_deviation"] for r in rows}
    return PassResult(
        phases=clock.phases,
        work=sum(c.n_tx for c in cases),
        rate_phases=tuple(f"pipeline_des.{c.name}" for c in cases),
        fingerprint=hashlib.sha256(repr(stats_all).encode()).hexdigest(),
        failures=failures,
        facts={"deviation": deviations, "n_tx": {c.name: c.n_tx for c in cases}},
    )


# ---------------------------------------------------------------------------
# presets-all
# ---------------------------------------------------------------------------

def presets_all_pass(seeds: dict[str, int], out_root: str, clock: Clock) -> PassResult:
    failures = []
    digests = []
    chain_tx = 0
    out = tempfile.mkdtemp(prefix="presets-", dir=out_root)
    try:
        for name, seed in seeds.items():
            with clock.phase(f"presets.{name}"):
                result = run_preset(name, seed=seed)
            with clock.phase("presets.write_outputs"):
                paths = result.write_outputs(os.path.join(out, name))
            failures += check_preset(result)
            digests.append(_digest_files(paths))
            ledger_text = result.files.get("ledger.jsonl")
            if ledger_text is not None:
                lines = ledger_text.splitlines()
                failures += check_export(lines)
                chain_tx += sum(line.count('"tx_id"') for line in lines)
    finally:
        shutil.rmtree(out)
    return PassResult(
        phases=clock.phases,
        work=chain_tx,
        rate_phases=tuple(f"presets.{n}" for n in seeds),
        fingerprint=hashlib.sha256("".join(digests).encode()).hexdigest(),
        failures=failures,
        facts={"chain_tx": chain_tx},
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int, Sizes], object]
    run_pass: Callable[[object, str, Clock], PassResult]
    # traced passes pooled in the traced run; three ledger passes give the
    # per-block commit times enough samples for a p99
    traced_passes: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("scenario-city", scenario_city_inputs, scenario_city_pass),
        Workload("ledger-contended", ledger_stream, ledger_contended_pass, traced_passes=3),
        Workload("des-sweep", des_cases, des_sweep_pass),
        Workload("presets-all", lambda seed, sizes: preset_seeds(seed), presets_all_pass),
    )
}

# what the traced run wraps: the names the scenario module and this
# module import from the ledger and reputation modules, plus the
# reputation ledger's direct_score
def shim_targets():
    import rcchain.scenario as scenario
    this = sys.modules[__name__]
    return (
        [(scenario, n) for n in (
            "evaluate_pair", "apply_reputation_update", "select_server", "propose",
            "endorse", "check_policy", "order_batch", "validate_and_commit")]
        + [(this, n) for n in (
            "propose", "endorse", "check_policy", "order_batch", "validate_and_commit")]
        + [(ReputationLedger, "direct_score")]
    )
