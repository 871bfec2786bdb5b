"""Scripted experiment presets with built-in shape assertions.

Three reputation experiments drive the trust model on fixed interaction
timelines and record trajectories under all three evaluation modes, and
one queueing experiment cross-validates the pipeline simulator against
the closed forms. Every preset is deterministic given its seed and
checks its own qualitative claims (orderings, monotonicity, bands),
reporting them as pass/fail assertions.

Adversary scripts are tuned so the intended mode orderings are strict
where the checks require strictness:

* the timeline's recommender pool contains two colluders that always
  praise the target but serve the observer badly (their confidence
  weight is 0, so trusting them fully can only raise the TWSL_like
  score), and the common-interaction pool contains one two-faced server
  so the observer/target rating profiles already differ before the
  attack starts;
* the sweep's untruthful recommenders flip every third rating, keeping
  their opinion of the subject in the low-positive band where full
  confidence inflates it (full inversion would land in the negative
  band, where zeroing a negative term raises the filtered score
  instead);
* the p-type field pairs three truthful recommenders with two colluders
  of middling service quality, which keeps the filtered indirect score
  positive and the mode ordering strict for the attacker.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .ioutil import csv_text, json_text, write_files
from .ledger import (
    CertificateAuthority,
    ChainLedger,
    EndorsementPolicy,
    endorse,
    export_files,
    propose,
    validate_and_commit,
)
from .pipeline_des import DEVIATION_COLUMNS, STAGE_FEED, deviation_table, simulate_pipeline
from .queueing import QueueNetworkConfig, performance
from .reputation import (
    RatingEvent,
    ReputationLedger,
    ReputationMode,
    Status,
    evaluate_pair,
    status_transition,
)
from .scenario import rating_payload

MODES = (ReputationMode.TPFS, ReputationMode.TP_ONLY, ReputationMode.TWSL_LIKE)


@dataclass(frozen=True)
class PresetAssertion:
    name: str
    passed: bool
    detail: str


@dataclass
class PresetResult:
    name: str
    files: dict[str, str]          # filename -> text
    assertions: list[PresetAssertion]

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.assertions)

    def write_outputs(self, out_dir: str) -> dict[str, str]:
        files = dict(self.files)
        files["assertions.json"] = json_text(
            {
                "preset": self.name,
                "all_passed": self.all_passed,
                "assertions": [
                    {"name": a.name, "passed": a.passed, "detail": a.detail}
                    for a in self.assertions
                ],
            }
        )
        return write_files(out_dir, files)


def _check(assertions: list, name: str, passed: bool, detail: str = "") -> None:
    assertions.append(PresetAssertion(name, bool(passed), detail))


# ---------------------------------------------------------------------------
# shared scripted-rating machinery
# ---------------------------------------------------------------------------

def _record_all(ledger: ReputationLedger, events: list[RatingEvent]) -> None:
    for e in events:
        ledger.record_rating(e)


def _mirror_on_chain(events: list[RatingEvent], seed: int) -> ChainLedger:
    """Commit every scripted rating as a reputation_update transaction on a
    single-org chain, batched; returns the sealed ledger."""
    ca = CertificateAuthority()
    peer = ca.register("consortium", "endorsing_peer", "consortium/peer0")
    client = ca.register("consortium", "client", f"preset-client-{seed}")
    policy = EndorsementPolicy(frozenset({"consortium"}), 1)
    chain = ChainLedger()
    batch = []

    def flush():
        nonlocal batch
        if batch:
            validate_and_commit(chain.next_proposal(batch), chain, policy)
            batch = []

    for seq, e in enumerate(events):
        prop = propose("reputation_update", rating_payload(e, seq), client, e.timestamp,
                       nonce=seq)
        batch.append(endorse(prop, policy, [peer], chain.world_state))
        if len(batch) == 25:
            flush()
    flush()
    return chain


# ---------------------------------------------------------------------------
# reputation timeline (real -> fake -> silent)
# ---------------------------------------------------------------------------

TIMELINE_OBSERVER = "veh-i"
TIMELINE_TARGET = "veh-j"
_TRUTHFUL_RECS = tuple(f"rec-t{k}" for k in range(1, 5))
_COLLUDER_RECS = ("rec-u1", "rec-u2")
_COMMON_SERVERS = tuple(f"srv-q{k}" for k in range(1, 5))


def _timeline_events() -> list[RatingEvent]:
    i, j = TIMELINE_OBSERVER, TIMELINE_TARGET
    events = []
    for t in range(1, 81):
        tf = float(t)
        real = t <= 50
        events.append(RatingEvent(i, j, real, tf))
        for rec in _TRUTHFUL_RECS:
            events.append(RatingEvent(rec, j, real, tf))   # accurate opinion of j
            events.append(RatingEvent(i, rec, True, tf))   # good service to i
        for rec in _COLLUDER_RECS:
            events.append(RatingEvent(rec, j, True, tf))   # always praise j
            events.append(RatingEvent(i, rec, False, tf))  # bad service to i
        for q in _COMMON_SERVERS:
            good_to_i = not (q == "srv-q4" and t % 3 == 0)  # q4 is two-faced
            events.append(RatingEvent(i, q, good_to_i, tf))
            honest_sign = True                              # every q serves j well
            sign = honest_sign if real else not honest_sign  # j lies once malicious
            events.append(RatingEvent(j, q, sign, tf))
    return events


def preset_reputation_timeline(seed: int = 50) -> PresetResult:
    """Minute-by-minute final score of the observer about a target that is
    honest for 50 minutes, sends fakes for 30, then goes silent."""
    i, j = TIMELINE_OBSERVER, TIMELINE_TARGET
    events = _timeline_events()
    ledger = ReputationLedger()
    by_minute = {}
    for e in events:
        by_minute.setdefault(e.timestamp, []).append(e)

    trajectory: dict[ReputationMode, list[float]] = {m: [] for m in MODES}
    statuses: dict[ReputationMode, Status] = {m: Status.NORMAL for m in MODES}
    rows = []
    for t in range(1, 101):
        _record_all(ledger, by_minute.get(float(t), []))
        for mode in MODES:
            rfin = evaluate_pair(ledger, i, j, mode, float(t))
            statuses[mode] = status_transition(statuses[mode], rfin, ledger.params)
            trajectory[mode].append(rfin)
            rows.append((float(t), i, j, mode.value, rfin, statuses[mode].value))

    a = []
    tpfs, tp, twsl = (trajectory[m] for m in MODES)
    _check(a, "minute_50_high_all_modes",
           all(traj[49] >= 0.7 for traj in (tpfs, tp, twsl)),
           f"minute-50 scores {tpfs[49]:.3f}/{tp[49]:.3f}/{twsl[49]:.3f}")
    for name, traj in zip(("TPFS", "TP_only", "TWSL_like"), (tpfs, tp, twsl)):
        decreasing = all(traj[t] < traj[t - 1] for t in range(50, 80))
        _check(a, f"strictly_decreasing_51_80_{name}", decreasing,
               f"fake window drop {traj[49]:.3f} -> {traj[79]:.3f}")
    tol = 1e-9
    _check(a, "pointwise_tpfs_le_twsl_50_100",
           all(tpfs[t] <= twsl[t] + tol for t in range(49, 100)),
           f"max gap {max(tpfs[t] - twsl[t] for t in range(49, 100)):.3g}")
    _check(a, "pointwise_tp_le_twsl_50_100",
           all(tp[t] <= twsl[t] + tol for t in range(49, 100)),
           f"max gap {max(tp[t] - twsl[t] for t in range(49, 100)):.3g}")
    _check(a, "final_mode_ordering",
           tpfs[-1] <= tp[-1] + tol and tp[-1] <= twsl[-1] + tol,
           f"final {tpfs[-1]:.4f} <= {tp[-1]:.4f} <= {twsl[-1]:.4f}")

    chain = _mirror_on_chain(events, seed)
    files = {
        "reputation.csv": csv_text(
            ["time_min", "rater", "ratee", "mode", "rfin", "status"], rows
        ),
        **export_files(chain),
    }
    return PresetResult("reputation-timeline", files, a)


# ---------------------------------------------------------------------------
# neighbor sweep (trust propagation only)
# ---------------------------------------------------------------------------

def preset_neighbor_sweep(seed: int = 60) -> PresetResult:
    """Final score of an unseen subject as the share of truthful
    recommenders sweeps 0..100% in steps of 10 (30 recommenders; the
    observer and subject never interact and share no ratees)."""
    i, j = "veh-i", "veh-j"
    recs = tuple(f"rec-{n:02d}" for n in range(30))
    curves: dict[ReputationMode, list[float]] = {m: [] for m in MODES}
    rows = []
    for k in range(11):
        ledger = ReputationLedger()
        truthful = set(recs[: 3 * k])
        for t in range(1, 61):
            tf = float(t)
            for rec in recs:
                if rec in truthful:
                    ledger.record_rating(RatingEvent(i, rec, True, tf))
                    ledger.record_rating(RatingEvent(rec, j, True, tf))
                else:
                    ledger.record_rating(RatingEvent(i, rec, False, tf))
                    # partial inversion: every third rating flipped
                    ledger.record_rating(RatingEvent(rec, j, t % 3 != 0, tf))
        for mode in MODES:
            rfin = evaluate_pair(ledger, i, j, mode, 60.0)
            curves[mode].append(rfin)
            rows.append((10 * k, mode.value, rfin))

    a = []
    tol = 1e-9
    for mode in MODES:
        c = curves[mode]
        _check(a, f"monotone_nondecreasing_{mode.value}",
               all(c[k + 1] >= c[k] - tol for k in range(10)),
               f"curve {c[0]:.4f} .. {c[-1]:.4f}")
        _check(a, f"max_at_full_truthful_{mode.value}",
               c[-1] >= max(c) - tol, f"end {c[-1]:.4f} max {max(c):.4f}")
    _check(a, "pointwise_tp_family_le_twsl",
           all(
               curves[m][k] <= curves[ReputationMode.TWSL_LIKE][k] + tol
               for m in (ReputationMode.TPFS, ReputationMode.TP_ONLY)
               for k in range(11)
           ),
           "filtered scores never exceed the fully-trusting baseline")
    _check(a, "tpfs_equals_tp_without_common_raters",
           all(abs(curves[ReputationMode.TPFS][k] - curves[ReputationMode.TP_ONLY][k]) < 1e-12
               for k in range(11)),
           "no shared ratees, so similarity never engages")
    files = {"neighbor_sweep.csv": csv_text(["truthful_pct", "mode", "rfin"], rows)}
    return PresetResult("neighbor-sweep", files, a)


# ---------------------------------------------------------------------------
# p-type field (15 servers, one pretender)
# ---------------------------------------------------------------------------

PTYPE_ATTACKER = "srv-01"


def _ptype_events() -> list[RatingEvent]:
    i = "veh-i"
    servers = tuple(f"srv-{k:02d}" for k in range(1, 16))
    truthful = tuple(f"rec-t{k}" for k in range(1, 4))
    colluders = ("rec-u1", "rec-u2")

    def colluder_serves_real(t: int) -> bool:
        return t % 5 >= 2  # 60% real service

    events = []
    for t in range(1, 101):
        tf = float(t)
        for rec in truthful:
            events.append(RatingEvent(i, rec, True, tf))
        for rec in colluders:
            events.append(RatingEvent(i, rec, colluder_serves_real(t), tf))
        for s in servers:
            attacker_lying = s == PTYPE_ATTACKER and t > 50
            serves_real = not attacker_lying
            events.append(RatingEvent(i, s, serves_real, tf))
            for rec in truthful + colluders:
                rec_real = rec in truthful or colluder_serves_real(t)
                # the server rates the recommender's service; the attacker
                # inverts its ratings once it switches
                sign = rec_real if not attacker_lying else not rec_real
                events.append(RatingEvent(s, rec, sign, tf))
                # the recommender rates the server; colluders always praise
                # the attacker, everyone else is accurate
                if rec in colluders and s == PTYPE_ATTACKER:
                    events.append(RatingEvent(rec, s, True, tf))
                else:
                    events.append(RatingEvent(rec, s, serves_real, tf))
    return events


def preset_ptype_field(seed: int = 70) -> PresetResult:
    """Final reputations of 15 servers after 100 interactions; server 1
    builds trust honestly for 50 minutes and then attacks."""
    i = "veh-i"
    servers = tuple(f"srv-{k:02d}" for k in range(1, 16))
    events = _ptype_events()
    ledger = ReputationLedger()
    _record_all(ledger, events)

    field: dict[ReputationMode, dict[str, float]] = {m: {} for m in MODES}
    rows = []
    for s in servers:
        for mode in MODES:
            rfin = evaluate_pair(ledger, i, s, mode, 100.0)
            field[mode][s] = rfin
            rows.append((s, mode.value, rfin))

    a = []
    tpfs = field[ReputationMode.TPFS]
    tp = field[ReputationMode.TP_ONLY]
    twsl = field[ReputationMode.TWSL_LIKE]
    _check(a, "attacker_ranked_lowest_under_tpfs",
           min(tpfs, key=tpfs.get) == PTYPE_ATTACKER,
           f"attacker {tpfs[PTYPE_ATTACKER]:.4f}, next lowest "
           f"{min(v for s, v in tpfs.items() if s != PTYPE_ATTACKER):.4f}")
    _check(a, "attacker_tpfs_below_tp",
           tpfs[PTYPE_ATTACKER] < tp[PTYPE_ATTACKER],
           f"{tpfs[PTYPE_ATTACKER]:.4f} < {tp[PTYPE_ATTACKER]:.4f}")
    _check(a, "attacker_tpfs_below_twsl",
           tpfs[PTYPE_ATTACKER] < twsl[PTYPE_ATTACKER],
           f"{tpfs[PTYPE_ATTACKER]:.4f} < {twsl[PTYPE_ATTACKER]:.4f}")
    _check(a, "attacker_mode_ordering",
           tpfs[PTYPE_ATTACKER] <= tp[PTYPE_ATTACKER] <= twsl[PTYPE_ATTACKER] + 1e-9,
           "filtered <= theta-pinned <= fully trusting")
    honest_gap = max(
        abs(tpfs[s] - twsl[s]) for s in servers if s != PTYPE_ATTACKER
    )
    _check(a, "honest_servers_within_0p1_of_twsl", honest_gap <= 0.1,
           f"max honest gap {honest_gap:.4f}")

    chain = _mirror_on_chain(events, seed)
    files = {
        "ptype_field.csv": csv_text(["vehicle", "mode", "rfin"], rows),
        **export_files(chain),
    }
    return PresetResult("ptype-field", files, a)


# ---------------------------------------------------------------------------
# queueing validation (DES vs closed form)
# ---------------------------------------------------------------------------

def preset_queueing_validation(seed: int = 20260809) -> PresetResult:
    """Poisson arrivals through the pipeline simulator's stage feed, which
    the closed forms describe, tabulated against them; asserts flow-balance
    throughput, the endorsement delay and the confirmation band."""
    cfg = QueueNetworkConfig(lambda0=37.29, batch_size=10)
    n_tx = 300_000
    closed = performance(cfg)
    stats = simulate_pipeline(cfg, n_tx, seed, commit_feed=STAGE_FEED)
    table = deviation_table(cfg, stats)

    a = []
    expected_tput = cfg.q23 * cfg.q01 * cfg.lambda0
    _check(a, "throughput_matches_flow_balance",
           abs(stats.throughput_valid - expected_tput) / expected_tput <= 0.05,
           f"{stats.throughput_valid:.3f} vs {expected_tput:.3f} tx/s")
    _check(a, "endorsement_delay_matches_closed_form",
           abs(stats.d0_mean - closed.delays[0]) / closed.delays[0] <= 0.05,
           f"{stats.d0_mean:.5f} vs {closed.delays[0]:.5f} s")
    _check(a, "confirmation_time_in_band",
           0.28 <= stats.confirmation_mean <= 0.35,
           f"mean confirmation {stats.confirmation_mean:.4f} s")

    files = {
        "deviation.csv": csv_text(
            DEVIATION_COLUMNS,
            [[row[c] for c in DEVIATION_COLUMNS] for row in table],
        ),
        "pipeline_stats.json": json_text(
            {
                "lambda0": cfg.lambda0,
                "batch_size": cfg.batch_size,
                "n_tx": n_tx,
                "seed": seed,
                "n_routed": stats.n_routed,
                "n_valid": stats.n_valid,
                "confirmation_mean_s": stats.confirmation_mean,
                "throughput_valid_tx_s": stats.throughput_valid,
            }
        ),
    }
    return PresetResult("queueing-validation", files, a)


PRESETS: dict[str, Callable[..., PresetResult]] = {
    "reputation-timeline": preset_reputation_timeline,
    "neighbor-sweep": preset_neighbor_sweep,
    "ptype-field": preset_ptype_field,
    "queueing-validation": preset_queueing_validation,
}


def run_preset(name: str, seed: Optional[int] = None) -> PresetResult:
    if name not in PRESETS:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name]() if seed is None else PRESETS[name](seed)
