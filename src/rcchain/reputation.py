"""Reputation scoring for a vehicular crowdsourcing consortium.

Implements the TPFS trust model: confidence-weighted aggregation of
neighbor recommendations into an indirect score, rating-profile
similarity between two vehicles over the peers both have rated, and the
blended final score. Also houses the decayed pairwise direct-reputation
estimator, the warning/revocation status machine, and the two-group
fair server selection used by RSUs.

Two reduced variants of the model are kept for comparison runs:
``TP_only`` (no feedback similarity; local confidence pinned at theta)
and ``TWSL_like`` (additionally trusts every recommender fully).

Each formula is one function on plain values: recommendations are
``(r_ij, r_jf)`` score pairs, rating profiles are ``(alpha, beta)``
counts and server candidates are ``(vehicle, rfin, trade_count)``
tuples. A function that takes a ledger reads its params from
``ledger.params``; only the functions without a ledger take ``params``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from random import Random
from statistics import pstdev
from typing import Iterable, Optional

VehicleId = str
_NONE: frozenset = frozenset()  # what a vehicle with no ratings has rated or been rated by

UNIFORM = "uniform"
DEVIATION = "deviation"


class ReputationMode(Enum):
    TPFS = "TPFS"
    TP_ONLY = "TP_only"
    TWSL_LIKE = "TWSL_like"


class Status(Enum):
    NORMAL = "normal"
    WARNING = "warning"
    REVOKED = "revoked"


@dataclass(frozen=True)
class TpfsParams:
    """Model thresholds and weights; all config-overridable.

    t_low/t_high bound the recommender-confidence bands, t_service and
    t_revoke drive status marking, t_trades splits servers into the
    new/old groups, q_select is the old-group selection probability.
    gamma/eta/theta are the no-history local weights, simf_floor clamps
    similarity away from the confidence blow-up, decay_per_minute and
    negative_penalty shape the direct-reputation estimator.
    """

    t_low: float = 0.4
    t_high: float = 0.8
    t_service: float = 0.4
    t_revoke: float = 0.2
    t_trades: int = 5
    q_select: float = 0.7
    gamma: float = 0.2
    eta: float = 0.2
    theta: float = 0.7
    simf_floor: float = 1e-6
    decay_per_minute: float = 0.98
    negative_penalty: float = 2.0
    similarity_weighting: str = UNIFORM

    def __post_init__(self):
        if not 0.0 <= self.t_low < self.t_high <= 1.0:
            raise ValueError("need 0 <= t_low < t_high <= 1")
        if not 0.0 <= self.t_revoke <= self.t_service <= 1.0:
            raise ValueError("need 0 <= t_revoke <= t_service <= 1")
        if self.t_trades < 0:
            raise ValueError("t_trades must be >= 0")
        for name in ("q_select", "gamma", "eta", "theta"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if not 0.0 < self.simf_floor <= 1.0:
            raise ValueError("simf_floor must be in (0,1]")
        if not 0.0 < self.decay_per_minute <= 1.0:
            raise ValueError("decay_per_minute must be in (0,1]")
        if self.negative_penalty < 1.0:
            raise ValueError("negative_penalty must be >= 1")
        if self.similarity_weighting not in (UNIFORM, DEVIATION):
            raise ValueError(f"unknown similarity weighting {self.similarity_weighting!r}")


@dataclass(frozen=True)
class RatingEvent:
    rater: VehicleId
    ratee: VehicleId
    positive: bool
    timestamp: float  # minutes since scenario start

    def __post_init__(self):
        if self.rater == self.ratee:
            raise ValueError("a vehicle cannot rate itself")
        if self.timestamp < 0:
            raise ValueError("timestamp must be >= 0")


class ReputationLedger:
    """Append-only rating history with derived per-pair scores.

    Pairs with no history score 0.5. Revocation is absorbing: once a
    vehicle is revoked its status never changes back, though ratings
    about it are still recorded.
    """

    def __init__(self, params: TpfsParams | None = None):
        self.params = params or TpfsParams()
        self.direct: dict[tuple[VehicleId, VehicleId], float] = {}
        self.trade_count: dict[VehicleId, int] = defaultdict(int)
        self.status: dict[VehicleId, Status] = {}
        self._pair_events: dict[tuple[VehicleId, VehicleId], list[RatingEvent]] = defaultdict(list)
        self._positives: dict[tuple[VehicleId, VehicleId], int] = defaultdict(int)
        self._rated_by: dict[VehicleId, set[VehicleId]] = defaultdict(set)
        self._raters_of: dict[VehicleId, set[VehicleId]] = defaultdict(set)

    def has_interaction(self, rater: VehicleId, ratee: VehicleId) -> bool:
        return (rater, ratee) in self._pair_events

    def pair_events(self, rater: VehicleId, ratee: VehicleId) -> list[RatingEvent]:
        return self._pair_events.get((rater, ratee), [])

    def common_ratees(self, i: VehicleId, j: VehicleId) -> set[VehicleId]:
        return self._rated_by.get(i, _NONE) & self._rated_by.get(j, _NONE)

    def raters_of(self, q: VehicleId) -> set[VehicleId]:
        return self._raters_of.get(q, _NONE)

    def _feedback(self, rater: VehicleId, ratee: VehicleId) -> float:
        """feedback_score of the pair's rating counts, read in O(1)."""
        pos = self._positives[(rater, ratee)]
        return feedback_score(pos, len(self._pair_events[(rater, ratee)]) - pos)

    def direct_score(self, rater: VehicleId, ratee: VehicleId, now: float | None = None) -> float:
        events = self._pair_events.get((rater, ratee))
        if not events:
            return 0.5
        if now is None:
            now = events[-1].timestamp
        return self._score_events(events, now)

    def _score_events(self, events, now):
        decay = self.params.decay_per_minute
        alpha_eff = 0.0
        beta_eff = 0.0
        for e in events:
            w = decay ** (now - e.timestamp)
            if e.positive:
                alpha_eff += w
            else:
                beta_eff += w
        return (alpha_eff + 1.0) / (
            alpha_eff + self.params.negative_penalty * beta_eff + 2.0
        )

    def record_rating(self, event: RatingEvent) -> None:
        """Append a rating and refresh the pair's direct score at the
        rating's own timestamp."""
        pair = (event.rater, event.ratee)
        prior = self._pair_events.get(pair)
        if prior and event.timestamp < prior[-1].timestamp:
            raise ValueError("ratings for a pair must be appended in time order")
        self._pair_events[pair].append(event)
        self._positives[pair] += event.positive
        self._rated_by[event.rater].add(event.ratee)
        self._raters_of[event.ratee].add(event.rater)
        self.direct[pair] = self._score_events(self._pair_events[pair], event.timestamp)

    def record_trade(self, vehicle: VehicleId) -> None:
        self.trade_count[vehicle] += 1

    def get_status(self, vehicle: VehicleId) -> Status:
        return self.status.get(vehicle, Status.NORMAL)


def recommended_confidence(r_ij: float, params: TpfsParams) -> float:
    """Three-band confidence in a recommender: 0 below t_low, 0.8 in the
    middle band (both boundaries included), 1 above t_high."""
    if not 0.0 <= r_ij <= 1.0:
        raise ValueError(f"reputation {r_ij} out of [0,1]")
    if r_ij < params.t_low:
        return 0.0
    if r_ij > params.t_high:
        return 1.0
    return 0.8


def indirect_reputation(
    scores: Iterable[tuple[float, float]],
    params: TpfsParams,
    *,
    force_full_confidence: bool = False,
) -> Optional[float]:
    """Confidence-weighted blend of positive and negative recommendations.

    Each recommendation is a pair (r_ij, r_jf): the evaluator's score for
    the recommender and the recommender's score for the subject, both in
    [0,1]. Pairs with r_jf above t_low are positive, the rest (boundary
    included) negative. Each class aggregates C * r_ij * r_jf averaged
    over its members, the classes are weighted by their share of the
    pair count, and the result is clamped to [0,1]; None when there are
    no recommendations.
    """
    positive = []
    negative = []
    t_low = params.t_low
    for r_ij, r_jf in scores:
        if not (0.0 <= r_ij <= 1.0 and 0.0 <= r_jf <= 1.0):
            raise ValueError("opinion scores must be in [0,1]")
        conf = 1.0 if force_full_confidence else recommended_confidence(r_ij, params)
        (positive if r_jf > t_low else negative).append(conf * r_ij * r_jf)
    a, b = len(positive), len(negative)
    if not a + b:
        return None
    p = sum(positive) / a if a else 0.0
    n = sum(negative) / b if b else 0.0
    c = a / (a + b)
    d = b / (a + b)
    return min(1.0, max(0.0, c * p - d * n))


def feedback_score(alpha: int, beta: int) -> float:
    """Rating tendency in [-1,1] of alpha positive and beta negative
    ratings: (alpha^2 - beta^2) / (alpha+beta)^2."""
    total = alpha + beta
    if total == 0:
        raise ValueError("no common history")
    return (alpha**2 - beta**2) / total**2


def feedback_similarity(
    i: VehicleId,
    j: VehicleId,
    ledger: ReputationLedger,
) -> Optional[float]:
    """Weighted-Euclidean similarity of the two vehicles' rating profiles
    over the peers both have rated; None when they share no ratees.

    Uniform ledger.params.similarity_weighting spreads weight equally;
    deviation uses the population std of each shared ratee's received
    feedback scores, normalized (falling back to uniform when all stds
    are zero).
    """
    params = ledger.params
    common = sorted(ledger.common_ratees(i, j))
    if not common:
        return None
    if params.similarity_weighting == DEVIATION:
        raw = []
        for q in common:
            scores = [ledger._feedback(v, q) for v in sorted(ledger.raters_of(q))]
            raw.append(pstdev(scores) if len(scores) > 1 else 0.0)
        total = sum(raw)
        weights = [w / total for w in raw] if total > 0 else [1.0 / len(common)] * len(common)
    else:
        weights = [1.0 / len(common)] * len(common)
    dispersion = 0.0
    for q, w in zip(common, weights):
        diff = ledger._feedback(i, q) - ledger._feedback(j, q)
        dispersion += w * diff * diff
    return max(params.simf_floor, 1.0 - math.sqrt(dispersion))


def local_confidence(simf: float, params: TpfsParams) -> float:
    """exp(1 - 1/simf): 1 at perfect similarity, vanishing near the floor."""
    if simf > 1.0 + 1e-12:
        raise ValueError(f"similarity {simf} above 1")
    simf = min(simf, 1.0)
    if simf < params.simf_floor:
        raise ValueError(f"similarity {simf} below floor {params.simf_floor}")
    return math.exp(1.0 - 1.0 / simf)


def blend_reputation(r: float, anchor: float, rin: float) -> float:
    """Local-confidence blend r*anchor + (1-r)*rin."""
    return r * anchor + (1.0 - r) * rin


def final_reputation(
    i: VehicleId,
    f: VehicleId,
    ledger: ReputationLedger,
    scores: Iterable[tuple[float, float]],
    mode: ReputationMode = ReputationMode.TPFS,
    now: float | None = None,
) -> float:
    """Final score of i about f from the (r_ij, r_jf) recommendation
    pairs, dispatched on (direct history, recommendations).

    With neither: r*gamma. Recommendations only: blend of eta and the
    indirect score. History only: r times the direct score. Both: blend
    of the direct and indirect scores. r comes from feedback similarity
    (theta when i and f share no ratees); TP_only and TWSL_like pin r at
    theta, and TWSL_like additionally trusts every recommender fully.
    """
    params = ledger.params
    rin = indirect_reputation(scores, params,
                              force_full_confidence=mode is ReputationMode.TWSL_LIKE)
    if mode is ReputationMode.TPFS:
        simf = feedback_similarity(i, f, ledger)
        r = params.theta if simf is None else local_confidence(simf, params)
    else:
        r = params.theta
    if ledger.has_interaction(i, f):
        direct = ledger.direct_score(i, f, now)
        if rin is None:
            return r * direct
        return blend_reputation(r, direct, rin)
    if rin is None:
        return r * params.gamma
    return blend_reputation(r, params.eta, rin)


def evaluate_pair(
    ledger: ReputationLedger,
    rater: VehicleId,
    ratee: VehicleId,
    mode: ReputationMode,
    now_min: float,
) -> float:
    """Final score of rater about ratee with recommendations gathered from
    every other vehicle that has rated the ratee. Pure given the ledger,
    so a chain replay reproduces it exactly."""
    direct_score = ledger.direct_score
    scores = (
        (direct_score(rater, rec, now_min), direct_score(rec, ratee, now_min))
        for rec in sorted(ledger.raters_of(ratee))
        if rec != rater and rec != ratee
    )
    return final_reputation(rater, ratee, ledger, scores, mode, now_min)


def status_transition(current: Status, rfin: float, params: TpfsParams) -> Status:
    """Pure status step; revoked is absorbing."""
    if not 0.0 <= rfin <= 1.0:
        raise ValueError(f"reputation {rfin} out of [0,1]")
    if current is Status.REVOKED:
        return Status.REVOKED
    if rfin < params.t_revoke:
        return Status.REVOKED
    if rfin < params.t_service:
        return Status.WARNING
    return Status.NORMAL


def classify_status(vehicle: VehicleId, rfin: float, ledger: ReputationLedger) -> Status:
    """Apply the status step to the ledger and return the new status."""
    new = status_transition(ledger.get_status(vehicle), rfin, ledger.params)
    ledger.status[vehicle] = new
    return new


def select_server(
    candidates: list[tuple[VehicleId, float, int]], params: TpfsParams, rng: Random
) -> VehicleId:
    """Two-group fair pick among non-revoked (vehicle, rfin, trade_count)
    candidates.

    If every candidate sits below the service threshold the pick is
    uniform. Otherwise a draw below q_select targets the old group
    (trade count >= t_trades) by maximal score, ties broken randomly;
    a draw above targets the new group uniformly. An empty target group
    falls back to the other group under that group's rule.
    """
    if not candidates:
        raise ValueError("no servers available")
    if all(rfin < params.t_service for _, rfin, _ in candidates):
        return candidates[rng.randrange(len(candidates))][0]
    old = [c for c in candidates if c[2] >= params.t_trades]
    new = [c for c in candidates if c[2] < params.t_trades]

    def pick_old(group):
        best = max(rfin for _, rfin, _ in group)
        top = [c for c in group if c[1] == best]
        return top[0][0] if len(top) == 1 else top[rng.randrange(len(top))][0]

    def pick_new(group):
        return group[rng.randrange(len(group))][0]

    if rng.random() < params.q_select:
        return pick_old(old) if old else pick_new(new)
    return pick_new(new) if new else pick_old(old)
