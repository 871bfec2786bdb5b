"""Reputation scoring for a vehicular crowdsourcing consortium.

Implements the TPFS trust model: confidence-weighted aggregation of
neighbor recommendations into an indirect score, the feedback
similarity of two vehicles (1 - sqrt(mean squared tendency difference)
over the peers both have rated, floored at simf_floor), and the blended
final score, which score_candidates computes for a group of candidates
in one pass over O(1) decayed per-pair state. Also houses the
warning/revocation status machine and the two-group fair server selection.

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
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from random import Random
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

VehicleId = str
_NONE: dict = {}  # never written: the records of a vehicle with no ratings


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


class _RatingFields(NamedTuple):
    rater: VehicleId
    ratee: VehicleId
    positive: bool
    timestamp: float  # minutes since scenario start, stored as a float


class RatingEvent(_RatingFields):
    """One rating, checked when built: by the constructor, _make, _replace,
    pickle and copy alike. A tuple, because the presets build tens of
    thousands per pass and a frozen dataclass costs twice as much to make."""

    __slots__ = ()

    def __new__(cls, rater: VehicleId, ratee: VehicleId, positive: bool, timestamp: float):
        if rater == ratee:
            raise ValueError("a vehicle cannot rate itself")
        if not isinstance(positive, bool):
            raise TypeError(f"positive must be a bool, got {positive!r}")
        t = float(timestamp)
        if not 0.0 <= t < math.inf:  # also false for NaN
            raise ValueError(f"timestamp must be finite and >= 0, got {t!r}")
        return tuple.__new__(cls, (rater, ratee, positive, t))

    @classmethod
    def _make(cls, iterable) -> RatingEvent:  # _replace builds through it too
        return cls(*iterable)


class ReputationLedger:
    """Rating state with derived per-pair scores.

    Each rated pair keeps one record [A, B, t_last, positives, total]:
    its rating weights decayed to its last rating (Jøsang & Ismail's Beta
    reputation), so a direct score at any time is O(1). Pairs with no
    history score 0.5. Revocation is absorbing: once a vehicle is revoked
    its status never changes back, though ratings about it are still recorded.
    """

    def __init__(self, params: TpfsParams | None = None):
        self.params = params or TpfsParams()
        self._direct: dict[tuple[VehicleId, VehicleId], float] = {}
        self._stale: dict[tuple[VehicleId, VehicleId], list] = {}  # rated since `direct` was read
        self.trade_count: dict[VehicleId, int] = defaultdict(int)
        self.status: dict[VehicleId, Status] = {}
        self._rated: dict[VehicleId, dict[VehicleId, list]] = {}  # rater -> ratee -> record
        self._received: dict[VehicleId, dict[VehicleId, list]] = {}  # by ratee, raters sorted

    @property
    def direct(self) -> dict[tuple[VehicleId, VehicleId], float]:
        """Every rated pair's direct score at its last rating's timestamp,
        in first-rating order. Pairs rated since the last read are rescored
        here, once each; the same dict is returned every time."""
        for pair, rec in self._stale.items():
            self._direct[pair] = _beta_score(rec, rec[2], self.params)
        self._stale.clear()
        return self._direct

    def has_interaction(self, rater: VehicleId, ratee: VehicleId) -> bool:
        return ratee in self._rated.get(rater, _NONE)

    def raters_of(self, q: VehicleId) -> dict[VehicleId, list]:
        """q's raters in id order, each mapped to its record about q."""
        return self._received.get(q, _NONE)

    def _feedback(self, rater: VehicleId, ratee: VehicleId) -> float:
        """feedback_score of the pair's rating counts, read in O(1)."""
        rec = self._rated[rater][ratee]
        return feedback_score(rec[3], rec[4] - rec[3])

    def direct_score(self, rater: VehicleId, ratee: VehicleId, now: float | None = None) -> float:
        rec = self._rated.get(rater, _NONE).get(ratee)
        if rec is None:
            return 0.5
        return _beta_score(rec, rec[2] if now is None else now, self.params)

    def record_rating(self, event: RatingEvent) -> None:
        """Decay the pair's weights to the rating's timestamp, add it and
        count the ratee's trade: one rating is one completed trade. The
        pair's direct score is refreshed when `direct` is next read."""
        rater, ratee, t = event.rater, event.ratee, event.timestamp
        rec = self._rated.get(rater, _NONE).get(ratee)
        if rec is None:
            rec = self._rated.setdefault(rater, {})[ratee] = [0.0, 0.0, t, 0, 0]
            raters = list(self._received.get(ratee, _NONE).items())
            raters.insert(bisect(raters, (rater,)), (rater, rec))  # rater is not among them
            self._received[ratee] = dict(raters)
        elif t < rec[2]:
            raise ValueError("ratings for a pair must be appended in time order")
        k = self.params.decay_per_minute ** (t - rec[2])
        rec[0] *= k
        rec[1] *= k
        rec[0 if event.positive else 1] += 1.0
        rec[2] = t
        rec[3] += event.positive
        rec[4] += 1
        self._stale[(rater, ratee)] = rec
        self.trade_count[ratee] += 1


def _decay_overflow(now: float, params: TpfsParams) -> ValueError:
    return ValueError(f"cannot score at t = {now!r} min: it precedes a pair's last rating "
                      f"by so much that decay_per_minute {params.decay_per_minute!r} "
                      "raised to the gap overflows a float")


def _beta_score(rec: list, now: float, params: TpfsParams) -> float:
    """Direct score (x+1)/(x+penalty*y+2) of a pair record whose weights
    x, y are decayed to now; now may precede the pair's last rating."""
    try:
        k = params.decay_per_minute ** (now - rec[2])
    except OverflowError:
        raise _decay_overflow(now, params) from None
    x = rec[0] * k
    return (x + 1.0) / (x + params.negative_penalty * (rec[1] * k) + 2.0)


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
    return _indirect(sum(positive), len(positive), sum(negative), len(negative))


def _indirect(pos: float, a: int, neg: float, b: int) -> Optional[float]:
    """The indirect score from the class sums and counts (see
    indirect_reputation); None when both classes are empty."""
    if not a + b:
        return None
    p = pos / a if a else 0.0
    n = neg / b if b else 0.0
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
    """1 - sqrt(mean squared tendency difference) of the two vehicles'
    feedback scores over the peers both have rated, floored at
    ledger.params.simf_floor; None when they share no ratees."""
    common = sorted(ledger._rated.get(i, _NONE).keys() & ledger._rated.get(j, _NONE).keys())
    if not common:
        return None
    w = 1.0 / len(common)
    dispersion = 0.0
    for q in common:
        diff = ledger._feedback(i, q) - ledger._feedback(j, q)
        dispersion += w * diff * diff
    return max(ledger.params.simf_floor, 1.0 - math.sqrt(dispersion))


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
    rin = indirect_reputation(scores, ledger.params,
                              force_full_confidence=mode is ReputationMode.TWSL_LIKE)
    simf = feedback_similarity(i, f, ledger) if mode is ReputationMode.TPFS else None
    direct = ledger.direct_score(i, f, now) if ledger.has_interaction(i, f) else None
    return _final(ledger.params, simf, direct, rin)


def _final(params: TpfsParams, simf: Optional[float], direct: Optional[float],
           rin: Optional[float]) -> float:
    """final_reputation's dispatch on the similarity, direct and indirect
    scores, each None when there is nothing to compute it from."""
    r = params.theta if simf is None else local_confidence(simf, params)
    if direct is not None:
        return r * direct if rin is None else blend_reputation(r, direct, rin)
    return r * params.gamma if rin is None else blend_reputation(r, params.eta, rin)


def score_candidates(
    ledger: ReputationLedger,
    rater: VehicleId,
    candidates: Iterable[VehicleId],
    mode: ReputationMode,
    now: float,
) -> list[float]:
    """final_reputation of rater about each candidate at now, with
    recommendations from every other vehicle that has rated it. A row
    score is computed when first read; each candidate's class sums run
    in recommender-id order. Pure, so equal inputs give equal bits."""
    params = ledger.params
    d, penalty, t_low = params.decay_per_minute, params.negative_penalty, params.t_low
    weigh = (lambda r: r) if mode is ReputationMode.TWSL_LIKE else (
        lambda r: recommended_confidence(r, params) * r)
    mine = ledger._rated.get(rater, _NONE)
    row = dict.fromkeys(mine)  # conf * r_ij, or None until read
    unrated = weigh(0.5)
    # only a vehicle that shares a ratee with the rater has a feedback similarity
    tpfs = mode is ReputationMode.TPFS
    shared = {v for q in mine for v in ledger.raters_of(q)} if tpfs else _NONE
    out = []
    try:
        for f in candidates:
            pos = neg = 0.0
            a = b = 0
            for j, rec in ledger.raters_of(f).items():
                if j == rater:
                    continue
                cr = row.get(j, unrated)
                if cr is None:
                    cr = row[j] = weigh(_beta_score(mine[j], now, params))
                k = d ** (now - rec[2])  # _beta_score, inlined
                x = rec[0] * k
                r_jf = (x + 1.0) / (x + penalty * (rec[1] * k) + 2.0)
                if r_jf > t_low:
                    pos += cr * r_jf
                    a += 1
                else:
                    neg += cr * r_jf
                    b += 1
            simf = feedback_similarity(rater, f, ledger) if f in shared else None
            direct = _beta_score(mine[f], now, params) if f in mine else None
            out.append(_final(params, simf, direct, _indirect(pos, a, neg, b)))
    except OverflowError:
        raise _decay_overflow(now, params) from None
    return out


def evaluate_pair(
    ledger: ReputationLedger,
    rater: VehicleId,
    ratee: VehicleId,
    mode: ReputationMode,
    now_min: float,
) -> float:
    """score_candidates for the single candidate ratee."""
    return score_candidates(ledger, rater, (ratee,), mode, now_min)[0]


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


def score_groups(score: Callable[..., list[float]], ledger: ReputationLedger, rater: VehicleId,
                 candidates: Sequence[VehicleId], mode: ReputationMode,
                 now: float) -> list[tuple[VehicleId, Optional[float], int]]:
    """select_server's (vehicle, rfin, trade_count) per candidate, in order, scored by score
    (score_candidates' signature): the old group first, the new group only when no old score
    reaches t_service, the one case in which select_server reads it; else its rfin is None."""
    params, trades = ledger.params, ledger.trade_count
    old = [c for c in candidates if trades.get(c, 0) >= params.t_trades]
    rfin = dict(zip(old, score(ledger, rater, old, mode, now)))
    if all(r < params.t_service for r in rfin.values()):
        new = [c for c in candidates if c not in rfin]
        rfin.update(zip(new, score(ledger, rater, new, mode, now)))
    return [(c, rfin.get(c), trades.get(c, 0)) for c in candidates]


def select_server(
    candidates: list[tuple[VehicleId, Optional[float], int]], params: TpfsParams, rng: Random
) -> VehicleId:
    """Two-group fair pick among non-revoked (vehicle, rfin, trade_count)
    candidates.

    If every candidate sits below the service threshold the pick is
    uniform. Otherwise a draw below q_select targets the old group
    (trade count >= t_trades) by maximal score, ties broken randomly;
    a draw above targets the new group uniformly. An empty target group
    falls back to the other group under that group's rule. A new-group
    rfin may be None when an old one reaches t_service: nothing reads it.
    """
    if not candidates:
        raise ValueError("no servers available")
    old = [c for c in candidates if c[2] >= params.t_trades]
    new = [c for c in candidates if c[2] < params.t_trades]
    if all(c[1] < params.t_service for c in old) and all(c[1] < params.t_service for c in new):
        return candidates[rng.randrange(len(candidates))][0]

    def pick_old(group):
        best = max(rfin for _, rfin, _ in group)
        top = [c for c in group if c[1] == best]
        return top[0][0] if len(top) == 1 else top[rng.randrange(len(top))][0]

    def pick_new(group):
        return group[rng.randrange(len(group))][0]

    if rng.random() < params.q_select:
        return pick_old(old) if old else pick_new(new)
    return pick_new(new) if new else pick_old(old)
