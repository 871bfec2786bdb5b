"""Unit and property tests for the reputation model."""

import math
from collections import Counter
from dataclasses import dataclass, replace
from random import Random
from statistics import pstdev

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcchain.reputation import (
    RatingEvent,
    ReputationLedger,
    ReputationMode,
    Status,
    TpfsParams,
    blend_reputation,
    classify_status,
    evaluate_pair,
    feedback_score,
    feedback_similarity,
    final_reputation,
    indirect_reputation,
    local_confidence,
    recommended_confidence,
    select_server,
    status_transition,
)

P = TpfsParams()
P_DEVIATION = replace(P, similarity_weighting="deviation")


def rate(ledger, rater, ratee, positive, t):
    ledger.record_rating(RatingEvent(rater, ratee, positive, t))


# ---------------------------------------------------------------------------
# recommended confidence
# ---------------------------------------------------------------------------

def test_confidence_bands():
    assert recommended_confidence(0.3, P) == 0.0
    assert recommended_confidence(0.5, P) == 0.8
    assert recommended_confidence(0.9, P) == 1.0


def test_confidence_boundaries_take_middle_band():
    assert recommended_confidence(0.4, P) == 0.8
    assert recommended_confidence(0.8, P) == 0.8


def test_confidence_rejects_out_of_range():
    with pytest.raises(ValueError):
        recommended_confidence(1.2, P)
    with pytest.raises(ValueError):
        recommended_confidence(-0.1, P)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_confidence_monotone(x, y):
    lo, hi = min(x, y), max(x, y)
    assert recommended_confidence(lo, P) <= recommended_confidence(hi, P)


# ---------------------------------------------------------------------------
# indirect reputation
# ---------------------------------------------------------------------------

def test_indirect_hand_example():
    ops = [(0.9, 0.7), (0.5, 0.2)]  # (r_ij, r_jf) per recommender
    assert indirect_reputation(ops, P) == pytest.approx(0.275, abs=1e-9)


def test_indirect_single_perfect_opinion():
    assert indirect_reputation([(1.0, 1.0)], P) == pytest.approx(1.0, abs=1e-9)


def test_indirect_clamps_at_zero():
    ops = [(1.0, 0.1), (1.0, 0.2)]
    assert indirect_reputation(ops, P) == 0.0


def test_indirect_empty_is_none():
    assert indirect_reputation([], P) is None


def test_indirect_boundary_opinion_is_negative():
    # r_jf exactly at t_low lands in the negative class
    ops = [(1.0, P.t_low)]
    assert indirect_reputation(ops, P) == 0.0


def test_indirect_full_confidence_override():
    ops = [(0.1, 0.9)]  # low-rep recommender: C=0 normally
    assert indirect_reputation(ops, P) == 0.0
    forced = indirect_reputation(ops, P, force_full_confidence=True)
    assert forced == pytest.approx(0.09, abs=1e-9)


opinion_st = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),  # r_ij
    st.floats(min_value=0.0, max_value=1.0),  # r_jf
)


@given(st.lists(opinion_st, min_size=1, max_size=12), st.booleans())
def test_indirect_stays_in_range(ops, forced):
    v = indirect_reputation(ops, P, force_full_confidence=forced)
    assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# feedback score
# ---------------------------------------------------------------------------

def test_feedback_score_examples():
    assert feedback_score(5, 5) == pytest.approx(0.0, abs=1e-9)
    assert feedback_score(4, 0) == pytest.approx(1.0, abs=1e-9)
    assert feedback_score(3, 1) == pytest.approx(0.5, abs=1e-9)


def test_feedback_score_empty_raises():
    with pytest.raises(ValueError, match="no common history"):
        feedback_score(0, 0)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=60))
def test_feedback_score_antisymmetric_and_bounded(a, b):
    if a + b == 0:
        return
    f = feedback_score(a, b)
    assert abs(f) <= 1.0
    assert f == pytest.approx(-feedback_score(b, a), abs=1e-12)
    if b == 0:
        assert f == 1.0


# ---------------------------------------------------------------------------
# feedback similarity
# ---------------------------------------------------------------------------

def make_profiles(ledger, rater, ratee, alpha, beta, t=0.0):
    for _ in range(alpha):
        rate(ledger, rater, ratee, True, t)
    for _ in range(beta):
        rate(ledger, rater, ratee, False, t)


def test_similarity_identical_profiles_is_one():
    led = ReputationLedger()
    make_profiles(led, "i", "q1", 3, 1)
    make_profiles(led, "j", "q1", 6, 2)  # same F=0.5 despite different counts
    assert feedback_similarity("i", "j", led) == pytest.approx(1.0, abs=1e-12)


def test_similarity_hand_example():
    led = ReputationLedger()
    make_profiles(led, "i", "q1", 3, 1)   # F=0.5
    make_profiles(led, "j", "q1", 3, 1)   # F=0.5
    make_profiles(led, "i", "q2", 4, 0)   # F=1
    make_profiles(led, "j", "q2", 5, 5)   # F=0
    got = feedback_similarity("i", "j", led)
    assert got == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)


def test_similarity_clamps_to_floor():
    led = ReputationLedger()
    make_profiles(led, "i", "q", 4, 0)    # F=1
    make_profiles(led, "j", "q", 0, 4)    # F=-1
    assert feedback_similarity("i", "j", led) == P.simf_floor


def test_similarity_no_common_raters_is_none():
    led = ReputationLedger()
    make_profiles(led, "i", "q1", 1, 0)
    make_profiles(led, "j", "q2", 1, 0)
    assert feedback_similarity("i", "j", led) is None


def test_similarity_symmetric_and_weighted():
    for params in (P, P_DEVIATION):
        led = ReputationLedger(params)
        make_profiles(led, "i", "q1", 5, 0)
        make_profiles(led, "j", "q1", 2, 3)
        make_profiles(led, "i", "q2", 1, 1)
        make_profiles(led, "j", "q2", 4, 1)
        make_profiles(led, "x", "q1", 1, 4)   # extra rater fuels the deviation weights
        make_profiles(led, "x", "q2", 2, 0)
        a = feedback_similarity("i", "j", led)
        b = feedback_similarity("j", "i", led)
        assert a == pytest.approx(b, abs=1e-12)


def test_similarity_deviation_uniform_fallback():
    led = ReputationLedger(P_DEVIATION)
    make_profiles(led, "i", "q1", 2, 0)
    make_profiles(led, "j", "q1", 2, 0)  # single dispersion source, std=0
    got = feedback_similarity("i", "j", led)
    assert got == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# local confidence
# ---------------------------------------------------------------------------

def test_local_confidence_examples():
    assert local_confidence(1.0, P) == pytest.approx(1.0, abs=1e-12)
    assert local_confidence(0.5, P) == pytest.approx(math.exp(-1.0), abs=1e-12)
    tiny = local_confidence(P.simf_floor, P)
    assert 0.0 <= tiny < 1e-300


def test_local_confidence_below_floor_raises():
    with pytest.raises(ValueError):
        local_confidence(P.simf_floor / 10, P)


@given(
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_local_confidence_strictly_increasing(x, y):
    if x == y:
        return
    lo, hi = min(x, y), max(x, y)
    assert local_confidence(lo, P) < local_confidence(hi, P) or (
        local_confidence(lo, P) == 0.0 == local_confidence(hi, P)
    )


# ---------------------------------------------------------------------------
# final reputation
# ---------------------------------------------------------------------------

OPS_275 = [(0.9, 0.7), (0.5, 0.2)]


def test_final_no_history_no_opinions():
    led = ReputationLedger()
    got = final_reputation("i", "f", led, [])
    assert got == pytest.approx(0.7 * 0.2, abs=1e-9)


def test_final_opinions_only():
    led = ReputationLedger()
    got = final_reputation("i", "f", led, OPS_275)
    assert got == pytest.approx(0.7 * 0.2 + 0.3 * 0.275, abs=1e-9)


def test_final_full_blend_hand_example():
    led = ReputationLedger()
    # direct score 0.8: 27 positive + 3 negative, undecayed
    make_profiles(led, "i", "f", 27, 3)
    # shared ratee q gives F(i,q)=0.5 vs F(f,q)=0 -> simf exactly 0.5
    make_profiles(led, "i", "q", 3, 1)
    make_profiles(led, "f", "q", 5, 5)
    got = final_reputation("i", "f", led, OPS_275, now=0.0)
    r = math.exp(-1.0)
    assert got == pytest.approx(r * 0.8 + (1 - r) * 0.275, abs=1e-9)
    assert got == pytest.approx(0.46814, abs=1e-5)


def test_final_history_no_opinions_uses_caseplain_product():
    led = ReputationLedger()
    make_profiles(led, "i", "f", 27, 3)
    got = final_reputation("i", "f", led, [], now=0.0)
    # no common raters -> r = theta
    assert got == pytest.approx(0.7 * 0.8, abs=1e-9)


def test_final_mode_pins_theta():
    led = ReputationLedger()
    make_profiles(led, "i", "f", 27, 3)
    make_profiles(led, "i", "q", 3, 1)
    make_profiles(led, "f", "q", 5, 5)
    tp = final_reputation("i", "f", led, OPS_275, ReputationMode.TP_ONLY, now=0.0)
    assert tp == pytest.approx(0.7 * 0.8 + 0.3 * 0.275, abs=1e-9)
    twsl = final_reputation("i", "f", led, OPS_275, ReputationMode.TWSL_LIKE, now=0.0)
    # full confidence: P = mean(1*0.9*0.7)=0.63, N = 1*0.5*0.2=0.10
    assert twsl == pytest.approx(0.7 * 0.8 + 0.3 * (0.5 * 0.63 - 0.5 * 0.10), abs=1e-9)


@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
def test_blend_reduces_at_extremes(anchor, rin):
    assert abs(blend_reputation(1.0, anchor, rin) - anchor) < 1e-12
    assert abs(blend_reputation(0.0, anchor, rin) - rin) < 1e-12


# ---------------------------------------------------------------------------
# direct rating updates
# ---------------------------------------------------------------------------

def test_direct_score_defaults_to_half():
    led = ReputationLedger()
    assert led.direct_score("i", "j") == 0.5


def test_direct_score_all_positive():
    led = ReputationLedger()
    make_profiles(led, "i", "j", 10, 0, t=5.0)
    assert led.direct_score("i", "j", now=5.0) == pytest.approx(11 / 12, abs=1e-9)


def test_direct_score_negative_penalty_dominates():
    led = ReputationLedger()
    make_profiles(led, "i", "j", 5, 5, t=2.0)
    got = led.direct_score("i", "j", now=2.0)
    assert got == pytest.approx(6 / 17, abs=1e-9)
    assert got < 0.5


def test_direct_score_decays_toward_prior():
    led = ReputationLedger()
    make_profiles(led, "i", "j", 10, 0, t=0.0)
    fresh = led.direct_score("i", "j", now=0.0)
    stale = led.direct_score("i", "j", now=200.0)
    assert stale < fresh
    assert stale > 0.5  # decays toward the 0.5 prior, not below


def test_record_rating_rejects_self_rating():
    with pytest.raises(ValueError):
        RatingEvent("i", "i", True, 0.0)


def test_record_rating_rejects_out_of_order_pair_and_leaves_it_unchanged():
    led = ReputationLedger()
    rate(led, "i", "j", True, 5.0)
    events, score = list(led.pair_events("i", "j")), led.direct[("i", "j")]
    with pytest.raises(ValueError, match="appended in time order"):
        rate(led, "i", "j", True, 3.0)
    assert led.pair_events("i", "j") == events
    assert led._positives[("i", "j")] == 1
    assert led.direct[("i", "j")] == score
    rate(led, "i", "k", True, 3.0)  # the order is per pair
    assert led.has_interaction("i", "k")


def test_record_rating_revoked_ratee_still_recorded():
    led = ReputationLedger()
    led.status["j"] = Status.REVOKED
    rate(led, "i", "j", True, 1.0)
    assert led.get_status("j") is Status.REVOKED
    assert led.has_interaction("i", "j")


@given(st.integers(min_value=1, max_value=40))
@settings(deadline=None)
def test_all_positive_history_converges_upward(n):
    led = ReputationLedger()
    prev = 0.5
    for k in range(n):
        led.record_rating(RatingEvent("i", "j", True, 0.0))
        score = led.direct[("i", "j")]
        assert score > prev
        prev = score
    assert prev < 1.0
    led.record_rating(RatingEvent("i", "j", False, 0.0))
    assert led.direct[("i", "j")] < prev


# ---------------------------------------------------------------------------
# status machine
# ---------------------------------------------------------------------------

def test_classify_status_bands():
    led = ReputationLedger()
    assert classify_status("v", 0.9, led) is Status.NORMAL
    assert classify_status("v", 0.3, led) is Status.WARNING
    assert classify_status("v", 0.1, led) is Status.REVOKED


def test_revoked_is_absorbing():
    led = ReputationLedger()
    classify_status("v", 0.1, led)
    assert classify_status("v", 0.9, led) is Status.REVOKED


@given(st.floats(min_value=0.0, max_value=1.0))
def test_status_transition_total(rfin):
    for cur in Status:
        nxt = status_transition(cur, rfin, P)
        assert nxt in Status
        if cur is Status.REVOKED:
            assert nxt is Status.REVOKED


# ---------------------------------------------------------------------------
# server selection
# ---------------------------------------------------------------------------

def test_select_singleton():
    got = select_server([("a", 0.9, 10)], P, Random(1))
    assert got == "a"


def test_select_old_group_takes_max_rfin():
    cands = [("A", 0.9, 20), ("B", 0.6, 30)]  # (vehicle, rfin, trade_count)
    # seed chosen so the first uniform draw is < q_select
    assert Random(1).random() < P.q_select
    assert select_server(cands, P, Random(1)) == "A"


def test_select_empty_raises():
    with pytest.raises(ValueError, match="no servers"):
        select_server([], P, Random(1))


def test_select_below_threshold_uniform():
    cands = [(v, 0.1, 10) for v in ("a", "b", "c", "d")]
    rng = Random(42)
    counts = Counter(select_server(cands, P, rng) for _ in range(100_000))
    for v in ("a", "b", "c", "d"):
        assert abs(counts[v] / 100_000 - 0.25) < 0.02


def test_select_deterministic_with_seed():
    cands = [(v, 0.2 + 0.1 * k, k) for k, v in enumerate("abcdefg")]
    first = [select_server(cands, P, Random(7)) for _ in range(50)]
    second = [select_server(cands, P, Random(7)) for _ in range(50)]
    assert first == second


def test_select_falls_back_when_target_group_empty():
    # all candidates new; draw below q_select targets old -> falls back uniform
    cands = [("a", 0.9, 0), ("b", 0.5, 1)]
    got = select_server(cands, P, Random(0))
    assert got in ("a", "b")


# ---------------------------------------------------------------------------
# params validation
# ---------------------------------------------------------------------------

def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        TpfsParams(t_low=0.9, t_high=0.8)
    with pytest.raises(ValueError):
        TpfsParams(t_revoke=0.5, t_service=0.4)
    with pytest.raises(ValueError):
        TpfsParams(simf_floor=0.0)
    with pytest.raises(ValueError):
        TpfsParams(negative_penalty=0.5)


@given(
    st.lists(opinion_st, min_size=0, max_size=10),
    st.sampled_from(list(ReputationMode)),
)
@settings(deadline=None)
def test_final_reputation_always_in_range(ops, mode):
    led = ReputationLedger()
    got = final_reputation("i", "f", led, ops, mode)
    assert 0.0 <= got <= 1.0


def deviation_oracle_ledger(params):
    # q1 carries all the deviation weight: its received scores {0.5, 0}
    # have pstdev 0.25 while q2's {1, 1} have pstdev 0, so
    # simf = 1 - sqrt(1.0 * (0.5 - 0)^2) = 0.5; uniform weights give
    # simf = 1 - sqrt(0.5 * 0.25 + 0.5 * 0) = 1 - sqrt(0.125)
    led = ReputationLedger(params)
    make_profiles(led, "i", "q1", 3, 1)   # F = 0.5
    make_profiles(led, "j", "q1", 5, 5)   # F = 0
    make_profiles(led, "i", "q2", 4, 0)   # F = 1
    make_profiles(led, "j", "q2", 2, 0)   # F = 1
    return led


def test_similarity_deviation_weighted_hand_oracle():
    got = feedback_similarity("i", "j", deviation_oracle_ledger(P_DEVIATION))
    assert got == pytest.approx(0.5, abs=1e-12)


def test_evaluate_pair_reads_weighting_from_ledger():
    # i and j never rate each other and nobody rates j, so the score is
    # r * gamma with r = local_confidence(simf) = exp(1 - 1/simf)
    dev = evaluate_pair(deviation_oracle_ledger(P_DEVIATION), "i", "j", ReputationMode.TPFS, 0.0)
    assert dev == pytest.approx(math.exp(1.0 - 1.0 / 0.5) * P.gamma, abs=1e-12)
    uni = evaluate_pair(deviation_oracle_ledger(P), "i", "j", ReputationMode.TPFS, 0.0)
    assert uni == pytest.approx(math.exp(1.0 - 1.0 / (1.0 - math.sqrt(0.125))) * P.gamma,
                                abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate_pair against an opinion-record reference evaluator
# ---------------------------------------------------------------------------
# The reference below is an independent evaluator on its own record types:
# it builds one RefOpinion per recommender, re-counts each rating profile
# from the pair's events into a RefProfile and rescans the events with the
# decay read per event. evaluate_pair keeps the same floating-point
# operations in the same order, so the two must agree bit for bit (==),
# and on the error they raise for a score outside [0,1].

@dataclass(frozen=True)
class RefOpinion:
    """A neighbor's recommendation: r_ij is the evaluator's score for the
    recommender, r_jf the recommender's score for the subject."""

    recommender: str
    subject: str
    r_ij: float
    r_jf: float

    def __post_init__(self):
        if not (0.0 <= self.r_ij <= 1.0 and 0.0 <= self.r_jf <= 1.0):
            raise ValueError("opinion scores must be in [0,1]")


@dataclass(frozen=True)
class RefProfile:
    alpha: int  # positive ratings given
    beta: int   # negative ratings given


def ref_score_events(events, now, params):
    alpha_eff = 0.0
    beta_eff = 0.0
    for e in events:
        w = params.decay_per_minute ** (now - e.timestamp)
        if e.positive:
            alpha_eff += w
        else:
            beta_eff += w
    return (alpha_eff + 1.0) / (alpha_eff + params.negative_penalty * beta_eff + 2.0)


def ref_profile(ledger, rater, ratee):
    events = ledger.pair_events(rater, ratee)
    if not events:
        return None
    pos = sum(1 for e in events if e.positive)
    return RefProfile(alpha=pos, beta=len(events) - pos)


def ref_feedback_score(profile):
    total = profile.alpha + profile.beta
    if total == 0:
        raise ValueError("no common history")
    return (profile.alpha**2 - profile.beta**2) / total**2


def ref_feedback_similarity(i, j, ledger, params):
    common = sorted(ledger.common_ratees(i, j))
    if not common:
        return None
    if params.similarity_weighting == "deviation":
        raw = []
        for q in common:
            scores = [ref_feedback_score(ref_profile(ledger, v, q))
                      for v in sorted(ledger.raters_of(q))]
            raw.append(pstdev(scores) if len(scores) > 1 else 0.0)
        total = sum(raw)
        weights = [w / total for w in raw] if total > 0 else [1.0 / len(common)] * len(common)
    else:
        weights = [1.0 / len(common)] * len(common)
    dispersion = 0.0
    for q, w in zip(common, weights):
        diff = (ref_feedback_score(ref_profile(ledger, i, q))
                - ref_feedback_score(ref_profile(ledger, j, q)))
        dispersion += w * diff * diff
    return max(params.simf_floor, 1.0 - math.sqrt(dispersion))


def ref_indirect_reputation(opinions, params, *, force_full_confidence=False):
    opinions = list(opinions)
    if not opinions:
        raise ValueError("no recommendations")
    positive = [o for o in opinions if o.r_jf > params.t_low]
    negative = [o for o in opinions if o.r_jf <= params.t_low]

    def conf(o):
        return 1.0 if force_full_confidence else recommended_confidence(o.r_ij, params)

    a, b = len(positive), len(negative)
    p = sum(conf(o) * o.r_ij * o.r_jf for o in positive) / a if a else 0.0
    n = sum(conf(o) * o.r_ij * o.r_jf for o in negative) / b if b else 0.0
    c = a / (a + b)
    d = b / (a + b)
    return min(1.0, max(0.0, c * p - d * n))


def ref_final_reputation(i, f, ledger, opinions, params, mode, now):
    opinions = list(opinions)
    if mode is ReputationMode.TPFS:
        simf = ref_feedback_similarity(i, f, ledger, params)
        r = params.theta if simf is None else local_confidence(simf, params)
    else:
        r = params.theta
    rin = None
    if opinions:
        rin = ref_indirect_reputation(
            opinions, params, force_full_confidence=(mode is ReputationMode.TWSL_LIKE))
    if ledger.has_interaction(i, f):
        direct = ledger.direct_score(i, f, now)
        if rin is None:
            return r * direct
        return blend_reputation(r, direct, rin)
    if rin is None:
        return r * params.gamma
    return blend_reputation(r, params.eta, rin)


def ref_evaluate_pair(ledger, rater, ratee, params, mode, now_min):
    opinions = [
        RefOpinion(
            recommender=rec,
            subject=ratee,
            r_ij=ledger.direct_score(rater, rec, now_min),
            r_jf=ledger.direct_score(rec, ratee, now_min),
        )
        for rec in sorted(ledger.raters_of(ratee))
        if rec not in (rater, ratee)
    ]
    return ref_final_reputation(rater, ratee, ledger, opinions, params, mode, now_min)


class ScaledLedger(ReputationLedger):
    """Reports every direct score times `scale`; above 1 some leave [0,1]."""

    scale = 1.0

    def direct_score(self, rater, ratee, now=None):
        return super().direct_score(rater, ratee, now) * self.scale


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return ("ValueError", str(err))


@st.composite
def rating_histories(draw):
    """3-8 vehicles and up to 40 ratings of mixed sign on one clock that
    never goes back, so each pair's timestamps are non-decreasing."""
    n = draw(st.integers(min_value=3, max_value=8))
    names = [f"v{k}" for k in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2)).map(
        lambda ab: (ab[0], ab[1] + (ab[1] >= ab[0])))
    step = st.sampled_from([0.0, 0.25, 1.0]) | st.floats(0.0, 20.0)
    t = 0.0
    events = []
    for (a, b), positive, dt in draw(st.lists(st.tuples(pair, st.booleans(), step),
                                              max_size=40)):
        t += dt
        events.append(RatingEvent(names[a], names[b], positive, t))
    return names, events


@given(
    history=rating_histories(),
    weighting=st.sampled_from(["uniform", "deviation"]),
    decay=st.sampled_from([0.98, 0.7, 1.0]),
    penalty=st.sampled_from([2.0, 1.0]),
    scale=st.sampled_from([1.0, 1.0, 1.6]),
    data=st.data(),
)
@settings(deadline=None, max_examples=150)
def test_property_evaluate_pair_matches_opinion_evaluator(
        history, weighting, decay, penalty, scale, data):
    names, events = history
    params = replace(P, similarity_weighting=weighting, decay_per_minute=decay,
                     negative_penalty=penalty)
    ledger = ScaledLedger(params)
    for e in events:
        ledger.record_rating(e)
    t_end = events[-1].timestamp if events else 0.0
    # query times before, at and after pairs' last ratings
    times = [t_end] + data.draw(st.lists(st.floats(0.0, t_end + 10.0), max_size=2),
                                label="times")
    for now in times:
        for i in names:
            for j in names:
                if i == j:
                    continue
                assert ledger.direct_score(i, j, now) == (
                    ref_score_events(ledger.pair_events(i, j), now, params)
                    if ledger.has_interaction(i, j) else 0.5)
    ledger.scale = scale
    for mode in ReputationMode:
        for now in times:
            for i in names:
                for j in names:
                    if i != j:
                        assert outcome(evaluate_pair, ledger, i, j, mode, now) == \
                            outcome(ref_evaluate_pair, ledger, i, j, params, mode, now), \
                            (mode, now, i, j)
