"""Unit and property tests for the reputation model."""

import copy
import csv
import io
import json
import math
import pickle
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rcchain.reputation as reputation
import rcchain.scenario as scenario
from rcchain.reputation import (
    RatingEvent,
    ReputationLedger,
    ReputationMode,
    Status,
    TpfsParams,
    blend_reputation,
    evaluate_pair,
    feedback_score,
    feedback_similarity,
    final_reputation,
    indirect_reputation,
    local_confidence,
    recommended_confidence,
    score_candidates,
    select_server,
    status_transition,
)
from rcchain.scenario import parse_scenario_config, run_scenario

P = TpfsParams()


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
    led = ReputationLedger()
    make_profiles(led, "i", "q1", 5, 0)
    make_profiles(led, "j", "q1", 2, 3)
    make_profiles(led, "i", "q2", 1, 1)
    make_profiles(led, "j", "q2", 4, 1)
    a = feedback_similarity("i", "j", led)
    b = feedback_similarity("j", "i", led)
    assert a == pytest.approx(b, abs=1e-12)


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


def test_direct_score_before_the_last_rating():
    # a query at t=5 between ratings at t=0 and t=10 weighs the later one
    # by d^(5-10) > 1, as a rescan of the events at t=5 would
    led = ReputationLedger()
    rate(led, "i", "j", True, 0.0)
    rate(led, "i", "j", False, 10.0)
    d = P.decay_per_minute
    x, y = d ** 5.0, d ** -5.0
    expected = (x + 1.0) / (x + P.negative_penalty * y + 2.0)
    assert led.direct_score("i", "j", now=5.0) == pytest.approx(expected, abs=1e-12)
    assert led.direct_score("i", "j", now=0.0) < expected < led.direct_score("i", "j", now=10.0)


def test_scoring_far_before_a_last_rating_raises_value_error():
    # with a tiny decay, d ** (now - t_last) overflows a float once now is
    # two minutes before the pair's last rating
    led = ReputationLedger(replace(P, decay_per_minute=1e-300))
    rate(led, "j", "f", True, 10.0)
    with pytest.raises(ValueError, match="overflows"):  # a recommender's record
        evaluate_pair(led, "i", "f", ReputationMode.TPFS, 0.0)
    rate(led, "i", "f", True, 10.0)
    with pytest.raises(ValueError, match="overflows"):
        led.direct_score("i", "f", now=0.0)
    for mode in ReputationMode:  # the rater's own record
        with pytest.raises(ValueError, match="overflows"):
            score_candidates(led, "i", ["f"], mode, 0.0)
    assert led.direct_score("i", "f", now=10.0) == led.direct[("i", "f")] == 2.0 / 3.0


def test_record_rating_rejects_self_rating():
    with pytest.raises(ValueError):
        RatingEvent("i", "i", True, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0, -5e-324])
def test_rating_event_rejects_negative_and_non_finite_timestamps(t):
    with pytest.raises(ValueError, match="timestamp"):
        RatingEvent("i", "j", True, t)


def test_rating_event_stores_a_float_timestamp_and_requires_a_bool_sign():
    event = RatingEvent("i", "j", True, 3)
    assert type(event.timestamp) is float and event.timestamp == 3.0
    assert event == RatingEvent("i", "j", True, 3.0)
    for positive in (1, 0, None, "yes"):
        with pytest.raises(TypeError, match="positive"):
            RatingEvent("i", "j", positive, 0.0)


def test_rating_event_checks_hold_for_every_way_to_build_one():
    event = RatingEvent(rater="i", ratee="j", positive=True, timestamp=3)
    assert event == RatingEvent("i", "j", True, 3.0) and type(event.timestamp) is float
    assert repr(event) == "RatingEvent(rater='i', ratee='j', positive=True, timestamp=3.0)"
    bad = {
        ("i", "i", True, 0.0): (ValueError, "a vehicle cannot rate itself"),
        ("i", "j", 1, 0.0): (TypeError, "positive must be a bool, got 1"),
        ("i", "j", True, -1): (ValueError, "timestamp must be finite and >= 0, got -1.0"),
    }
    for args, (error, message) in bad.items():
        for build in (lambda: RatingEvent(*args), lambda: RatingEvent._make(args),
                      lambda: event._replace(**dict(zip(RatingEvent._fields, args)))):
            with pytest.raises(error) as info:
                build()
            assert str(info.value) == message
    with pytest.raises(ValueError, match="cannot rate itself"):
        event._replace(ratee=event.rater)
    replaced = event._replace(timestamp=7)
    assert type(replaced) is RatingEvent and type(replaced.timestamp) is float


def test_rating_event_is_immutable_and_copies_through_its_checks():
    event = RatingEvent("i", "j", False, 2.5)
    for name in (*RatingEvent._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(event, name, "x")
    for clone in (pickle.loads(pickle.dumps(event)), copy.copy(event), copy.deepcopy(event)):
        assert clone == event and type(clone) is RatingEvent
    # copy and pickle rebuild an event by calling the class with its fields
    rebuild, (cls, *fields) = event.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert cls is RatingEvent and fields == ["i", "j", False, 2.5]
    with pytest.raises(ValueError, match="cannot rate itself"):
        rebuild(cls, "i", "i", False, 2.5)


def test_record_rating_rejects_out_of_order_pair_and_leaves_it_unchanged():
    led = ReputationLedger()
    rate(led, "i", "j", True, 5.0)

    def seen():
        return ([led.direct_score("i", "j", now) for now in (4.0, 9.0)],
                led.direct[("i", "j")], led._feedback("i", "j"))

    before = seen()
    with pytest.raises(ValueError, match="appended in time order"):
        rate(led, "i", "j", False, 3.0)
    assert seen() == before
    assert before[2] == 1.0  # the rejected negative rating would make it 0
    rate(led, "i", "k", True, 3.0)  # the order is per pair
    assert led.has_interaction("i", "k")


def test_record_rating_revoked_ratee_still_recorded():
    led = ReputationLedger()
    led.status["j"] = Status.REVOKED
    rate(led, "i", "j", True, 1.0)
    assert led.status.get("j") is Status.REVOKED
    assert led.has_interaction("i", "j")


def test_record_rating_counts_the_ratees_trade():
    """record_rating alone counts a trade: one committed rating is one trade."""
    led = ReputationLedger()
    rate(led, "i", "j", True, 1.0)
    rate(led, "k", "j", False, 2.0)
    rate(led, "j", "i", True, 3.0)
    assert dict(led.trade_count) == {"j": 2, "i": 1}


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

def _apply_at(monkeypatch, led, rfin, t=0.0):
    """apply_reputation_update of one rating about v, its final score pinned
    at rfin; returns the reputation.csv row it appends."""
    monkeypatch.setattr(scenario, "evaluate_pair", lambda *args: rfin)
    rows = []
    scenario.apply_reputation_update(led, RatingEvent("i", "v", True, t), ReputationMode.TPFS,
                                     rows)
    return rows[0]


def test_apply_reputation_update_status_bands(monkeypatch):
    for rfin, want in ((0.9, Status.NORMAL), (0.3, Status.WARNING), (0.1, Status.REVOKED)):
        led = ReputationLedger()
        row = _apply_at(monkeypatch, led, rfin)
        assert led.status == {"v": want}
        assert (row.rfin, row.status) == (rfin, want.value)
        assert dict(led.trade_count) == {"v": 1}


def test_revoked_is_absorbing(monkeypatch):
    led = ReputationLedger()
    _apply_at(monkeypatch, led, 0.1)
    row = _apply_at(monkeypatch, led, 0.9, t=1.0)
    assert led.status["v"] is Status.REVOKED and row.status == Status.REVOKED.value


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


def test_select_reads_no_new_group_score_when_an_old_one_reaches_t_service():
    for seed in range(50):
        picks = {select_server([("n1", rfin, 0), ("o1", 0.3, 9), ("o2", P.t_service, 5),
                                ("n2", rfin, 4)], P, Random(seed)) for rfin in (None, 0.0, 1.0)}
        assert len(picks) == 1


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


def test_evaluate_pair_reads_weighting_from_ledger():
    # i and j share q1 (tendencies 0.5 and 0) and q2 (1 and 1), each
    # weighted 1/2, so simf = 1 - sqrt(0.5 * 0.25 + 0.5 * 0) = 1 - sqrt(0.125);
    # they never rate each other and nobody rates j, so the score is
    # r * gamma with r = local_confidence(simf) = exp(1 - 1/simf)
    led = ReputationLedger()
    make_profiles(led, "i", "q1", 3, 1)   # F = 0.5
    make_profiles(led, "j", "q1", 5, 5)   # F = 0
    make_profiles(led, "i", "q2", 4, 0)   # F = 1
    make_profiles(led, "j", "q2", 2, 0)   # F = 1
    got = evaluate_pair(led, "i", "j", ReputationMode.TPFS, 0.0)
    assert got == pytest.approx(math.exp(1.0 - 1.0 / (1.0 - math.sqrt(0.125))) * P.gamma,
                                abs=1e-12)


# ---------------------------------------------------------------------------
# evaluate_pair and score_candidates against an opinion-record reference
# ---------------------------------------------------------------------------
# The reference below is an independent evaluator on its own record types:
# RefLedger keeps every pair's events as the test records them, and the
# reference builds one RefOpinion per recommender, re-counts each rating
# profile from the events into a RefProfile and rescans the events with
# the decay read per event. The ledger instead decays one (A, B) state per
# pair at each rating, so its floats may differ in the last bits; they
# must agree within 1e-12.

TOL = 1e-12


class RefLedger(ReputationLedger):
    """A ReputationLedger that also keeps each pair's events, in order."""

    def __init__(self, params=None):
        super().__init__(params)
        self.events = {}

    def record_rating(self, event):
        super().record_rating(event)
        self.events.setdefault((event.rater, event.ratee), []).append(event)


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


def ref_direct(ledger, rater, ratee, now):
    events = ledger.events.get((rater, ratee))
    return ref_score_events(events, now, ledger.params) if events else 0.5


def ref_rated_by(ledger, v):
    return {b for a, b in ledger.events if a == v}


def ref_raters_of(ledger, q):
    return {a for a, b in ledger.events if b == q}


def ref_profile(ledger, rater, ratee):
    events = ledger.events[(rater, ratee)]
    pos = sum(1 for e in events if e.positive)
    return RefProfile(alpha=pos, beta=len(events) - pos)


def ref_feedback_score(profile):
    total = profile.alpha + profile.beta
    if total == 0:
        raise ValueError("no common history")
    return (profile.alpha**2 - profile.beta**2) / total**2


def ref_feedback_similarity(i, j, ledger):
    params = ledger.params
    common = sorted(ref_rated_by(ledger, i) & ref_rated_by(ledger, j))
    if not common:
        return None
    w = 1.0 / len(common)
    dispersion = 0.0
    for q in common:
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


def ref_final_reputation(i, f, ledger, opinions, mode, now):
    params = ledger.params
    opinions = list(opinions)
    if mode is ReputationMode.TPFS:
        simf = ref_feedback_similarity(i, f, ledger)
        r = params.theta if simf is None else local_confidence(simf, params)
    else:
        r = params.theta
    rin = None
    if opinions:
        rin = ref_indirect_reputation(
            opinions, params, force_full_confidence=(mode is ReputationMode.TWSL_LIKE))
    if (i, f) in ledger.events:
        direct = ref_direct(ledger, i, f, now)
        if rin is None:
            return r * direct
        return blend_reputation(r, direct, rin)
    if rin is None:
        return r * params.gamma
    return blend_reputation(r, params.eta, rin)


def ref_evaluate_pair(ledger, rater, ratee, mode, now_min):
    opinions = [
        RefOpinion(
            recommender=rec,
            subject=ratee,
            r_ij=ref_direct(ledger, rater, rec, now_min),
            r_jf=ref_direct(ledger, rec, ratee, now_min),
        )
        for rec in sorted(ref_raters_of(ledger, ratee))
        if rec not in (rater, ratee)
    ]
    return ref_final_reputation(rater, ratee, ledger, opinions, mode, now_min)


def ref_score_candidates(ledger, rater, candidates, mode, now):
    return [ref_evaluate_pair(ledger, rater, c, mode, now) for c in candidates]


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


@given(rating_histories())
@settings(deadline=None)
def test_raters_of_stays_in_id_order_through_interleaved_first_ratings(history):
    names, events = history
    led = ReputationLedger()
    for e in events:
        led.record_rating(e)
    for q in names:
        raters = led.raters_of(q)
        assert list(raters) == sorted(v for v in names if led.has_interaction(v, q))
        assert all(rec is led._rated[v][q] for v, rec in raters.items())


@st.composite
def recorded_histories(draw):
    """A RefLedger holding a rating history under drawn params, its
    vehicle names, and query times before, at and after the last ratings."""
    names, events = draw(rating_histories())
    params = replace(P, decay_per_minute=draw(st.sampled_from([0.98, 0.7, 1.0])),
                     negative_penalty=draw(st.sampled_from([2.0, 1.0])))
    ledger = RefLedger(params)
    for e in events:
        ledger.record_rating(e)
    t_end = events[-1].timestamp if events else 0.0
    times = [t_end] + draw(st.lists(st.floats(0.0, t_end + 10.0), max_size=2), label="times")
    return ledger, names, times


@given(recorded_histories())
@settings(deadline=None, max_examples=150)
def test_property_evaluate_pair_matches_opinion_evaluator(recorded):
    ledger, names, times = recorded
    pairs = [(i, j) for i in names for j in names if i != j]
    for now in times:
        for i, j in pairs:
            assert abs(ledger.direct_score(i, j, now) - ref_direct(ledger, i, j, now)) <= TOL
    for mode in ReputationMode:
        for now in times:
            for i, j in pairs:
                got = evaluate_pair(ledger, i, j, mode, now)
                want = ref_evaluate_pair(ledger, i, j, mode, now)
                assert abs(got - want) <= TOL, (mode, now, i, j, got, want)


@given(recorded_histories())
@settings(deadline=None, max_examples=100)
def test_property_scores_from_the_state_lie_in_the_unit_interval(recorded):
    """score_candidates does not range-check the scores it reads from
    the state: every direct score, hence every (r_ij, r_jf)
    recommendation, lies in (0, 1], and every final score in [0, 1]. A
    score reaches 1.0 only by rounding, when a query long before a
    positive rating decays its weight back past 2^53."""
    ledger, names, times = recorded
    assert all(0.0 < s < 1.0 for s in ledger.direct.values())
    for now in times:
        for i in names:
            for j in names:
                if i != j:
                    assert 0.0 < ledger.direct_score(i, j, now) <= 1.0
        for mode in ReputationMode:
            for i in names:
                assert all(0.0 <= s <= 1.0 for s in
                           score_candidates(ledger, i, [j for j in names if j != i], mode, now))


@given(recorded_histories(), st.sampled_from(list(ReputationMode)))
@settings(deadline=None, max_examples=100)
def test_property_one_pass_equals_per_candidate_calls(recorded, mode):
    ledger, names, times = recorded
    for now in times:
        for i in names:
            others = [j for j in reversed(names) if j != i]
            assert score_candidates(ledger, i, others, mode, now) == [
                evaluate_pair(ledger, i, j, mode, now) for j in others]



@given(recorded_histories())
@settings(deadline=None, max_examples=100)
def test_property_kernel_similarity_is_feedback_similarity(recorded):
    """score_candidates skips the similarity of a candidate that shares no
    ratee with the rater; every other one it hands to local_confidence is
    feedback_similarity's, bit for bit."""
    ledger, names, times = recorded
    real, seen = reputation.local_confidence, []
    reputation.local_confidence = lambda simf, params: seen.append(simf) or real(simf, params)
    try:
        for i in names:
            others = [j for j in names if j != i]
            seen.clear()
            score_candidates(ledger, i, others, ReputationMode.TPFS, times[-1])
            want = [feedback_similarity(i, j, ledger) for j in others]
            assert seen == [s for s in want if s is not None]
    finally:
        reputation.local_confidence = real


def test_kernel_sums_shared_ratees_in_id_order():
    # the three squared differences sum to other bits in another order
    # (reversed, or i's rating order q2 q0 q1), and the final score keeps
    # the difference
    led = ReputationLedger()
    counts = {"q2": ((6, 6), (5, 3)), "q0": ((4, 1), (4, 6)),
              "q1": ((3, 6), (3, 3))}  # (positive, negative) ratings by i, then by f
    for q, by in counts.items():
        for v, (pos, neg) in zip("if", by):
            for k in range(pos + neg):
                rate(led, v, q, k < pos, 1.0)
    want = final_reputation("i", "f", led, [], ReputationMode.TPFS, 1.0)
    assert score_candidates(led, "i", ["f", "q0"], ReputationMode.TPFS, 1.0)[0] == want
    assert evaluate_pair(led, "i", "f", ReputationMode.TPFS, 1.0) == want

def test_identical_histories_score_bit_identical():
    # c1 and c2 receive the same ratings from the same raters at the same
    # times and rate the same ratees alike, so select_server's exact-tie
    # rule must see one score for both, whether scored alone or together
    for params in (P, replace(P, decay_per_minute=0.7)):
        led = ReputationLedger(params)
        for t in range(1, 30):
            tf = t * 0.37
            for k, rec in enumerate(("r1", "r2", "r3", "r4")):
                rate(led, "i", rec, (t + k) % 3 != 0, tf)
                for c in ("c1", "c2"):
                    rate(led, rec, c, (t + k) % 5 != 0, tf)
                    rate(led, c, rec, t % 4 != 1, tf)
            for c in ("c1", "c2"):
                rate(led, "i", c, t % 2 == 0, tf)
        for mode in ReputationMode:
            for now in (5.0, 10.73, 20.0):
                c1, c2, _ = score_candidates(led, "i", ("c1", "c2", "r1"), mode, now)
                assert c1 == c2 == evaluate_pair(led, "i", "c2", mode, now)


@pytest.mark.parametrize("seed", [None, 7, 11])
def test_engine_outputs_match_the_reference_evaluator(seed, monkeypatch):
    """The example scenario in every mode, run once on score_candidates
    and once with the reference evaluator patched into the scenario
    module: every output is byte-identical except reputation.csv, whose
    rfin may move by 1e-12."""
    doc = json.loads((Path(__file__).resolve().parent.parent
                      / "docs" / "scenario.example.json").read_text())
    if seed is not None:
        doc["seed"] = seed
    for variant in ({"mode": m.value} for m in ReputationMode):
        cfg = parse_scenario_config({**doc, **variant})
        got = run_scenario(cfg).output_files()
        with monkeypatch.context() as m:
            m.setattr(scenario, "ReputationLedger", RefLedger)
            m.setattr(scenario, "score_candidates", ref_score_candidates)
            m.setattr(scenario, "evaluate_pair", ref_evaluate_pair)
            ref = run_scenario(cfg)
        assert isinstance(ref.reputation, RefLedger)
        want = ref.output_files()
        assert sorted(got) == sorted(want)
        for name in got:
            if name != "reputation.csv":
                assert got[name] == want[name], (variant, name)
        ours, theirs = (list(csv.DictReader(io.StringIO(f["reputation.csv"])))
                        for f in (got, want))
        assert len(ours) == len(theirs) > 0
        for a, b in zip(ours, theirs):
            assert abs(float(a.pop("rfin")) - float(b.pop("rfin"))) <= TOL
            assert a == b
