"""Pipeline simulator vs the closed forms (moderate-n versions; the full
1e6-transaction oracle run lives in the acceptance suite)."""

import hashlib
import math
import tracemalloc
import warnings
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcchain.ledger import OrderingConfig, PendingTx, order_batch
from rcchain.pipeline_des import (
    BATCH_TIMEOUT_S,
    BLOCK_FEED,
    MAX_LAST_ARRIVAL_S,
    STAGE_FEED,
    _MAX_SPACING_SHARE,
    _cut_batches,
    deviation_table,
    simulate_pipeline,
)
from rcchain.queueing import QueueNetworkConfig, performance

CFG100 = QueueNetworkConfig(lambda0=100.0)
CFG40 = QueueNetworkConfig(lambda0=40.0)


@pytest.mark.parametrize("feed", [STAGE_FEED, BLOCK_FEED])
@pytest.mark.parametrize("n_tx,q01", [(1, 1.0), (1000, 0.1), (100_000, 0.1), (100_000, 0.9)])
def test_runs_on_each_side_of_the_last_arrival_bound(n_tx, q01, feed):
    """Just under MAX_LAST_ARRIVAL_S of expected last arrival n_tx/lambda0,
    a run draws no overflow and every statistic is finite, down to the
    least q01 the bound's margin covers; just over it, the run is refused
    before it draws anything. The service rates scale with lambda0, so
    the clock's spacing stays far below a mean service time and only this
    bound binds."""
    lambda0 = n_tx / MAX_LAST_ARRIVAL_S * (1 + 1e-9)
    inside = QueueNetworkConfig(lambda0=lambda0, q01=q01, mu0=4 * lambda0, mu2=4 * lambda0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warnings would raise here
        stats = simulate_pipeline(inside, n_tx, seed=1, commit_feed=feed)
    assert stats.n_routed > 0 and all(math.isfinite(v) for v in vars(stats).values())
    outside = replace(inside, lambda0=n_tx / MAX_LAST_ARRIVAL_S * (1 - 1e-9))
    with pytest.raises(ValueError, match="n_tx/lambda0"):
        simulate_pipeline(outside, n_tx, seed=1, commit_feed=feed)


def coarsest_clock(mu):
    """The least power of two whose float spacing is over 2**-16 of 1/mu:
    an expected last arrival n_tx/lambda0 from there on is refused."""
    return 2.0 ** (math.floor(math.log2(_MAX_SPACING_SHARE / mu)) + 53)


@pytest.mark.parametrize("feed", [STAGE_FEED, BLOCK_FEED])
@pytest.mark.parametrize("mu0,mu2", [(150.0, 150.0), (150.0, 4e4), (4e4, 150.0)])
def test_runs_on_each_side_of_the_clock_spacing_bound(mu0, mu2, feed):
    """Just under the expected last arrival where the clock's spacing
    passes 2**-16 of the shortest mean service time 1/max(mu0, mu2), a run
    simulates; from there on it is refused before it draws anything."""
    n_tx, edge = 1000, coarsest_clock(max(mu0, mu2))
    assert math.ulp(edge / 2) <= _MAX_SPACING_SHARE / max(mu0, mu2) < math.ulp(edge)
    inside = QueueNetworkConfig(lambda0=n_tx / edge * (1 + 1e-9), mu0=mu0, mu2=mu2)
    stats = simulate_pipeline(inside, n_tx, seed=1, commit_feed=feed)
    assert stats.n_routed > 0 and all(math.isfinite(v) for v in vars(stats).values())
    outside = replace(inside, lambda0=n_tx / edge)
    with pytest.raises(ValueError, match="spacing at the expected last arrival n_tx/lambda0"):
        simulate_pipeline(outside, n_tx, seed=1, commit_feed=feed)


def test_stage_feed_matches_node_laws():
    stats = simulate_pipeline(CFG100, 200_000, seed=11, commit_feed=STAGE_FEED)
    m = performance(CFG100)
    assert stats.d0_mean == pytest.approx(m.delays[0], rel=0.05)
    assert stats.d2_mean == pytest.approx(m.delays[2], rel=0.05)
    assert stats.n0_time_avg == pytest.approx(m.mean_counts[0], rel=0.05)
    assert stats.n2_time_avg == pytest.approx(m.mean_counts[2], rel=0.05)


def test_block_feed_confirmation_in_validated_band():
    cfg = CFG40
    stats = simulate_pipeline(cfg, 150_000, seed=3, commit_feed=BLOCK_FEED)
    assert 0.28 <= stats.confirmation_mean <= 0.35


def test_throughput_flow_balance():
    stats = simulate_pipeline(CFG40, 150_000, seed=5, commit_feed=BLOCK_FEED)
    expected = CFG40.q23 * CFG40.q01 * CFG40.lambda0
    assert stats.throughput_valid == pytest.approx(expected, rel=0.05)


def test_batch_size_ordering_in_des():
    confs = []
    for m in (10, 50, 100):
        cfg = replace(CFG40, batch_size=m)
        stats = simulate_pipeline(cfg, 80_000, seed=7, commit_feed=BLOCK_FEED)
        confs.append(stats.confirmation_mean)
    assert confs[0] < confs[1] < confs[2]


def test_deterministic_given_seed():
    a = simulate_pipeline(CFG40, 20_000, seed=9)
    b = simulate_pipeline(CFG40, 20_000, seed=9)
    assert a == b
    c = simulate_pipeline(CFG40, 20_000, seed=10)
    assert a != c


def test_timeout_cuts_partial_blocks():
    # trickle arrivals: the timeout, not the batch size, drives every cut
    cfg = QueueNetworkConfig(lambda0=1.0, batch_size=100)
    stats = simulate_pipeline(cfg, 2_000, seed=2)
    assert stats.n_routed == pytest.approx(2_000 * cfg.q01, rel=0.1)
    # ordering delay is dominated by the 2s timeout window, not batch fill
    assert stats.d1_mean < 60.0


def test_batch_timeout_is_the_ledger_default():
    assert BATCH_TIMEOUT_S == OrderingConfig().batch_timeout_s


def order_batch_cuts(times, batch_size):
    """(cut instants, member indices) that the ledger's order_batch cuts
    from arrivals at the given sorted, distinct times: it runs after each
    arrival and again at each oldest-pending deadline, where an arrival at
    the deadline instant is queued before the deadline check."""
    cfg = OrderingConfig(batch_size=batch_size, batch_timeout_s=BATCH_TIMEOUT_S)
    pending, cuts, members = deque(), [], []

    def cut(now):
        while (batch := order_batch(pending, cfg, now)) is not None:
            cuts.append(now)
            members.append(batch)

    for k, t in enumerate(times):
        while pending and pending[0].submitted_at + BATCH_TIMEOUT_S < t:
            cut(pending[0].submitted_at + BATCH_TIMEOUT_S)
        pending.append(PendingTx(t, k))
        cut(t)
    while pending:
        cut(pending[0].submitted_at + BATCH_TIMEOUT_S)
    return cuts, members


@given(
    # distinct instants (the DES's continuous arrival times never tie) on a
    # 1/64 s grid, where (a + 2.0) - a == 2.0 holds exactly
    ticks=st.lists(st.integers(min_value=0, max_value=64 * 30), unique=True, max_size=60),
    batch_size=st.integers(min_value=1, max_value=12),
)
@settings(deadline=None, max_examples=300)
def test_property_cutter_matches_order_batch(ticks, batch_size):
    times = np.sort(np.asarray(ticks, dtype=np.float64)) / 64.0
    cut_times, block_of = cut_batches(times, batch_size)
    cuts, members = order_batch_cuts(times.tolist(), batch_size)
    assert cut_times.tolist() == cuts
    assert block_of.tolist() == [b for b, batch in enumerate(members) for _ in batch]
    assert [k for batch in members for k in batch] == list(range(len(times)))


def cut_batches(times, batch_size):
    """_cut_batches' cut instants and each arrival's block index."""
    cut_times, starts, sizes = _cut_batches(times, batch_size)
    assert starts.tolist() == (np.cumsum(sizes) - sizes).tolist()  # contiguous blocks
    return cut_times, np.repeat(np.arange(len(starts)), sizes)


def loop_cut_batches(times, batch_size):
    """The block-by-block cutter that pointer doubling replaced, kept as the
    reference the vectorized one must match bit for bit."""
    n = len(times)
    cuts = []
    block_of = np.empty(n, dtype=np.int64)
    i = 0
    while i < n:
        j_full = i + batch_size - 1
        if j_full < n and times[j_full] <= times[i] + BATCH_TIMEOUT_S:
            cuts.append(times[j_full])
            block_of[i : j_full + 1] = len(cuts) - 1
            i = j_full + 1
        else:
            deadline = times[i] + BATCH_TIMEOUT_S
            j = int(np.searchsorted(times, deadline, side="right"))
            cuts.append(deadline)
            block_of[i:j] = len(cuts) - 1
            i = j
    return np.asarray(cuts, dtype=np.float64), block_of


def assert_cuts_match_loop(times, batch_size):
    got, want = cut_batches(times, batch_size), loop_cut_batches(times, batch_size)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _stream(kind, n=20_000):
    rng = np.random.default_rng(2026)
    if kind == "poisson":  # the DES's own law: ~67 arrivals per 2 s window
        return np.cumsum(rng.exponential(1.0 / 33.5, n))
    if kind == "grid":  # 1/64 s ticks: ties, and arrivals exactly on a deadline
        return np.cumsum(rng.integers(0, 48, n)) / 64.0
    if kind == "mixed":  # the timeout binds at about 45 % of the starts at batch size 2
        return np.cumsum(rng.exponential(1.0 / 0.4, n))
    # bursts separated by gaps longer than the timeout
    return np.cumsum(rng.exponential(1.0 / 33.5, n) * np.where(rng.random(n) < 0.02, 200.0, 1.0))


# 2**63 - 1 and 10**20: batches that never fill, past where i + batch_size
# fits in int64
@pytest.mark.parametrize("batch_size", [1, 2, 3, 10, 67, 100, 1000, 2**63 - 1, 10**20])
@pytest.mark.parametrize("kind", ["poisson", "grid", "gaps", "mixed"])
def test_cutter_matches_block_loop(kind, batch_size):
    assert_cuts_match_loop(_stream(kind), batch_size)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    # from a timeout at nearly every start to none at all
    rate=st.floats(min_value=0.05, max_value=100.0),
    n=st.integers(min_value=0, max_value=400),
    batch_size=st.integers(min_value=1, max_value=70),
)
@settings(deadline=None, max_examples=300)
def test_property_cutter_matches_block_loop(seed, rate, n, batch_size):
    times = np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, n))
    assert_cuts_match_loop(times, batch_size)


@pytest.mark.parametrize("batch_size", [2, 7, 10, 64])
def test_full_block_run_ends_at_the_end_of_the_stream(batch_size):
    # a lone first arrival is cut at its deadline, which moves the blocks into
    # residue class 1; n = 1 mod batch_size leaves that class no late start,
    # so full blocks run from 1 up to n
    n = 100 * batch_size + 1
    times = np.append(0.0, 10.0 + np.arange(n - 1) / (4.0 * batch_size))
    assert_cuts_match_loop(times, batch_size)
    _, starts, sizes = _cut_batches(times, batch_size)
    assert sizes.tolist() == [1] + [batch_size] * 100
    # a gap past the timeout just before an arrival in class 1 makes a late
    # start in every other class, which the run from 1 passes by
    times[1 + 50 * batch_size :] += 3.0
    assert_cuts_match_loop(times, batch_size)
    assert _cut_batches(times, batch_size)[2].tolist() == [1] + [batch_size] * 100


def _held_bytes(a):
    """Bytes of the buffer that an array keeps alive."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a.nbytes


@pytest.mark.parametrize("batch_size", [1, 10, 100])
@pytest.mark.parametrize("kind", ["poisson", "mixed"])
def test_cutter_outputs_hold_no_larger_buffer(kind, batch_size):
    # simulate_pipeline keeps the block starts and sizes for the rest of a run
    for out in _cut_batches(_stream(kind, 200_000), batch_size):
        assert _held_bytes(out) == out.nbytes


@pytest.mark.parametrize("batch_size", [1, 2, 10, 1000])
@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_cutter_matches_block_loop_on_short_streams(n, batch_size):
    assert_cuts_match_loop(_stream("poisson", n), batch_size)
    assert_cuts_match_loop(np.arange(n) * 3.0, batch_size)  # every gap past the timeout


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("batch_size", [2, 10, 67])
def test_cutter_matches_block_loop_around_batch_size(batch_size, offset):
    # the last batch_size - 1 starts can never fill, so the cutter searches
    # for their deadlines however close together they arrive
    n = batch_size + offset
    assert_cuts_match_loop(_stream("poisson", n), batch_size)
    assert_cuts_match_loop(np.arange(n) / 64.0, batch_size)  # all within one timeout
    assert_cuts_match_loop(np.arange(n) * 3.0, batch_size)


@pytest.mark.parametrize("batch_size", [2, 3, 5, 9, 17, 33, 65])
def test_size_cut_wins_when_the_last_member_lands_on_the_deadline(batch_size):
    # on the 1/64 s grid the batch_size-th member of every block arrives
    # exactly BATCH_TIMEOUT_S after its first; order_batch queues it before
    # the deadline check, so every block but the tail is a full one
    times = np.arange(3 * batch_size + 1) * (BATCH_TIMEOUT_S / (batch_size - 1))
    assert (times[batch_size - 1:] == times[: len(times) - batch_size + 1] + BATCH_TIMEOUT_S).all()
    assert_cuts_match_loop(times, batch_size)
    cut_times, block_of = cut_batches(times, batch_size)
    cuts, members = order_batch_cuts(times.tolist(), batch_size)
    assert cut_times.tolist() == cuts
    assert block_of.tolist() == [b for b, batch in enumerate(members) for _ in batch]
    assert [len(batch) for batch in members] == [batch_size] * 3 + [1]
    assert cuts[:3] == times[batch_size - 1 : 3 * batch_size : batch_size].tolist()
    # a second arrival at that deadline instant opens the next block
    tied = np.sort(np.append(times, times[batch_size - 1 :: batch_size]))
    assert_cuts_match_loop(tied, batch_size)


# sha256 of repr(PipelineStats) at 20,000 arrivals, recorded with the
# block-by-block cutter: any drift in the cuts or the random draws shows
DES_PINS = {
    (1, STAGE_FEED): "9faa02cf0f1cd69ee7f41409df66bb6f9aa85547d48e639443daf74ef52fdefb",
    (1, BLOCK_FEED): "5ff0b2fafbf60770a5d8bffa61065a8e1297ed6d71bba1ce307281ae5bf523be",
    (10, STAGE_FEED): "81dce15451bf9c1f1a061a126dbf4c6b3db0a7fb2e841070a43588001a8b09da",
    (10, BLOCK_FEED): "a567214884b308d7f47b5935a8c17a54a43ce907779faeb7c5fb85244c275ea2",
    (100, STAGE_FEED): "aa20d12a32aa8c1c5ef766d9410e6beff237f7c2101535e583e0755a96920232",
    (100, BLOCK_FEED): "67f5fc86c8d975ceb652cd5811e815e0c83c9e02b3f05b44a3333f287f54e65a",
}


@pytest.mark.parametrize(("batch_size", "feed"), list(DES_PINS))
def test_outputs_pinned(batch_size, feed):
    cfg = QueueNetworkConfig(lambda0=37.29, batch_size=batch_size)
    stats = simulate_pipeline(cfg, 20_000, seed=batch_size, commit_feed=feed)
    assert hashlib.sha256(repr(stats).encode()).hexdigest() == DES_PINS[(batch_size, feed)]


# the same pins where the timeout binds: at every start (lambda0 2, M 100)
# and at about half of them (lambda0 0.4, M 2)
TIMEOUT_DES_PINS = {
    (2.0, 100, STAGE_FEED): "caddacbed2bfc86c0644d79a975acb91bf0b7774ba1efd98c5170a5051970e27",
    (2.0, 100, BLOCK_FEED): "618f2daa9f4adcc11d19949c0481093e2be1b74787f539d02ff2796dd510ddf6",
    (0.4, 2, STAGE_FEED): "133e475f8e3b6fce0a072f0bf46e135725f2c652abf8435917237e82a832a655",
    (0.4, 2, BLOCK_FEED): "239de165a880a7c32ebcb19236ab607bd1fb31aa254b139e73f6c83dcbc4fc03",
}


@pytest.mark.parametrize(("lambda0", "batch_size", "feed"), list(TIMEOUT_DES_PINS))
def test_timeout_regime_outputs_pinned(lambda0, batch_size, feed):
    cfg = QueueNetworkConfig(lambda0=lambda0, batch_size=batch_size)
    stats = simulate_pipeline(cfg, 20_000, seed=batch_size, commit_feed=feed)
    digest = hashlib.sha256(repr(stats).encode()).hexdigest()
    assert digest == TIMEOUT_DES_PINS[(lambda0, batch_size, feed)]


def _traced_peak(cfg, n, seed, feed):
    # a short run first, so that what numpy sets up on a first call is not counted
    simulate_pipeline(cfg, 1_000, seed=seed, commit_feed=feed)
    tracemalloc.start()
    try:
        simulate_pipeline(cfg, n, seed=seed, commit_feed=feed)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("feed", [STAGE_FEED, BLOCK_FEED])
@pytest.mark.parametrize("batch_size", [1, 10, 100])
def test_traced_peak_per_arrival(batch_size, feed):
    # each full-length array is freed after its last reader: 31-44 bytes per
    # arrival, the most in the block feed at M = 1, where the block starts,
    # sizes and release instants are as long as the routed stream; holding
    # every array to the end peaked at 80
    cfg = QueueNetworkConfig(lambda0=37.29, batch_size=batch_size)
    n = 200_000
    assert _traced_peak(cfg, n, batch_size, feed) <= 48 * n


@pytest.mark.parametrize("feed", [STAGE_FEED, BLOCK_FEED])
def test_traced_peak_per_arrival_where_the_timeout_binds_at_half_the_starts(feed):
    # the batch cutter's run bookkeeping sets this peak: 46.8 bytes per
    # arrival, with each of its arrays freed after its last reader
    cfg = QueueNetworkConfig(lambda0=0.4, batch_size=2)
    n = 200_000
    assert _traced_peak(cfg, n, 2, feed) <= 52 * n


@pytest.mark.parametrize("feed", [STAGE_FEED, BLOCK_FEED])
def test_no_routed_transaction_gives_empty_ordering_stats(feed):
    cfg = QueueNetworkConfig(lambda0=10.0, q01=1e-6)
    stats = simulate_pipeline(cfg, 3, seed=0, commit_feed=feed)
    assert stats.n_routed == stats.n_valid == 0
    assert np.isnan([stats.d1_mean, stats.d2_mean, stats.confirmation_mean]).all()
    assert stats.throughput_valid == 0.0 and stats.d0_mean > 0.0


def test_deviation_table_shape():
    stats = simulate_pipeline(CFG100, 50_000, seed=1, commit_feed=STAGE_FEED)
    rows = deviation_table(CFG100, stats)
    assert [r["metric"] for r in rows] == ["D0", "D1", "D2", "D", "N0", "N2", "H_flow"]
    d0 = rows[0]
    assert d0["rel_deviation"] < 0.1


def test_deviation_from_a_zero_closed_form_is_undefined():
    # q23 = 0: nothing commits valid, so H_flow is 0 in both readings
    cfg = QueueNetworkConfig(lambda0=40.0, q23=0.0)
    h_flow = deviation_table(cfg, simulate_pipeline(cfg, 2_000, seed=1))[-1]
    assert (h_flow["closed_form"], h_flow["simulated"], h_flow["abs_deviation"]) == (0.0, 0.0, 0.0)
    assert h_flow["rel_deviation"] is None


def test_stage_feed_d1_tracks_block_reading():
    # fill + assembly + in-order holdup lands near the closed form's M/Lambda1
    cfg = CFG100
    stats = simulate_pipeline(cfg, 200_000, seed=13, commit_feed=STAGE_FEED)
    m = performance(cfg)
    assert stats.d1_mean == pytest.approx(m.delays[1], rel=0.05)


def test_rejects_saturated_station():
    with pytest.raises(ValueError, match="saturated"):
        simulate_pipeline(QueueNetworkConfig(lambda0=200.0), 100, seed=0)


@pytest.mark.parametrize("cfg", [QueueNetworkConfig(lambda0=0.0),
                                 QueueNetworkConfig(lambda0=10.0, q01=0.0)],
                         ids=["lambda0-0", "q01-0"])
def test_rejects_no_traffic_into_ordering(cfg):
    """Lambda1 = q01 * lambda0 = 0 is refused, as performance refuses it,
    before the arrival draw divides by lambda0."""
    with pytest.raises(ValueError, match="Lambda1 = 0"):
        simulate_pipeline(cfg, 10, seed=1)


def test_standard_error_halves_when_run_quadruples():
    # sqrt-n convergence of the confirmation-time sample mean
    cfg = CFG40
    small = simulate_pipeline(cfg, 50_000, seed=21, commit_feed=BLOCK_FEED)
    large = simulate_pipeline(cfg, 200_000, seed=21, commit_feed=BLOCK_FEED)
    se_small = small.confirmation_std / small.n_routed**0.5
    se_large = large.confirmation_std / large.n_routed**0.5
    assert se_large <= 0.6 * se_small
