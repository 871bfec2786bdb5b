"""Pipeline simulator vs the closed forms (moderate-n versions; the full
1e6-transaction oracle run lives in the acceptance suite)."""

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
    STAGE_FEED,
    _cut_batches,
    deviation_table,
    simulate_pipeline,
)
from rcchain.queueing import QueueNetworkConfig, performance

CFG100 = QueueNetworkConfig(lambda0=100.0)
CFG40 = QueueNetworkConfig(lambda0=40.0)


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
    cut_times, block_of = _cut_batches(times, batch_size)
    cuts, members = order_batch_cuts(times.tolist(), batch_size)
    assert cut_times.tolist() == cuts
    assert block_of.tolist() == [b for b, batch in enumerate(members) for _ in batch]
    assert [k for batch in members for k in batch] == list(range(len(times)))


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


def test_stage_feed_d1_tracks_block_reading():
    # fill + assembly + in-order holdup lands near the closed form's M/Lambda1
    cfg = CFG100
    stats = simulate_pipeline(cfg, 200_000, seed=13, commit_feed=STAGE_FEED)
    m = performance(cfg)
    assert stats.d1_mean == pytest.approx(m.delays[1], rel=0.05)


def test_rejects_saturated_station():
    with pytest.raises(ValueError, match="saturated"):
        simulate_pipeline(QueueNetworkConfig(lambda0=200.0), 100, seed=0)


def test_standard_error_halves_when_run_quadruples():
    # sqrt-n convergence of the confirmation-time sample mean
    cfg = CFG40
    small = simulate_pipeline(cfg, 50_000, seed=21, commit_feed=BLOCK_FEED)
    large = simulate_pipeline(cfg, 200_000, seed=21, commit_feed=BLOCK_FEED)
    se_small = small.confirmation_std / small.n_routed**0.5
    se_large = large.confirmation_std / large.n_routed**0.5
    assert se_large <= 0.6 * se_small
