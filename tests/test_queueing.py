"""Closed-form queueing model: hand-derived examples and identities."""

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rcchain.queueing import (
    ORDERER_LITERAL,
    QueueNetworkConfig,
    REPORT_COLUMNS,
    UnstableConfigError,
    marginal_probability,
    orderer_service_rate,
    performance,
    solve_traffic,
    state_probability,
    sweep,
    truncation_bound,
    utilizations,
)

BASE = QueueNetworkConfig(lambda0=100.0)


# ---------------------------------------------------------------------------
# traffic and rates
# ---------------------------------------------------------------------------

def test_traffic_hand_example():
    assert solve_traffic(BASE) == (100.0, pytest.approx(90.0), pytest.approx(90.0))


@pytest.mark.parametrize("field,value", [
    ("mu0", math.nan), ("mu0", math.inf), ("mu2", math.nan), ("mu2", math.inf),
])
def test_config_rejects_non_finite_service_rates(field, value):
    with pytest.raises(ValueError):
        replace(BASE, **{field: value})


def test_traffic_all_rejected():
    cfg = replace(BASE, q01=0.0)
    assert solve_traffic(cfg) == (100.0, 0.0, 0.0)


def test_traffic_table_operating_point():
    cfg = replace(BASE, lambda0=37.29)
    l0, l1, l2 = solve_traffic(cfg)
    assert l0 == pytest.approx(37.29, abs=1e-9)
    assert l1 == pytest.approx(33.561, abs=1e-9)
    assert l2 == pytest.approx(33.561, abs=1e-9)


def test_orderer_rate_examples():
    assert orderer_service_rate(BASE) == pytest.approx(18.0, abs=1e-9)
    assert orderer_service_rate(replace(BASE, batch_size=1)) == pytest.approx(180.0, abs=1e-9)
    cfg = replace(BASE, lambda0=37.29)
    assert orderer_service_rate(cfg) == pytest.approx(6.7122, abs=1e-9)


def test_orderer_rate_zero_traffic_signals():
    with pytest.raises(ValueError, match="Lambda1 = 0"):
        orderer_service_rate(replace(BASE, q01=0.0))


# ---------------------------------------------------------------------------
# utilizations
# ---------------------------------------------------------------------------

def test_utilizations_block_mode():
    r0, r1, r2, stable = utilizations(BASE)
    assert r0 == pytest.approx(2 / 3, abs=1e-4)
    assert r1 == 0.5
    assert r2 == pytest.approx(0.6, abs=1e-9)
    assert stable


def test_utilizations_literal_mode_unstable():
    cfg = replace(BASE, orderer_mode=ORDERER_LITERAL)
    r0, r1, r2, stable = utilizations(cfg)
    assert r1 == 5.0
    assert not stable


def test_utilizations_vanish_with_load():
    cfg = replace(BASE, lambda0=1e-9)
    r0, r1, r2, _ = utilizations(cfg)
    assert r0 < 1e-10 and r2 < 1e-10


# ---------------------------------------------------------------------------
# product form
# ---------------------------------------------------------------------------

def test_state_probability_origin():
    assert state_probability(0, 0, 0, (0.5, 0.5, 0.5)) == pytest.approx(0.125, abs=1e-12)


def test_state_probability_grid_normalizes():
    r = (0.5, 0.5, 0.5)
    total = sum(
        state_probability(a, b, c, r)
        for a in range(61)
        for b in range(61)
        for c in range(61)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_marginal_independent_of_other_nodes():
    # marginal of node 0 equals the grid sum over the other two
    r = (0.5, 0.3, 0.8)
    k0 = 2
    bound1 = truncation_bound(r[1])
    bound2 = truncation_bound(r[2])
    summed = sum(
        state_probability(k0, b, c, r) for b in range(bound1) for c in range(bound2)
    )
    assert summed == pytest.approx(marginal_probability(k0, r[0]), abs=1e-9)
    assert marginal_probability(2, 0.5) == pytest.approx(0.125, abs=1e-12)


def test_state_probability_rejects_saturation():
    with pytest.raises(UnstableConfigError):
        state_probability(0, 0, 0, (0.5, 1.0, 0.5))


# ---------------------------------------------------------------------------
# performance metrics
# ---------------------------------------------------------------------------

def test_performance_worked_example():
    m = performance(BASE)
    d0, d1, d2 = m.delays
    assert d0 == pytest.approx(0.02, abs=1e-9)
    assert d1 == pytest.approx(1 / 9, abs=1e-9)
    assert d2 == pytest.approx(1 / 60, abs=1e-9)
    assert m.confirmation_time == pytest.approx(0.02 + 1 / 9 + 1 / 60, abs=1e-12)
    assert m.confirmation_time == pytest.approx(0.1478, abs=1e-4)
    assert m.throughput_flow == pytest.approx(85.5, abs=1e-9)


def test_performance_near_table_row_one():
    cfg = replace(BASE, lambda0=37.29)
    m = performance(cfg)
    assert abs(m.confirmation_time - 0.303) <= 0.05  # measured row-1 value
    assert abs(m.confirmation_time - 0.299) <= 0.05  # stated theoretical value
    assert m.confirmation_time == pytest.approx(0.3154, abs=5e-4)


def test_performance_batch_size_ordering():
    cfg40 = replace(BASE, lambda0=40.0)
    d = [
        performance(replace(cfg40, batch_size=m)).confirmation_time
        for m in (10, 50, 100)
    ]
    assert d[0] < d[1] < d[2]


def test_performance_literal_mode_refuses():
    cfg = replace(BASE, orderer_mode=ORDERER_LITERAL)
    with pytest.raises(UnstableConfigError) as err:
        performance(cfg)
    assert err.value.node == 1


def test_performance_literal_mode_m1_matches_block():
    lit = performance(replace(BASE, batch_size=1, orderer_mode=ORDERER_LITERAL))
    blk = performance(replace(BASE, batch_size=1))
    assert lit.delays[1] == pytest.approx(blk.delays[1], abs=1e-12)


def test_throughputs_disagree_and_both_reported():
    m = performance(BASE)
    assert m.throughput_eq31 != pytest.approx(m.throughput_flow, rel=0.5)
    assert m.throughput_eq31 == pytest.approx(1.5 * 0.95 / m.confirmation_time, abs=1e-9)


stable_cfgs = st.builds(
    QueueNetworkConfig,
    lambda0=st.floats(min_value=1.0, max_value=140.0),
    q01=st.floats(min_value=0.05, max_value=1.0),
    q23=st.floats(min_value=0.0, max_value=1.0),
    mu0=st.floats(min_value=145.0, max_value=400.0),
    mu2=st.floats(min_value=145.0, max_value=400.0),
    batch_size=st.integers(min_value=1, max_value=200),
)


@given(stable_cfgs)
def test_delay_identity_nodes_0_and_2(cfg):
    # Ri/((1-Ri)*Lambda_i) is identically 1/(mu_i - Lambda_i)
    m = performance(cfg)
    l0, _, l2 = m.arrivals
    assert m.delays[0] == pytest.approx(1.0 / (cfg.mu0 - l0), rel=1e-12)
    assert m.delays[2] == pytest.approx(1.0 / (cfg.mu2 - l2), rel=1e-12)


@given(stable_cfgs)
def test_scaling_leaves_utilization_halves_delays(cfg):
    scaled = replace(cfg, lambda0=2 * cfg.lambda0, mu0=2 * cfg.mu0, mu2=2 * cfg.mu2)
    assert utilizations(scaled)[:3] == pytest.approx(utilizations(cfg)[:3], rel=1e-12)
    a, b = performance(cfg), performance(scaled)
    assert b.delays[0] == pytest.approx(a.delays[0] / 2, rel=1e-12)
    assert b.delays[2] == pytest.approx(a.delays[2] / 2, rel=1e-12)


@given(stable_cfgs)
def test_little_law_per_node(cfg):
    m = performance(cfg)
    l0, l1, l2 = m.arrivals
    assert m.mean_counts[0] == pytest.approx(l0 * m.delays[0], rel=1e-9)
    assert m.mean_counts[2] == pytest.approx(l2 * m.delays[2], rel=1e-9)
    # node 1 balances at block granularity
    assert m.mean_counts[1] == pytest.approx((l1 / cfg.batch_size) * m.delays[1], rel=1e-9)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_paper_grid_cardinality():
    rows = sweep(BASE, range(10, 111, 10), (10, 50, 100))
    assert len(rows) == 33
    assert all(r["stable"] for r in rows)


def test_sweep_d1_nonincreasing_in_lambda():
    rows = sweep(BASE, range(10, 111, 10), (10,))
    d1s = [r["D1"] for r in rows]
    assert all(a >= b for a, b in zip(d1s, d1s[1:]))


def test_sweep_flags_unstable_rows():
    base = replace(BASE, orderer_mode=ORDERER_LITERAL)
    rows = sweep(base, (50.0,), (1, 10))
    assert rows[0]["stable"] is True and rows[0]["D"] is not None
    assert rows[1]["stable"] is False
    assert all(rows[1][c] is None for c in REPORT_COLUMNS[7:])


def test_report_rows_columns():
    rows = sweep(BASE, (100.0,), (10,))
    assert list(rows[0].keys()) == REPORT_COLUMNS
