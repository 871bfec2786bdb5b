"""Vectorized simulators for the endorse/order/commit pipeline.

Transactions arrive Poisson, endorsement and commitment are single
FIFO servers with exponential service, a fraction q01 of endorsed
transactions proceeds to ordering, every one of them is cut into a
block at batch_size or at the fixed 2 s batch timeout, and each block
takes an independent assembly delay ~ Exp(mean M/(2*Lambda1)) before
in-order delivery. A q23 coin marks committed transactions valid.

Two commit feeds:

* ``stage``: the commitment queue is fed at endorsement-departure
  instants — by Burke's theorem that feed is exactly Poisson, so every
  station is sampled under the arrival law the closed forms assume and
  per-station statistics are directly comparable. The per-transaction
  total is the sum of the three stage delays (the closed forms add
  stages the same way). This is the oracle feed.
* ``block``: the commitment stage receives whole blocks in order and
  validates a block's transactions in parallel (per-transaction
  exponential services, block done at their max — peers check the
  transactions of a block independently and simultaneously), so
  confirmation time is the causal end-to-end interval. Use this one for
  end-to-end latency and throughput measurements.

Everything is vectorized: the stations are Lindley-recursion prefix
scans and the batch cutter finds every block start by pointer doubling,
so no Python loop runs per transaction or per block; the cutter searches
for a block's deadline only where the timeout binds. Each full-length
quantity is one buffer, written in place and dropped after its last
reader: tracemalloc's peak is 40-85 bytes per arrival (lambda0 = 37.29,
M in {1, 10, 100}), a run of 10^6 transactions takes 0.1-0.2 s, and one
of MAX_N_TX at M = 1 peaks near 740 MB resident.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .queueing import QueueNetworkConfig, performance, utilizations

STAGE_FEED = "stage"
BLOCK_FEED = "block"
BATCH_TIMEOUT_S = 2.0  # OrderingConfig's default batch timeout
MAX_N_TX = 10_000_000  # most arrivals one run may simulate


@dataclass(frozen=True)
class PipelineStats:
    n_routed: int          # transactions that reached ordering and committed
    n_valid: int
    d0_mean: float         # endorsement sojourn, all arrivals
    d1_mean: float         # ordering delay (fill + assembly + in-order holdup)
    d2_mean: float         # commitment sojourn
    confirmation_mean: float
    confirmation_std: float
    n0_time_avg: float
    n2_time_avg: float
    throughput_valid: float  # committed-valid tx per second


def _fifo_departures(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Departure instants of a FIFO single server (Lindley recursion as a
    prefix scan): D_n = B_n + max_k<=n (A_k - B_{k-1}). The departures are
    written over ``services``, which the caller gives up."""
    busy = np.cumsum(services, out=services)
    gap = np.empty_like(arrivals)
    gap[0] = arrivals[0]
    np.subtract(arrivals[1:], busy[:-1], out=gap[1:])
    return np.add(busy, np.maximum.accumulate(gap, out=gap), out=busy)


def _cut_batches(times: np.ndarray, batch_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch boundaries over sorted orderer-arrival times.

    Returns (cut_times, starts, sizes): block b holds the arrivals
    starts[b] to starts[b] + sizes[b] - 1. A block cuts when its batch_size-th
    member arrives, or at first-member-arrival + BATCH_TIMEOUT_S with
    whatever is pending, so every transaction is cut into a block.

    A block starting at i ends before nxt[i], the earlier of i + batch_size
    and the first arrival past the deadline, so the block starts are the
    orbit of 0 under nxt (n is its fixed point). nxt[i] = i + batch_size
    exactly where the batch_size-th member is due by the deadline, the
    comparison a right-side search makes, so the deadline is searched for
    only where the timeout binds. Pointer doubling finds the orbit: after
    k rounds jump = nxt^(2^k) and starts holds nxt^j(0) for j < 2^k, in
    increasing order.
    """
    n = len(times)
    batch_size = min(batch_size, n + 1)  # a larger batch never fills: same cuts
    jump = np.append(np.arange(batch_size, n + batch_size), n)  # nxt, then n
    # the timeout binds where the batch_size-th member (+inf past the end) is late
    last = np.append(times[batch_size - 1:], np.full(batch_size - 1, np.inf))
    late = last > times + BATCH_TIMEOUT_S
    jump[:n][late] = np.searchsorted(times, times[late] + BATCH_TIMEOUT_S, side="right")
    starts = np.zeros(1, dtype=np.intp)
    while (starts := np.concatenate((starts, jump[starts])))[-1] < n:
        jump = jump[jump]
    starts = starts[: np.searchsorted(starts, n)]
    sizes = np.diff(starts, append=n)
    # a full block cuts at its last member; a partial one at its deadline
    cut_times = np.where(sizes == batch_size, times[starts + sizes - 1],
                         times[starts] + BATCH_TIMEOUT_S)
    return cut_times, starts, sizes


def check_run(cfg: QueueNetworkConfig, n_tx: int, commit_feed: str) -> None:
    """Refuse, before any allocation, a run simulate_pipeline cannot make."""
    if commit_feed not in (STAGE_FEED, BLOCK_FEED):
        raise ValueError(f"unknown commit feed {commit_feed!r}")
    if not 1 <= n_tx <= MAX_N_TX:
        raise ValueError(f"n_tx must be between 1 and {MAX_N_TX}")
    r0, _, r2, _ = utilizations(cfg)
    if r0 >= 1.0 or r2 >= 1.0:
        raise ValueError("endorsement or commitment station is saturated")
    if cfg.q01 <= 0.0:
        raise ValueError("no traffic reaches ordering (q01 = 0)")


def simulate_pipeline(
    cfg: QueueNetworkConfig,
    n_tx: int,
    seed: int,
    *,
    commit_feed: str = BLOCK_FEED,
) -> PipelineStats:
    check_run(cfg, n_tx, commit_feed)
    rng = np.random.default_rng(seed)

    # buffers are reused in place: each fresh page an array touches is a page fault
    arrivals = rng.exponential(1.0 / cfg.lambda0, n_tx)
    np.cumsum(arrivals, out=arrivals)
    d0_depart = _fifo_departures(arrivals, rng.exponential(1.0 / cfg.mu0, n_tx))
    routed = rng.random(n_tx) < cfg.q01
    arrive1, n0_horizon = d0_depart[routed], d0_depart[-1]
    sojourn0 = np.subtract(d0_depart, arrivals, out=d0_depart)
    d0_mean, n0_time_avg = float(sojourn0.mean()), float(sojourn0.sum() / n0_horizon)
    # the stage feed adds each transaction's endorsement sojourn, the block
    # feed subtracts its arrival
    routed_col = (sojourn0 if commit_feed == STAGE_FEED else arrivals)[routed]
    del arrivals, d0_depart, sojourn0, routed
    n_routed = len(arrive1)
    if not n_routed:
        nan = float("nan")
        return PipelineStats(0, 0, d0_mean, nan, nan, nan, nan, n0_time_avg, nan, 0.0)

    cut_times, starts, sizes = _cut_batches(arrive1, cfg.batch_size)
    # assembly/broadcast of each block, scaled by its actual fill, then
    # in-order delivery
    cut_times += rng.exponential(1.0, len(sizes)) * sizes / (2.0 * (cfg.q01 * cfg.lambda0))
    release = np.maximum.accumulate(cut_times, out=cut_times)
    d1 = np.repeat(release, sizes) - arrive1

    s2 = rng.exponential(1.0 / cfg.mu2, n_routed)
    if commit_feed == STAGE_FEED:
        # per-transaction M/M/1 fed by the (Poisson) endorsement departures
        d2_depart = _fifo_departures(arrive1, s2)
        horizon = d2_depart[-1]
        sojourn2 = np.subtract(d2_depart, arrive1, out=d2_depart)
        confirmation = np.add(routed_col, d1, out=routed_col)
        confirmation += sojourn2
    else:
        # blocks commit in order; a block's transactions validate in parallel
        block_depart = _fifo_departures(release, np.maximum.reduceat(s2, starts))
        horizon = block_depart[-1]
        # each block's commit sojourn, spread to its transactions
        sojourn2 = np.repeat(np.subtract(block_depart, release, out=release), sizes)
        confirmation = np.repeat(block_depart, sizes) - routed_col

    n_valid = int((rng.random(n_routed) < cfg.q23).sum())
    return PipelineStats(
        n_routed=n_routed,
        n_valid=n_valid,
        d0_mean=d0_mean,
        d1_mean=float(d1.mean()),
        d2_mean=float(sojourn2.mean()),
        confirmation_mean=float(confirmation.mean()),
        confirmation_std=float(confirmation.std()),
        n0_time_avg=n0_time_avg,
        n2_time_avg=float(sojourn2.sum() / horizon),
        throughput_valid=n_valid / float(horizon),
    )


DEVIATION_COLUMNS = ["metric", "closed_form", "simulated", "abs_deviation", "rel_deviation"]


def deviation_table(cfg: QueueNetworkConfig, stats: PipelineStats) -> list[dict]:
    """Closed form vs simulation, one row per comparable metric."""
    m = performance(cfg)
    pairs = [
        ("D0", m.delays[0], stats.d0_mean),
        ("D1", m.delays[1], stats.d1_mean),
        ("D2", m.delays[2], stats.d2_mean),
        ("D", m.confirmation_time, stats.confirmation_mean),
        ("N0", m.mean_counts[0], stats.n0_time_avg),
        ("N2", m.mean_counts[2], stats.n2_time_avg),
        ("H_flow", m.throughput_flow, stats.throughput_valid),
    ]
    rows = []
    for name, closed, simulated in pairs:
        gap = abs(simulated - closed)
        values = (name, closed, simulated, gap, gap / closed if closed else float("nan"))
        rows.append(dict(zip(DEVIATION_COLUMNS, values, strict=True)))
    return rows
