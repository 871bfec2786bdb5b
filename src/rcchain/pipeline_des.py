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
for a block's deadline only where the timeout binds. A run with 10^6
transactions takes seconds; MAX_N_TX bounds one run because its arrays
are allocated up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .queueing import QueueNetworkConfig, performance, utilizations

STAGE_FEED = "stage"
BLOCK_FEED = "block"
BATCH_TIMEOUT_S = 2.0  # OrderingConfig's default batch timeout
MAX_N_TX = 10_000_000  # most arrivals one run may simulate; its arrays are allocated up front


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
    prefix scan): D_n = B_n + max_k<=n (A_k - B_{k-1})."""
    busy = np.cumsum(services)
    prev = np.concatenate((np.zeros(1), busy[:-1]))
    return busy + np.maximum.accumulate(arrivals - prev)


def _cut_batches(times: np.ndarray, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Batch boundaries over sorted orderer-arrival times.

    Returns (cut_times, block_of_tx). A block cuts when its batch_size-th
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
    return cut_times, np.repeat(np.arange(len(starts)), sizes)


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

    arrivals = np.cumsum(rng.exponential(1.0 / cfg.lambda0, n_tx))
    s0 = rng.exponential(1.0 / cfg.mu0, n_tx)
    d0_depart = _fifo_departures(arrivals, s0)
    sojourn0 = d0_depart - arrivals

    routed = rng.random(n_tx) < cfg.q01
    arrive1 = d0_depart[routed]
    arrivals_routed = arrivals[routed]
    sojourn0_routed = sojourn0[routed]

    lambda1 = cfg.q01 * cfg.lambda0
    cut_times, blk = _cut_batches(arrive1, cfg.batch_size)

    # assembly/broadcast of each block, scaled by its actual fill
    block_sizes = np.bincount(blk, minlength=len(cut_times)).astype(np.float64)
    assembly = rng.exponential(1.0, len(cut_times)) * block_sizes / (2.0 * lambda1)
    release = np.maximum.accumulate(cut_times + assembly)  # in-order delivery
    d1 = release[blk] - arrive1

    s2 = rng.exponential(1.0 / cfg.mu2, len(arrive1))
    if commit_feed == STAGE_FEED:
        # per-transaction M/M/1 fed by the (Poisson) endorsement departures
        t2 = arrive1
        d2_depart = _fifo_departures(t2, s2)
        sojourn2 = d2_depart - t2
        confirmation = sojourn0_routed + d1 + sojourn2
    else:
        # blocks commit in order; a block's transactions validate in parallel
        block_service = np.zeros(len(cut_times))
        np.maximum.at(block_service, blk, s2)
        block_depart = _fifo_departures(release, block_service)
        d2_depart = block_depart[blk]
        sojourn2 = (block_depart - release)[blk]  # each block's commit sojourn
        confirmation = d2_depart - arrivals_routed

    n_valid = int((rng.random(len(arrive1)) < cfg.q23).sum())
    horizon = float(d2_depart[-1]) if len(d2_depart) else float(d0_depart[-1])
    return PipelineStats(
        n_routed=len(arrive1),
        n_valid=n_valid,
        d0_mean=float(sojourn0.mean()),
        d1_mean=float(d1.mean()) if len(d1) else float("nan"),
        d2_mean=float(sojourn2.mean()) if len(sojourn2) else float("nan"),
        confirmation_mean=float(confirmation.mean()) if len(confirmation) else float("nan"),
        confirmation_std=float(confirmation.std()) if len(confirmation) else float("nan"),
        n0_time_avg=float(sojourn0.sum() / d0_depart[-1]),
        n2_time_avg=float(sojourn2.sum() / horizon) if len(sojourn2) else float("nan"),
        throughput_valid=n_valid / horizon,
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
        rows.append(
            {
                "metric": name,
                "closed_form": closed,
                "simulated": simulated,
                "abs_deviation": abs(simulated - closed),
                "rel_deviation": abs(simulated - closed) / closed if closed else float("nan"),
            }
        )
    return rows
