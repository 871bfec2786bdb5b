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
scans and no Python loop runs per transaction or per block. The batch
cutter searches for a block's deadline only at the starts where the
timeout binds; between them blocks are full and follow in strides of
batch_size, so pointer doubling runs over those late starts alone, or
over every start when the timeout binds at most of them. Each
full-length quantity is one buffer, written in place and dropped after
its last reader: tracemalloc's peak is 31-44 bytes per arrival (lambda0 =
37.29, M in {1, 10, 100}) and 47 where the timeout binds at about half
the block starts (lambda0 = 0.4, M = 2), a run of 10^6 transactions
takes 0.1-0.2 s, and one of MAX_N_TX in the stage feed at M = 1 (compare's
longest) peaks near 390 MiB resident.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .ledger import BATCH_TIMEOUT_S
from .queueing import QueueNetworkConfig, performance, solve_traffic, utilizations

STAGE_FEED = "stage"
BLOCK_FEED = "block"
MAX_N_TX = 10_000_000  # most arrivals one run may simulate
# most n_tx / lambda0, the expected last arrival instant, a run may have.
# Each instant is a sum of exponential draws, each below 45 times its mean
# (numpy's ziggurat draws at most r - log(2**-53) = 44.4), so for q01 >= 0.1
# every instant and span stays under 45 n_tx (1/lambda0 + 1/mu0 +
# 1/(2 Lambda1) + 1/mu2) <= 765 n_tx/lambda0, plus the timeout. The std of
# the confirmation time sums up to MAX_N_TX such spans squared: at this bound
# that is at most MAX_N_TX * 765**2 / 2**44 < 1/2 of the largest float.
MAX_LAST_ARRIVAL_S = math.sqrt(sys.float_info.max) / 2**22
# most float spacing at the expected last arrival, as a share of the shortest
# mean service time 1/max(mu0, mu2). A sojourn is a difference of instants up
# to about n_tx/lambda0 (within a binade of it at large n_tx), off by under 4
# spacings: 2**-14 of a mean sojourn, a fifth of a mean's relative sampling
# error at MAX_N_TX, 1/sqrt(MAX_N_TX) = 2**-11.6.
_MAX_SPACING_SHARE = 2.0**-16


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


def _orbit(jump: np.ndarray, end: int) -> np.ndarray:
    """The nodes reached from node 0 under jump before end, its fixed point,
    in increasing order. Pointer doubling: after r rounds jump holds
    jump^(2^r) and the orbit its first 2^r nodes. The caller gives up jump."""
    orbit = np.zeros(1, dtype=np.intp)
    spare = np.empty_like(jump)
    while (orbit := np.concatenate((orbit, jump[orbit])))[-1] < end:
        # two buffers in turn; every index is in range, and "clip" spares the
        # copy take makes to check them
        jump, spare = np.take(jump, jump, out=spare, mode="clip"), jump
    return orbit[: np.searchsorted(orbit, end)].copy()


def _cut_batches(times: np.ndarray, batch_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch boundaries over sorted orderer-arrival times.

    Returns (cut_times, starts, sizes): block b holds the arrivals
    starts[b] to starts[b] + sizes[b] - 1. A block cuts when its batch_size-th
    member arrives, or at first-member-arrival + BATCH_TIMEOUT_S with
    whatever is pending, so every transaction is cut into a block.

    A start p is late when its batch_size-th member is missing or arrives
    after p's deadline; its block then ends before s(p), the first arrival
    past the deadline (the comparison a right-side search makes), and s(p)
    is searched for only there. Any other start holds a full block, so from
    any start the blocks run in strides of batch_size up to the first late
    start in the same residue class mod batch_size, or up to n. That late
    start is s(p) itself unless s(p) is not late, and only then is its
    residue class searched. Pointer doubling over the late starts finds the
    ones reached from 0, and each stride run between them expands by a
    cumulative sum. Where the timeout binds at most starts, doubling over
    every start costs less than the run bookkeeping and is used instead.
    """
    n = len(times)
    m = min(batch_size, n + 1)  # a larger batch never fills: same cuts
    rows = n // m + 1
    # late[n] stands for the end of the stream; the (rows, m) grid puts each
    # residue class in a column
    late = np.zeros(rows * m, dtype=bool)
    late[n - m + 1 : n + 1] = True
    np.greater(times[m - 1:], times[: n - m + 1] + BATCH_TIMEOUT_S, out=late[: n - m + 1])
    pos = np.flatnonzero(late)  # the late starts, then n
    k = len(pos) - 1
    # node 0 enters the stream at 0, node j in 1..k is the late start
    # pos[j - 1] and node k + 1 the end; dest is where each node's stride
    # run starts (s(p) for a late start)
    deadline = np.empty(k + 2)
    deadline[0], deadline[-1] = -np.inf, np.inf
    np.take(times, pos[:-1], out=deadline[1:-1], mode="clip")  # "clip": no copy
    deadline[1:-1] += BATCH_TIMEOUT_S
    dest = np.searchsorted(times, deadline, side="right")
    del deadline
    if 2 * k > n:
        # the timeout binds at most starts: double over every position
        jump = np.arange(m, n + m + 1)
        jump[pos] = dest[1:]  # and n to itself
        del pos, dest
        starts = _orbit(jump, n)
        sizes = np.diff(starts, append=n)
        cut_times = np.where(late[starts], times[starts] + BATCH_TIMEOUT_S,
                             times[starts + sizes - 1])
        return cut_times, starts, sizes
    # a run from a start that is not late ends at the next late start (or n)
    # in its column: found on the late grid's positions in (p mod m, p) order
    miss = np.flatnonzero(~late[dest])
    if len(miss):
        keys = np.flatnonzero(late.reshape(rows, m).T)
        found = keys[np.searchsorted(keys, dest[miss] % m * rows + dest[miss] // m)]
        del keys
        miss_end = found % rows * m + found // rows
    if (dest[0] if late[0] else miss_end[0]) == n:
        # the stride run from 0 (dest[0]) reaches no late start: every block is full
        return times[m - 1 :: m].copy(), np.arange(0, n, m), np.full(n // m, m, dtype=np.intp)
    del late
    # the node of each late start and of n, by position; a miss reads an
    # unset entry and is overwritten below
    node = np.empty(n + 1, dtype=np.intp)
    node[pos] = np.arange(1, k + 2)
    jump = node[dest]
    if len(miss):
        jump[miss] = node[miss_end]
        del miss_end
    del node, miss
    orbit = _orbit(jump, k + 1)
    del jump
    # run i goes from dest[orbit[i]] in strides of m up to the next late start
    # on the orbit, the last one up to n
    run_start = dest[orbit]
    del dest
    run_end = pos[np.append(orbit[1:], k + 1) - 1]
    del pos, orbit
    lens = (run_end - run_start) // m
    lens[:-1] += 1
    at_late = np.cumsum(lens[:-1]) - 1  # the block of each late start on the orbit
    late_start = run_end[:-1]
    sizes = np.full(lens.sum(), m, dtype=np.intp)
    sizes[at_late] = run_start[1:] - late_start
    last = np.cumsum(sizes)  # one past each block, then its last member
    starts = last - sizes
    last -= 1
    # a full block cuts at its last member; a late one at its deadline
    cut_times = times[last]
    cut_times[at_late] = times[late_start] + BATCH_TIMEOUT_S
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
    if solve_traffic(cfg)[1] == 0:  # performance's rule: q01 = 0 or lambda0 = 0
        raise ValueError("no traffic reaches the orderer (Lambda1 = 0)")
    if not n_tx / cfg.lambda0 <= MAX_LAST_ARRIVAL_S:  # n_tx >= 1: also 1/lambda0 = inf
        raise ValueError(f"lambda0 = {cfg.lambda0!r} is too small for n_tx = {n_tx}: the "
                         f"expected last arrival n_tx/lambda0 is over {MAX_LAST_ARRIVAL_S:.4g} s")
    spacing, service = math.ulp(n_tx / cfg.lambda0), 1.0 / max(cfg.mu0, cfg.mu2)
    if spacing > _MAX_SPACING_SHARE * service:
        raise ValueError(f"lambda0 = {cfg.lambda0!r} is too small for n_tx = {n_tx}: the float "
                         f"spacing at the expected last arrival n_tx/lambda0, {spacing:.3g} s, is "
                         f"over 2**-16 of the shortest mean service time {service:.3g} s")


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
    # each sojourn is summed once; its mean is that sum over the count, as in mean()
    sum0 = float(sojourn0.sum())
    d0_mean, n0_time_avg = sum0 / n_tx, sum0 / float(n0_horizon)
    # the stage feed adds each transaction's endorsement sojourn, the block
    # feed subtracts its arrival
    routed_col = (sojourn0 if commit_feed == STAGE_FEED else arrivals)[routed]
    del arrivals, d0_depart, sojourn0, routed
    n_routed = len(arrive1)
    if not n_routed:
        nan = float("nan")
        return PipelineStats(0, 0, d0_mean, nan, nan, nan, nan, n0_time_avg, nan, 0.0)

    release, starts, sizes = _cut_batches(arrive1, cfg.batch_size)
    if commit_feed == STAGE_FEED:
        del starts  # only the block feed reads the block starts
    # each block's cut instant, plus its assembly/broadcast delay scaled by
    # its actual fill, then in-order delivery
    release += rng.exponential(1.0, len(sizes)) * sizes / (2.0 * (cfg.q01 * cfg.lambda0))
    np.maximum.accumulate(release, out=release)
    d1 = np.repeat(release, sizes)
    d1_mean = float(np.subtract(d1, arrive1, out=d1).mean())

    # each full-length array is dropped right after its last reader
    if commit_feed == STAGE_FEED:
        del release, sizes
        confirmation = np.add(routed_col, d1, out=routed_col)
        del d1
        # per-transaction M/M/1 fed by the (Poisson) endorsement departures
        d2_depart = _fifo_departures(arrive1, rng.exponential(1.0 / cfg.mu2, n_routed))
        horizon = d2_depart[-1]
        sojourn2 = np.subtract(d2_depart, arrive1, out=d2_depart)
        del arrive1, d2_depart
        confirmation += sojourn2
        sum2 = float(sojourn2.sum())
        del sojourn2
    else:
        del arrive1, d1
        # blocks commit in order; a block's transactions validate in parallel
        s2 = rng.exponential(1.0 / cfg.mu2, n_routed)
        block_s2 = np.maximum.reduceat(s2, starts)
        del s2, starts
        block_depart = _fifo_departures(release, block_s2)
        horizon = block_depart[-1]
        # each block's commit sojourn, spread to its transactions
        sojourn2 = np.repeat(np.subtract(block_depart, release, out=release), sizes)
        sum2 = float(sojourn2.sum())
        del sojourn2, release
        confirmation = np.repeat(block_depart, sizes)
        del block_depart, sizes
        confirmation -= routed_col

    n_valid = int((rng.random(n_routed) < cfg.q23).sum())
    return PipelineStats(
        n_routed=n_routed,
        n_valid=n_valid,
        d0_mean=d0_mean,
        d1_mean=d1_mean,
        d2_mean=sum2 / n_routed,
        confirmation_mean=float(confirmation.mean()),
        confirmation_std=float(confirmation.std()),
        n0_time_avg=n0_time_avg,
        n2_time_avg=sum2 / float(horizon),
        throughput_valid=n_valid / float(horizon),
    )


DEVIATION_COLUMNS = ["metric", "closed_form", "simulated", "abs_deviation", "rel_deviation"]


def deviation_table(cfg: QueueNetworkConfig, stats: PipelineStats) -> list[dict]:
    """Closed form vs simulation, one row per comparable metric. A value
    the run could not measure (no transaction reached ordering) and its
    deviations are None, as are relative deviations from a zero closed form."""
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
        if simulated != simulated:  # nan: the run could not measure it
            simulated = None
        gap = None if simulated is None else abs(simulated - closed)
        rel = gap / closed if gap is not None and closed else None
        values = (name, closed, simulated, gap, rel)
        rows.append(dict(zip(DEVIATION_COLUMNS, values, strict=True)))
    return rows
