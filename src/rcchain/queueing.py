"""Closed-form performance model of the three-stage commit pipeline.

The pipeline is modeled as an open network of three single-server
stations: endorsement (node 0), ordering (node 1), commitment (node 2).
External arrivals are Poisson at rate lambda0 into node 0; a
transaction proceeds to ordering with probability q01 and otherwise
leaves (failed endorsement); node 1 feeds node 2; q23 is the fraction
leaving node 2 as valid. Service is exponential at mu0 and mu2;
the orderer cuts blocks of M transactions, so its effective rate is
2*Lambda1/M (one block fills in M/Lambda1 on average and a transaction
waits half that).

Two readings of the orderer station are supported:

* ``block_granularity`` (default): the orderer serves *blocks* —
  arrival rate Lambda1/M against service rate 2*Lambda1/M gives
  utilization 1/2 and a per-transaction ordering delay of M/Lambda1.
  This is the only stable reading for M >= 2 and the one all derived
  metrics use.
* ``literal_eq19``: utilization computed per transaction,
  Lambda1 / (2*Lambda1/M) = M/2, which is >= 1 for any M >= 2. Kept so
  reports can show the discrepancy; performance() refuses it as
  unstable rather than emitting negative delays.

The product form P(k0,k1,k2) = prod (1-Ri) Ri^ki gives the occupancy
law; mean counts are Ri/(1-Ri), per-node delays follow from Little's
law, confirmation time is their sum, and throughput is reported both as
the literal ratio N2*q23/D and as the flow-balance rate q23*Lambda2
(the two disagree in general; reports always carry both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

ORDERER_LITERAL = "literal_eq19"
ORDERER_BLOCK = "block_granularity"
ORDERER_MODES = (ORDERER_LITERAL, ORDERER_BLOCK)


class UnstableConfigError(ValueError):
    """Requested metrics need a stable station that is saturated."""

    def __init__(self, node: int, utilization: float):
        self.node = node
        self.utilization = utilization
        super().__init__(
            f"node {node} is unstable (utilization {utilization:g} >= 1)"
        )


@dataclass(frozen=True)
class QueueNetworkConfig:
    lambda0: float
    q01: float = 0.9
    q23: float = 0.95
    mu0: float = 150.0
    mu2: float = 150.0
    batch_size: int = 10
    orderer_mode: str = ORDERER_BLOCK

    def __post_init__(self):
        if not 0.0 <= self.lambda0 < math.inf:  # also false for nan
            raise ValueError("lambda0 must be finite and >= 0")
        if not (0.0 < self.mu0 < math.inf and 0.0 < self.mu2 < math.inf):
            raise ValueError("service rates must be finite and positive")
        if not (0.0 <= self.q01 <= 1.0 and 0.0 <= self.q23 <= 1.0):
            raise ValueError("routing probabilities must be in [0,1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.orderer_mode not in ORDERER_MODES:
            raise ValueError(f"unknown orderer mode {self.orderer_mode!r}")


@dataclass(frozen=True)
class PerfMetrics:
    arrivals: tuple[float, float, float]          # Lambda per node, tx/s
    mean_counts: tuple[float, float, float]       # per node (node 1 in blocks)
    mean_count_total: float
    delays: tuple[float, float, float]            # seconds per node
    confirmation_time: float                      # seconds
    throughput_eq31: float                        # N2*q23/D, tx/s
    throughput_flow: float                        # q23*Lambda2, tx/s


def solve_traffic(cfg: QueueNetworkConfig) -> tuple[float, float, float]:
    """Total traffic into each node under the feed-forward routing."""
    l1 = cfg.q01 * cfg.lambda0
    return (cfg.lambda0, l1, l1)


def orderer_service_rate(cfg: QueueNetworkConfig) -> float:
    """Effective ordering rate 2*Lambda1/M (mean batch fill time M/Lambda1,
    mean per-transaction wait half of it)."""
    _, l1, _ = solve_traffic(cfg)
    if l1 == 0:
        raise ValueError("no traffic reaches the orderer (Lambda1 = 0)")
    return 2.0 * l1 / cfg.batch_size


def utilizations(cfg: QueueNetworkConfig) -> tuple[float, float, float, bool]:
    """(R0, R1, R2, stable); instability is reported, not raised."""
    l0, l1, l2 = solve_traffic(cfg)
    r0 = l0 / cfg.mu0
    r2 = l2 / cfg.mu2
    if cfg.orderer_mode == ORDERER_BLOCK:
        # block arrivals Lambda1/M against block service 2*Lambda1/M
        r1 = 0.5 if l1 > 0 else 0.0
    else:
        r1 = cfg.batch_size / 2.0 if l1 > 0 else 0.0
    stable = r0 < 1.0 and r1 < 1.0 and r2 < 1.0
    return (r0, r1, r2, stable)


def state_probability(k0: int, k1: int, k2: int, r: tuple[float, float, float]) -> float:
    """Product-form stationary probability of (k0, k1, k2) occupancy."""
    if min(k0, k1, k2) < 0:
        raise ValueError("occupancies must be >= 0")
    p = 1.0
    for node, (k, ri) in enumerate(zip((k0, k1, k2), r)):
        if not 0.0 <= ri < 1.0:
            raise UnstableConfigError(node, ri)
        p *= (1.0 - ri) * ri**k
    return p


def marginal_probability(k: int, r: float) -> float:
    if not 0.0 <= r < 1.0:
        raise UnstableConfigError(-1, r)
    return (1.0 - r) * r**k


def truncation_bound(r: float) -> int:
    """Grid cutoff leaving < 1e-9 tail mass for a geometric marginal."""
    return math.ceil(60.0 / (1.0 - r))


def performance(cfg: QueueNetworkConfig) -> PerfMetrics:
    """All derived metrics for a stable configuration.

    Node delays for 0 and 2 are Ri/((1-Ri)*Lambda_i); the ordering
    delay at block granularity is M/Lambda1 (one block in the station
    times the block arrival rate, by Little's law at block units).
    """
    l0, l1, l2 = solve_traffic(cfg)
    r0, r1, r2, _ = utilizations(cfg)
    for node, r in enumerate((r0, r1, r2)):
        if r >= 1.0:
            raise UnstableConfigError(node, r)
    if l1 == 0:
        raise ValueError("no traffic reaches the orderer (Lambda1 = 0)")
    n0 = r0 / (1.0 - r0)
    n1 = r1 / (1.0 - r1)
    n2 = r2 / (1.0 - r2)
    d0 = r0 / ((1.0 - r0) * l0)
    d2 = r2 / ((1.0 - r2) * l2)
    if cfg.orderer_mode == ORDERER_BLOCK:
        d1 = n1 / (l1 / cfg.batch_size)  # = M / Lambda1
    else:
        d1 = r1 / ((1.0 - r1) * l1)
    d_total = d0 + d1 + d2
    return PerfMetrics(
        arrivals=(l0, l1, l2),
        mean_counts=(n0, n1, n2),
        mean_count_total=n0 + n1 + n2,
        delays=(d0, d1, d2),
        confirmation_time=d_total,
        throughput_eq31=n2 * cfg.q23 / d_total,
        throughput_flow=cfg.q23 * l2,
    )


REPORT_COLUMNS = [
    "lambda0", "M", "mode", "R0", "R1", "R2", "stable",
    "N0", "N1", "N2", "N", "D0", "D1", "D2", "D", "H_eq31", "H_flow",
]


def sweep(
    base: QueueNetworkConfig,
    lambda0s: Iterable[float],
    batch_sizes: Iterable[int],
) -> list[dict]:
    """Grid evaluation as report rows keyed by REPORT_COLUMNS; unstable
    rows are flagged, never dropped, and their undefined metrics are None."""
    rows = []
    for lam in lambda0s:
        for m in batch_sizes:
            cfg = replace(base, lambda0=lam, batch_size=m)
            r0, r1, r2, stable = utilizations(cfg)
            perf = performance(cfg) if stable and cfg.q01 * lam > 0 else None
            rows.append({
                "lambda0": lam,
                "M": m,
                "mode": cfg.orderer_mode,
                "R0": r0,
                "R1": r1,
                "R2": r2,
                "stable": stable,
                "N0": perf.mean_counts[0] if perf else None,
                "N1": perf.mean_counts[1] if perf else None,
                "N2": perf.mean_counts[2] if perf else None,
                "N": perf.mean_count_total if perf else None,
                "D0": perf.delays[0] if perf else None,
                "D1": perf.delays[1] if perf else None,
                "D2": perf.delays[2] if perf else None,
                "D": perf.confirmation_time if perf else None,
                "H_eq31": perf.throughput_eq31 if perf else None,
                "H_flow": perf.throughput_flow if perf else None,
            })
    return rows
