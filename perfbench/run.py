"""rcchain benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a checkout. `--trace 0` measures one workload with
tracing off and prints its end-to-end metrics; `--trace 1` runs a
traced pass of every workload and prints the per-layer metrics and the
tracing overhead. `--workload all` (the default) does both for all four
workloads. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
when every output check passed, 1 when one failed, and 2 when the
checkout has no rcchain sources.

Every time is scaled to a reference machine speed: a calibration kernel
is timed before and after each measurement, and a time t becomes
t * CAL_REF_S / k, where k is the typical kernel time over the same
measurements. The raw times are printed too.
"""

from __future__ import annotations

import time

# set-up is timed from here: numpy, rcchain and the benchmark modules
# load after this line
_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import hmac  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Seconds the calibration kernel takes on an idle core of the machine the
# benchmark was tuned on (x86-64, Python 3.11, numpy 2.4).
CAL_REF_S = 0.040
KERNELS_PER_GAP = 2   # kernel runs before and after each measurement
SETUP_REPEATS = 9
MIN_PASSES = 3        # timed passes per untraced run, after one warm-up pass
PERCENTILE_TAIL = 10  # samples a reported percentile needs beyond it


def _import_rcchain() -> None:
    """Import rcchain from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "rcchain", "__init__.py")):
        print(f"perfbench: no rcchain sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import rcchain
    if os.path.dirname(os.path.dirname(os.path.abspath(rcchain.__file__))) != SRC:
        print(f"perfbench: imported rcchain from {rcchain.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values: as robust to a few outlying
    passes as the median, and steadier when there are 10 to 30 of them."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do:
    interpreter loops and dict updates, canonical JSON with SHA-256 and
    HMAC, and numpy draws and prefix scans. On a machine shared with
    other tenants the speed of a core drifts by tens of percent over
    minutes; the median of this kernel's times, taken next to the
    measurements, tracks that drift."""
    t0 = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    counts: dict[int, int] = {}
    for i in range(50_000):
        key = i % 977
        counts[key] = counts.get(key, 0) + 1
    for i in range(1_500):
        doc = json.dumps({"key": i, "value": "v" * 40}, sort_keys=True).encode()
        digest = hashlib.sha256(doc).hexdigest()
        hmac.new(doc[:32], digest.encode(), "sha256").hexdigest()
        json.loads(doc)
    draws = np.random.default_rng(0).exponential(1.0, 500_000)
    np.maximum.accumulate(np.cumsum(draws) - 1.0)
    return time.perf_counter() - t0


def calibrated(fn, *args):
    """(fn(*args), kernel times just before and just after the call)."""
    gc.collect()
    before = [calibrate() for _ in range(KERNELS_PER_GAP)]
    result = fn(*args)
    return result, tuple(before + [calibrate() for _ in range(KERNELS_PER_GAP)])


def speed(kernels) -> float:
    """Machine speed relative to the reference: scale a time by it."""
    return CAL_REF_S / interquartile_mean(kernels)


class Outcome:
    """Passes attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages.append(message)

    def run(self, fn, *args):
        """Run one pass; a pass that raises or fails a check is a failure
        and returns None. Failed passes are not retried."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception:
            self.fail(traceback.format_exc().strip())
            return None
        if result.failures:
            self.failed += 1
            self.messages += result.failures
            return None
        return result


def run_pass(outcome: Outcome, workload, inputs, tracer=None):
    """One calibrated pass; None when it failed."""
    from workloads import Clock

    os.makedirs(OUT, exist_ok=True)
    result, kernels = calibrated(outcome.run, workload.run_pass, inputs, OUT,
                                 Clock(tracer))
    if result is not None:
        result.kernels = kernels
    return result


# ---------------------------------------------------------------------------
# tracing off: set-up and passes
# ---------------------------------------------------------------------------

def measure_setup(workload: str, seed: int, tiny: bool) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, each loading numpy and rcchain
    and building the workload's inputs from the seed, timed inside the
    child so that process creation does not count; and the kernel times
    around them. Each child is waited for."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])

    def launch() -> float:
        child = subprocess.run(cmd, check=True, cwd=ROOT, capture_output=True, text=True,
                               timeout=120)
        return float(child.stdout.split()[-1])

    times, kernels = [], []
    for _ in range(SETUP_REPEATS):
        raw, around = calibrated(launch)
        times.append(raw)
        kernels += around
    return times, kernels


def measure_untraced(workload, inputs, seconds: float, outcome: Outcome) -> list:
    """A warm-up pass, then passes until `seconds` have gone (at least
    MIN_PASSES). Every pass must reproduce the warm-up's outputs."""
    t_start = time.perf_counter()
    reference = run_pass(outcome, workload, inputs)
    if reference is None:
        return []
    passes = []
    while True:
        result = run_pass(outcome, workload, inputs)
        if result is None:
            break
        if result.fingerprint != reference.fingerprint:
            outcome.fail(f"{workload.name}: a repeat pass with the same inputs "
                         "gave other outputs")
            break
        passes.append(result)
        typical = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and time.perf_counter() - t_start + typical > seconds:
            break
    return passes


def end_to_end(name: str, passes, setup: tuple[list[float], list[float]]
               ) -> tuple[dict, list[str]]:
    setup_times, setup_kernels = setup
    scale = speed([k for p in passes for k in p.kernels])
    walls = [p.wall_s * scale for p in passes]
    rates = [p.tx_per_s / scale for p in passes]
    metrics = {
        "setup_s": statistics.median(setup_times) * speed(setup_kernels),
        "wall_s": interquartile_mean(walls),
        "tx_per_s": interquartile_mean(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    w1, w3 = quartiles(walls)
    r1, r3 = quartiles(rates)
    raw = [p.wall_s for p in passes]
    first = passes[0]
    phase = {ph: interquartile_mean(p.phases[ph] for p in passes) * scale
             for ph in first.phases}
    lines = [
        f"setup_s         {metrics['setup_s']:.4f} s     median of {len(setup_times)} "
        "fresh interpreters that load numpy and rcchain and build the inputs",
        f"wall_s          {metrics['wall_s']:.4f} s     interquartile mean of {len(walls)} "
        f"passes (p25 {w1:.4f}, p75 {w3:.4f})",
        f"tx_per_s        {metrics['tx_per_s']:.1f} tx/s  interquartile mean of {len(rates)} passes "
        f"(p25 {r1:.1f}, p75 {r3:.1f}); {first.work} tx over the seconds of "
        f"{', '.join(first.rate_phases)}",
        f"peak_rss_mb     {metrics['peak_rss_mb']:.1f} MB",
    ]
    if name in ("scenario-city", "ledger-contended"):
        audit = phase[f"{name.split('-')[0]}.audit"]
        tx = first.facts["tx"]
        lines.append(f"audit_tx_per_s  {tx / audit:.1f} tx/s  verify_chain with policy "
                     f"replay: {tx} tx / {audit:.4f} s")
    export = {"scenario-city": ("scenario.write_outputs", "write_outputs to a temp dir"),
              "ledger-contended": ("ledger.export",
                                   "export_ledger_lines + verify_export_lines"),
              "presets-all": ("presets.write_outputs", "write_outputs of all four presets")}
    if name in export:
        key, what = export[name]
        lines.append(f"export_s        {phase[key]:.4f} s     {what}")
    lines.append(f"raw wall        {interquartile_mean(raw):.4f} s     unscaled; "
                 f"machine speed {scale:.3f} of the reference over "
                 f"{sum(len(p.kernels) for p in passes)} kernel runs")
    lines += [f"  phase {ph:<34} {s:.4f} s" for ph, s in phase.items()]
    return metrics, lines


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

REPUTATION_SPANS = ("evaluate_pair", "direct_score", "apply_reputation_update", "select_server")
LEDGER_SPANS = ("propose", "endorse", "check_policy", "order_batch", "validate_and_commit")


def layer_metrics(name: str, result, span, counters, durations,
                  outcome: Outcome) -> tuple[dict, list[str]]:
    """Per-layer metrics of one workload, unscaled. `span` and `counters`
    give figures per traced pass; `durations` pools every traced pass."""
    facts = result.facts
    if name == "scenario-city":
        run = "scenario.run"
        evals = span(run, "evaluate_pair")
        opinions = counters[(run, "opinions")]
        return {
            "reputation.evaluate_pair.calls": evals["calls"],
            "reputation.evaluate_pair.self_s": evals["self"],
            "reputation.direct_score.calls": span(run, "direct_score")["calls"],
            "reputation.direct_score.self_s": span(run, "direct_score")["self"],
            "reputation.opinions_per_eval": opinions / max(evals["calls"], 1),
            "reputation.apply_update.calls": span(run, "apply_reputation_update")["calls"],
            "reputation.apply_update.self_s": span(run, "apply_reputation_update")["self"],
            "reputation.select_server.calls": span(run, "select_server")["calls"],
            "reputation.select_server.self_s": span(run, "select_server")["self"],
            "reputation.replay_s": span("scenario.replay", "scenario.replay")["total"],
            "scenario.engine.self_s": span(run, run)["self"],
            "scenario.reputation.self_s": sum(span(run, n)["self"] for n in REPUTATION_SPANS),
            "scenario.ledger.self_s": sum(span(run, n)["self"] for n in LEDGER_SPANS),
            "scenario.write_outputs_s":
                span("scenario.write_outputs", "scenario.write_outputs")["total"],
            "scenario.tx": facts["tx"],
            "scenario.missions": facts["missions"],
            "scenario.abandoned": facts["abandoned"],
            "scenario.blocks": facts["blocks"],
        }, [f"reputation.opinions_per_eval = {opinions:.0f} opinions / "
            f"{evals['calls']} evaluate_pair calls"]

    if name == "ledger-contended":
        stream = "ledger.stream"
        tx = facts["tx"]
        metrics = {
            f"ledger.{step}.tx_per_s": span(stream, step)["calls"] / span(stream, step)["total"]
            for step in ("propose", "endorse", "check_policy")
        }
        metrics["ledger.commit.tx_per_s"] = tx / span(stream, "validate_and_commit")["total"]
        block_ms = (durations(stream, "validate_and_commit") * 1e3).tolist()
        for q in (50, 99):
            value, beyond = percentile(block_ms, q)
            metrics[f"ledger.commit_block_ms.p{q}"] = value
            if beyond < PERCENTILE_TAIL:
                outcome.fail(f"ledger.commit_block_ms.p{q}: only {beyond} of "
                             f"{len(block_ms)} samples beyond it")
        invalid = facts["invalid"]
        metrics.update({
            "ledger.commit_block_ms.samples": len(block_ms),
            "ledger.order_batch.calls": span(stream, "order_batch")["calls"],
            "ledger.stream_loop.self_s": span(stream, stream)["self"],
            "ledger.blocks": facts["blocks"],
            "ledger.block_fill": tx / (facts["blocks"] * facts["batch_size"]),
            "ledger.verify_chain.tx_per_s": tx / span("ledger.audit", "ledger.audit")["total"],
            "ledger.export.tx_per_s": tx / span("ledger.export", "ledger.export")["total"],
            "ledger.attempted": tx,
            "ledger.valid_ratio": facts["valid"] / tx,
        })
        for reason in ("signature", "policy", "duplicate", "mvcc_conflict"):
            metrics[f"ledger.invalid.{reason}"] = invalid.get(reason, 0)
        return metrics, [
            f"ledger.valid_ratio = {facts['valid']} valid / {tx} attempted; "
            f"invalid by reason {dict(sorted(invalid.items()))}",
            f"ledger.block_fill = {tx} tx / ({facts['blocks']} blocks x "
            f"batch {facts['batch_size']})",
            f"ledger.commit_block_ms p50/p99 over {len(block_ms)} blocks",
        ]

    if name == "des-sweep":
        metrics = {}
        for case, n_tx in facts["n_tx"].items():
            root = f"pipeline_des.{case}"
            metrics[f"{root}.tx_per_s"] = n_tx / span(root, root)["total"]
        for key in ("D0", "D1", "D2", "H_flow"):
            metrics[f"pipeline_des.M10.stage.dev_{key}"] = facts["deviation"][key]
        return metrics, []

    return {f"{ph}.s": span(ph, ph)["total"]
            for ph in result.phases if ph != "presets.write_outputs"}, []


def traced_run(seed: int, sizes, units: dict, outcome: Outcome) -> tuple[dict, list[str]]:
    """Per workload: a warm-up pass, an untraced pass and `traced_passes`
    traced passes. Per-layer metrics come from the traced passes; times
    are scaled by the machine speed over the kernel runs around them.
    The overhead is the mean traced wall time minus the untraced one."""
    from spans import Shims, Tracer
    from workloads import WORKLOADS, shim_targets

    tracer = Tracer()
    traced = {}
    metrics: dict[str, float] = {}
    lines: list[str] = []
    for name, workload in WORKLOADS.items():
        inputs = workload.make_inputs(seed, sizes)
        if run_pass(outcome, workload, inputs) is None:
            continue
        plain = run_pass(outcome, workload, inputs)
        with Shims(tracer, shim_targets()):
            results = [run_pass(outcome, workload, inputs, tracer)
                       for _ in range(workload.traced_passes)]
        if plain is None or None in results:
            continue
        if any(r.fingerprint != plain.fingerprint for r in results):
            outcome.fail(f"{name}: a traced pass gave other outputs")
            continue
        scale = speed([k for r in [plain, *results] for k in r.kernels])
        wall = statistics.mean(r.wall_s for r in results)
        traced[name] = (results[-1], len(results), wall, scale)
        metrics[f"trace.{name}.overhead_s"] = (wall - plain.wall_s) * scale
        metrics[f"trace.{name}.traced_wall_s"] = wall * scale
    tracer.write(os.path.join(OUT, "spans.npz"))
    if len(traced) != len(WORKLOADS):
        return metrics, lines

    summary = tracer.summary()
    for name, (result, passes, wall, scale) in traced.items():
        def span(root: str, label: str, passes=passes) -> dict:
            rec = summary.get((root, label), {"calls": 0, "total": 0.0, "self": 0.0})
            # every traced pass makes the same calls
            return {"calls": rec["calls"] // passes, "total": rec["total"] / passes,
                    "self": rec["self"] / passes}

        counters = {key: value / passes for key, value in tracer.counters.items()}
        # the self times of the spans under a pass's phases add up to
        # the pass's wall time
        own = sum(rec["self"] for (root, _), rec in summary.items()
                  if root in result.phases) / passes
        lines.append(f"trace {name:<17} traced wall {wall:.4f} s raw, self times "
                     f"sum to {own:.4f} s; overhead "
                     f"{metrics[f'trace.{name}.overhead_s']:+.4f} s scaled")
        if abs(own - wall) > 0.01 * wall:
            outcome.fail(f"{name}: self times {own:.4f} s do not account for the "
                         f"traced wall time {wall:.4f} s")
        found, notes = layer_metrics(name, result, span, counters,
                                     tracer.durations, outcome)
        lines += notes
        for key, value in found.items():
            if units.get(key) in ("s", "ms"):
                value *= scale
            elif units.get(key) == "tx/s":
                value /= scale
            metrics[key] = value
    return metrics, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def result_line(outcome: Outcome, values: dict, units: dict) -> str:
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "scenario-city", "ledger-contended",
                                 "des-sweep", "presets-all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes; the figures mean nothing")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_rcchain()
    sys.path.insert(0, HERE)
    from inputs import FULL, TINY
    from workloads import WORKLOADS

    sizes = TINY if args.tiny else FULL
    if args.setup_only:
        WORKLOADS[args.workload].make_inputs(args.seed, sizes)
        print(time.perf_counter() - _T0)
        return 0

    spec = load_spec()
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    everything = args.workload == "all"
    names = list(WORKLOADS) if everything else [args.workload]
    outcome = Outcome()
    values: dict[str, float] = {}
    units: dict[str, str] = {}
    expected: set[str] = set()

    if everything or args.trace == 0:
        for name in names:
            workload = WORKLOADS[name]
            print(f"== {name}, seed {args.seed}, tracing off ==", flush=True)
            attempted, failed = outcome.attempted, outcome.failed
            try:
                setup = measure_setup(name, args.seed, args.tiny)
                inputs = workload.make_inputs(args.seed, sizes)
            except Exception:  # counted like a failed pass, then the next workload
                outcome.attempted += 1
                outcome.fail(f"{name} set-up: {traceback.format_exc().strip()}")
                passes = []
            else:
                passes = measure_untraced(workload, inputs, args.seconds, outcome)
            attempted, failed = outcome.attempted - attempted, outcome.failed - failed
            prefix = f"{name}." if everything else ""
            expected |= {prefix + k for k in e2e_units}
            if passes:
                metrics, lines = end_to_end(name, passes, setup)
                print("\n".join(lines))
                for key, value in metrics.items():
                    values[prefix + key] = value
                    units[prefix + key] = e2e_units[key]
            print(f"error_rate      {failed / max(attempted, 1):.4f}        "
                  f"{failed} failed / {attempted} passes attempted", flush=True)

    if everything or args.trace == 1:
        print(f"== traced run of every workload, seed {args.seed} ==", flush=True)
        metrics, lines = traced_run(args.seed, sizes, layer_units, outcome)
        print("\n".join(lines))
        expected |= set(layer_units)
        for key, value in metrics.items():
            values[key] = value
            units[key] = layer_units.get(key, "?")
        for key, unit in layer_units.items():
            if key in values:
                print(f"{key:<40} {values[key]:.6g} {unit}")

    if outcome.failed == 0 and set(values) != expected:
        outcome.fail(f"metrics measured and BENCHMARK.json differ: missing "
                     f"{sorted(expected - set(values))}, extra {sorted(set(values) - expected)}")
    for message in outcome.messages:
        print(f"FAILED: {message}")
    print(result_line(outcome, values, units))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
