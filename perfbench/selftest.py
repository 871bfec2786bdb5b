"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the whole benchmark at the tiny sizes and checks that it prints
every metric BENCHMARK.json names, with its unit. Then it feeds the
output checks tampered outputs (a transaction moved across blocks, a
flipped validity flag, an altered export line, a dropped block, a
drifted reputation score, an out-of-tolerance DES deviation, a failed
preset assertion, a pass whose outputs change) and checks that each
one is caught, so the checks are not vacuous. Last, it checks that
the benchmark refuses to run without the rcchain sources. Exits 0 when
every test passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run._import_rcchain()

from rcchain.ledger import ChainLedger  # noqa: E402
from rcchain.presets import PresetAssertion, PresetResult  # noqa: E402
from rcchain.reputation import Status  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = replace(inputs.TINY, ledger_tx=300, ledger_batch=10)


def _run_benchmark(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _small_chain():
    stream = inputs.ledger_stream(3, SMALL)
    chain, failures = workloads.run_stream(stream)
    assert not failures, failures
    assert chain.tip.number >= 3
    return stream, chain


def _copy_chain(chain: ChainLedger, blocks) -> ChainLedger:
    copy = ChainLedger()
    copy.blocks = list(blocks)
    copy.world_state = dict(chain.world_state)
    return copy


def test_every_metric_printed_with_its_unit():
    proc = _run_benchmark(run.ROOT, "--workload", "all", "--tiny", "--seconds", "1",
                          "--seed", "5")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in spec["workloads"] for m in spec["end_to_end"]}
    expected.update({m["name"]: m["unit"] for m in spec["per_layer"]})
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected, (set(expected) ^ set(printed))
    for key, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), key
    for label in ("audit_tx_per_s", "export_s", "error_rate", "tx_per_s", "wall_s"):
        assert f"\n{label} " in proc.stdout, label


def test_clean_outputs_pass_the_checks():
    stream, chain = _small_chain()
    assert workloads.check_chain(chain, stream.policy) == []
    assert workloads.check_ledger_counts(stream, chain) == []
    from rcchain.ledger import export_ledger_lines
    assert workloads.check_export(export_ledger_lines(chain)) == []


def test_transaction_moved_across_blocks_fails_the_audit():
    stream, chain = _small_chain()
    b1, b2 = chain.blocks[1], chain.blocks[2]
    moved = [
        replace(b1, txs=b1.txs + b2.txs[:1], validity=b1.validity + b2.validity[:1]),
        replace(b2, txs=b2.txs[1:], validity=b2.validity[1:]),
    ]
    tampered = _copy_chain(chain, [chain.blocks[0], *moved, *chain.blocks[3:]])
    assert workloads.check_chain(tampered, stream.policy)


def test_flipped_validity_flag_fails_the_audit():
    stream, chain = _small_chain()
    blk = chain.blocks[2]
    ok, _ = blk.validity[0]
    flipped = ((not ok, None if not ok else "mvcc_conflict"),) + blk.validity[1:]
    tampered = _copy_chain(
        chain, [*chain.blocks[:2], replace(blk, validity=flipped), *chain.blocks[3:]])
    assert workloads.check_chain(tampered, stream.policy)


def test_altered_export_line_fails_the_export_check():
    from rcchain.ledger import export_ledger_lines
    _, chain = _small_chain()
    lines = export_ledger_lines(chain)
    record = json.loads(lines[2])
    record["txs"][0]["tx_id"] = "0" * 64
    lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    assert workloads.check_export(lines)


def test_dropped_block_fails_the_count_check():
    stream, chain = _small_chain()
    tampered = _copy_chain(chain, chain.blocks[:-1])
    assert workloads.check_ledger_counts(stream, tampered)


def test_reputation_drift_fails_the_replay_check():
    cfg = inputs.scenario_city_inputs(4, inputs.TINY)
    report = workloads.run_scenario(cfg)
    replayed = workloads.reputation_from_chain(report.chain, cfg.tpfs, cfg.mode)
    assert workloads.check_replay(report.reputation, replayed) == []
    pair = next(iter(replayed.direct))
    replayed.direct[pair] += 1e-9
    assert workloads.check_replay(report.reputation, replayed)
    replayed.direct[pair] -= 1e-9
    replayed.status["veh-not-in-run"] = Status.WARNING
    assert workloads.check_replay(report.reputation, replayed)


def test_des_deviation_beyond_tolerance_fails():
    rows = [{"metric": m, "rel_deviation": 0.01} for m in workloads.DES_CHECKED]
    assert workloads.check_des(rows) == []
    rows[2]["rel_deviation"] = workloads.DES_TOLERANCE * 1.2
    assert workloads.check_des(rows)
    rows[2]["rel_deviation"] = float("nan")
    assert workloads.check_des(rows)


def test_failed_preset_assertion_fails():
    result = PresetResult("demo", {}, [PresetAssertion("holds", True, ""),
                                        PresetAssertion("breaks", False, "x")])
    assert workloads.check_preset(result) == ["demo: assertion breaks failed (x)"]


def test_changing_outputs_and_raising_passes_count_as_failures():
    calls = []

    def flaky(_inputs, _out, clock):
        calls.append(1)
        return workloads.PassResult({"p": 0.01}, 1, ("p",), fingerprint=str(len(calls)))

    outcome = run.Outcome()
    fake = workloads.Workload("flaky", None, flaky)
    assert run.measure_untraced(fake, None, 0.0, outcome) == []
    assert outcome.failed == 1

    def broken(_inputs, _out, clock):
        raise ValueError("ratings for a pair must be appended in time order")

    outcome = run.Outcome()
    assert run.measure_untraced(workloads.Workload("broken", None, broken),
                                None, 0.0, outcome) == []
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_self_times_add_up_to_the_root():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                sum(range(10_000))
        with tracer.span("b"):
            sum(range(10_000))
    summary = tracer.summary()
    root_total = summary[("root", "root")]["total"]
    own = sum(rec["self"] for rec in summary.values())
    assert abs(own - root_total) < 1e-9
    assert summary[("root", "b")]["calls"] == 2
    assert len(tracer.durations("root", "b")) == 2


def test_refuses_to_run_without_the_sources():
    os.makedirs(run.OUT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.OUT)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_benchmark(bare, "--workload", "des-sweep", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
