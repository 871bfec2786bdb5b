"""Batch command-line entry point.

Subcommands: analyze (queueing sweeps), simulate (scenario runs),
preset (canned experiments), ledger-verify / ledger-export, and compare
(pipeline simulator vs closed forms). One seed drives all randomness;
outputs are written atomically, and a malformed config exits before any
file is touched. RCCHAIN_OUT overrides --out when set.

Exit codes: 0 success, 2 config error, 3 instability refusal,
4 integrity failure, 5 preset assertion failure, 6 unreadable input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .ioutil import csv_text, json_text, write_files
from .pipeline_des import DEVIATION_COLUMNS, STAGE_FEED, deviation_table, simulate_pipeline
from .presets import run_preset
from .queueing import (
    ORDERER_MODES,
    QueueNetworkConfig,
    REPORT_COLUMNS,
    UnstableConfigError,
    performance,
    sweep,
)
from .reputation import ReputationMode
from .scenario import (ScenarioConfigError, _check_keys, _number, _require, _shape_checked,
                       load_scenario_config, run_scenario)
from .ledger import export_files, verify_export_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_INTEGRITY = 4
EXIT_ASSERTION = 5
EXIT_IO = 6
MAX_GRID_POINTS = 100_000  # most points an analyze lambda0 range may expand to


def _out_dir(args) -> str:
    return os.environ.get("RCCHAIN_OUT") or args.out


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@_shape_checked
def _parse_grid(doc: dict, orderer_mode_override: str | None) -> tuple:
    _check_keys(
        doc,
        {"lambda0", "batch_sizes", "mu0", "mu2", "q01", "q23", "orderer_mode"},
        "analyze config",
    )
    lam = doc.get("lambda0", {"start": 10, "stop": 110, "step": 10})
    if isinstance(lam, dict):
        _check_keys(lam, {"start", "stop", "step"}, "lambda0")
        start, stop = (_number(_require(lam, key, "lambda0"), f"lambda0.{key}")
                       for key in ("start", "stop"))
        step = _number(lam.get("step", 10), "lambda0.step")
        if step <= 0:
            raise ScenarioConfigError("lambda0 step must be > 0")
        if (stop - start) / step >= MAX_GRID_POINTS:
            raise ScenarioConfigError(f"lambda0 range exceeds {MAX_GRID_POINTS} points")
        lambdas = []
        v = start
        while v <= stop + 1e-9:
            lambdas.append(v)
            v += step
    else:
        lambdas = [_number(x, "lambda0") for x in lam]
    batch_sizes = [_number(m, "batch_sizes", int) for m in doc.get("batch_sizes", [10, 50, 100])]
    base = QueueNetworkConfig(
        lambda0=lambdas[0] if lambdas else 1.0,
        q01=_number(doc.get("q01", 0.9), "q01"),
        q23=_number(doc.get("q23", 0.95), "q23"),
        mu0=_number(doc.get("mu0", 150.0), "mu0"),
        mu2=_number(doc.get("mu2", 150.0), "mu2"),
        orderer_mode=orderer_mode_override or doc.get("orderer_mode", "block_granularity"),
    )
    if not lambdas or not batch_sizes:
        raise ScenarioConfigError("analyze config needs nonempty lambda0 and batch_sizes")
    return base, lambdas, batch_sizes


def _report_file(name: str, fmt: str, columns: list[str],
                 records: list[dict]) -> tuple[str, str]:
    """(file name, text) of a table in the requested format."""
    if fmt == "json":
        return f"{name}.json", json_text(records)
    rows = [[rec[c] for c in columns] for rec in records]
    return f"{name}.csv", csv_text(columns, rows)


def cmd_analyze(args) -> int:
    doc = _load_json(args.config)
    base, lambdas, batch_sizes = _parse_grid(doc, args.orderer_mode)
    rows = sweep(base, lambdas, batch_sizes)
    name, text = _report_file("queueing_report", args.format, REPORT_COLUMNS, rows)
    summary = {
        "rows": len(rows),
        "stable_rows": sum(1 for r in rows if r["stable"]),
        "unstable_rows": sum(1 for r in rows if not r["stable"]),
        "orderer_mode": base.orderer_mode,
    }
    paths = write_files(_out_dir(args),
                        {name: text, "stability_summary.json": json_text(summary)})
    print(f"wrote {paths[name]} ({summary['rows']} rows, {summary['unstable_rows']} unstable)")
    return EXIT_OK


def cmd_simulate(args, ledger_only: bool = False) -> int:
    cfg = load_scenario_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.mode is not None:
        cfg = dataclasses.replace(cfg, mode=ReputationMode(args.mode))
    report = run_scenario(cfg)
    out = _out_dir(args)
    if ledger_only:
        write_files(out, export_files(report.chain))
        print(f"wrote ledger export to {out} ({report.chain.tip.number} blocks)")
        return EXIT_OK
    report.write_outputs(out)
    s = report.summary
    print(
        f"wrote {out}: {s['missions_total']} missions "
        f"({s['completed_good']} good / {s['completed_bad']} bad / "
        f"{s['abandoned']} abandoned), {s['blocks']} blocks"
    )
    return EXIT_OK


def cmd_preset(args) -> int:
    try:
        result = run_preset(args.name, seed=args.seed)
    except KeyError as err:  # unknown preset name; the message lists the known ones
        print(err.args[0], file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args)
    result.write_outputs(out)
    for a in result.assertions:
        print(f"[{'PASS' if a.passed else 'FAIL'}] {a.name}: {a.detail}")
    if not result.all_passed:
        return EXIT_ASSERTION
    print(f"wrote {out}")
    return EXIT_OK


def cmd_ledger_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            lines = [line for line in fh.read().splitlines() if line]
        bad = verify_export_lines(lines)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        print(f"cannot parse ledger export: {err}", file=sys.stderr)
        return EXIT_IO
    if bad is None:
        print("ok")
        return EXIT_OK
    print(f"integrity failure at block {bad}")
    return EXIT_INTEGRITY


def cmd_compare(args) -> int:
    cfg = QueueNetworkConfig(lambda0=args.lambda0, batch_size=args.batch_size)
    performance(cfg)  # refuses an unstable or idle point before simulating
    stats = simulate_pipeline(cfg, args.n_tx, args.seed or 0, commit_feed=STAGE_FEED)
    table = deviation_table(cfg, stats)
    name, text = _report_file("deviation", args.format, DEVIATION_COLUMNS, table)
    path = write_files(_out_dir(args), {name: text})[name]
    worst = max(table, key=lambda r: r["rel_deviation"])
    print(
        f"wrote {path}; confirmation {stats.confirmation_mean:.4f}s, "
        f"largest relative deviation {worst['rel_deviation']:.3f} ({worst['metric']})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcchain",
        description="Reputation-based consortium-chain simulator and analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(required=True, help="path to the JSON config"),
        "--out": dict(default="out", help="output directory"),
        "--seed": dict(type=int, default=None, help="seed override"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--mode": dict(choices=[m.value for m in ReputationMode], default=None),
        "--orderer-mode": dict(choices=ORDERER_MODES, default=None),
    }

    def command(name, fn, summary, *names):
        """A subcommand that accepts exactly the shared flags it reads."""
        p = sub.add_parser(name, help=summary)
        for flag in names:
            p.add_argument(flag, **flags[flag])
        p.set_defaults(fn=fn)
        return p

    command("analyze", cmd_analyze, "closed-form queueing sweep",
            "--config", "--out", "--format", "--orderer-mode")
    command("simulate", cmd_simulate, "run a scenario config",
            "--config", "--out", "--seed", "--mode")
    command("ledger-export", lambda a: cmd_simulate(a, ledger_only=True),
            "run a scenario, write only the ledger",
            "--config", "--out", "--seed", "--mode")

    p = command("preset", cmd_preset, "run a canned experiment", "--out", "--seed")
    p.add_argument("name", help="preset name")

    p = command("ledger-verify", cmd_ledger_verify, "verify an exported ledger file")
    p.add_argument("path", help="ledger.jsonl export")

    p = command("compare", cmd_compare, "pipeline simulator vs closed forms",
                "--out", "--seed", "--format")
    p.add_argument("--lambda0", type=float, default=37.29)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--n-tx", type=int, default=200_000)
    p.set_defaults(fn=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UnstableConfigError as err:
        print(f"unstable configuration: {err}", file=sys.stderr)
        return EXIT_UNSTABLE
    except FileNotFoundError as err:
        print(f"cannot read input: {err}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
