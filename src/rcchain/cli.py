"""Batch command-line entry point.

Subcommands: analyze (queueing sweeps), simulate (scenario runs; their
outputs include the ledger export), preset (canned experiments),
ledger-verify, and compare (pipeline simulator vs closed forms). One
seed drives all randomness; outputs are written atomically, and a
malformed config exits before any file is touched. RCCHAIN_OUT
overrides --out when set.

Exit codes: 0 success, 2 config error, 3 instability refusal,
4 integrity failure, 5 preset assertion failure, 6 unreadable input or
unwritable output. Only compare and preset load the numpy simulator.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from .ioutil import json_text, load_json, report_file, write_files
from .queueing import (
    ORDERER_MODES,
    QueueNetworkConfig,
    REPORT_COLUMNS,
    UnstableConfigError,
    performance,
    sweep,
)
from .reputation import ReputationMode
from .scenario import (ScenarioConfigError, _number, _shape_checked, from_doc,
                       load_scenario_config, run_scenario)
from .ledger import verify_export_lines

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_INTEGRITY = 4
EXIT_ASSERTION = 5
EXIT_IO = 6
MAX_GRID_POINTS = 100_000  # most points an analyze lambda0 range may expand to


def _out_dir(args) -> str:
    """The output directory, created now: called once the input is
    accepted and before the run, so an unwritable one fails fast."""
    out = os.environ.get("RCCHAIN_OUT") or args.out
    os.makedirs(out, exist_ok=True)
    return out


@dataclasses.dataclass(frozen=True)
class LambdaRange:
    """An analyze grid's lambda0 range, the points start + k*step up to stop."""
    start: float
    stop: float
    step: float = 10.0


@_shape_checked
def _parse_grid(doc: dict, orderer_mode_override: str | None) -> tuple:
    """The grid's first point as a QueueNetworkConfig, read through its
    fields, then the lambda0 and batch-size lists; the config of every
    lambda0 and of every batch size is checked, not only the first."""
    fields = {key: value for key, value in doc.items() if key not in ("lambda0", "batch_sizes")}
    lam = doc.get("lambda0", {"start": 10, "stop": 110, "step": 10})
    if isinstance(lam, dict):
        start, stop, step = dataclasses.astuple(from_doc(LambdaRange, lam, "lambda0"))
        if step <= 0:
            raise ScenarioConfigError("lambda0 step must be > 0")
        if start + step == start:
            raise ScenarioConfigError("lambda0 step is too small to move start")
        # points start + k*step up to stop, counted rather than accumulated,
        # with a billionth of a step of slack for the quotient's rounding
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:  # also a span that overflows
            raise ScenarioConfigError(f"lambda0 range exceeds {MAX_GRID_POINTS} points")
        lambdas = [start + k * step for k in range(math.floor(max(span, -1.0)) + 1)]
    else:
        lambdas = [_number(x, "lambda0") for x in lam]
    batch_sizes = [_number(m, "batch_sizes", int) for m in doc.get("batch_sizes", [10, 50, 100])]
    if not lambdas or not batch_sizes:
        raise ScenarioConfigError("analyze config needs nonempty lambda0 and batch_sizes")
    if orderer_mode_override:
        fields["orderer_mode"] = orderer_mode_override
    base = from_doc(QueueNetworkConfig, fields, lambda0=lambdas[0], batch_size=batch_sizes[0])
    for x in lambdas[1:]:
        dataclasses.replace(base, lambda0=x)
    for m in batch_sizes[1:]:
        dataclasses.replace(base, batch_size=m)
    return base, lambdas, batch_sizes


def cmd_analyze(args) -> int:
    doc = load_json(args.config)
    base, lambdas, batch_sizes = _parse_grid(doc, args.orderer_mode)
    out = _out_dir(args)
    rows = sweep(base, lambdas, batch_sizes)
    name, text = report_file("queueing_report", args.format, REPORT_COLUMNS, rows)
    summary = {
        "rows": len(rows),
        "stable_rows": sum(1 for r in rows if r["stable"]),
        "unstable_rows": sum(1 for r in rows if not r["stable"]),
        "orderer_mode": base.orderer_mode,
    }
    paths = write_files(out, {name: text, "stability_summary.json": json_text(summary)})
    print(f"wrote {paths[name]} ({summary['rows']} rows, {summary['unstable_rows']} unstable)")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_scenario_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.mode is not None:
        cfg = dataclasses.replace(cfg, mode=ReputationMode(args.mode))
    out = _out_dir(args)
    report = run_scenario(cfg)
    report.write_outputs(out)
    s = report.summary
    print(
        f"wrote {out}: {s['missions_total']} missions "
        f"({s['completed_good']} good / {s['completed_bad']} bad / "
        f"{s['abandoned']} abandoned), {s['blocks']} blocks"
    )
    return EXIT_OK


def cmd_preset(args) -> int:
    from . import presets
    if args.name not in presets.PRESETS:
        print(f"unknown preset {args.name!r}; available: {', '.join(sorted(presets.PRESETS))}",
              file=sys.stderr)
        return EXIT_CONFIG
    if args.name == "neighbor-sweep" and args.seed is not None:
        print("preset neighbor-sweep takes no --seed: its outputs are the same for every seed",
              file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args)
    result = presets.run_preset(args.name, seed=args.seed)
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
    from .pipeline_des import (DEVIATION_COLUMNS, STAGE_FEED, check_run, deviation_table,
                               simulate_pipeline)
    cfg = QueueNetworkConfig(lambda0=args.lambda0, batch_size=args.batch_size)
    performance(cfg)  # refuses an unstable or idle point before simulating
    check_run(cfg, args.n_tx, STAGE_FEED)
    out = _out_dir(args)
    stats = simulate_pipeline(cfg, args.n_tx, args.seed or 0, commit_feed=STAGE_FEED)
    table = deviation_table(cfg, stats)
    name, text = report_file("deviation", args.format, DEVIATION_COLUMNS, table)
    path = write_files(out, {name: text})[name]
    worst = max((r for r in table if r["rel_deviation"] is not None),
                key=lambda r: r["rel_deviation"])
    confirmation = (f"confirmation {stats.confirmation_mean:.4f}s" if stats.n_routed
                    else "no transaction reached ordering")
    print(f"wrote {path}; {confirmation}, "
          f"largest relative deviation {worst['rel_deviation']:.3f} ({worst['metric']})")
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
    except OSError as err:
        print(f"cannot read input or write output: {err}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as err:
        print(f"config is not valid JSON: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
