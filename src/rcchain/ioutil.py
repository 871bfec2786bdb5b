"""Deterministic output writers: canonical indented JSON, repr-float
CSV, tables in either, and atomic temp-then-rename file writes; the JSON
readers of every input file; and _gc_paused, the one place the cyclic
garbage collector is switched, which scenario._Engine.run and
presets._mirror_on_chain run under."""

from __future__ import annotations

import gc
import json
import os
from contextlib import contextmanager
from typing import Iterable, Sequence


@contextmanager
def _gc_paused():
    """Run the body with the cyclic collector off, then restore the caller's
    setting, also when the body raises. Reference counting still frees
    everything; only cycles created inside would wait for a later pass."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def parse_json(text: str):
    """json.loads, with nesting too deep for its parser (about 1,000
    levels) a ValueError, as other malformed JSON is, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON is nested too deep to parse") from None


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_json(fh.read())


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(header: Sequence[str], rows: Iterable[Iterable]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(doc) -> str:
    # NaN and Infinity are not JSON: an undefined value is written as None
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def report_file(name: str, fmt: str, columns: Sequence[str],
                records: list[dict]) -> tuple[str, str]:
    """(file name, text) of a table of records keyed by columns, as a
    JSON list of the records or as CSV under the columns."""
    if fmt == "json":
        return f"{name}.json", json_text(records)
    return f"{name}.csv", csv_text(columns, ([rec[c] for c in columns] for rec in records))


def write_text_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_files(out_dir: str, files: dict[str, str]) -> dict[str, str]:
    """Write each {name: text} into out_dir atomically; returns {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for name, text in files.items():
        paths[name] = os.path.join(out_dir, name)
        write_text_atomic(paths[name], text)
    return paths
