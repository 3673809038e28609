"""Deterministic report records with text and machine renderings.

Reports never contain wall-clock data; rerunning the same command on the
same input yields byte-identical output in both formats.  Both renderers
yield the report in pieces, so the caller writes it as it is rendered and
never holds a second copy of the whole text.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

VERSION = "0.1.0"


class Report:
    def __init__(self, command: str, input_sha256: str, options: dict | None = None,
                 checks: list | None = None, tables: dict | None = None, version: str = VERSION):
        self.command = command
        self.input_sha256 = input_sha256
        self.options = {} if options is None else options
        self.checks = [] if checks is None else checks  # dicts: name/status/window/counterexample
        self.tables = {} if tables is None else tables  # name -> list of rows (tuples/lists)
        self.version = version

    def add_check(self, name: str, ok: bool, window: str = "", counterexample: str = ""):
        rec = {"name": name, "status": "PASS" if ok else "FAIL", "window": window}
        if counterexample:
            rec["counterexample"] = counterexample
        self.checks.append(rec)

    def add_validation(self, prefix: str, validation, window: str = ""):
        """One record per check of a `ValidationReport`, named `prefix:name`, or `name` when prefix is ""."""
        for c in validation.checks:
            self.add_check(f"{prefix}:{c.name}" if prefix else c.name, c.status == "PASS", window, c.details)

    @property
    def all_passed(self) -> bool:
        return all(c["status"] == "PASS" for c in self.checks)


def input_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def render_machine(report: Report) -> Iterator[str]:
    """Yield the machine report in pieces: one JSON object with sorted keys, then a newline."""
    import json  # only machine-format runs pay for it

    payload = {
        "version": report.version,
        "command": report.command,
        "input_sha256": report.input_sha256,
        "options": {k: report.options[k] for k in sorted(report.options)},
        "checks": report.checks,
        "tables": {k: report.tables[k] for k in sorted(report.tables)},
        "verdict": "PASS" if report.all_passed else "FAIL",
    }
    yield from json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).iterencode(payload)
    yield "\n"


def render_text(report: Report) -> Iterator[str]:
    """Yield the text report line by line, each line with its newline."""
    yield f"dgres {report.version}\n"
    yield f"command: {report.command}\n"
    yield f"input sha256: {report.input_sha256}\n"
    if report.options:
        opts = " ".join(f"{k}={report.options[k]}" for k in sorted(report.options))
        yield f"options: {opts}\n"
    yield "\n"
    width = max((len(c["name"]) for c in report.checks), default=0)
    for c in report.checks:
        line = f"  {c['status']:<4}  {c['name']:<{width}}"
        if c.get("window"):
            line += f"  [{c['window']}]"
        yield line.rstrip() + "\n"
        if c.get("counterexample"):
            yield f"        counterexample: {c['counterexample']}\n"
    for tname in sorted(report.tables):
        yield f"\ntable {tname}:\n"
        for row in report.tables[tname]:
            yield f"  {'  '.join(str(x) for x in row)}\n"
    yield f"\nverdict: {'PASS' if report.all_passed else 'FAIL'}\n"
