"""Deterministic report records with text and machine renderings.

Reports never contain wall-clock data; rerunning the same command on the
same input yields byte-identical output in both formats.
"""

from __future__ import annotations

import hashlib

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


def render_machine(report: Report) -> str:
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
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


def render_text(report: Report) -> str:
    lines = []
    lines.append(f"dgres {report.version}")
    lines.append(f"command: {report.command}")
    lines.append(f"input sha256: {report.input_sha256}")
    if report.options:
        opts = " ".join(f"{k}={report.options[k]}" for k in sorted(report.options))
        lines.append(f"options: {opts}")
    lines.append("")
    width = max((len(c["name"]) for c in report.checks), default=0)
    for c in report.checks:
        line = f"  {c['status']:<4}  {c['name']:<{width}}"
        if c.get("window"):
            line += f"  [{c['window']}]"
        lines.append(line.rstrip())
        if c.get("counterexample"):
            lines.append(f"        counterexample: {c['counterexample']}")
    for tname in sorted(report.tables):
        lines.append("")
        lines.append(f"table {tname}:")
        for row in report.tables[tname]:
            lines.append("  " + "  ".join(str(x) for x in row))
    lines.append("")
    lines.append(f"verdict: {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"
