"""Deterministic report records with text and machine renderings.

Reports never contain wall-clock data; rerunning the same command on the
same input yields byte-identical output in both formats.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field

VERSION = "0.1.0"


@dataclass
class Report:
    command: str
    input_sha256: str
    options: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)   # dicts: name/status/window/counterexample
    tables: dict = dc_field(default_factory=dict)   # name -> list of rows (tuples/lists)
    version: str = VERSION

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
