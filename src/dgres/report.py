"""Check records, and the deterministic report with its text and machine renderings.

A `CheckRecord` is one check's verdict: its name, PASS or FAIL, a
counterexample in `details` when it fails, and the `window` it covers.  The
library checks return them in a `ValidationReport`, and the CLI's `Report`
is a `ValidationReport` too, with the header of a run and its tables: a
library check reaches the report as the same kind of record, and the
renderers read the records' attributes.

Reports never contain wall-clock data; rerunning the same command on the
same input yields byte-identical output in both formats.  Both renderers
yield the report in pieces, so the caller writes it as it is rendered and
never holds a second copy of the whole text.
"""

from __future__ import annotations

from collections.abc import Iterator

VERSION = "0.1.0"


class CheckRecord:
    def __init__(self, name: str, status: str, details: str = "", window: str = ""):
        self.name = name
        self.status = status  # "PASS" | "FAIL"
        self.details = details  # the counterexample of a failure, or ""
        self.window = window  # the degrees the check covers, or ""


class ValidationReport:
    def __init__(self):
        self.checks: list[CheckRecord] = []

    def add(self, name: str, ok: bool, details: str = "", window: str = ""):
        self.checks.append(CheckRecord(name, "PASS" if ok else "FAIL", details, window))

    @property
    def passed(self) -> bool:
        return all(c.status == "PASS" for c in self.checks)

    def failures(self) -> list[CheckRecord]:
        return [c for c in self.checks if c.status != "PASS"]


class Report(ValidationReport):
    """The checks of one CLI run, with its header (command, input hash, options) and its tables."""

    def __init__(self, command: str, input_sha256: str, options: dict | None = None):
        super().__init__()
        self.command = command
        self.input_sha256 = input_sha256
        self.options = {} if options is None else options
        self.tables: dict = {}  # name -> list of rows (tuples/lists)
        self.version = VERSION

    def add_validation(self, prefix: str, validation: ValidationReport, window: str = ""):
        """Each check of `validation` in `window`, named `prefix:name`, or `name` when prefix is ""."""
        for c in validation.checks:
            self.add(f"{prefix}:{c.name}" if prefix else c.name, c.status == "PASS", c.details, window)


def _record(c: CheckRecord) -> dict:
    """A check as a JSON object: name, status and window, and its counterexample when it has one."""
    rec = {"name": c.name, "status": c.status, "window": c.window}
    if c.details:
        rec["counterexample"] = c.details
    return rec


def render_machine(report: Report) -> Iterator[str]:
    """Yield the machine report in pieces: one JSON object with sorted keys, then a newline."""
    import json  # only machine-format runs pay for it

    payload = {
        "version": report.version,
        "command": report.command,
        "input_sha256": report.input_sha256,
        "options": {k: report.options[k] for k in sorted(report.options)},
        "checks": [_record(c) for c in report.checks],
        "tables": {k: report.tables[k] for k in sorted(report.tables)},
        "verdict": "PASS" if report.passed else "FAIL",
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
    width = max((len(c.name) for c in report.checks), default=0)
    for c in report.checks:
        line = f"  {c.status:<4}  {c.name:<{width}}"
        if c.window:
            line += f"  [{c.window}]"
        yield line.rstrip() + "\n"
        if c.details:
            yield f"        counterexample: {c.details}\n"
    for tname in sorted(report.tables):
        yield f"\ntable {tname}:\n"
        for row in report.tables[tname]:
            yield f"  {'  '.join(str(x) for x in row)}\n"
    yield f"\nverdict: {'PASS' if report.passed else 'FAIL'}\n"
