"""The streamed report renderers write the bytes of the one-shot renderers in `oracles`."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dgres import cli
from dgres.probfile import parse_problem
from dgres.report import Report, render_machine, render_text
from test_golden import COMMANDS


def golden_report(golden_dir, fname):
    """The report of a golden command, built in-process as `cli.main` builds it."""
    argv = COMMANDS[fname]
    args = cli.build_parser().parse_args([argv[0], str(golden_dir / argv[1])] + argv[2:])
    problem = parse_problem((golden_dir / argv[1]).read_text(encoding="utf-8"))
    return args.format, cli.COMMANDS[args.command](args, problem)


def assert_streams_one_shot(rep):
    assert "".join(render_text(rep)).encode() == oracles.render_text(rep).encode()
    assert "".join(render_machine(rep)).encode() == oracles.render_machine(rep).encode()


@pytest.mark.parametrize("fname", sorted(COMMANDS))
def test_streamed_golden_reports_equal_one_shot(fname, golden_dir):
    fmt, rep = golden_report(golden_dir, fname)
    assert_streams_one_shot(rep)
    streamed = render_machine(rep) if fmt == "machine" else render_text(rep)
    assert "".join(streamed).encode() == (golden_dir / fname).read_bytes()


TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
# rows longer than a write chunk of `cli.main`
LONG = st.builds(lambda c, n: c * n, st.sampled_from("x⊗∂é€"), st.integers(1, 3 * cli.WRITE_CHUNK))
CELL = st.one_of(TEXT, st.integers(), st.booleans(), LONG)


@st.composite
def reports(draw):
    rep = Report(draw(TEXT), draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
                 draw(st.dictionaries(TEXT, st.one_of(TEXT, st.integers(), st.booleans()), max_size=3)))
    for name, ok, window, counterexample in draw(st.lists(st.tuples(TEXT, st.booleans(), TEXT, TEXT), max_size=5)):
        rep.add_check(name, ok, window, counterexample)
    # a table may be empty, and a row may be empty
    rep.tables = draw(st.dictionaries(TEXT, st.lists(st.lists(CELL, max_size=4).map(tuple), max_size=4), max_size=3))
    return rep


@settings(max_examples=200, deadline=None)
@given(reports())
def test_streamed_reports_equal_one_shot(rep):
    assert_streams_one_shot(rep)


class RecordingStream:
    def __init__(self):
        self.writes = []

    def write(self, s):
        self.writes.append(s)
        return len(s)

    def flush(self):
        pass


def test_main_writes_the_report_in_bounded_chunks(golden_dir, monkeypatch):
    """lift on the 20-generator chain: its 87 kB golden, 45 long lines, in at
    most len/WRITE_CHUNK + 1 writes, none longer than a chunk and a line."""
    out = RecordingStream()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.main(["lift", str(golden_dir / "chain20.dgres"), "--module", "C"]) == 0
    text = "".join(out.writes)
    assert text.encode() == (golden_dir / "lift_chain20.txt").read_bytes()
    longest_line = max(len(line) + 1 for line in text.split("\n"))
    assert all(len(w) < cli.WRITE_CHUNK + longest_line for w in out.writes)
    assert len(out.writes) <= len(text) // cli.WRITE_CHUNK + 1


def test_short_lines_are_joined_into_chunks():
    rep = Report("t", "0" * 64)
    rep.tables["t"] = [(i, -i) for i in range(20_000)]
    out = RecordingStream()
    cli._write(render_text(rep), out)
    text = "".join(out.writes)
    assert text == oracles.render_text(rep) and text.count("\n") > 20_000
    assert len(out.writes) <= len(text) // cli.WRITE_CHUNK + 1
