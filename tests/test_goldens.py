"""The golden manifest: each entry reproduces its committed output, and
the check fails on every way an output can move."""

import argparse
import json
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import goldens  # noqa: E402

ENTRIES = goldens.load_manifest()


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["name"] for e in ENTRIES])
def test_entry_reproduces_its_golden(entry):
    problems = goldens.check(entry, runs=1)
    assert not problems, "\n".join(problems)


def test_goldens_dir_holds_exactly_the_manifest_outputs():
    names = [e["name"] for e in ENTRIES]
    assert len(set(names)) == len(names)
    for name in names:
        assert (goldens.GOLDENS / f"{name}.txt").is_file(), name
    for path in goldens.GOLDENS.iterdir():
        if path.name != "manifest.json":
            stem = path.name[:-len(".txt")] if path.is_file() else path.name
            assert stem in names, f"goldens/{path.name} has no entry"


def test_every_repro_subcommand_has_a_golden():
    """An unpinned command is a second front end that nothing checks."""
    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    pinned = {e["argv"][0] for e in ENTRIES if "argv" in e}
    assert sorted(set(commands) - pinned) == []


def test_filter_drops_only_wall_and_wrote_lines():
    raw = (b"  wall: 1.20s\nwall: 3s\nwrote out/trace.json\n"
           b"wall-clock bench\nthe wall: stays\n  wrote: stays\nend")
    assert goldens.filter_stdout(raw) == (
        b"wall-clock bench\nthe wall: stays\n  wrote: stays\nend")


# -- mutants: each one must make the check fail, for both kinds of entry ----

ENTRY = {"name": "e", "argv": ["serve"], "aliases": [["serve", "--alias"]]}
SCRIPT = {"name": "s", "script": "benchmarks/s.py"}
BOTH = [ENTRY, SCRIPT]
GOOD = goldens.Output(0, b"head\nbody\n", {"out/t.json": b"{\n}\n"})


class FakeRunner:
    """Returns ``GOOD`` unless a command or a call number is told otherwise."""

    def __init__(self, by_command=None, by_call=None):
        self.by_command = by_command or {}
        self.by_call = by_call or {}
        self.calls = 0

    def __call__(self, entry):
        self.calls += 1
        return self.by_call.get(
            self.calls, self.by_command.get(goldens.shown(entry), GOOD))


@pytest.fixture
def recorded(tmp_path, monkeypatch):
    """``ENTRY`` and ``SCRIPT`` recorded from ``GOOD`` into a scratch
    goldens dir."""
    monkeypatch.setattr(goldens, "GOLDENS", tmp_path)
    (tmp_path / "manifest.json").write_text(json.dumps({"entries": BOTH}))
    monkeypatch.setattr(goldens, "run", FakeRunner())
    assert goldens.main(["--update"]) == 0
    assert goldens.main(["--check"]) == 0
    return tmp_path


def test_changed_stdout_byte_fails(recorded, capsys):
    for entry in BOTH:
        stdout = recorded / f"{entry['name']}.txt"
        stdout.write_bytes(stdout.read_bytes().replace(b"body", b"bodY"))
        assert goldens.main(["--check", entry["name"]]) == 1
        out = capsys.readouterr().out
        assert "-bodY\n+body\n" in out and f"FAIL {entry['name']}" in out


@pytest.mark.parametrize("files, message", [
    ({"out/t.json": b"{\n 1}\n"}, "+ 1}"),
    ({}, "did not write out/t.json"),
    ({"out/t.json": b"{\n}\n", "x.txt": b""}, "wrote x.txt, which is not"),
])
def test_changed_missing_or_extra_file_fails(recorded, monkeypatch,
                                             files, message):
    bad = goldens.Output(0, GOOD.stdout, files)
    for entry in BOTH:
        monkeypatch.setattr(goldens, "run", FakeRunner(
            by_command={goldens.shown(entry): bad}))
        problems = goldens.check(entry)
        assert problems and message in "".join(problems), entry["name"]


def test_nonzero_exit_fails_even_with_matching_output(recorded, monkeypatch):
    for entry in BOTH:
        command = goldens.shown(entry)
        monkeypatch.setattr(goldens, "run", FakeRunner(by_command={
            command: goldens.Output(1, GOOD.stdout, GOOD.files, "Traceback")}))
        problems = goldens.check(entry)
        assert problems == [f"run {i} of `{command}`: exit status 1\n"
                            f"Traceback" for i in (1, 2)]


def test_update_refuses_a_script_that_exits_1(recorded, monkeypatch):
    """A failing claim cannot be re-recorded."""
    failing = goldens.Output(1, GOOD.stdout + b"\nclaim FAILED: r = 1 > 2\n",
                             {})
    monkeypatch.setattr(goldens, "run", FakeRunner(
        by_command={"benchmarks/s.py": failing}))
    with pytest.raises(SystemExit, match="s: exit status 1"):
        goldens.main(["--update", "s"])
    assert (recorded / "s.txt").read_bytes() == GOOD.stdout
    assert (recorded / "s" / "out" / "t.json").is_file()


def test_update_refusal_names_the_failed_claims(recorded, monkeypatch):
    failing = goldens.Output(
        1, b"table\n\nclaim ok: q = 3 > 2 (margin 50%)\n"
           b"claim FAILED: r = 1 > 2 (margin -50%)\n", {}, "")
    monkeypatch.setattr(goldens, "run", FakeRunner(
        by_command={"benchmarks/s.py": failing}))
    with pytest.raises(SystemExit) as refused:
        goldens.main(["--update", "s"])
    assert str(refused.value) == (
        "s: exit status 1\nclaim FAILED: r = 1 > 2 (margin -50%)\n")


def test_real_nonzero_exit_is_reported(tmp_path, monkeypatch):
    monkeypatch.setattr(goldens, "GOLDENS", tmp_path)
    (tmp_path / "bad.txt").write_bytes(b"")
    problems = goldens.check({"name": "bad", "argv": ["no-such-command"]},
                             runs=1)
    assert len(problems) == 1 and "exit status 2" in problems[0]
    assert "invalid choice" in problems[0]


def test_second_run_that_differs_fails(recorded, monkeypatch):
    drift = goldens.Output(0, b"head\nbody 2\n", GOOD.files)
    for entry in BOTH:
        monkeypatch.setattr(goldens, "run", FakeRunner(by_call={2: drift}))
        (problem,) = goldens.check(entry)
        assert problem.startswith(f"--- goldens/{entry['name']}.txt\n"
                                  f"+++ run 2 of `{goldens.shown(entry)}`")


def test_alias_that_prints_something_else_fails(recorded, monkeypatch):
    other = goldens.Output(0, b"head\nother\n", GOOD.files)
    monkeypatch.setattr(goldens, "run", FakeRunner(
        by_command={"repro serve --alias": other}))
    problems = goldens.check(ENTRY)
    assert len(problems) == 2
    assert all("`repro serve --alias`" in p for p in problems)


def test_unknown_entry_is_an_error(recorded):
    with pytest.raises(SystemExit):
        goldens.main(["--check", "nope"])
