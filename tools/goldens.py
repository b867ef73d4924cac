"""Golden outputs: every command whose output is committed, and their check.

``goldens/manifest.json`` lists the entries.  Each has a ``name`` and
either the ``argv`` that follows ``python -m repro``, with optional
``aliases`` (other argvs that must print the same bytes), or a ``script``,
a path from the repository root run as ``python SCRIPT`` (the paper's
tables and figures, ``benchmarks/<name>.py``, whose failing claims make a
non-zero exit).  For an entry ``NAME``, ``goldens/NAME.txt`` is its
filtered stdout and ``goldens/NAME/`` holds every file it wrote into its
working directory (commands that take ``--out-dir out`` write there).

Usage, from the repository root::

    python tools/goldens.py --check [NAME ...]    # run twice, compare
    python tools/goldens.py --update [NAME ...]   # rewrite committed files

Each run is a fresh process in an empty temporary directory: module-level
caches make an in-process run a different program.  The check compares
every run, byte for byte, with the committed files and prints a unified
diff for each mismatch; a non-zero exit also fails, and ``--update``
refuses to record one.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "goldens"

#: The one filter, for every entry: host wall time and the paths of
#: written files are the only lines that differ between two runs.
DROP = re.compile(rb"^\s*wall: |^wrote ")


@dataclass
class Output:
    returncode: int
    stdout: bytes
    files: Dict[str, bytes]
    stderr: str = ""


def filter_stdout(raw: bytes) -> bytes:
    return b"".join(line for line in raw.splitlines(keepends=True)
                    if not DROP.match(line))


def read_tree(top: Path) -> Dict[str, bytes]:
    """Every file under ``top``, keyed by its ``/``-separated path."""
    return {p.relative_to(top).as_posix(): p.read_bytes()
            for p in sorted(top.rglob("*")) if p.is_file()}


def shown(entry: dict) -> str:
    """The entry's command as labels show it."""
    return entry.get("script") or " ".join(["repro", *entry["argv"]])


def run(entry: dict) -> Output:
    """One fresh run of an entry's ``script`` or ``repro`` ``argv``."""
    if "script" in entry:
        command = [sys.executable, str(ROOT / entry["script"])]
    else:
        command = [sys.executable, "-m", "repro", *entry["argv"]]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONIOENCODING="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(command, cwd=tmp, env=env, capture_output=True)
        files = read_tree(Path(tmp))
    return Output(proc.returncode, filter_stdout(proc.stdout), files,
                  proc.stderr.decode("utf-8", "replace"))


def load_manifest() -> List[dict]:
    with open(GOLDENS / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def committed(name: str) -> Output:
    tree = GOLDENS / name
    return Output(0, (GOLDENS / f"{name}.txt").read_bytes(),
                  read_tree(tree) if tree.is_dir() else {})


def _diff(want: bytes, got: bytes, path: str, label: str) -> str:
    lines = difflib.unified_diff(
        want.decode("utf-8", "replace").splitlines(keepends=True),
        got.decode("utf-8", "replace").splitlines(keepends=True),
        fromfile=f"goldens/{path}", tofile=label)
    return "".join(line if line.endswith("\n") else line + "\n"
                   for line in lines)


def compare(name: str, want: Output, got: Output, label: str) -> List[str]:
    """One problem string (with its diff) per output that differs."""
    problems = []
    if got.returncode != 0:
        problems.append(f"{label}: exit status {got.returncode}\n"
                        f"{got.stderr}")
    if got.stdout != want.stdout:
        problems.append(_diff(want.stdout, got.stdout, f"{name}.txt",
                              f"{label} stdout"))
    for path in sorted(set(want.files) | set(got.files)):
        if path not in got.files:
            problems.append(f"{label}: did not write {path}")
        elif path not in want.files:
            problems.append(f"{label}: wrote {path}, which is not "
                            f"committed")
        elif got.files[path] != want.files[path]:
            problems.append(_diff(want.files[path], got.files[path],
                                  f"{name}/{path}", f"{label} {path}"))
    return problems


def check(entry: dict, runs: int = 2) -> List[str]:
    """Run the entry and each of its aliases ``runs`` times."""
    want = committed(entry["name"])
    problems = []
    for variant in [entry, *({"argv": a} for a in entry.get("aliases", []))]:
        for i in range(runs):
            label = f"run {i + 1} of `{shown(variant)}`"
            problems += compare(entry["name"], want, run(variant), label)
    return problems


def update(entry: dict) -> None:
    out = run(entry)
    if out.returncode != 0:
        # A paper script prints its failed claims to stdout.
        failed = "".join(
            line + "\n"
            for line in out.stdout.decode("utf-8", "replace").splitlines()
            if line.startswith("claim FAILED"))
        raise SystemExit(f"{entry['name']}: exit status {out.returncode}\n"
                         f"{failed}{out.stderr}")
    (GOLDENS / f"{entry['name']}.txt").write_bytes(out.stdout)
    tree = GOLDENS / entry["name"]
    shutil.rmtree(tree, ignore_errors=True)
    for path, data in out.files.items():
        (tree / path).parent.mkdir(parents=True, exist_ok=True)
        (tree / path).write_bytes(data)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="run each entry twice and compare")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the committed outputs")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="entries to run (default: all)")
    args = parser.parse_args(argv)
    entries = load_manifest()
    known = {e["name"] for e in entries}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown entries: {', '.join(unknown)}")
    if args.names:
        entries = [e for e in entries if e["name"] in args.names]
    failed = 0
    for entry in entries:
        t0 = time.perf_counter()
        if args.update:
            update(entry)
            problems = []
        else:
            problems = check(entry)
        status = "FAIL" if problems else ("wrote" if args.update else "ok")
        print(f"{status} {entry['name']} ({time.perf_counter() - t0:.1f} s)",
              flush=True)
        for problem in problems:
            print(problem, end="" if problem.endswith("\n") else "\n")
        failed += bool(problems)
    if failed:
        print(f"{failed} of {len(entries)} entries differ from goldens/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
