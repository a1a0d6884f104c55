"""Run the same ``cdwsd`` command lines under two source trees and compare.

Usage::

    python3 tools/same_outputs.py OLD_TREE NEW_TREE COMMANDS

``COMMANDS`` holds one command line per line, the arguments after
``cdwsd`` (for example ``disambiguate --taxonomy t.tif --input x.txt``),
split as a shell would split them.  Blank lines and lines starting with
``#`` are skipped.  Each line runs as ``python -m cdwsd.cli`` in a fresh
interpreter with ``TREE/src`` on the path, from the current directory, so
relative paths in the lines resolve the same way for both trees.  A line
should write its output to standard output: files named by ``--out`` are
not compared.  Lines run in parallel, one per CPU this process may use.

Every line whose standard output, standard error or exit code differs is
reported.  The last line of output counts the commands and mismatches.
The exit code is 0 when every line matches and 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def read_commands(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [shlex.split(line) for line in lines if line.strip() and not line.lstrip().startswith("#")]


def run(tree: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of one command line under ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "cdwsd.cli", *argv],
                          env=env, capture_output=True, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def first_difference(old: bytes, new: bytes) -> str:
    """The first differing line of two outputs, for the report."""
    a, b = old.decode("utf-8", "replace").splitlines(), new.decode("utf-8", "replace").splitlines()
    for n, (x, y) in enumerate(zip(a, b), 1):
        if x != y:
            return f"line {n}: {x!r} != {y!r}"
    return f"{len(a)} lines != {len(b)} lines"


def differences(old: tuple[int, bytes, bytes], new: tuple[int, bytes, bytes]) -> list[str]:
    found = []
    if old[0] != new[0]:
        found.append(f"exit code {old[0]} != {new[0]}")
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            found.append(f"{name} {first_difference(a, b)}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="first source tree (holds src/cdwsd)")
    parser.add_argument("new", type=Path, help="second source tree")
    parser.add_argument("commands", type=Path, help="file of cdwsd argument lines")
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "cdwsd").is_dir():
            parser.error(f"{tree} has no src/cdwsd")
    commands = read_commands(args.commands)

    def compare(line: list[str]) -> list[str]:
        return differences(run(args.old, line), run(args.new, line))

    mismatches = 0
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        for line, found in zip(commands, pool.map(compare, commands)):
            if found:
                mismatches += 1
                print(shlex.join(line))
                for what in found:
                    print(f"  {what}")
    print(f"{len(commands)} commands, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
