"""The README's examples run as written.

The "Library at a glance" block is executed as it stands.  Each line of
the "Command line" block goes through ``cli.main`` in a fresh directory,
after the block's own ``sample`` line has written ``sample.json``, which
stands in for the ``graph.json`` and ``in.json`` the examples read;
optional flags shown in brackets are passed.
"""

import re
import shlex
from pathlib import Path

import pytest

from pathcorr.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str) -> str:
    """The first fenced block under the level-2 ``heading``."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(r"^```\w*\n(.*?)^```$", section, re.S | re.M).group(1)


COMMANDS = [shlex.split(line) for line in _block("Command line").splitlines()]
(SAMPLE,) = [argv for argv in COMMANDS if argv[1] == "sample"]


def test_library_block_runs():
    exec(compile(_block("Library at a glance"), "README.md", "exec"), {})


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[" ".join(a for a in argv[1:3] if not a.startswith("-")) for argv in COMMANDS]
)
def test_command_line_example_runs(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main(SAMPLE[1:]) == 0
    inputs = {"graph.json": "sample.json", "in.json": "sample.json"}
    assert main([inputs.get(a, a).strip("[]") for a in argv[1:]]) == 0
